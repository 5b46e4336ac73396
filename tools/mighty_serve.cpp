// mighty-serve: the optimization-as-a-service daemon.
//
// Owns one hot flow::Session (NPN-4 database + persistent 5-input oracle
// cache + two-level thread pool) and serves it to any number of concurrent
// clients over a unix-domain socket speaking the length-prefixed protocol of
// docs/protocol.md.  Every client skips cold start: the database loads once,
// and every job's 5-input syntheses land in one shared cache that persists
// across daemon restarts.
//
//   $ mighty_serve --socket /run/mighty.sock --cache /var/cache/5cut.db
//                  --threads 8 --jobs 2 --warm
//
//   --socket <path>   unix socket to listen on (required)
//   --cache <path>    persistent 5-input oracle cache (optional)
//   --db <path>       NPN-4 database ($MIGHTY_DB_PATH / default otherwise)
//   --threads <n>     shard parallelism within a job (default 1)
//   --jobs <n>        concurrent jobs (default 1: strict submission order)
//   --check <level>   off | fast | full between-pass invariant checking
//   --warm            materialize database + oracle + cache before listening
//
// Shutdown: SIGTERM/SIGINT or a client SHUTDOWN frame.  All three funnel
// into one path — finish running jobs, refuse new ones, persist the cache
// through the idempotent Session::persist(), close the socket — so a
// service manager's TERM and a client's SHUTDOWN are indistinguishable.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "api/api.hpp"
#include "serve/server.hpp"

namespace {

// Self-pipe: the only thing a signal handler may safely do is write a byte;
// the main thread blocks in read() and runs the real shutdown afterwards.
int g_wake_pipe[2] = {-1, -1};

extern "C" void handle_signal(int) {
  const char byte = 1;
  // Best effort; if the pipe is somehow full a shutdown is already pending.
  [[maybe_unused]] const ssize_t n = write(g_wake_pipe[1], &byte, 1);
}

const char* flag_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mighty;

  const char* socket_path = flag_value(argc, argv, "--socket");
  if (socket_path == nullptr) {
    std::fprintf(stderr,
                 "usage: mighty_serve --socket <path> [--cache <path>] "
                 "[--db <path>] [--threads <n>] [--jobs <n>] "
                 "[--check off|fast|full] [--warm]\n");
    return 2;
  }

  api::LocalService::Params params;
  if (const char* cache = flag_value(argc, argv, "--cache")) {
    params.session.oracle_cache_path = cache;
  }
  if (const char* db = flag_value(argc, argv, "--db")) {
    params.session.database_path = db;
  }
  if (const char* threads = flag_value(argc, argv, "--threads")) {
    params.session.threads = static_cast<uint32_t>(std::strtoul(threads, nullptr, 10));
  }
  if (const char* jobs = flag_value(argc, argv, "--jobs")) {
    params.job_workers = static_cast<uint32_t>(std::strtoul(jobs, nullptr, 10));
  }

  if (pipe(g_wake_pipe) != 0) {
    std::perror("mighty_serve: pipe");
    return 1;
  }
  // A client that disconnects mid-reply must surface as a failed send on
  // that connection, not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);

  int exit_code = 0;
  try {
    api::LocalService service(params);
    if (const char* level = flag_value(argc, argv, "--check")) {
      if (std::strcmp(level, "off") == 0) {
        service.session().set_check_level(flow::CheckLevel::off);
      } else if (std::strcmp(level, "fast") == 0) {
        service.session().set_check_level(flow::CheckLevel::fast);
      } else if (std::strcmp(level, "full") == 0) {
        service.session().set_check_level(flow::CheckLevel::full);
      } else {
        std::fprintf(stderr, "mighty_serve: unknown check level '%s'\n", level);
        return 2;
      }
    }
    if (has_flag(argc, argv, "--warm")) {
      // Pay the cold start now, before the first client connects.
      service.session().oracle();
      const auto cache = service.cache_stats();
      std::printf("mighty_serve: warm (%zu cached 5-input syntheses)\n",
                  cache.entries);
    }

    serve::ServerParams server_params;
    server_params.socket_path = socket_path;
    // A client SHUTDOWN lands on the same self-pipe as SIGTERM: one wake,
    // one wind-down path.
    server_params.on_shutdown_request = [] { handle_signal(0); };
    serve::Server server(service, server_params);
    std::printf("mighty_serve: listening on %s\n", socket_path);
    std::fflush(stdout);

    char byte = 0;
    while (read(g_wake_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }

    std::printf("mighty_serve: shutting down\n");
    // Order matters: shutting the service down first finishes running jobs
    // and wakes every connection blocked in result(); only then can the
    // server join its connection threads without deadlocking.
    service.shutdown();
    server.stop();
    std::printf("mighty_serve: cache persisted, bye\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mighty_serve: %s\n", e.what());
    exit_code = 1;
  }
  close(g_wake_pipe[0]);
  close(g_wake_pipe[1]);
  return exit_code;
}

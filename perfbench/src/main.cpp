// The repository benchmark binary (perfbench/run.py builds and invokes it).
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 --db FILE --state DIR [--trace-out FILE] [--socket PATH]
//   perfbench prepare --db FILE --state DIR [--socket PATH]
//
// `run` prints human-readable progress lines and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// `prepare` builds the per-build state (the serve_warm warm cache).
// Exit codes: 0 success (the JSON says whether the outputs were correct),
// 1 error, 2 usage, 3 build hazard (benchmark and library compiled
// differently).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "build_config.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 "
               "--db FILE --state DIR [--trace-out FILE] [--socket PATH]\n"
               "       perfbench prepare --db FILE --state DIR [--socket PATH]\n");
  return 2;
}

std::string result_json(const perfbench::Outcome& outcome) {
  std::string out = "{\"correct\": ";
  out += outcome.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const auto& m = outcome.metrics[i];
    if (i > 0) out += ", ";
    out += perfbench::json_string(m.name) + ": {\"value\": " +
           perfbench::json_number(m.value) + ", \"unit\": " + perfbench::json_string(m.unit) +
           "}";
  }
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage("missing command");
  const std::string command = argv[1];
  if (command != "run" && command != "prepare") return usage("unknown command");

  perfbench::Options options;
  options.socket_path = "perfbench.sock";
  std::string trace_flag = "0";
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace_flag = value;
    } else if (flag == "--db") {
      options.db_path = value;
    } else if (flag == "--state") {
      options.state_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--socket") {
      options.socket_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (trace_flag != "0" && trace_flag != "1") return usage("--trace takes 0 or 1");
  options.trace = trace_flag == "1";
  if (options.db_path.empty() || options.state_dir.empty()) {
    return usage("--db and --state are required");
  }

  const std::string mismatch = perfbench::describe_mismatch(
      perfbench::library_build_config(), perfbench::benchmark_build_config());
  if (!mismatch.empty()) {
    std::fprintf(stderr,
                 "perfbench: build hazard, refusing to run: the benchmark was compiled "
                 "with a different configuration than libmighty (%s)\n",
                 mismatch.c_str());
    return 3;
  }

  try {
    if (command == "prepare") {
      perfbench::prepare(options);
      return 0;
    }
    bool known = false;
    for (const auto& name : perfbench::workload_names()) known = known || name == options.workload;
    if (!known) return usage(("unknown workload '" + options.workload + "'").c_str());
    if (!(options.seconds > 0)) return usage("--seconds must be positive");
    const perfbench::Outcome outcome = perfbench::run_workload(options);
    for (const auto& problem : outcome.problems) std::printf("PROBLEM %s\n", problem.c_str());
    std::printf("%s\n", result_json(outcome).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

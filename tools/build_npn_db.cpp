// Builds (or verifies) the on-disk NPN-4 database of minimum MIGs and prints
// where it lives.  Used as the ctest fixture that the database-dependent
// tests share, and handy for warming the cache before benchmarking:
//
//   $ MIGHTY_DB_PATH=build/data/mig_npn4.db ./build/build_npn_db
//
// With --cache <path> it additionally validates a persistent 5-input oracle
// cache file (the class-keyed `mighty-mig-5cut-cache v2` format, or a v1
// file, which loading migrates): loads it through the same wholesale
// validation every session uses and prints its stats.  A missing file is
// fine (it appears on first save); a malformed one fails the run — useful
// for checking a CI-restored cache before benches rely on it.
//
// With --lint the deep artifact linters (check/check.hpp) run on top: the
// database entries are re-checked for canonical-form keys, realizing chains
// and the Theorem-2 size bound, and a --cache file gets the per-line
// diagnostics of the one cache-file reader the loader also runs (so the
// lint finds an error exactly when the load above rejects the file) plus a
// sorted-keys warning.  Lint warnings are printed but only errors fail the
// run.

#include <cstdio>
#include <cstring>

#include "check/check.hpp"
#include "exact/database.hpp"
#include "opt/oracle.hpp"

int main(int argc, char** argv) {
  using namespace mighty;
  bool lint = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lint") == 0) lint = true;
  }

  const std::string path = exact::default_database_path();
  const auto db = exact::Database::load_or_build(path);
  printf("NPN-4 database: %zu classes at %s\n", db.num_entries(), path.c_str());
  bool ok = db.num_entries() == 222;

  if (lint) {
    const auto report = check::lint_database(db);
    fputs(report.summary().c_str(), stdout);
    ok = ok && report.ok();
  }

  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--cache") != 0) continue;
    const char* cache_path = argv[i + 1];
    opt::ReplacementOracle oracle(db);
    const auto result = oracle.load_cache(cache_path);
    using Status = opt::ReplacementOracle::CacheLoadStatus;
    if (result.status == Status::missing) {
      printf("5-cut cache: no file at %s yet (created on first save)\n", cache_path);
    } else if (result.status == Status::malformed) {
      fprintf(stderr, "5-cut cache: %s is malformed\n", cache_path);
      ok = false;
    } else {
      const auto stats = oracle.cache_stats();
      printf("5-cut cache: %zu entries at %s (%zu replacements, %zu failures)\n",
             stats.entries, cache_path, stats.successes, stats.failures);
    }
    // A missing cache is normal (it appears on first save): nothing to lint.
    if (lint && result.status != Status::missing) {
      const auto report = check::lint_cache_file(cache_path);
      fputs(report.summary().c_str(), stdout);
      ok = ok && report.ok();
    }
  }
  return ok ? 0 : 1;
}

// Fuzz target: the persistent 5-input oracle cache loader
// (ReplacementOracle::load_cache, src/opt/oracle.cpp).  The loader promises
// wholesale validation — a malformed file is rejected without touching the
// in-memory cache — so the answer is always `loaded` or `malformed` (a
// stream is never `missing`), a loaded stream reports entries >= adopted,
// and loading never crashes.  Into a fresh oracle:
//   * a loaded v2 file (one line per class representative) is adopted
//     line for line;
//   * a loaded v1 file (one line per raw function) is migrated onto NPN
//     classes, so the cache holds exactly the distinct classes of its lines;
//   * a rejected file leaves the cache empty;
//   * linting the same text (check::lint_cache) reports no error exactly
//     when the loader accepts it: both run the one cache-file reader.
// The oracle sits on an empty database: the loader path never consults it.

#include <set>
#include <sstream>
#include <string>

#include "check/check.hpp"
#include "driver.hpp"
#include "exact/database.hpp"
#include "npn/npn.hpp"
#include "opt/oracle.hpp"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 16)) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);

  const mighty::exact::Database empty_db;
  mighty::opt::ReplacementOracle oracle(empty_db);

  std::istringstream is(text);
  const auto result = oracle.load_cache(is);
  using Status = mighty::opt::ReplacementOracle::CacheLoadStatus;
  FUZZ_REQUIRE(result.status != Status::missing);
  FUZZ_REQUIRE(result.adopted <= result.entries);
  const size_t cached = oracle.cache_stats().entries;
  std::istringstream lint_input(text);
  FUZZ_REQUIRE(mighty::check::lint_cache(lint_input).ok() ==
               (result.status == Status::loaded));
  if (result.status != Status::loaded) {
    // Rejection is wholesale: nothing may leak into the cache.
    FUZZ_REQUIRE(cached == 0);
    return 0;
  }
  // The loader accepted the text, so its header and every line's key parse.
  std::istringstream lines(text);
  std::string line, magic, version;
  std::getline(lines, line);
  std::istringstream(line) >> magic >> version;
  if (version == "v2") {
    FUZZ_REQUIRE(result.adopted == result.entries);
    FUZZ_REQUIRE(cached == result.entries);
    return 0;
  }
  std::set<uint64_t> classes;
  while (std::getline(lines, line)) {
    std::string hex;
    if (!(std::istringstream(line) >> hex)) continue;
    const auto f = mighty::tt::TruthTable::from_hex(5, hex);
    classes.insert(mighty::npn::canonize(f).representative.bits());
  }
  FUZZ_REQUIRE(result.adopted == classes.size());
  FUZZ_REQUIRE(cached == classes.size());
  return 0;
}

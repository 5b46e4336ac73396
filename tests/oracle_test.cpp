#include "opt/oracle.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "cec/cec.hpp"
#include "check/check.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/simulation.hpp"
#include "opt/rewrite.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace mighty::opt {
namespace {

const exact::Database& db() {
  static const exact::Database instance =
      exact::Database::load_or_build(exact::default_database_path());
  return instance;
}

TEST(OracleTest, FourInputPathMatchesDatabase) {
  ReplacementOracle oracle(db());
  std::mt19937 rng(1);
  for (int i = 0; i < 100; ++i) {
    const tt::TruthTable f(4, rng());
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->size, db().lookup(f).entry->chain.size());
  }
}

TEST(OracleTest, InstantiateReconstructsFunction) {
  ReplacementOracle oracle(db());
  std::mt19937 rng(2);
  for (int i = 0; i < 200; ++i) {
    const tt::TruthTable f(4, rng());
    ASSERT_TRUE(oracle.query(f).has_value());
    mig::Mig m;
    const auto pis = m.create_pis(4);
    m.create_po(oracle.instantiate(f, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f) << "f=0x" << f.to_hex();
  }
}

TEST(OracleTest, SmallSupportShrinksToDatabase) {
  ReplacementOracle oracle(db());
  // A 5-variable function whose support is only 3 variables must go through
  // the 4-input database, not on-demand synthesis.
  const auto f = (tt::TruthTable::projection(5, 1) & tt::TruthTable::projection(5, 3)) ^
                 tt::TruthTable::projection(5, 4);
  const auto info = oracle.query(f);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(oracle.synthesized_count(), 0u);
  EXPECT_EQ(info->input_depths[0], -1);
  EXPECT_EQ(info->input_depths[2], -1);
  EXPECT_GE(info->input_depths[1], 1);

  mig::Mig m;
  const auto pis = m.create_pis(5);
  m.create_po(oracle.instantiate(f, m, pis));
  EXPECT_EQ(mig::output_truth_tables(m)[0], f);
}

TEST(OracleTest, FiveInputSynthesisOnDemand) {
  ReplacementOracle oracle(db());

  tt::TruthTable maj5(5);
  for (uint32_t m = 0; m < 32; ++m) maj5.set_bit(m, __builtin_popcount(m) >= 3);
  const auto info = oracle.query(maj5);
  ASSERT_TRUE(info.has_value());
  EXPECT_GE(oracle.synthesized_count(), 1u);
  // <x1..x5> is known to need 4 majority gates.
  EXPECT_EQ(info->size, 4u);

  mig::Mig m;
  const auto pis = m.create_pis(5);
  m.create_po(oracle.instantiate(maj5, m, pis));
  EXPECT_EQ(mig::output_truth_tables(m)[0], maj5);

  // Second query must be served from the cache.
  const auto before = oracle.synthesized_count();
  ASSERT_TRUE(oracle.query(maj5).has_value());
  EXPECT_EQ(oracle.synthesized_count(), before);
}

TEST(OracleTest, FiveInputStructuredFunctionsRoundTrip) {
  // Structured functions, the kind real cuts produce (random 5-variable
  // functions need ~10+ gates and routinely exhaust the synthesis budget,
  // which the oracle reports as "no replacement" -- see the next test).
  ReplacementOracle oracle(db());
  const auto x = [](uint32_t v) { return tt::TruthTable::projection(5, v); };
  const std::vector<tt::TruthTable> functions = {
      x(0) & x(1) & x(2) & x(3) & x(4),                       // and5
      (x(0) & x(1)) | (x(2) & x(3) & x(4)),                   // and-or
      tt::TruthTable::maj(x(0), x(1), tt::TruthTable::maj(x(2), x(3), x(4))),
      tt::TruthTable::ite(x(4), x(0) & x(1), x(2) | x(3)),    // mux of and/or
      (x(0) ^ x(1)) & (x(2) | x(3)) & x(4),
  };
  for (const auto& f : functions) {
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value()) << "f=0x" << f.to_hex();
    mig::Mig m;
    const auto pis = m.create_pis(5);
    m.create_po(oracle.instantiate(f, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f) << "f=0x" << f.to_hex();
  }
  EXPECT_GT(oracle.synthesized_count(), 0u);
}

TEST(OracleTest, BudgetExhaustionIsReportedAsNoReplacement) {
  OracleParams params;
  params.synthesis_conflict_limit = 1;  // starve the solver
  params.max_gates = 12;
  ReplacementOracle oracle(db(), params);
  std::mt19937_64 rng(3);
  tt::TruthTable f(5, rng());
  while (f.support_size() < 5) f = tt::TruthTable(5, rng());
  EXPECT_FALSE(oracle.query(f).has_value());
  EXPECT_GE(oracle.synthesis_failures(), 1u);
}

// --- persistent 5-input cache ------------------------------------------------

namespace fs = std::filesystem;
using testutil::ScratchDir;

tt::TruthTable maj5_table() {
  tt::TruthTable maj5(5);
  for (uint32_t m = 0; m < 32; ++m) maj5.set_bit(m, __builtin_popcount(m) >= 3);
  return maj5;
}

std::vector<tt::TruthTable> structured_five_input_functions() {
  const auto x = [](uint32_t v) { return tt::TruthTable::projection(5, v); };
  return {
      x(0) & x(1) & x(2) & x(3) & x(4),
      (x(0) & x(1)) | (x(2) & x(3) & x(4)),
      tt::TruthTable::maj(x(0), x(1), tt::TruthTable::maj(x(2), x(3), x(4))),
      tt::TruthTable::ite(x(4), x(0) & x(1), x(2) | x(3)),
      (x(0) ^ x(1)) & (x(2) | x(3)) & x(4),
  };
}

TEST(OracleCacheTest, SaveLoadRoundTripServesWithoutSynthesis) {
  ScratchDir scratch("mighty_oracle_roundtrip");
  const auto path = (scratch.dir / "c5.db").string();

  std::vector<ReplacementOracle::Info> expected;
  {
    ReplacementOracle oracle(db());
    for (const auto& f : structured_five_input_functions()) {
      const auto info = oracle.query(f);
      ASSERT_TRUE(info.has_value());
      expected.push_back(*info);
    }
    EXPECT_GT(oracle.synthesized_count(), 0u);
    const auto stats = oracle.cache_stats();
    EXPECT_EQ(stats.dirty, stats.entries);
    EXPECT_EQ(oracle.save_cache(path), stats.entries);
    EXPECT_EQ(oracle.cache_stats().dirty, 0u);
  }

  // A process-equivalent fresh oracle: only the file is shared.
  ReplacementOracle oracle(db());
  const auto loaded = oracle.load_cache(path);
  EXPECT_EQ(loaded.status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(loaded.adopted, loaded.entries);
  const auto functions = structured_five_input_functions();
  for (size_t i = 0; i < functions.size(); ++i) {
    const auto info = oracle.query(functions[i]);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->size, expected[i].size);
    EXPECT_EQ(info->depth, expected[i].depth);
    EXPECT_EQ(info->input_depths, expected[i].input_depths);
    // The loaded chain must still realize the function when instantiated.
    mig::Mig m;
    const auto pis = m.create_pis(5);
    m.create_po(oracle.instantiate(functions[i], m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], functions[i]);
  }
  EXPECT_EQ(oracle.synthesized_count(), 0u) << "cached functions were re-synthesized";
  // Nothing changed, so a re-save to the same file is skipped entirely.
  EXPECT_EQ(oracle.save_cache(path), 0u);
}

TEST(OracleCacheTest, MissingFileIsNotAnError) {
  ReplacementOracle oracle(db());
  const auto result = oracle.load_cache("/nonexistent/mighty/c5.db");
  EXPECT_EQ(result.status, ReplacementOracle::CacheLoadStatus::missing);
  EXPECT_EQ(oracle.cache_stats().entries, 0u);
}

TEST(OracleCacheTest, CorruptedFilesRejectedWithoutMerging) {
  ScratchDir scratch("mighty_oracle_corrupt");

  // A valid one-entry file to mutate.
  const auto valid = (scratch.dir / "valid.db").string();
  {
    ReplacementOracle oracle(db());
    ASSERT_TRUE(oracle.query(maj5_table()).has_value());
    ASSERT_EQ(oracle.save_cache(valid), 1u);
  }
  std::string body;
  {
    std::ifstream is(valid);
    std::stringstream ss;
    ss << is.rdbuf();
    body = ss.str();
  }
  const auto entry_line = body.substr(body.find('\n') + 1);

  const auto expect_rejected = [&](const char* name, const std::string& contents) {
    const auto path = (scratch.dir / name).string();
    std::ofstream(path) << contents;
    ReplacementOracle oracle(db());
    const auto result = oracle.load_cache(path);
    EXPECT_EQ(result.status, ReplacementOracle::CacheLoadStatus::malformed) << name;
    EXPECT_EQ(oracle.cache_stats().entries, 0u)
        << name << ": rejected file partially merged";
  };

  expect_rejected("bad_magic.db", "not-a-cache v1 0\n");
  expect_rejected("bad_version.db", "mighty-mig-5cut-cache v99 0\n");
  // A garbage header count must come back malformed, not throw from an
  // attempted petabyte reserve.
  expect_rejected("huge_count.db", "mighty-mig-5cut-cache v1 10000000000000000\n");
  expect_rejected("hex_too_long.db",
                  "mighty-mig-5cut-cache v1 1\nfffffffff fail 100 0\n");
  expect_rejected("hex_too_short.db", "mighty-mig-5cut-cache v1 1\nff fail 100 0\n");
  expect_rejected("fail_trailing_garbage.db",
                  "mighty-mig-5cut-cache v1 1\nffffffff fail 100 0 junk\n");
  {
    // Trailing tokens after a valid chain must not round-trip silently.
    std::string ok_line = entry_line;
    while (!ok_line.empty() && ok_line.back() == '\n') ok_line.pop_back();
    expect_rejected("ok_trailing_garbage.db",
                    "mighty-mig-5cut-cache v1 1\n" + ok_line + " 7 7 7\n");
  }
  expect_rejected("truncated.db",
                  body.substr(0, body.size() - entry_line.size() / 2));
  expect_rejected("count_mismatch.db", "mighty-mig-5cut-cache v1 2\n" + entry_line);
  expect_rejected("duplicate.db",
                  "mighty-mig-5cut-cache v1 2\n" + entry_line + entry_line);
  expect_rejected("garbage_line.db",
                  "mighty-mig-5cut-cache v1 1\nzzzz nope 1 2\n");
  // The same defects under the class-keyed v2 header (the saved body and
  // its line are v2 already).
  expect_rejected("count_mismatch_v2.db", "mighty-mig-5cut-cache v2 2\n" + entry_line);
  expect_rejected("duplicate_v2.db",
                  "mighty-mig-5cut-cache v2 2\n" + entry_line + entry_line);
  expect_rejected("garbage_line_v2.db",
                  "mighty-mig-5cut-cache v2 1\nzzzz nope 1 2\n");
  // A chain filed under the wrong function must fail the simulation check:
  // swap the truth-table hex of the valid entry for a different function.
  const auto other = maj5_table() ^ tt::TruthTable::projection(5, 0);
  expect_rejected("wrong_function.db",
                  "mighty-mig-5cut-cache v1 1\n" + other.to_hex() +
                      entry_line.substr(entry_line.find(' ')));
}

TEST(OracleCacheTest, OverLongLineRejectedAfterABoundedRead) {
  // A 64 MB line must be turned down after a bounded prefix of it, not after
  // it was buffered whole; the loader and the lint run the same reader.
  constexpr size_t kLine = size_t{64} << 20;
  const std::string header = "mighty-mig-5cut-cache v2 1\n";
  {
    testutil::GeneratedStreamBuf buf(header, '0', kLine);
    std::istream is(&buf);
    ReplacementOracle oracle(db());
    EXPECT_EQ(oracle.load_cache(is).status,
              ReplacementOracle::CacheLoadStatus::malformed);
    EXPECT_EQ(oracle.cache_stats().entries, 0u);
    EXPECT_LT(buf.consumed(), size_t{1} << 20);
  }
  {
    testutil::GeneratedStreamBuf buf(header, '0', kLine);
    std::istream is(&buf);
    const auto report = check::lint_cache(is);
    ASSERT_TRUE(report.has(check::Code::artifact_entry)) << report.summary();
    EXPECT_EQ(report.find(check::Code::artifact_entry)->node, 2u);
    EXPECT_LT(buf.consumed(), size_t{1} << 20);
  }
}

TEST(OracleCacheTest, NegativeFailureBudgetRejected) {
  const auto f = maj5_table();
  const auto line = [&](const char* budget) {
    return "mighty-mig-5cut-cache v2 1\n" + npn::canonize(f).representative.to_hex() +
           " fail " + budget + " 0\n";
  };
  {
    // Below -1 is no budget the oracle writes; ranked as "proved absent" it
    // would freeze maj5's class, so the file is rejected wholesale.
    ReplacementOracle oracle(db());
    std::istringstream is(line("-5"));
    EXPECT_EQ(oracle.load_cache(is).status,
              ReplacementOracle::CacheLoadStatus::malformed);
    EXPECT_EQ(oracle.cache_stats().entries, 0u);
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->size, 4u);
    EXPECT_EQ(oracle.synthesized_count(), 1u);
  }
  {
    // -1 is the oracle's own "proved absent": loaded and authoritative.
    ReplacementOracle oracle(db());
    std::istringstream is(line("-1"));
    EXPECT_EQ(oracle.load_cache(is).status, ReplacementOracle::CacheLoadStatus::loaded);
    EXPECT_FALSE(oracle.query(f).has_value());
    EXPECT_EQ(oracle.synthesized_count(), 0u);
  }
}

TEST(OracleCacheTest, SuccessBeatsFailureOnMerge) {
  ScratchDir scratch("mighty_oracle_merge");
  const auto path = (scratch.dir / "c5.db").string();
  const auto f = maj5_table();

  // A rich session knows the answer and persists it...
  OracleParams rich;
  {
    ReplacementOracle oracle(db(), rich);
    ASSERT_TRUE(oracle.query(f).has_value());
    ASSERT_EQ(oracle.save_cache(path), 1u);
  }

  // ...a starved oracle records a failure for the same function, then loads
  // the file: the cached success must win and answer future queries.
  OracleParams starved = rich;
  starved.synthesis_conflict_limit = 1;
  ReplacementOracle oracle(db(), starved);
  EXPECT_FALSE(oracle.query(f).has_value());
  const auto loaded = oracle.load_cache(path);
  EXPECT_EQ(loaded.status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(loaded.adopted, 1u);
  const auto info = oracle.query(f);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->size, 4u);
  const auto stats = oracle.cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.successes, 1u);
}

TEST(OracleCacheTest, BudgetUpgradeRetriesPersistedFailure) {
  ScratchDir scratch("mighty_oracle_budget");
  const auto path = (scratch.dir / "c5.db").string();
  const auto f = maj5_table();

  // A starved session caches (and persists) a conflict-limit failure.
  OracleParams starved;
  starved.synthesis_conflict_limit = 1;
  {
    ReplacementOracle oracle(db(), starved);
    EXPECT_FALSE(oracle.query(f).has_value());
    EXPECT_GE(oracle.synthesis_failures(), 1u);
    ASSERT_EQ(oracle.save_cache(path), 1u);
  }

  // Same budget: the failure is an authoritative cache hit, no retry.
  {
    ReplacementOracle oracle(db(), starved);
    ASSERT_EQ(oracle.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
    EXPECT_FALSE(oracle.query(f).has_value());
    EXPECT_EQ(oracle.synthesized_count(), 0u);
  }

  // Larger budget: the persisted failure must not freeze the answer — the
  // oracle re-attempts and succeeds, and persists the upgrade.
  OracleParams rich = starved;
  rich.synthesis_conflict_limit = 200000;
  {
    ReplacementOracle oracle(db(), rich);
    ASSERT_EQ(oracle.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->size, 4u);
    EXPECT_EQ(oracle.synthesized_count(), 1u);
    EXPECT_EQ(oracle.save_cache(path), 1u);  // upgraded entry is dirty again
  }

  // The upgraded success now serves even a starved session from the file.
  {
    ReplacementOracle oracle(db(), starved);
    ASSERT_EQ(oracle.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
    EXPECT_TRUE(oracle.query(f).has_value());
    EXPECT_EQ(oracle.synthesized_count(), 0u);
  }
}

TEST(OracleCacheTest, SaveToNewPathAfterCleanLoadStillWrites) {
  ScratchDir scratch("mighty_oracle_newpath");
  const auto path_a = (scratch.dir / "a.db").string();
  const auto path_b = (scratch.dir / "b.db").string();

  {
    ReplacementOracle oracle(db());
    ASSERT_TRUE(oracle.query(maj5_table()).has_value());
    ASSERT_EQ(oracle.save_cache(path_a), 1u);
  }
  {
    // A stale file at b: a different function's cache from another session.
    ReplacementOracle oracle(db());
    ASSERT_TRUE(oracle.query(structured_five_input_functions()[0]).has_value());
    ASSERT_EQ(oracle.save_cache(path_b), 1u);
  }

  // Loading a leaves the cache clean — but saving to b must still write:
  // the clean-skip only applies to the path the cache is known to live at.
  ReplacementOracle oracle(db());
  ASSERT_EQ(oracle.load_cache(path_a).status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(oracle.cache_stats().dirty, 0u);
  EXPECT_EQ(oracle.save_cache(path_b), 1u) << "stale file at new path kept";
  // b now holds a's contents: a fresh oracle must answer maj5 from it.
  ReplacementOracle check(db());
  ASSERT_EQ(check.load_cache(path_b).status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_TRUE(check.query(maj5_table()).has_value());
  EXPECT_EQ(check.synthesized_count(), 0u);
}

TEST(OracleCacheTest, SaveIsAtomicAndSkipsCleanCaches) {
  ScratchDir scratch("mighty_oracle_atomic");
  const auto path = (scratch.dir / "c5.db").string();
  ReplacementOracle oracle(db());
  ASSERT_TRUE(oracle.query(maj5_table()).has_value());
  EXPECT_EQ(oracle.save_cache(path), 1u);
  EXPECT_EQ(oracle.save_cache(path), 0u);  // clean cache: file untouched
  // Dirty it again: a new function forces a full (atomic) rewrite.
  ASSERT_TRUE(oracle.query(structured_five_input_functions()[0]).has_value());
  EXPECT_EQ(oracle.save_cache(path), 2u);
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(scratch.dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u) << "temp files left behind";
}

// --- NPN5 class keying -----------------------------------------------------------

/// Members of the structured classes: each function under a few seeded NPN
/// transforms (symmetric functions may repeat a member; that is fine).
std::vector<tt::TruthTable> class_members() {
  std::mt19937 rng(14);
  const auto perms = npn::all_permutations(5);
  std::vector<tt::TruthTable> members;
  for (const auto& f : structured_five_input_functions()) {
    members.push_back(f);
    for (int i = 0; i < 4; ++i) {
      npn::Transform t;
      t.num_vars = 5;
      t.perm = perms[rng() % perms.size()];
      t.input_negations = static_cast<uint8_t>(rng() & 0x1f);
      t.output_negation = (rng() & 1) != 0;
      members.push_back(npn::apply(f, t));
    }
  }
  return members;
}

size_t distinct_classes(const std::vector<tt::TruthTable>& functions) {
  std::set<uint64_t> classes;
  for (const auto& f : functions) classes.insert(npn::canonize(f).representative.bits());
  return classes.size();
}

/// What the oracle answers for a member, down to the instantiated structure.
struct MemberAnswer {
  ReplacementOracle::Info info;
  std::string blif;
};

MemberAnswer answer(ReplacementOracle& oracle, const tt::TruthTable& f) {
  const auto info = oracle.query(f);
  if (!info) throw std::runtime_error("no answer for 0x" + f.to_hex());
  mig::Mig m;
  const auto pis = m.create_pis(5);
  m.create_po(oracle.instantiate(f, m, pis));
  if (mig::output_truth_tables(m)[0] != f) throw std::runtime_error("wrong function");
  std::ostringstream os;
  io::write_blif(os, m);
  return {*info, os.str()};
}

void expect_same_answers(const std::vector<MemberAnswer>& a, const std::vector<MemberAnswer>& b,
                         const std::vector<tt::TruthTable>& members) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].info.size, b[i].info.size) << "f=0x" << members[i].to_hex();
    EXPECT_EQ(a[i].info.depth, b[i].info.depth) << "f=0x" << members[i].to_hex();
    EXPECT_EQ(a[i].info.input_depths, b[i].info.input_depths) << "f=0x" << members[i].to_hex();
    EXPECT_EQ(a[i].blif, b[i].blif) << "f=0x" << members[i].to_hex();
  }
}

// An answer depends only on the function: members of one class get the same
// Info and the same instantiated structure whichever member is queried
// first, and whether one thread queries or four do.  Only the class
// representatives are synthesized.
TEST(OracleClassTest, AnswersDoNotDependOnQueryOrderOrThreads) {
  const auto members = class_members();
  const size_t classes = distinct_classes(members);
  ASSERT_EQ(classes, structured_five_input_functions().size());

  ReplacementOracle forward(db());
  std::vector<MemberAnswer> in_order;
  for (const auto& f : members) in_order.push_back(answer(forward, f));
  EXPECT_EQ(forward.synthesized_count(), classes);
  EXPECT_EQ(forward.cache_stats().entries, classes);

  ReplacementOracle backward(db());
  std::vector<MemberAnswer> reversed(members.size());
  for (size_t i = members.size(); i-- > 0;) reversed[i] = answer(backward, members[i]);
  EXPECT_EQ(backward.synthesized_count(), classes);
  expect_same_answers(in_order, reversed, members);

  ReplacementOracle shared(db());
  std::vector<MemberAnswer> threaded(members.size());
  util::ThreadPool pool(4);
  pool.parallel_for(members.size(),
                    [&](size_t i) { threaded[i] = answer(shared, members[i]); });
  EXPECT_EQ(shared.synthesized_count(), classes);
  EXPECT_EQ(shared.cache5_hits(), forward.cache5_hits());
  expect_same_answers(in_order, threaded, members);
}

// The v1 fixture shared with the fuzz seeds: 0000ffff and aaaaaaaa are both
// projections, so one class; the success beats the failure.  Migrated
// entries are dirty, and the next save writes them back as v2 lines keyed by
// representatives, which a fresh oracle adopts line for line.
// --- stored input depths ---------------------------------------------------------

/// A random NPN transform over `num_vars` variables.
npn::Transform random_transform(uint32_t num_vars, std::mt19937& rng) {
  const auto perms = npn::all_permutations(num_vars);
  npn::Transform t;
  t.num_vars = static_cast<uint8_t>(num_vars);
  t.perm = perms[rng() % perms.size()];
  t.input_negations = static_cast<uint8_t>(rng() & ((1u << num_vars) - 1));
  t.output_negation = (rng() & 1) != 0;
  return t;
}

/// What a query for `f` (support at most four) reports, computed from
/// scratch: the class chain's chain_input_depths, mapped onto f's variables
/// through the database lookup's transform.
ReplacementOracle::Info database_reference(const tt::TruthTable& f) {
  std::vector<uint32_t> old_vars;
  const auto g = f.shrink_to_support(old_vars).extend(4);
  const auto lookup = db().lookup(g);
  const auto inv = npn::inverse(lookup.transform);
  const auto depths = chain_input_depths(lookup.entry->chain);
  ReplacementOracle::Info info;
  info.size = lookup.entry->chain.size();
  info.depth = lookup.entry->chain.depth();
  for (uint32_t i = 0; i < 4; ++i) {
    if (depths[i] >= 0 && inv.perm[i] < old_vars.size()) {
      info.input_depths[old_vars[inv.perm[i]]] = depths[i];
    }
  }
  return info;
}

TEST(OracleDepthTest, DatabaseClassesMatchChainInputDepths) {
  ReplacementOracle oracle(db());
  std::mt19937 rng(22);
  ASSERT_EQ(db().entries().size(), 222u);
  for (const auto& entry : db().entries()) {
    // The representative, members of its class, and members embedded in
    // five variables with one of them unused.
    std::vector<tt::TruthTable> functions{entry.representative};
    for (int i = 0; i < 3; ++i) {
      functions.push_back(npn::apply(entry.representative, random_transform(4, rng)));
      functions.push_back(
          npn::apply(entry.representative.extend(5), random_transform(5, rng)));
    }
    for (const auto& f : functions) {
      const auto info = oracle.query(f);
      ASSERT_TRUE(info.has_value());
      const auto expected = database_reference(f);
      EXPECT_EQ(info->size, expected.size) << "f=0x" << f.to_hex();
      EXPECT_EQ(info->depth, expected.depth) << "f=0x" << f.to_hex();
      EXPECT_EQ(info->input_depths, expected.input_depths) << "f=0x" << f.to_hex();
    }
  }
}

TEST(OracleDepthTest, CachedChainsMatchChainInputDepths) {
  ScratchDir scratch("mighty_oracle_depths");
  const auto path = (scratch.dir / "c5.db").string();
  {
    ReplacementOracle oracle(db());
    for (const auto& f : structured_five_input_functions()) {
      ASSERT_TRUE(oracle.query(f).has_value());
    }
    oracle.save_cache(path);
  }
  std::ifstream is(path);
  const CacheFile file = read_cache_file(is, /*all_diagnostics=*/true);
  ASSERT_TRUE(file.report.ok()) << file.report.summary();

  ReplacementOracle oracle(db());
  ASSERT_EQ(oracle.load_cache(path).status, ReplacementOracle::CacheLoadStatus::loaded);
  std::mt19937 rng(23);
  size_t chains = 0;
  for (const auto& record : file.records) {
    if (!record.chain) continue;
    ++chains;
    const tt::TruthTable representative(5, record.key);
    std::vector<tt::TruthTable> functions{representative};
    for (int i = 0; i < 4; ++i) {
      functions.push_back(npn::apply(representative, random_transform(5, rng)));
    }
    for (const auto& f : functions) {
      // The chain the oracle answers f with: the class chain remapped onto f.
      const auto member =
          exact::apply_transform(*record.chain, npn::inverse(npn::canonize(f).transform));
      ASSERT_EQ(member.simulate(), f);
      const auto depths = chain_input_depths(member);
      const auto info = oracle.query(f);
      ASSERT_TRUE(info.has_value());
      EXPECT_EQ(info->size, member.size()) << "f=0x" << f.to_hex();
      EXPECT_EQ(info->depth, member.depth()) << "f=0x" << f.to_hex();
      for (uint32_t v = 0; v < tt::TruthTable::max_vars; ++v) {
        EXPECT_EQ(info->input_depths[v], v < depths.size() ? depths[v] : -1)
            << "f=0x" << f.to_hex() << " var " << v;
      }
    }
  }
  EXPECT_EQ(chains, distinct_classes(structured_five_input_functions()));
  EXPECT_EQ(oracle.synthesized_count(), 0u);
}

TEST(OracleCacheTest, V1CacheMigratesOntoClasses) {
  ScratchDir scratch("mighty_oracle_v1");
  ReplacementOracle oracle(db());
  std::istringstream v1(
      "mighty-mig-5cut-cache v1 3\n"
      "0000ffff fail 20000 17\n"
      "aaaaaaaa ok -1 0 5 0 2\n"
      "e8e8e8e8 ok 20000 137 5 1 12 2 4 6\n");
  const auto loaded = oracle.load_cache(v1);
  ASSERT_EQ(loaded.status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(loaded.entries, 3u);
  EXPECT_EQ(loaded.adopted, 2u);
  const auto stats = oracle.cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.successes, 2u);
  EXPECT_EQ(stats.dirty, 2u);

  const auto path = (scratch.dir / "c5.db").string();
  ASSERT_EQ(oracle.save_cache(path), 2u);
  std::ifstream is(path);
  std::stringstream written;
  written << is.rdbuf();
  EXPECT_EQ(written.str(),
            "mighty-mig-5cut-cache v2 2\n"
            "0000ffff ok -1 0 5 0 11\n"
            "000f0fff ok 20000 137 5 1 13 6 8 10\n");
  EXPECT_TRUE(check::lint_cache_file(path).diagnostics.empty());

  ReplacementOracle fresh(db());
  const auto reloaded = fresh.load_cache(path);
  ASSERT_EQ(reloaded.status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(reloaded.adopted, 2u);
  EXPECT_EQ(fresh.cache_stats().dirty, 0u);
}

// A v1 line carries one member's chain; after migration it serves every
// member of the class without synthesis.
TEST(OracleCacheTest, V1ChainServesItsWholeClass) {
  const auto members = class_members();
  const auto& f = members[6];  // a transformed and-or member
  exact::SynthesisOptions options;
  options.max_gates = 9;
  const auto synthesized = exact::synthesize_minimum_mig(f, options);
  ASSERT_EQ(synthesized.status, exact::SynthesisStatus::success);

  ReplacementOracle oracle(db());
  std::istringstream v1("mighty-mig-5cut-cache v1 1\n" + f.to_hex() + " ok 20000 0 " +
                        synthesized.chain.to_string() + "\n");
  ASSERT_EQ(oracle.load_cache(v1).status, ReplacementOracle::CacheLoadStatus::loaded);
  for (size_t i = 5; i < 10; ++i) {  // the and-or class
    const auto got = answer(oracle, members[i]);
    EXPECT_EQ(got.info.size, synthesized.chain.size());
  }
  EXPECT_EQ(oracle.synthesized_count(), 0u);
}

TEST(OracleCacheTest, V2RequiresRepresentativeKeys) {
  const auto load = [&](const std::string& text, size_t expected_entries) {
    ReplacementOracle oracle(db());
    std::istringstream is(text);
    const auto result = oracle.load_cache(is);
    EXPECT_EQ(oracle.cache_stats().entries, expected_entries) << text;
    return result;
  };
  // The checked-in v2 fuzz seed: every line is adopted.
  const auto ok = load(
      "mighty-mig-5cut-cache v2 3\n"
      "0000ffff ok -1 0 5 0 11\n"
      "0006215a fail 20000 42\n"
      "000f0fff ok 20000 137 5 1 13 6 8 10\n",
      3);
  EXPECT_EQ(ok.status, ReplacementOracle::CacheLoadStatus::loaded);
  EXPECT_EQ(ok.adopted, 3u);
  // x0 realizes its chain but is not its class's representative (0000ffff):
  // the whole file is rejected, valid lines included.
  EXPECT_EQ(load("mighty-mig-5cut-cache v2 2\n"
                 "0000ffff ok -1 0 5 0 11\n"
                 "aaaaaaaa ok -1 0 5 0 2\n",
                 0)
                .status,
            ReplacementOracle::CacheLoadStatus::malformed);
  EXPECT_EQ(load("mighty-mig-5cut-cache v2 1\ndeadbeef fail 300 42\n", 0).status,
            ReplacementOracle::CacheLoadStatus::malformed);
}

TEST(OracleTest, FiveInputRewritingPreservesFunction) {
  const auto baseline = algebra::depth_optimize(gen::make_adder_n(10));
  auto params = variant_params("TF");
  params.five_input_cuts = true;
  RewriteStats stats;
  const auto optimized = functional_hashing(baseline, db(), params, &stats);
  EXPECT_EQ(cec::check_equivalence(baseline, optimized).status,
            cec::CecStatus::equivalent);
  EXPECT_LE(stats.size_after, stats.size_before);
}

TEST(OracleTest, FiveInputRewritingAtLeastMatchesFourInput) {
  const auto baseline = algebra::depth_optimize(gen::make_sine_n(8));
  RewriteStats four, five;
  functional_hashing(baseline, db(), variant_params("TF"), &four);
  auto params = variant_params("TF");
  params.five_input_cuts = true;
  functional_hashing(baseline, db(), params, &five);
  // Wider cuts see strictly more replacement opportunities.
  EXPECT_LE(five.size_after, four.size_after);
}

}  // namespace
}  // namespace mighty::opt

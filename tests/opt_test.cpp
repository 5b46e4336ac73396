#include "opt/rewrite.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/simulation.hpp"
#include "opt/oracle.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace mighty::opt {
namespace {

const exact::Database& db() {
  static const exact::Database instance = [] {
    auto loaded = exact::Database::load(exact::default_database_path());
    if (!loaded) {
      // First run on a fresh checkout: build and cache (a few minutes).
      return exact::Database::load_or_build(exact::default_database_path());
    }
    return std::move(*loaded);
  }();
  return instance;
}

TEST(DatabaseTest, HistogramMatchesPaperTable1) {
  const auto histogram = db().size_histogram();
  const std::vector<uint32_t> expected{2, 2, 5, 18, 42, 117, 35, 1};
  EXPECT_EQ(histogram, expected);
}

TEST(DatabaseTest, EveryEntrySimulatesToItsRepresentative) {
  for (const auto& entry : db().entries()) {
    EXPECT_EQ(entry.chain.simulate(), entry.representative);
  }
}

TEST(DatabaseTest, LookupFindsEveryFunction) {
  std::mt19937 rng(1);
  for (int i = 0; i < 300; ++i) {
    const tt::TruthTable f(4, rng());
    const auto result = db().lookup(f);
    EXPECT_EQ(npn::apply(f, result.transform), result.entry->representative);
  }
}

TEST(DatabaseTest, InstantiateReconstructsFunction) {
  std::mt19937 rng(2);
  for (int i = 0; i < 300; ++i) {
    const tt::TruthTable f(4, rng());
    mig::Mig m;
    const auto pis = m.create_pis(4);
    m.create_po(db().instantiate(f, m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f) << "f=0x" << f.to_hex();
  }
}

TEST(DatabaseTest, InstantiateHandlesSmallSupport) {
  std::mt19937 rng(3);
  for (int i = 0; i < 100; ++i) {
    const tt::TruthTable f2(2, rng() & 0xf);
    mig::Mig m;
    const auto pis = m.create_pis(4);
    m.create_po(db().instantiate(f2.extend(4), m, pis));
    EXPECT_EQ(mig::output_truth_tables(m)[0], f2.extend(4));
  }
}

TEST(DatabaseTest, SaveLoadRoundTrip) {
  const std::string path = "/tmp/mighty_db_roundtrip.db";
  db().save(path);
  const auto loaded = exact::Database::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->num_entries(), db().num_entries());
  EXPECT_EQ(loaded->size_histogram(), db().size_histogram());
}

TEST(RewriteUtilTest, CutConeCountsInternalNodes) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto d = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(g1, c, d);
  m.create_po(g2);
  std::vector<uint32_t> cone;
  cut_cone(m, g2.index(), std::array{a.index(), b.index(), c.index(), d.index()}, cone);
  EXPECT_EQ(cone.size(), 2u);
}

TEST(RewriteUtilTest, ConeReplaceabilityDetectsExternalFanout) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_and(g1, a);
  const auto g3 = m.create_or(g1, b);  // external fanout of g1
  m.create_po(g2);
  m.create_po(g3);
  const auto fanout = m.compute_fanout_counts();
  std::vector<uint32_t> cone;
  cut_cone(m, g2.index(), std::array{a.index(), b.index(), c.index()}, cone);
  EXPECT_FALSE(cone_is_replaceable(m, cone, g2.index(), fanout));
  cut_cone(m, g2.index(), std::array{g1.index(), a.index()}, cone);
  EXPECT_TRUE(cone_is_replaceable(m, cone, g2.index(), fanout));
}

TEST(RewriteUtilTest, ChainInputDepths) {
  // carry = <x1 x2 x3>, sum = <!carry <x1 x2 !x3> x3>: x3 reaches the output
  // directly (depth 1 via mid) and through two levels.
  exact::MigChain chain;
  chain.num_vars = 3;
  chain.steps.push_back({{exact::make_ref_lit(1, false), exact::make_ref_lit(2, false),
                          exact::make_ref_lit(3, false)}});
  chain.steps.push_back({{exact::make_ref_lit(1, false), exact::make_ref_lit(2, false),
                          exact::make_ref_lit(3, true)}});
  chain.steps.push_back({{exact::make_ref_lit(4, true), exact::make_ref_lit(5, false),
                          exact::make_ref_lit(3, false)}});
  chain.output = exact::make_ref_lit(6, false);
  const auto depths = chain_input_depths(chain);
  EXPECT_EQ(depths, (std::vector<int>{2, 2, 2}));
}

TEST(RewriteUtilTest, VariantParamsParse) {
  EXPECT_EQ(variant_params("T").direction, Direction::top_down);
  EXPECT_EQ(variant_params("BF").direction, Direction::bottom_up);
  EXPECT_TRUE(variant_params("BF").ffr_partition);
  EXPECT_TRUE(variant_params("TFD").depth_preserving);
  EXPECT_TRUE(variant_params("TFD").ffr_partition);
  EXPECT_FALSE(variant_params("TD").ffr_partition);
  EXPECT_THROW(variant_params("X"), std::invalid_argument);
  EXPECT_THROW(variant_params("FD"), std::invalid_argument);
  EXPECT_EQ(all_variants().size(), 8u);
}

TEST(RewriteTest, ReducesRedundantParityToOptimum) {
  // 4-input parity built from three 3-gate XORs (9 gates); one 4-cut
  // replacement must reach the database optimum for the whole function.
  mig::Mig m;
  const auto pis = m.create_pis(4);
  const auto x01 = m.create_xor(pis[0], pis[1]);
  const auto x23 = m.create_xor(pis[2], pis[3]);
  m.create_po(m.create_xor(x01, x23));
  ASSERT_EQ(m.count_live_gates(), 9u);

  const auto parity = mig::output_truth_tables(m)[0];
  const uint32_t optimum = db().lookup(parity).entry->chain.size();

  RewriteStats stats;
  const auto optimized = functional_hashing(m, db(), variant_params("T"), &stats);
  EXPECT_EQ(optimized.count_live_gates(), optimum);
  EXPECT_EQ(mig::output_truth_tables(optimized)[0], parity);
  EXPECT_GE(stats.replacements, 1u);
  EXPECT_EQ(stats.size_before, 9u);
  EXPECT_EQ(stats.size_after, optimum);
}

class VariantTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VariantTest, PreservesFunctionOnRandomNetworks) {
  const auto params = variant_params(GetParam());
  for (uint32_t seed = 0; seed < 6; ++seed) {
    const auto m = testutil::random_mig(6, 60, 5, 42 + seed);
    RewriteStats stats;
    const auto optimized = functional_hashing(m, db(), params, &stats);
    const auto r = cec::check_equivalence(m, optimized);
    EXPECT_EQ(r.status, cec::CecStatus::equivalent)
        << GetParam() << " seed " << seed;
    if (params.direction == Direction::top_down) {
      EXPECT_LE(stats.size_after, stats.size_before) << GetParam();
    }
  }
}

TEST_P(VariantTest, PreservesFunctionOnArithmetic) {
  const auto params = variant_params(GetParam());
  const auto m = gen::make_multiplier_n(6);
  RewriteStats stats;
  const auto optimized = functional_hashing(m, db(), params, &stats);
  const auto r = cec::check_equivalence(m, optimized);
  EXPECT_EQ(r.status, cec::CecStatus::equivalent) << GetParam();
  EXPECT_GT(stats.size_before, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantTest,
                         ::testing::Values("T", "TD", "TF", "TFD", "B", "BD", "BF",
                                           "BFD"));

TEST(RewriteTest, TopDownReducesDepthOptimizedMultiplier) {
  // Paper pipeline: the functional-hashing input is a depth-optimized MIG
  // (Sec. V-C: "Most of the best results were obtained using the depth
  // reduction proposed in [3] and [4]").
  const auto baseline = algebra::depth_optimize(gen::make_multiplier_n(8));
  RewriteStats stats;
  const auto optimized = functional_hashing(baseline, db(), variant_params("TF"), &stats);
  EXPECT_LT(stats.size_after, stats.size_before);
}

TEST(RewriteTest, BottomUpReducesDepthOptimizedMultiplier) {
  const auto baseline = algebra::depth_optimize(gen::make_multiplier_n(8));
  RewriteStats stats;
  functional_hashing(baseline, db(), variant_params("B"), &stats);
  EXPECT_LT(stats.size_after, stats.size_before);
}

TEST(RewriteTest, PipelineEquivalenceOnAdder) {
  // End-to-end: generate -> algebraic depth optimization -> functional
  // hashing, then prove equivalence against the original generator output
  // with the SAT miter (adder miters are easy).
  const auto m = gen::make_adder_n(16);
  const auto baseline = algebra::depth_optimize(m);
  for (const auto& variant : {"TF", "BF"}) {
    const auto optimized = functional_hashing(baseline, db(), variant_params(variant));
    EXPECT_EQ(cec::check_equivalence(m, optimized).status, cec::CecStatus::equivalent)
        << variant;
  }
}

TEST(RewriteTest, DepthPreservingVariantKeepsDepthOnMultiplier) {
  const auto baseline = algebra::depth_optimize(gen::make_multiplier_n(8));
  RewriteStats stats;
  functional_hashing(baseline, db(), variant_params("TD"), &stats);
  EXPECT_EQ(stats.depth_after, stats.depth_before);
  EXPECT_LE(stats.size_after, stats.size_before);
}

TEST(RewriteTest, DepthPreservingVariantLimitsDepthGrowth) {
  const auto m = gen::make_adder_n(16);
  RewriteStats t_stats, td_stats;
  functional_hashing(m, db(), variant_params("T"), &t_stats);
  functional_hashing(m, db(), variant_params("TD"), &td_stats);
  // The depth-preserving heuristic must never be worse in depth than the
  // unconstrained variant on this structured input.
  EXPECT_LE(td_stats.depth_after, t_stats.depth_after + 1);
}

TEST(RewriteTest, IdempotentOnDatabaseOptimum) {
  // A network that is already a database optimum cannot shrink further.
  std::mt19937 rng(11);
  for (int i = 0; i < 20; ++i) {
    const tt::TruthTable f(4, rng());
    mig::Mig m;
    const auto pis = m.create_pis(4);
    m.create_po(db().instantiate(f, m, pis));
    const uint32_t before = m.count_live_gates();
    const auto optimized = functional_hashing(m, db(), variant_params("T"));
    EXPECT_EQ(optimized.count_live_gates(), before) << "f=0x" << f.to_hex();
  }
}

// --- golden rewrite outputs --------------------------------------------------
//
// Exact outputs of every rewrite pass on fixed inputs.  Any change to these
// values is a behaviour change of the rewriting engine and must be justified
// as one.

/// FNV-1a of the network's BLIF text: pins the structure, not just counts.
uint64_t blif_fingerprint(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct GoldenRow {
  const char* network;  ///< see golden_input()
  const char* pass;     ///< variant acronym (trailing 5: 5-input cuts) or "size"
  uint32_t gates;
  uint32_t depth;
  uint64_t blif_fnv;
  uint64_t cuts_evaluated;  ///< 0 for "size"
  uint64_t replacements;    ///< "size": distributivity applications
};

mig::Mig golden_input(const std::string& network) {
  if (network == "adder16") return algebra::depth_optimize(gen::make_adder_n(16));
  if (network == "mult6") return algebra::depth_optimize(gen::make_multiplier_n(6));
  if (network == "sine6") return algebra::depth_optimize(gen::make_sine_n(6));
  if (network == "adder10") return gen::make_adder_n(10);
  if (network == "div8") return algebra::depth_optimize(gen::make_divisor_n(8));
  if (network == "sqrt8") return algebra::depth_optimize(gen::make_sqrt_n(8));
  throw std::invalid_argument("unknown golden network " + network);
}

GoldenRow run_golden(const GoldenRow& row, util::ThreadPool* pool) {
  const mig::Mig input = golden_input(row.network);
  const std::string pass = row.pass;
  GoldenRow actual = row;
  mig::Mig out;
  if (pass == "size") {
    algebra::SizeOptParams params;
    params.pool = pool;
    algebra::AlgebraStats stats;
    out = algebra::size_optimize(input, params, &stats);
    actual.cuts_evaluated = 0;
    actual.replacements = stats.applied_distributivity;
  } else {
    const bool five = pass.back() == '5';
    auto params = variant_params(five ? pass.substr(0, pass.size() - 1) : pass);
    params.five_input_cuts = five;
    params.pool = pool;
    ReplacementOracle oracle(db());
    RewriteStats stats;
    out = functional_hashing(input, oracle, params, &stats);
    actual.cuts_evaluated = stats.cuts_evaluated;
    actual.replacements = stats.replacements;
  }
  actual.gates = out.count_live_gates();
  actual.depth = out.depth();
  actual.blif_fnv = blif_fingerprint(out);
  return actual;
}

std::string format_row(const GoldenRow& r) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "{\"%s\", \"%s\", %u, %u, 0x%016llxull, %llu, %llu},", r.network,
                r.pass, r.gates, r.depth,
                static_cast<unsigned long long>(r.blif_fnv),
                static_cast<unsigned long long>(r.cuts_evaluated),
                static_cast<unsigned long long>(r.replacements));
  return buffer;
}

const GoldenRow kGolden[] = {
    {"adder16", "T", 234, 11, 0x1d8e43a2a4b36be0ull, 298, 13},
    {"adder16", "TD", 258, 9, 0x3aa79de715420f5full, 442, 0},
    {"adder16", "TF", 234, 11, 0x1d8e43a2a4b36be0ull, 313, 13},
    {"adder16", "TFD", 258, 9, 0x3aa79de715420f5full, 457, 0},
    {"adder16", "B", 250, 12, 0x642010e79e9f4c4eull, 1779, 11504},
    {"adder16", "BD", 302, 9, 0xaa49436dbd5311a5ull, 1779, 2593},
    {"adder16", "BF", 234, 12, 0x43309c5b4ac1f177ull, 457, 652},
    {"adder16", "BFD", 258, 9, 0x35ac52a46b8d0e43ull, 457, 326},
    {"adder16", "size", 258, 9, 0x3aa79de715420f5full, 0, 0},
    {"mult6", "T", 432, 19, 0xc9aada4552644875ull, 634, 13},
    {"mult6", "TD", 441, 18, 0x8815ae8cbaee1b34ull, 662, 7},
    {"mult6", "TF", 432, 19, 0xc9aada4552644875ull, 659, 13},
    {"mult6", "TFD", 441, 18, 0x8815ae8cbaee1b34ull, 687, 7},
    {"mult6", "B", 408, 20, 0x0bab296dcc2e9464ull, 3059, 26389},
    {"mult6", "BD", 409, 18, 0x3ca029a95da2ba47ull, 3059, 20008},
    {"mult6", "BF", 432, 22, 0x61b90e51d19213f3ull, 703, 894},
    {"mult6", "BFD", 441, 18, 0xf619c34cb730a3fcull, 703, 682},
    {"mult6", "size", 434, 18, 0xfd07c6e656e8965cull, 0, 11},
    {"sine6", "T", 1021, 49, 0xe5b9ec1d7552a7f6ull, 1700, 97},
    {"sine6", "TD", 1117, 45, 0x392cc56583a5468aull, 1867, 44},
    {"sine6", "TF", 1026, 48, 0xe17357035fa6d2e9ull, 1708, 95},
    {"sine6", "TFD", 1119, 45, 0x904d83825399ad6bull, 1880, 43},
    {"sine6", "B", 968, 50, 0x72d3f7089454c0d5ull, 6589, 79297},
    {"sine6", "BD", 1031, 44, 0x56f3e6113625f53bull, 6589, 65463},
    {"sine6", "BF", 1027, 65, 0x098198251d2e836full, 1990, 2357},
    {"sine6", "BFD", 1120, 45, 0x6d9363da901f1618ull, 1990, 1833},
    {"sine6", "size", 969, 50, 0xc489d938504ee208ull, 0, 127},
    {"div8", "size", 918, 95, 0x617448a5b555448bull, 0, 327},
    {"sqrt8", "size", 606, 73, 0xd31cd1070a4a4687ull, 0, 192},
    {"adder10", "TF5", 122, 11, 0xc230d663223cce1aull, 215, 0},
    {"adder10", "BF5", 122, 12, 0x4ef8137daa5db068ull, 215, 255},
};

TEST(GoldenRewriteTest, OutputsArePinnedAtEveryThreadCount) {
  util::ThreadPool pool(4);
  for (const GoldenRow& row : kGolden) {
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
      const GoldenRow actual = run_golden(row, p);
      SCOPED_TRACE(std::string(row.network) + " " + row.pass +
                   (p ? " threads 4" : " threads 1") + "\n  actual: " +
                   format_row(actual));
      EXPECT_EQ(actual.gates, row.gates);
      EXPECT_EQ(actual.depth, row.depth);
      EXPECT_EQ(actual.blif_fnv, row.blif_fnv);
      EXPECT_EQ(actual.cuts_evaluated, row.cuts_evaluated);
      EXPECT_EQ(actual.replacements, row.replacements);
    }
  }
}

bool structurally_equal(const mig::Mig& a, const mig::Mig& b) {
  if (a.num_pis() != b.num_pis() || a.num_nodes() != b.num_nodes() ||
      a.outputs() != b.outputs()) {
    return false;
  }
  for (uint32_t n = 0; n < a.num_nodes(); ++n) {
    if (a.fanins(n) != b.fanins(n)) return false;
  }
  return true;
}

TEST(SizeOptimizeTest, NetworkWithoutFiringGateComesBackAsItsCleanup) {
  // The depth-optimized adder has no reverse-distributivity site (its golden
  // row applies the rule 0 times); a dangling gate makes cleanup() differ
  // from the input.
  mig::Mig m = algebra::depth_optimize(gen::make_adder_n(16));
  const mig::Signal a = mig::Signal(1, false), b = mig::Signal(2, true);
  m.create_maj(a, b, m.create_and(a, mig::Signal(3, false)));
  ASSERT_LT(m.count_live_gates(), m.num_gates());

  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    algebra::SizeOptParams params;
    params.pool = p;
    algebra::AlgebraStats stats;
    const mig::Mig out = algebra::size_optimize(m, params, &stats);
    EXPECT_EQ(stats.applied_distributivity, 0u);
    EXPECT_EQ(stats.rounds, 1u);
    EXPECT_TRUE(structurally_equal(out, m.cleanup()));
  }
}

}  // namespace
}  // namespace mighty::opt

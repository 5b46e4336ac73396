#include "exact/exact_synthesis.hpp"

#include <gtest/gtest.h>

#include <random>

#include "exact/encoding_onehot.hpp"
#include "mig/simulation.hpp"
#include "npn/npn.hpp"

namespace mighty::exact {
namespace {

using tt::TruthTable;

TEST(ChainTest, TrivialChains) {
  const auto c0 = trivial_chain(TruthTable::constant(3, false));
  ASSERT_TRUE(c0.has_value());
  EXPECT_EQ(c0->size(), 0u);
  EXPECT_EQ(c0->simulate(), TruthTable::constant(3, false));

  const auto c1 = trivial_chain(TruthTable::constant(3, true));
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->simulate(), TruthTable::constant(3, true));

  const auto px = trivial_chain(TruthTable::projection(4, 2));
  ASSERT_TRUE(px.has_value());
  EXPECT_EQ(px->simulate(), TruthTable::projection(4, 2));

  const auto pnx = trivial_chain(~TruthTable::projection(4, 1));
  ASSERT_TRUE(pnx.has_value());
  EXPECT_EQ(pnx->simulate(), ~TruthTable::projection(4, 1));

  EXPECT_FALSE(trivial_chain(TruthTable(2, 0x8)).has_value());
}

TEST(ChainTest, SerializationRoundTrip) {
  MigChain chain;
  chain.num_vars = 3;
  chain.steps.push_back({{make_ref_lit(1, false), make_ref_lit(2, true), make_ref_lit(3, false)}});
  chain.steps.push_back({{make_ref_lit(0, false), make_ref_lit(4, false), make_ref_lit(2, false)}});
  chain.output = make_ref_lit(5, true);
  const auto back = MigChain::from_string(chain.to_string());
  EXPECT_EQ(back, chain);
}

TEST(ChainTest, ParsingRejectsChainsItCannotSimulate) {
  // Three inputs: step 0 sees refs 0..3, so ref 4 (literal 8) is step 0
  // itself; the output of a one-step chain may name refs 0..4.
  EXPECT_NO_THROW(MigChain::from_string("3 1 8 2 5 6"));
  EXPECT_THROW(MigChain::from_string("3 1 8 2 5 8"), std::runtime_error);
  EXPECT_THROW(MigChain::from_string("3 1 10 2 5 6"), std::runtime_error);
  EXPECT_THROW(MigChain::from_string("3 0 8"), std::runtime_error);
  // Truth tables stop at six variables.
  EXPECT_NO_THROW(MigChain::from_string("6 0 2"));
  EXPECT_THROW(MigChain::from_string("7 0 2"), std::runtime_error);
}

TEST(ChainTest, InstantiateMatchesSimulation) {
  // Chain for <x1 !x2 x3>.
  MigChain chain;
  chain.num_vars = 3;
  chain.steps.push_back({{make_ref_lit(1, false), make_ref_lit(2, true), make_ref_lit(3, false)}});
  chain.output = make_ref_lit(4, false);

  mig::Mig m;
  const auto pis = m.create_pis(3);
  m.create_po(chain.instantiate(m, pis));
  EXPECT_EQ(mig::output_truth_tables(m)[0], chain.simulate());
}

TEST(ChainTest, DepthOfFullAdderSumChain) {
  // carry = <abc>; mid = <ab!c>; sum = <!carry mid c> -- depth 2 (Fig. 1).
  MigChain chain;
  chain.num_vars = 3;
  chain.steps.push_back({{make_ref_lit(1, false), make_ref_lit(2, false), make_ref_lit(3, false)}});
  chain.steps.push_back({{make_ref_lit(1, false), make_ref_lit(2, false), make_ref_lit(3, true)}});
  chain.steps.push_back({{make_ref_lit(4, true), make_ref_lit(5, false), make_ref_lit(3, false)}});
  chain.output = make_ref_lit(6, false);
  EXPECT_EQ(chain.depth(), 2u);
  EXPECT_EQ(chain.simulate(), TruthTable::projection(3, 0) ^ TruthTable::projection(3, 1) ^
                                  TruthTable::projection(3, 2));
}

TEST(ExactSynthesisTest, SingleGateFunctions) {
  // AND needs one gate.
  const auto and2 = TruthTable::projection(2, 0) & TruthTable::projection(2, 1);
  const auto r = synthesize_minimum_mig(and2);
  ASSERT_EQ(r.status, SynthesisStatus::success);
  EXPECT_EQ(r.chain.size(), 1u);

  // MAJ needs one gate.
  const auto maj3 = TruthTable::maj(TruthTable::projection(3, 0), TruthTable::projection(3, 1),
                                    TruthTable::projection(3, 2));
  const auto rm = synthesize_minimum_mig(maj3);
  ASSERT_EQ(rm.status, SynthesisStatus::success);
  EXPECT_EQ(rm.chain.size(), 1u);
}

TEST(ExactSynthesisTest, XorSizes) {
  // The optimal MIG for x1 ^ x2 has 3 gates; for x1 ^ x2 ^ x3 also 3 (the
  // full-adder sum structure of Fig. 1).
  const auto xor2 = TruthTable::projection(2, 0) ^ TruthTable::projection(2, 1);
  const auto r2 = synthesize_minimum_mig(xor2);
  ASSERT_EQ(r2.status, SynthesisStatus::success);
  EXPECT_EQ(r2.chain.size(), 3u);

  const auto xor3 = TruthTable::projection(3, 0) ^ TruthTable::projection(3, 1) ^
                    TruthTable::projection(3, 2);
  const auto r3 = synthesize_minimum_mig(xor3);
  ASSERT_EQ(r3.status, SynthesisStatus::success);
  EXPECT_EQ(r3.chain.size(), 3u);
}

TEST(ExactSynthesisTest, OutputComplementDoesNotChangeSize) {
  std::mt19937 rng(3);
  for (int i = 0; i < 5; ++i) {
    const TruthTable f(3, rng() & 0xff);
    if (trivial_chain(f)) continue;
    const auto r = synthesize_minimum_mig(f);
    const auto rc = synthesize_minimum_mig(~f);
    ASSERT_EQ(r.status, SynthesisStatus::success);
    ASSERT_EQ(rc.status, SynthesisStatus::success);
    EXPECT_EQ(r.chain.size(), rc.chain.size());
  }
}

TEST(ExactSynthesisTest, NpnEquivalentFunctionsHaveSameSize) {
  std::mt19937 rng(4);
  const auto perms = npn::all_permutations(3);
  for (int i = 0; i < 3; ++i) {
    const TruthTable f(3, rng() & 0xff);
    if (trivial_chain(f)) continue;
    npn::Transform t;
    t.num_vars = 3;
    t.perm = perms[rng() % perms.size()];
    t.input_negations = static_cast<uint8_t>(rng() & 7);
    t.output_negation = (rng() & 1) != 0;
    const auto g = npn::apply(f, t);
    const auto rf = synthesize_minimum_mig(f);
    const auto rg = synthesize_minimum_mig(g);
    ASSERT_EQ(rf.status, SynthesisStatus::success);
    ASSERT_EQ(rg.status, SynthesisStatus::success);
    EXPECT_EQ(rf.chain.size(), rg.chain.size());
  }
}

// Every 3-variable NPN class synthesizes successfully with both encoders and
// the two agree on the minimum size.
class EncoderAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(EncoderAgreementTest, OnehotAndSmtAgree) {
  const auto classes = npn::enumerate_classes(3);
  const auto& f = classes[static_cast<size_t>(GetParam())];

  SynthesisOptions onehot;
  onehot.encoder = EncoderKind::onehot;
  SynthesisOptions smt;
  smt.encoder = EncoderKind::smt;

  const auto r1 = synthesize_minimum_mig(f, onehot);
  const auto r2 = synthesize_minimum_mig(f, smt);
  ASSERT_EQ(r1.status, SynthesisStatus::success);
  ASSERT_EQ(r2.status, SynthesisStatus::success);
  EXPECT_EQ(r1.chain.size(), r2.chain.size());
  EXPECT_EQ(r1.chain.simulate(), f);
  EXPECT_EQ(r2.chain.simulate(), f);
}

INSTANTIATE_TEST_SUITE_P(All3VarClasses, EncoderAgreementTest, ::testing::Range(0, 14));

TEST(ExactSynthesisTest, TimeoutIsReported) {
  // The 4-input parity with a conflict budget of 1 cannot complete.
  const auto parity = TruthTable(4, 0x6996);
  SynthesisOptions options;
  options.conflict_limit = 1;
  const auto r = synthesize_minimum_mig(parity, options);
  EXPECT_EQ(r.status, SynthesisStatus::timeout);
}

// minimize_depth: the size search is untouched (same per-step conflicts,
// same size), depth never grows, and the final depth is proven minimal for
// its size — the depth step one level shallower comes back UNSAT on the
// same encoding.
TEST(ExactSynthesisTest, DepthMinimizationKeepsSizeAndIsProvenMinimal) {
  const auto x = [](uint32_t v) { return TruthTable::projection(5, v); };
  const std::vector<TruthTable> functions = {
      (x(0) & x(1)) | (x(2) & x(3) & x(4)),
      TruthTable::maj(x(0), x(1), TruthTable::maj(x(2), x(3), x(4))),
      TruthTable::ite(x(4), x(0) & x(1), x(2) | x(3)),
      (x(0) ^ x(1)) & (x(2) | x(3)) & x(4),
      x(0) & x(1) & x(2) & x(3) & x(4),
  };
  uint32_t proven = 0;
  for (const auto& function : functions) {
    const auto f = npn::canonize(function).representative;
    SynthesisOptions options;
    options.max_gates = 9;
    const auto plain = synthesize_minimum_mig(f, options);
    options.minimize_depth = true;
    const auto shallow = synthesize_minimum_mig(f, options);
    ASSERT_EQ(plain.status, SynthesisStatus::success) << "f=0x" << f.to_hex();
    ASSERT_EQ(shallow.status, SynthesisStatus::success) << "f=0x" << f.to_hex();
    EXPECT_TRUE(plain.conflicts_per_depth_step.empty());
    EXPECT_EQ(shallow.conflicts_per_step, plain.conflicts_per_step);
    EXPECT_EQ(shallow.chain.size(), plain.chain.size());
    EXPECT_LE(shallow.chain.depth(), plain.chain.depth());
    EXPECT_EQ(shallow.chain.simulate(), f);

    const uint32_t depth = shallow.chain.depth();
    if (depth < 3) continue;
    sat::Solver solver;
    OnehotEncoder encoder(solver, f, shallow.chain.size());
    encoder.encode();
    encoder.encode_depth_levels();
    EXPECT_EQ(solver.solve({sat::negate(encoder.root_deeper_than(depth - 1))}),
              sat::Result::unsat)
        << "f=0x" << f.to_hex() << " has a chain shallower than " << depth;
    ++proven;
  }
  EXPECT_GT(proven, 0u);
}

TEST(DepthSynthesisTest, SimpleDepths) {
  // Single-gate functions have depth 1.
  const auto and2 = TruthTable::projection(2, 0) & TruthTable::projection(2, 1);
  const auto r1 = synthesize_minimum_depth_mig(and2);
  ASSERT_EQ(r1.status, SynthesisStatus::success);
  EXPECT_EQ(r1.depth, 1u);

  // XOR2 has depth 2.
  const auto xor2 = TruthTable::projection(2, 0) ^ TruthTable::projection(2, 1);
  const auto r2 = synthesize_minimum_depth_mig(xor2);
  ASSERT_EQ(r2.status, SynthesisStatus::success);
  EXPECT_EQ(r2.depth, 2u);

  // XOR3 has depth 2 (Fig. 1).
  const auto xor3 = TruthTable::projection(3, 0) ^ TruthTable::projection(3, 1) ^
                    TruthTable::projection(3, 2);
  const auto r3 = synthesize_minimum_depth_mig(xor3);
  ASSERT_EQ(r3.status, SynthesisStatus::success);
  EXPECT_EQ(r3.depth, 2u);
}

TEST(DepthSynthesisTest, TrivialFunctionsHaveDepthZero) {
  const auto r = synthesize_minimum_depth_mig(TruthTable::projection(4, 3));
  ASSERT_EQ(r.status, SynthesisStatus::success);
  EXPECT_EQ(r.depth, 0u);
}

TEST(DepthSynthesisTest, DepthNeverExceedsSizeOptimalDepth) {
  std::mt19937 rng(9);
  for (int i = 0; i < 4; ++i) {
    const TruthTable f(3, rng() & 0xff);
    const auto rs = synthesize_minimum_mig(f);
    const auto rd = synthesize_minimum_depth_mig(f);
    ASSERT_EQ(rs.status, SynthesisStatus::success);
    ASSERT_EQ(rd.status, SynthesisStatus::success);
    EXPECT_LE(rd.depth, rs.chain.depth());
    // The depth-table path returns witnesses over four variables.
    EXPECT_EQ(rd.chain.simulate(), f.extend(rd.chain.num_vars));
  }
}

TEST(DepthSynthesisTest, SatTreeAgreesWithDepthTable) {
  // Cross-check the SAT tree formulation against the function-space table on
  // shallow functions (the SAT instances are small for depth <= 2).
  std::mt19937 rng(21);
  int checked = 0;
  while (checked < 5) {
    const TruthTable f(3, rng() & 0xff);
    DepthSynthesisOptions table_path;
    const auto rt = synthesize_minimum_depth_mig(f, table_path);
    ASSERT_EQ(rt.status, SynthesisStatus::success);
    if (rt.depth > 2) continue;  // keep the SAT instances small
    DepthSynthesisOptions sat_path;
    sat_path.use_sat = true;
    const auto rs = synthesize_minimum_depth_mig(f, sat_path);
    ASSERT_EQ(rs.status, SynthesisStatus::success);
    EXPECT_EQ(rs.depth, rt.depth) << "f=0x" << f.to_hex();
    ++checked;
  }
}

}  // namespace
}  // namespace mighty::exact

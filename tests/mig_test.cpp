#include "mig/mig.hpp"

#include <gtest/gtest.h>

#include <random>

#include "mig/simulation.hpp"
#include "test_util.hpp"
#include "tt/truth_table.hpp"

namespace mighty::mig {
namespace {

using tt::TruthTable;

TEST(MigTest, EmptyNetwork) {
  Mig m;
  EXPECT_EQ(m.num_nodes(), 1u);  // the constant node
  EXPECT_EQ(m.num_pis(), 0u);
  EXPECT_EQ(m.num_gates(), 0u);
  EXPECT_TRUE(m.is_constant(0));
}

TEST(MigTest, ConstantSignals) {
  Mig m;
  EXPECT_EQ(m.get_constant(false).index(), 0u);
  EXPECT_FALSE(m.get_constant(false).is_complemented());
  EXPECT_TRUE(m.get_constant(true).is_complemented());
  EXPECT_EQ(!m.get_constant(false), m.get_constant(true));
}

TEST(MigTest, SignalOperations) {
  const Signal s(5, false);
  EXPECT_EQ(s.index(), 5u);
  EXPECT_FALSE(s.is_complemented());
  EXPECT_TRUE((!s).is_complemented());
  EXPECT_EQ(!!s, s);
  EXPECT_EQ(s ^ true, !s);
  EXPECT_EQ(s ^ false, s);
}

TEST(MigTest, PiCreation) {
  Mig m;
  const auto pis = m.create_pis(3);
  EXPECT_EQ(m.num_pis(), 3u);
  EXPECT_EQ(m.num_nodes(), 4u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(m.is_pi(pis[i].index()));
    EXPECT_EQ(m.pi_index(pis[i].index()), i);
  }
}

TEST(MigTest, TrivialRules) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  EXPECT_EQ(m.create_maj(a, a, b), a);     // <aab> = a
  EXPECT_EQ(m.create_maj(a, !a, b), b);    // <a!ab> = b
  EXPECT_EQ(m.create_maj(b, a, a), a);     // symmetry
  EXPECT_EQ(m.create_maj(!a, b, a), b);
  EXPECT_EQ(m.num_gates(), 0u);
  // <0 1 x> = x via the index-equality rule on constants.
  EXPECT_EQ(m.create_maj(m.get_constant(false), m.get_constant(true), a), a);
}

TEST(MigTest, StructuralHashingSharesNodes) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(c, a, b);  // permuted operands
  const auto g3 = m.create_maj(b, c, a);
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(g1, g3);
  EXPECT_EQ(m.num_gates(), 1u);
}

TEST(MigTest, SelfDualityNormalization) {
  // <!a !b c> should create the same node as <a b !c> with complemented output.
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(!a, !b, c);
  const auto g2 = m.create_maj(a, b, !c);
  EXPECT_EQ(m.num_gates(), 1u);
  EXPECT_EQ(g1.index(), g2.index());
  EXPECT_NE(g1.is_complemented(), g2.is_complemented());
}

TEST(MigTest, DerivedOperatorsComputeCorrectFunctions) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto s = m.create_pi();
  m.create_po(m.create_and(a, b));
  m.create_po(m.create_or(a, b));
  m.create_po(m.create_xor(a, b));
  m.create_po(m.create_ite(s, a, b));
  m.create_po(m.create_xor3(a, b, s));

  const auto tts = output_truth_tables(m);
  const auto ta = TruthTable::projection(3, 0);
  const auto tb = TruthTable::projection(3, 1);
  const auto ts = TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], ta & tb);
  EXPECT_EQ(tts[1], ta | tb);
  EXPECT_EQ(tts[2], ta ^ tb);
  EXPECT_EQ(tts[3], TruthTable::ite(ts, ta, tb));
  EXPECT_EQ(tts[4], ta ^ tb ^ ts);
}

// Fig. 1 of the paper: the full adder has size 3 and depth 2.
TEST(MigTest, FullAdderMatchesFig1) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto cin = m.create_pi();
  const auto cout = m.create_maj(a, b, cin);
  const auto sum = m.create_xor3(a, b, cin);
  m.create_po(sum);
  m.create_po(cout);

  EXPECT_EQ(m.count_live_gates(), 3u);
  EXPECT_EQ(m.depth(), 2u);

  const auto tts = output_truth_tables(m);
  const auto ta = TruthTable::projection(3, 0);
  const auto tb = TruthTable::projection(3, 1);
  const auto tc = TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb ^ tc);
  EXPECT_EQ(tts[1], TruthTable::maj(ta, tb, tc));
}

TEST(MigTest, LevelsAndDepth) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_and(g1, a);
  m.create_po(g2);
  const auto levels = m.compute_levels();
  EXPECT_EQ(levels[a.index()], 0u);
  EXPECT_EQ(levels[g1.index()], 1u);
  EXPECT_EQ(levels[g2.index()], 2u);
  EXPECT_EQ(m.depth(), 2u);
}

TEST(MigTest, FanoutCounts) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_and(g1, a);
  const auto g3 = m.create_or(g1, b);
  m.create_po(g2);
  m.create_po(g3);
  const auto fanout = m.compute_fanout_counts();
  EXPECT_EQ(fanout[g1.index()], 2u);
  EXPECT_EQ(fanout[a.index()], 2u);
  EXPECT_EQ(fanout[g2.index()], 1u);
}

TEST(MigTest, CleanupDropsDeadGates) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto used = m.create_maj(a, b, c);
  m.create_maj(a, !b, c);  // dead gate
  m.create_po(used);
  EXPECT_EQ(m.num_gates(), 2u);
  EXPECT_EQ(m.count_live_gates(), 1u);

  const Mig clean = m.cleanup();
  EXPECT_EQ(clean.num_gates(), 1u);
  EXPECT_EQ(clean.num_pis(), 3u);
  EXPECT_EQ(clean.num_pos(), 1u);
}

TEST(MigTest, CleanupPreservesFunction) {
  for (uint32_t seed = 0; seed < 20; ++seed) {
    const auto m = testutil::random_mig(5, 30, 4, seed);
    const auto clean = m.cleanup();
    EXPECT_EQ(output_truth_tables(m), output_truth_tables(clean)) << "seed " << seed;
  }
}

TEST(MigTest, WordSimulationMatchesTruthTables) {
  const auto m = testutil::random_mig(4, 20, 3, 99);
  // Drive PIs with their projection patterns; word simulation must equal
  // truth-table simulation.
  std::vector<uint64_t> pi_words;
  for (uint32_t i = 0; i < 4; ++i) {
    pi_words.push_back(tt::TruthTable::var_mask(i) & tt::TruthTable::length_mask(4));
  }
  const auto words = simulate_words(m, pi_words);
  const auto tts = simulate_truth_tables(m);
  for (uint32_t n = 0; n < m.num_nodes(); ++n) {
    EXPECT_EQ(words[n] & tt::TruthTable::length_mask(4), tts[n].bits());
  }
}

TEST(MigTest, SimulationSelfDualProperty) {
  // Complementing all PI words complements all gate outputs (majority network
  // self-duality) when the network has no constant fanins.
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto d = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(b, c, d);
  const auto g3 = m.create_maj(g1, g2, a);
  m.create_po(g3);

  std::mt19937_64 rng(5);
  const std::vector<uint64_t> w{rng(), rng(), rng(), rng()};
  const std::vector<uint64_t> wn{~w[0], ~w[1], ~w[2], ~w[3]};
  const auto r1 = simulate_words(m, w);
  const auto r2 = simulate_words(m, wn);
  EXPECT_EQ(r2[g3.index()], ~r1[g3.index()]);
}

// --- structural hashing -------------------------------------------------------

/// Issues `gates` create_maj calls over random, randomly complemented
/// existing nodes of `m`; the same seed on an equal network issues the same
/// calls.
void add_random_gates(Mig& m, uint32_t gates, uint32_t seed) {
  std::mt19937 rng(seed);
  for (uint32_t g = 0; g < gates; ++g) {
    const auto pick = [&] {
      const uint32_t index = 1 + static_cast<uint32_t>(rng() % (m.num_nodes() - 1));
      return Signal(index, (rng() & 1) != 0);
    };
    const Signal a = pick();
    const Signal b = pick();
    const Signal c = pick();
    m.create_maj(a, b, c);
  }
}

void expect_same_network(const Mig& a, const Mig& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_pis(), b.num_pis());
  for (uint32_t n = 0; n < a.num_nodes(); ++n) {
    ASSERT_EQ(a.fanins(n), b.fanins(n)) << "node " << n;
  }
  EXPECT_EQ(a.outputs(), b.outputs());
}

/// Every gate's fanins, re-issued permuted, find the gate; re-issued
/// complemented (the self-dual twin), they find its complement.
void expect_every_gate_found(Mig& m) {
  const uint32_t gates = m.num_gates();
  for (uint32_t g = m.num_pis() + 1; g < m.num_nodes(); ++g) {
    const auto f = m.fanins(g);
    ASSERT_EQ(m.create_maj(f[2], f[0], f[1]), Signal(g, false)) << "gate " << g;
    ASSERT_EQ(m.create_maj(!f[1], !f[2], !f[0]), Signal(g, true)) << "gate " << g;
  }
  EXPECT_EQ(m.num_gates(), gates);
}

TEST(MigStrashTest, FindsEveryGateAfterManyGrowths) {
  Mig m;
  m.create_pis(16);
  // From the smallest table to one of 2^18 slots: fourteen growths.
  uint32_t seed = 1;
  while (m.num_gates() < 120000) add_random_gates(m, 10000, seed++);
  expect_every_gate_found(m);
}

TEST(MigStrashTest, ReserveLeavesTheNetworkUnchanged) {
  Mig plain;
  plain.create_pis(12);
  add_random_gates(plain, 60000, 3);

  Mig ahead;  // sized for the whole build up front
  ahead.reserve(200000);
  ahead.create_pis(12);
  add_random_gates(ahead, 60000, 3);
  expect_same_network(plain, ahead);

  Mig midway;  // a hint the build outgrows, then one given mid-build
  midway.reserve(1000);
  midway.create_pis(12);
  add_random_gates(midway, 30000, 3);
  midway.reserve(midway.num_nodes() + 50000);
  add_random_gates(midway, 30000, 4);
  Mig reference;
  reference.create_pis(12);
  add_random_gates(reference, 30000, 3);
  add_random_gates(reference, 30000, 4);
  expect_same_network(reference, midway);
  expect_every_gate_found(midway);
}

TEST(MigStrashTest, CopyMidBuildKeepsHashing) {
  Mig m;
  m.create_pis(10);
  add_random_gates(m, 30000, 5);
  const uint32_t nodes = m.num_nodes();

  Mig copy = m;
  expect_every_gate_found(copy);
  add_random_gates(copy, 30000, 6);
  EXPECT_GT(copy.num_nodes(), nodes);
  EXPECT_EQ(m.num_nodes(), nodes);  // the source is untouched
  expect_every_gate_found(copy);

  // The source, continued with the same calls, matches the copy.
  add_random_gates(m, 30000, 6);
  expect_same_network(m, copy);
}

TEST(MigTest, PoPolarityRespectedInOutputTables) {
  Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto g = m.create_and(a, b);
  m.create_po(!g);
  const auto tts = output_truth_tables(m);
  EXPECT_EQ(tts[0], ~(TruthTable::projection(2, 0) & TruthTable::projection(2, 1)));
}

}  // namespace
}  // namespace mighty::mig

#include "mig/cuts.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <stdexcept>

#include "gen/arith.hpp"
#include "mig/ffr.hpp"
#include "mig/shard.hpp"
#include "mig/simulation.hpp"
#include "test_util.hpp"

namespace mighty::cuts {
namespace {

TEST(CutsTest, MergeWithinLimit) {
  Cut a;
  a.size = 2;
  a.leaves = {1, 3};
  a.signature = Cut::hash_leaf(1) | Cut::hash_leaf(3);
  Cut b;
  b.size = 2;
  b.leaves = {2, 3};
  b.signature = Cut::hash_leaf(2) | Cut::hash_leaf(3);
  Cut out;
  ASSERT_TRUE(merge_cuts(a, b, 4, out));
  EXPECT_EQ(out.size, 3);
  EXPECT_EQ(out.leaves[0], 1u);
  EXPECT_EQ(out.leaves[1], 2u);
  EXPECT_EQ(out.leaves[2], 3u);
}

TEST(CutsTest, MergeOverflows) {
  Cut a;
  a.size = 3;
  a.leaves = {1, 2, 3};
  Cut b;
  b.size = 3;
  b.leaves = {4, 5, 6};
  Cut out;
  EXPECT_FALSE(merge_cuts(a, b, 4, out));
}

TEST(CutsTest, SubsetDetection) {
  Cut a;
  a.size = 2;
  a.leaves = {1, 3};
  a.signature = Cut::hash_leaf(1) | Cut::hash_leaf(3);
  Cut b;
  b.size = 3;
  b.leaves = {1, 2, 3};
  b.signature = Cut::hash_leaf(1) | Cut::hash_leaf(2) | Cut::hash_leaf(3);
  EXPECT_TRUE(a.subset_of(b));
  EXPECT_FALSE(b.subset_of(a));
  EXPECT_TRUE(a.subset_of(a));
}

TEST(CutsTest, SingleGateCuts) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g = m.create_maj(a, b, c);
  m.create_po(g);

  const auto sets = enumerate_cuts(m);
  const auto& gc = sets[g.index()];
  // Expected cuts of g: {a,b,c} and the trivial {g}.
  ASSERT_EQ(gc.size(), 2u);
  std::set<std::vector<uint32_t>> leaves;
  for (const auto& cut : gc) leaves.insert(cut.leaf_vector());
  EXPECT_TRUE(leaves.count({a.index(), b.index(), c.index()}));
  EXPECT_TRUE(leaves.count({g.index()}));
}

TEST(CutsTest, ConstantFaninExemptFromLeaves) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto g = m.create_and(a, b);  // <0ab>
  m.create_po(g);
  const auto sets = enumerate_cuts(m);
  for (const auto& cut : sets[g.index()]) {
    for (uint8_t i = 0; i < cut.size; ++i) {
      EXPECT_NE(cut.leaves[i], mig::Mig::constant_node);
    }
  }
}

TEST(CutsTest, TwoLevelNetworkCutSet) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto d = m.create_pi();
  const auto e = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_maj(g1, d, e);
  m.create_po(g2);

  const auto sets = enumerate_cuts(m, {.cut_size = 4});
  std::set<std::vector<uint32_t>> leaves;
  for (const auto& cut : sets[g2.index()]) leaves.insert(cut.leaf_vector());
  // {d,e,g1}, {g2} are 4-feasible; {a,b,c,d,e} is not (5 leaves).
  EXPECT_TRUE(leaves.count({d.index(), e.index(), g1.index()}));
  EXPECT_TRUE(leaves.count({g2.index()}));
  EXPECT_EQ(leaves.size(), 2u);

  const auto sets5 = enumerate_cuts(m, {.cut_size = 5});
  std::set<std::vector<uint32_t>> leaves5;
  for (const auto& cut : sets5[g2.index()]) leaves5.insert(cut.leaf_vector());
  EXPECT_TRUE(
      leaves5.count({a.index(), b.index(), c.index(), d.index(), e.index()}));
}

TEST(CutsTest, EveryCutFunctionIsConsistent) {
  // For random networks, the function computed over any cut's leaves must
  // reproduce the node's global function when composed with the leaves'
  // global functions.
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const auto m = testutil::random_mig(5, 25, 3, 1000 + seed);
    const auto node_tts = mig::simulate_truth_tables(m);
    const auto sets = enumerate_cuts(m);
    for (uint32_t n = 0; n < m.num_nodes(); ++n) {
      if (!m.is_gate(n)) continue;
      for (const auto& cut : sets[n]) {
        if (cut.size == 1 && cut.leaves[0] == n) continue;  // trivial
        const auto local = mig::simulate_cut(m, n, cut.leaf_vector());
        // Compose: evaluate local over the leaves' global tables.
        tt::TruthTable composed(m.num_pis());
        for (uint32_t a = 0; a < composed.num_bits(); ++a) {
          uint32_t leaf_assignment = 0;
          for (uint8_t l = 0; l < cut.size; ++l) {
            if (node_tts[cut.leaves[l]].get_bit(a)) leaf_assignment |= 1u << l;
          }
          composed.set_bit(a, local.get_bit(leaf_assignment));
        }
        EXPECT_EQ(composed, node_tts[n]) << "seed " << seed << " node " << n;
      }
    }
  }
}

TEST(CutsTest, SimulateCutOnALargeCone) {
  // A chain of gates over three inputs, each gate reading the previous one,
  // so the last gate's cone holds every gate: more than any fixed-size
  // scratch would hold.
  mig::Mig m;
  const auto pis = m.create_pis(3);
  std::mt19937 rng(11);
  std::vector<mig::Signal> pool(pis);
  mig::Signal last = pis[0];
  while (m.num_gates() < 300) {
    const auto pick = [&] {
      const auto s = pool[rng() % pool.size()];
      return (rng() & 1) != 0 ? !s : s;
    };
    const mig::Signal a = pick();
    const mig::Signal b = pick();
    last = m.create_maj(last, a, b);
    pool.push_back(last);
  }
  m.create_po(last);
  ASSERT_GE(m.count_live_gates(), 200u);

  const std::vector<uint32_t> leaves{pis[0].index(), pis[1].index(), pis[2].index()};
  const auto tables = mig::simulate_truth_tables(m);
  for (uint32_t n = m.num_pis() + 1; n < m.num_nodes(); ++n) {
    EXPECT_EQ(mig::simulate_cut(m, n, leaves), tables[n]) << "node " << n;
  }
}

TEST(CutsTest, SimulateCutRejectsLeavesThatMissATerminal) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g = m.create_maj(a, b, m.create_and(b, c));
  const std::vector<uint32_t> leaves{a.index(), b.index()};  // c is uncovered
  EXPECT_THROW(mig::simulate_cut(m, g.index(), leaves), std::invalid_argument);
  // The failed call leaves nothing behind for the next one on this thread.
  const std::vector<uint32_t> all{a.index(), b.index(), c.index()};
  EXPECT_EQ(mig::simulate_cut(m, g.index(), all), mig::simulate_truth_tables(m)[g.index()]);
}

TEST(CutsTest, MaxCutsCapIsRespected) {
  const auto m = testutil::random_mig(6, 60, 3, 7);
  const auto sets = enumerate_cuts(m, {.cut_size = 4, .max_cuts = 5});
  for (uint32_t n = 0; n < m.num_nodes(); ++n) {
    if (!m.is_gate(n)) continue;
    EXPECT_LE(sets[n].size(), 6u);  // cap + trivial cut
  }
}

TEST(CutsTest, NoDominatedCutsStored) {
  const auto m = testutil::random_mig(6, 40, 3, 8);
  const auto sets = enumerate_cuts(m);
  for (const auto& set : sets) {
    for (size_t i = 0; i < set.size(); ++i) {
      for (size_t j = 0; j < set.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(set[i].subset_of(set[j]) && set[j].subset_of(set[i]));
        if (i < j) {
          EXPECT_FALSE(set[i] == set[j]);
        }
      }
    }
  }
}

TEST(FfrTest, ChainIsSingleRegion) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto g1 = m.create_maj(a, b, c);
  const auto g2 = m.create_and(g1, c);
  const auto g3 = m.create_or(g2, a);
  m.create_po(g3);

  const auto p = ffr::compute_ffrs(m);
  EXPECT_EQ(p.roots.size(), 1u);
  EXPECT_EQ(p.roots[0], g3.index());
  EXPECT_EQ(p.region_root[g1.index()], g3.index());
  EXPECT_EQ(p.region_root[g2.index()], g3.index());
}

TEST(FfrTest, MultiFanoutSplitsRegions) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto shared = m.create_maj(a, b, c);
  const auto g2 = m.create_and(shared, a);
  const auto g3 = m.create_or(shared, b);
  m.create_po(g2);
  m.create_po(g3);

  const auto p = ffr::compute_ffrs(m);
  EXPECT_TRUE(p.is_root[shared.index()]);
  EXPECT_TRUE(p.is_root[g2.index()]);
  EXPECT_TRUE(p.is_root[g3.index()]);
  EXPECT_EQ(p.region_root[shared.index()], shared.index());
  EXPECT_EQ(p.roots.size(), 3u);
}

TEST(FfrTest, EveryGateBelongsToExactlyOneRegion) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const auto m = testutil::random_mig(6, 50, 4, 2000 + seed);
    const auto p = ffr::compute_ffrs(m);
    for (uint32_t n = 0; n < m.num_nodes(); ++n) {
      if (!m.is_gate(n)) continue;
      const uint32_t root = p.region_root[n];
      EXPECT_TRUE(p.is_root[root]);
      // The region root must be reachable by following unique fanouts.
      EXPECT_EQ(p.region_root[root], root);
    }
  }
}

TEST(FfrTest, BoundaryRestrictsCuts) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  const auto shared = m.create_maj(a, b, c);
  const auto g2 = m.create_and(shared, a);
  const auto g3 = m.create_or(shared, b);
  m.create_po(g2);
  m.create_po(g3);

  const auto p = ffr::compute_ffrs(m);
  const auto boundary = ffr::ffr_boundary(p);
  const auto sets = enumerate_cuts(m, {.cut_size = 4, .boundary = &boundary});
  // Cuts of g2 must treat `shared` as a leaf: no cut may expand beyond it.
  for (const auto& cut : sets[g2.index()]) {
    for (uint8_t i = 0; i < cut.size; ++i) {
      EXPECT_TRUE(cut.leaves[i] == shared.index() || cut.leaves[i] == a.index() ||
                  cut.leaves[i] == g2.index());
    }
  }
}

TEST(FfrTest, RegionScopedCutsEqualGlobalCuts) {
  // The FFR passes enumerate cuts one region at a time, concurrently; that is
  // exact only because every gate feeding a region from outside is a
  // boundary leaf.  Regions run last-to-first here, so no region's sets can
  // lean on another region having been enumerated before it.
  std::vector<mig::Mig> networks;
  for (const uint32_t seed : {1u, 7u, 42u}) {
    networks.push_back(testutil::random_mig(8, 120, 6, seed));
  }
  networks.push_back(gen::make_adder_n(16));
  networks.push_back(gen::make_multiplier_n(8));
  networks.push_back(gen::make_sqrt_n(8));
  for (size_t i = 0; i < networks.size(); ++i) {
    const auto& m = networks[i];
    const auto partition = ffr::compute_ffrs(m);
    const auto boundary = ffr::ffr_boundary(partition);
    const auto regions = shard::collect_region_members(m, partition);
    const auto live = m.live_mask();
    for (const uint32_t k : {4u, 5u}) {
      const CutEnumerationParams params{.cut_size = k, .boundary = &boundary};
      const auto global = enumerate_cuts(m, params);
      std::vector<std::vector<Cut>> scoped(m.num_nodes());
      for (size_t r = regions.members.size(); r-- > 0;) {
        enumerate_cuts_scoped(m, params, regions.members[r], scoped);
      }
      for (uint32_t n = 0; n < m.num_nodes(); ++n) {
        if (!m.is_gate(n) || !live[n]) continue;
        ASSERT_FALSE(scoped[n].empty()) << "network " << i << " k=" << k << " node " << n;
        EXPECT_EQ(scoped[n], global[n]) << "network " << i << " k=" << k << " node " << n;
      }
    }
  }
}

}  // namespace
}  // namespace mighty::cuts

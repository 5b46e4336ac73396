#include "mig/shard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>

#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/ffr.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace mighty {
namespace {

/// The invariants every shard plan must satisfy: shards are disjoint, cover
/// exactly the live gates, keep whole regions together, and stay sorted.
void check_plan_invariants(const mig::Mig& m, const ffr::FfrPartition& partition,
                           const shard::ShardPlan& plan) {
  const auto live = m.live_mask();
  std::vector<int> owner(m.num_nodes(), -1);
  std::set<uint32_t> seen_roots;

  for (size_t s = 0; s < plan.shards.size(); ++s) {
    const auto& sh = plan.shards[s];
    // Node and root lists ascending => topologically ordered.
    EXPECT_TRUE(std::is_sorted(sh.nodes.begin(), sh.nodes.end()));
    EXPECT_TRUE(std::is_sorted(sh.roots.begin(), sh.roots.end()));
    for (const uint32_t root : sh.roots) {
      EXPECT_TRUE(partition.is_root[root]) << root;
      EXPECT_TRUE(seen_roots.insert(root).second) << "root in two shards";
    }
    for (const uint32_t n : sh.nodes) {
      ASSERT_TRUE(m.is_gate(n));
      EXPECT_TRUE(live[n]) << "dead gate planned";
      EXPECT_EQ(owner[n], -1) << "node in two shards";
      owner[n] = static_cast<int>(s);
    }
    // Whole regions: every member's root rides in the same shard.
    for (const uint32_t n : sh.nodes) {
      const uint32_t root = partition.region_root[n];
      EXPECT_TRUE(std::binary_search(sh.roots.begin(), sh.roots.end(), root))
          << "node " << n << " separated from its region root " << root;
    }
  }

  // Full coverage of the output-reachable gates.
  for (uint32_t n = 0; n < m.num_nodes(); ++n) {
    if (m.is_gate(n) && live[n]) {
      EXPECT_NE(owner[n], -1) << "live gate " << n << " not planned";
    }
  }
}

TEST(ShardPlanTest, InvariantsOnRandomNetworks) {
  for (const uint32_t seed : {1u, 7u, 42u}) {
    const auto m = testutil::random_mig(8, 120, 6, seed);
    const auto partition = ffr::compute_ffrs(m);
    for (const uint32_t shards : {1u, 2u, 4u, 16u}) {
      check_plan_invariants(m, partition, shard::plan_ffr_shards(m, partition, shards));
    }
  }
}

TEST(ShardPlanTest, InvariantsOnArithmeticNetworks) {
  for (const auto& m : {gen::make_adder_n(16), gen::make_multiplier_n(8),
                        gen::make_sqrt_n(8)}) {
    const auto partition = ffr::compute_ffrs(m);
    check_plan_invariants(m, partition, shard::plan_ffr_shards(m, partition, 8));
  }
}

TEST(ShardPlanTest, IsDeterministic) {
  const auto m = gen::make_multiplier_n(8);
  const auto partition = ffr::compute_ffrs(m);
  const auto a = shard::plan_ffr_shards(m, partition, 8);
  const auto b = shard::plan_ffr_shards(m, partition, 8);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].roots, b.shards[s].roots);
    EXPECT_EQ(a.shards[s].nodes, b.shards[s].nodes);
  }
}

TEST(ShardPlanTest, BalancesShardLoads) {
  const auto m = gen::make_multiplier_n(16);
  const auto partition = ffr::compute_ffrs(m);
  const auto plan = shard::plan_ffr_shards(m, partition, 8);
  ASSERT_EQ(plan.shards.size(), 8u);
  size_t largest = 0;
  for (const auto& sh : plan.shards) largest = std::max(largest, sh.nodes.size());
  // Greedy LPT cannot be perfect, but no shard may dwarf the ideal share.
  const double ideal = static_cast<double>(plan.total_nodes()) / 8.0;
  EXPECT_LE(static_cast<double>(largest), 2.0 * ideal + 8.0);
  EXPECT_EQ(plan.total_nodes(), m.count_live_gates());
}

TEST(ShardPlanTest, NeverMakesMoreShardsThanRegions) {
  mig::Mig m;  // two gates in one region: a single live region
  const auto pis = m.create_pis(3);
  const auto inner = m.create_and(pis[0], pis[1]);
  m.create_po(m.create_and(inner, pis[2]));
  const auto partition = ffr::compute_ffrs(m);
  const auto plan = shard::plan_ffr_shards(m, partition, 8);
  EXPECT_EQ(plan.shards.size(), 1u);
  EXPECT_EQ(plan.total_nodes(), 2u);
}

TEST(ShardRegionTest, MembersEndWithTheirRoot) {
  const auto m = gen::make_sqrt_n(8);
  const auto partition = ffr::compute_ffrs(m);
  const auto regions = shard::collect_region_members(m, partition);
  ASSERT_FALSE(regions.live_roots.empty());
  uint64_t total = 0;
  for (size_t r = 0; r < regions.live_roots.size(); ++r) {
    const auto& members = regions.members[r];
    ASSERT_FALSE(members.empty());
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    EXPECT_EQ(members.back(), regions.live_roots[r]);
    for (const uint32_t n : members) {
      EXPECT_EQ(partition.region_root[n], regions.live_roots[r]);
    }
    total += members.size();
  }
  EXPECT_EQ(total, m.count_live_gates());
}

TEST(ShardRegionTest, SpliceCopiesUnchangedRegionsFromTheSource) {
  for (const uint32_t seed : {1u, 7u, 42u}) {
    const auto m = testutil::random_mig(8, 120, 6, seed);
    const auto regions = shard::collect_region_members(m, ffr::compute_ffrs(m));
    const auto out = shard::splice_regions(
        m, regions, [](size_t) -> const shard::RegionNet* { return nullptr; });
    // Every live gate is copied once, nothing else is built, and the
    // function is unchanged.
    EXPECT_EQ(out.num_gates(), m.count_live_gates()) << seed;
    EXPECT_EQ(out.count_live_gates(), m.count_live_gates()) << seed;
    EXPECT_TRUE(cec::random_simulation_equal(m, out, 8, seed)) << seed;
  }
}

TEST(ShardRegionTest, LevelsRespectDependencies) {
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(8));
  const auto partition = ffr::compute_ffrs(m);
  const auto level = shard::region_levels(m, partition);
  // Every in-region gate's cross-region fanin must come from a strictly
  // lower level, or the wave schedule would race.
  for (uint32_t n = 0; n < m.num_nodes(); ++n) {
    if (!m.is_gate(n)) continue;
    const uint32_t root = partition.region_root[n];
    for (const mig::Signal s : m.fanins(n)) {
      if (!m.is_gate(s.index())) continue;
      const uint32_t f_root = partition.region_root[s.index()];
      if (f_root == root) continue;
      EXPECT_LT(level[f_root], level[root]);
    }
  }
}

// --- thread pool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4u);
  std::vector<std::atomic<uint32_t>> hits(1000);
  pool.parallel_for(hits.size(), [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  std::vector<uint32_t> hits(64, 0);
  pool.parallel_for(hits.size(), [&](size_t i) { ++hits[i]; });
  for (const auto h : hits) EXPECT_EQ(h, 1u);
}

TEST(ThreadPoolTest, IsReusableAcrossJobs) {
  util::ThreadPool pool(3);
  uint64_t expected = 0;
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    const size_t count = 1 + static_cast<size_t>(round) * 3 % 97;
    for (size_t i = 0; i < count; ++i) expected += i;
    pool.parallel_for(count, [&](size_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a failed job.
  std::atomic<uint32_t> ran{0};
  pool.parallel_for(10, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10u);
}

TEST(ThreadPoolTest, HandlesZeroAndOversizedCounts) {
  util::ThreadPool pool(4);
  pool.parallel_for(0, [&](size_t) { FAIL() << "no items to run"; });
  std::atomic<uint32_t> ran{0};
  pool.parallel_for(3, [&](size_t) { ran.fetch_add(1); });  // fewer than threads
  EXPECT_EQ(ran.load(), 3u);
}

// --- task groups (the batch runner's outer scheduling level) ------------------

TEST(TaskGroupTest, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::vector<std::atomic<uint32_t>> hits(200);
  util::ThreadPool::TaskGroup group(pool);
  for (size_t i = 0; i < hits.size(); ++i) {
    group.submit([&hits, i] { hits[i].fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(TaskGroupTest, TasksMaySubmitSuccessors) {
  // The batch pattern: a (network, pass) task enqueues its network's next
  // pass.  Eight chains of twelve links each must all complete.
  util::ThreadPool pool(4);
  constexpr size_t kChains = 8, kLinks = 12;
  std::vector<std::atomic<uint32_t>> progress(kChains);
  util::ThreadPool::TaskGroup group(pool);
  std::function<void(size_t, size_t)> step = [&](size_t chain, size_t link) {
    progress[chain].fetch_add(1, std::memory_order_relaxed);
    if (link + 1 < kLinks) {
      group.submit([&step, chain, link] { step(chain, link + 1); });
    }
  };
  for (size_t c = 0; c < kChains; ++c) {
    group.submit([&step, c] { step(c, 0); });
  }
  group.wait();
  for (const auto& p : progress) EXPECT_EQ(p.load(), kLinks);
}

TEST(TaskGroupTest, SingleThreadRunsInlineInSubmissionOrder) {
  util::ThreadPool pool(1);
  std::vector<int> order;
  util::ThreadPool::TaskGroup group(pool);
  for (int i = 0; i < 5; ++i) {
    group.submit([&order, i] { order.push_back(i); });
  }
  group.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TaskGroupTest, WaitRethrowsTaskException) {
  util::ThreadPool pool(4);
  util::ThreadPool::TaskGroup group(pool);
  std::atomic<uint32_t> ran{0};
  for (int i = 0; i < 20; ++i) {
    group.submit([&ran, i] {
      if (i == 7) throw std::runtime_error("boom");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The pool survives; a fresh group works.
  util::ThreadPool::TaskGroup next(pool);
  next.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  next.wait();
  EXPECT_GE(ran.load(), 20u);
}

TEST(TaskGroupTest, TasksMayFanOutWithParallelFor) {
  // Two-level composition: an outer task runs an inner parallel_for on the
  // same pool — exactly what a shard-parallel pass does inside a batch task.
  util::ThreadPool pool(4);
  std::vector<std::atomic<uint32_t>> hits(4 * 64);
  util::ThreadPool::TaskGroup group(pool);
  for (size_t outer = 0; outer < 4; ++outer) {
    group.submit([&pool, &hits, outer] {
      pool.parallel_for(64, [&hits, outer](size_t inner) {
        hits[outer * 64 + inner].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  group.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

}  // namespace
}  // namespace mighty

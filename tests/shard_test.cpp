#include "mig/shard.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <functional>
#include <stdexcept>

#include "cec/cec.hpp"
#include "gen/arith.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/ffr.hpp"
#include "test_util.hpp"
#include "util/thread_pool.hpp"

namespace mighty {
namespace {

/// The cover every FFR pass fans out over: the live regions are disjoint,
/// together cover exactly the live gates, and list their members ascending
/// (= topologically) with the root last.
void check_region_cover(const mig::Mig& m) {
  const auto partition = ffr::compute_ffrs(m);
  const auto regions = shard::collect_region_members(m, partition);
  const auto live = m.live_mask();
  const auto strictly_ascending = [](const std::vector<uint32_t>& v) {
    return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) == v.end();
  };
  ASSERT_FALSE(regions.live_roots.empty());
  ASSERT_EQ(regions.members.size(), regions.live_roots.size());
  EXPECT_TRUE(strictly_ascending(regions.live_roots));
  std::vector<int> owner(m.num_nodes(), -1);
  for (size_t r = 0; r < regions.live_roots.size(); ++r) {
    const uint32_t root = regions.live_roots[r];
    EXPECT_TRUE(partition.is_root[root]) << root;
    EXPECT_EQ(regions.region_index[root], r);
    const auto& members = regions.members[r];
    ASSERT_FALSE(members.empty()) << "region " << root;
    EXPECT_TRUE(strictly_ascending(members)) << "region " << root;
    EXPECT_EQ(members.back(), root);
    for (const uint32_t n : members) {
      ASSERT_TRUE(m.is_gate(n));
      EXPECT_TRUE(live[n]) << "dead gate " << n << " in region " << root;
      EXPECT_EQ(owner[n], -1) << "node " << n << " in two regions";
      owner[n] = static_cast<int>(r);
      EXPECT_EQ(partition.region_root[n], root) << "node " << n;
    }
  }
  for (uint32_t n = 0; n < m.num_nodes(); ++n) {
    if (m.is_gate(n) && live[n]) {
      EXPECT_NE(owner[n], -1) << "live gate " << n << " in no region";
    }
  }
}

TEST(ShardRegionTest, CoverOnRandomNetworks) {
  for (const uint32_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    check_region_cover(testutil::random_mig(8, 120, 6, seed));
  }
}

TEST(ShardRegionTest, CoverOnArithmeticNetworks) {
  for (const auto& m : {gen::make_adder_n(16), gen::make_multiplier_n(8),
                        gen::make_sqrt_n(8)}) {
    check_region_cover(m);
  }
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
  // same pool — exactly what a region-parallel pass does inside a batch task.
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

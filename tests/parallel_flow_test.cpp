#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "cec/cec.hpp"
#include "flow/flow.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/simulation.hpp"
#include "test_util.hpp"
#include "tt/truth_table.hpp"
#include "util/thread_pool.hpp"

/// Determinism and safety of the parallel flow engine: `threads=N` must
/// produce bit-identical networks to `threads=1` (checked structurally via
/// BLIF serialization, which is stronger than CEC), the shared oracle must
/// stay consistent under concurrent queries.  These tests carry the
/// `parallel` ctest label so the ThreadSanitizer CI leg can select exactly
/// the concurrency surface.

namespace mighty::flow {
namespace {

const exact::Database& db() {
  static const exact::Database instance =
      exact::Database::load_or_build(exact::default_database_path());
  return instance;
}

Session make_session(uint32_t threads = 1) {
  SessionParams params;
  params.threads = threads;
  return Session(exact::Database(db()), std::move(params));
}

std::string to_blif(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

/// Runs `script` at both thread counts and checks the outputs are the same
/// network, gate for gate, with matching reports.
void expect_thread_count_invariance(const mig::Mig& m, const std::string& script,
                                    uint32_t threads) {
  auto s1 = make_session(1);
  auto sn = make_session(threads);
  FlowReport r1, rn;
  const auto o1 = Pipeline::parse(script).run(m, s1, &r1);
  const auto on = Pipeline::parse(script).run(m, sn, &rn);

  EXPECT_EQ(to_blif(o1), to_blif(on)) << script << " diverges at threads=" << threads;
  ASSERT_EQ(r1.passes.size(), rn.passes.size());
  for (size_t i = 0; i < r1.passes.size(); ++i) {
    EXPECT_EQ(r1.passes[i].size_after, rn.passes[i].size_after) << i;
    EXPECT_EQ(r1.passes[i].depth_after, rn.passes[i].depth_after) << i;
    EXPECT_EQ(r1.passes[i].replacements, rn.passes[i].replacements) << i;
    EXPECT_EQ(r1.passes[i].oracle_queries, rn.passes[i].oracle_queries) << i;
  }
  EXPECT_EQ(r1.size_after, rn.size_after);
  EXPECT_EQ(r1.depth_after, rn.depth_after);
  EXPECT_TRUE(cec::random_simulation_equal(m, on, 16, 0xA11CE));
}

// --- the acceptance networks: 32-bit multiplier and square root --------------

TEST(ParallelFlowTest, Multiplier32IsThreadCountInvariant) {
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(32));
  expect_thread_count_invariance(m, "TF;BFD;size", 4);
}

TEST(ParallelFlowTest, Sqrt16ConvergenceFlowIsThreadCountInvariant) {
  const auto m = algebra::depth_optimize(gen::make_sqrt_n(16));
  expect_thread_count_invariance(m, "(TF;BFD;size)*<4", 4);
}

TEST(ParallelFlowTest, OddThreadCountsMatchToo) {
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(8));
  expect_thread_count_invariance(m, "(TF;BFD;size)*<3", 3);
  expect_thread_count_invariance(m, "BF;size;TFD", 7);
}

TEST(ParallelFlowTest, ParallelResultIsSatProvenEquivalent) {
  const auto m = algebra::depth_optimize(gen::make_multiplier_n(8));
  auto session = make_session(4);
  const auto out = Pipeline::parse("TF;BFD;size").run(m, session);
  EXPECT_EQ(cec::check_equivalence(m, out).status, cec::CecStatus::equivalent);
}

// --- session / script surface ------------------------------------------------

TEST(ParallelFlowTest, WorkerPoolMaterializesOnlyWhenParallel) {
  auto session = make_session(1);
  EXPECT_EQ(session.worker_pool(), nullptr);
  session.set_threads(4);
  ASSERT_NE(session.worker_pool(), nullptr);
  EXPECT_EQ(session.worker_pool()->parallelism(), 4u);
  EXPECT_EQ(session.pool().parallelism(), 4u);
  session.set_threads(0);  // clamps to 1
  EXPECT_EQ(session.threads(), 1u);
  EXPECT_EQ(session.worker_pool(), nullptr);
}

TEST(ParallelFlowTest, SetThreadsChangesThroughputNotTheResult) {
  auto session = make_session(1);
  const auto m = testutil::random_mig(6, 60, 4, 5);
  session.set_threads(2);
  FlowReport report;
  const auto out = Pipeline::parse("TF").run(m, session, &report);
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_EQ(report.passes[0].name, "TF");
  auto sequential = make_session(1);
  const auto expected = Pipeline::parse("TF").run(m, sequential);
  EXPECT_EQ(to_blif(out), to_blif(expected));
}

// --- concurrent oracle -------------------------------------------------------

TEST(ParallelOracleTest, ConcurrentQueriesKeepCountersConsistent) {
  auto session = make_session(1);
  auto& oracle = session.oracle();
  // Hammer the oracle from four threads with overlapping 4-input functions;
  // every query must be answered and accounted exactly once.
  util::ThreadPool pool(4);
  constexpr size_t kQueries = 2000;
  std::atomic<uint64_t> answered{0};
  pool.parallel_for(kQueries, [&](size_t i) {
    const auto f = tt::TruthTable(4, 0x0123456789abcdefull * (i % 97) + i % 11);
    if (oracle.query(f)) answered.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(oracle.queries(), kQueries);
  EXPECT_EQ(oracle.answered(), answered.load());
  EXPECT_EQ(oracle.answered(), kQueries);  // 4-input lookups always hit
  EXPECT_DOUBLE_EQ(oracle.hit_rate(), 1.0);
}

TEST(ParallelOracleTest, ConcurrentInstantiationMatchesQueries) {
  auto session = make_session(1);
  auto& oracle = session.oracle();
  util::ThreadPool pool(4);
  // Each task builds its own private network, as region tasks do.
  std::vector<uint32_t> sizes(64, 0);
  pool.parallel_for(sizes.size(), [&](size_t i) {
    const auto f = tt::TruthTable(4, 0x96696996u ^ (0x1111u * i));
    const auto info = oracle.query(f);
    ASSERT_TRUE(info.has_value());
    mig::Mig net;
    const auto pis = net.create_pis(4);
    net.create_po(oracle.instantiate(f, net, pis));
    sizes[i] = net.count_live_gates();
    EXPECT_EQ(mig::output_truth_tables(net)[0], f);
    EXPECT_EQ(net.count_live_gates(), info->size);
  });
}

}  // namespace
}  // namespace mighty::flow

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "cec/cec.hpp"
#include "flow/flow.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "test_util.hpp"

/// Corpus-level batch execution (flow::Corpus + flow::BatchRunner): a
/// network's result in a `threads=N` batch must be bit-identical to its
/// standalone `threads=1` pipeline run (checked structurally via BLIF
/// serialization), every optimized network must be SAT-equivalent to its
/// input, and the BatchReport roll-up must equal the sum of the per-network
/// reports.  These tests carry the `parallel` ctest label: the batch runner
/// plus the shared oracle are exactly the concurrency surface the
/// ThreadSanitizer CI leg exists for.

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

/// Four small depth-optimized networks: nontrivial cut structure, test-sized.
const Corpus& small_corpus() {
  static const Corpus corpus = [] {
    Corpus c;
    c.add("adder12", algebra::depth_optimize(gen::make_adder_n(12)));
    c.add("max8", algebra::depth_optimize(gen::make_max_n(8)));
    c.add("mult6", algebra::depth_optimize(gen::make_multiplier_n(6)));
    c.add("sqrt6", algebra::depth_optimize(gen::make_sqrt_n(6)));
    return c;
  }();
  return corpus;
}

constexpr const char* kScript = "TF;BFD;size";

// --- Corpus ------------------------------------------------------------------

TEST(CorpusTest, AddKeepsOrderAndRejectsDuplicates) {
  Corpus corpus;
  corpus.add("b", testutil::random_mig(3, 10, 2, 1)).add("a", testutil::random_mig(3, 10, 2, 2));
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus[0].name, "b");  // insertion order, not sorted
  EXPECT_EQ(corpus[1].name, "a");
  EXPECT_EQ(corpus.find("a"), 1u);
  EXPECT_EQ(corpus.find("missing"), corpus.size());
  EXPECT_THROW(corpus.add("a", testutil::random_mig(3, 10, 2, 3)),
               std::invalid_argument);
}

TEST(CorpusTest, FromDirectorySortsByFilename) {
  const auto dir = std::filesystem::temp_directory_path() / "mighty_corpus_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Written out of order; the loader must sort by filename.
  io::write_blif_file((dir / "zeta.blif").string(), gen::make_adder_n(2), "zeta");
  io::write_blif_file((dir / "alpha.blif").string(), gen::make_adder_n(3), "alpha");
  std::ofstream(dir / "notes.txt") << "not a network\n";  // ignored
  const auto corpus = Corpus::from_directory(dir.string());
  ASSERT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus[0].name, "alpha");
  EXPECT_EQ(corpus[1].name, "zeta");
  EXPECT_EQ(corpus[0].mig.num_pis(), 6u);
  EXPECT_TRUE(cec::random_simulation_equal(corpus[1].mig, gen::make_adder_n(2), 8, 7));
  std::filesystem::remove_all(dir);
}

TEST(CorpusTest, FromMissingDirectoryThrows) {
  EXPECT_THROW(Corpus::from_directory("/nonexistent/mighty/corpus"),
               std::runtime_error);
}

TEST(CorpusTest, ExportedCorpusMatchesGenerated) {
  // tools/make_corpus.cmake exports Corpus::generated_arithmetic to
  // $MIGHTY_CORPUS_DIR at build time; the ctest environment points here.
  const char* dir = std::getenv("MIGHTY_CORPUS_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "MIGHTY_CORPUS_DIR not set (run under ctest)";
  }
  // Once the environment promises a corpus, a missing directory is a broken
  // export, not a reason to skip — the consistency check must stay red.
  ASSERT_TRUE(std::filesystem::is_directory(dir))
      << "MIGHTY_CORPUS_DIR points at a missing directory: " << dir;
  const auto exported = Corpus::from_directory(dir);
  const auto generated = Corpus::generated_arithmetic();
  ASSERT_EQ(exported.size(), generated.size());
  for (size_t i = 0; i < generated.size(); ++i) {
    EXPECT_EQ(exported[i].name, generated[i].name);
    EXPECT_EQ(exported[i].mig.num_pis(), generated[i].mig.num_pis());
    EXPECT_EQ(exported[i].mig.num_pos(), generated[i].mig.num_pos());
  }
}

// --- batch == standalone determinism -----------------------------------------

TEST(BatchFlowTest, BatchMatchesStandaloneAtAnyThreadCount) {
  const Corpus& corpus = small_corpus();
  const auto pipeline = Pipeline::parse(kScript);

  // The reference: every network standalone, threads=1.
  std::vector<mig::Mig> reference;
  std::vector<FlowReport> reference_reports(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    auto session = make_session(1);
    reference.push_back(
        pipeline.run(corpus[i].mig, session, &reference_reports[i]));
  }

  for (const uint32_t threads : {1u, 4u}) {
    auto session = make_session(threads);
    BatchReport report;
    const auto results = BatchRunner(session).run(corpus, pipeline, &report);
    ASSERT_EQ(results.size(), corpus.size());
    ASSERT_EQ(report.networks.size(), corpus.size());
    EXPECT_EQ(report.failures(), 0u);
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(to_blif(results[i]), to_blif(reference[i]))
          << corpus[i].name << " diverges in a threads=" << threads << " batch";
      const FlowReport& batch_flow = report.networks[i].flow;
      const FlowReport& standalone = reference_reports[i];
      EXPECT_EQ(report.networks[i].name, corpus[i].name);
      ASSERT_EQ(batch_flow.passes.size(), standalone.passes.size());
      for (size_t p = 0; p < standalone.passes.size(); ++p) {
        EXPECT_EQ(batch_flow.passes[p].size_after, standalone.passes[p].size_after);
        EXPECT_EQ(batch_flow.passes[p].depth_after, standalone.passes[p].depth_after);
        EXPECT_EQ(batch_flow.passes[p].replacements, standalone.passes[p].replacements);
        EXPECT_EQ(batch_flow.passes[p].oracle_queries,
                  standalone.passes[p].oracle_queries);
      }
      EXPECT_EQ(batch_flow.size_after, standalone.size_after);
      EXPECT_EQ(batch_flow.depth_after, standalone.depth_after);
    }
  }
}

TEST(BatchFlowTest, OptimizedNetworksAreSatEquivalentToInputs) {
  const Corpus& corpus = small_corpus();
  auto session = make_session(4);
  const auto results =
      BatchRunner(session).run(corpus, Pipeline::parse(kScript));
  ASSERT_EQ(results.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(cec::check_equivalence(corpus[i].mig, results[i]).status,
              cec::CecStatus::equivalent)
        << corpus[i].name;
  }
}

// --- report roll-up ----------------------------------------------------------

TEST(BatchFlowTest, ReportTotalsEqualSumOfNetworkReports) {
  const Corpus& corpus = small_corpus();
  auto session = make_session(4);
  BatchReport report;
  BatchRunner(session).run(corpus, Pipeline::parse(kScript), &report);

  uint32_t size_before = 0, size_after = 0;
  uint64_t depth_before = 0, depth_after = 0;
  uint64_t queries = 0, answered = 0, cache5 = 0, synthesized = 0, failures = 0;
  for (const auto& network : report.networks) {
    size_before += network.flow.size_before;
    size_after += network.flow.size_after;
    depth_before += network.flow.depth_before;
    depth_after += network.flow.depth_after;
    queries += network.flow.oracle_queries;
    answered += network.flow.oracle_answered;
    cache5 += network.flow.oracle_cache5_hits;
    synthesized += network.flow.oracle_synthesized;
    failures += network.flow.oracle_failures;
    EXPECT_GT(network.flow.seconds, 0.0) << network.name;
  }
  EXPECT_EQ(report.size_before, size_before);
  EXPECT_EQ(report.size_after, size_after);
  EXPECT_EQ(report.depth_before, depth_before);
  EXPECT_EQ(report.depth_after, depth_after);
  EXPECT_EQ(report.oracle_queries, queries);
  EXPECT_EQ(report.oracle_answered, answered);
  EXPECT_EQ(report.oracle_cache5_hits, cache5);
  EXPECT_EQ(report.oracle_synthesized, synthesized);
  EXPECT_EQ(report.oracle_failures, failures);
  EXPECT_GT(report.oracle_queries, 0u);
  EXPECT_GE(report.seconds, 0.0);
  EXPECT_NE(report.summary().find("corpus"), std::string::npos);
}

// --- scheduling-surface edges ------------------------------------------------

/// A pass that fails on one specific network (identified by PI count).
class ExplodingPass final : public Pass {
public:
  explicit ExplodingPass(uint32_t pis) : pis_(pis) {}
  std::string name() const override { return "explode"; }
  mig::Mig run(const mig::Mig& mig, Session&, FlowReport& report) const override {
    if (mig.num_pis() == pis_) throw std::runtime_error("exploding on request");
    PassStats entry;
    entry.name = name();
    entry.size_before = entry.size_after = mig.count_live_gates();
    entry.depth_before = entry.depth_after = mig.depth();
    report.passes.push_back(std::move(entry));
    return mig;
  }
  std::unique_ptr<Pass> clone() const override {
    return std::make_unique<ExplodingPass>(pis_);
  }

private:
  uint32_t pis_;
};

TEST(BatchFlowTest, FailedNetworkPassesThroughAndOthersComplete) {
  const Corpus& corpus = small_corpus();
  const size_t victim = corpus.find("max8");
  ASSERT_LT(victim, corpus.size());
  Pipeline pipeline;
  pipeline.rewrite("TF").add(
      std::make_unique<ExplodingPass>(corpus[victim].mig.num_pis()));
  for (const uint32_t threads : {1u, 4u}) {
    auto session = make_session(threads);
    BatchReport report;
    const auto results = BatchRunner(session).run(corpus, pipeline, &report);
    EXPECT_EQ(report.failures(), 1u);
    EXPECT_NE(report.networks[victim].error.find("exploding"), std::string::npos);
    // The failed network passes through unchanged; the rest optimized.
    EXPECT_EQ(to_blif(results[victim]), to_blif(corpus[victim].mig));
    for (size_t i = 0; i < corpus.size(); ++i) {
      if (i == victim) continue;
      EXPECT_TRUE(report.networks[i].error.empty()) << corpus[i].name;
      EXPECT_LT(results[i].count_live_gates(), corpus[i].mig.count_live_gates());
    }
  }
}

/// A pass with a bug: its output's PO 0 points past the last node.
class CorruptingPass final : public Pass {
public:
  std::string name() const override { return "corrupt"; }
  mig::Mig run(const mig::Mig& mig, Session&, FlowReport&) const override {
    mig::Mig out = mig;
    out.replace_output(0, mig::Signal(out.num_nodes(), false));
    return out;
  }
  std::unique_ptr<Pass> clone() const override {
    return std::make_unique<CorruptingPass>();
  }
};

TEST(BatchFlowTest, BetweenPassCheckRunsOnEveryBatchPass) {
  // The session's check level holds for batch runs exactly as for
  // Pipeline::run: the corrupt network never reaches the report.
  const Corpus& corpus = small_corpus();
  Pipeline pipeline;
  pipeline.add(std::make_unique<CorruptingPass>());
  for (const uint32_t threads : {1u, 4u}) {
    auto session = make_session(threads);
    session.set_check_level(CheckLevel::full);
    BatchReport report;
    const auto results = BatchRunner(session).run(corpus, pipeline, &report);
    EXPECT_EQ(report.failures(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_NE(report.networks[i].error.find(
                    "invariant check failed after pass 'corrupt'"),
                std::string::npos)
          << corpus[i].name << ": " << report.networks[i].error;
      EXPECT_EQ(to_blif(results[i]), to_blif(corpus[i].mig)) << corpus[i].name;
    }
  }
}

// --- corpus-wide oracle sharing ----------------------------------------------

TEST(BatchFlowTest, SharedOracleAmortizesSynthesisAcrossNetworks) {
  // Two structurally similar networks: the 5-input functions the first one
  // synthesizes must be cache hits for the second, so the batch performs
  // strictly fewer syntheses than the sum of cold per-network sessions —
  // without changing any result.
  Corpus corpus;
  corpus.add("adder12", algebra::depth_optimize(gen::make_adder_n(12)));
  corpus.add("adder16", algebra::depth_optimize(gen::make_adder_n(16)));
  const auto pipeline = Pipeline::parse("TF5");
  EXPECT_EQ(pipeline.to_string(), "TF5");  // the 5-cut word round-trips

  uint64_t cold_synthesized = 0;
  std::vector<mig::Mig> cold_results;
  for (const auto& entry : corpus) {
    auto session = make_session(1);
    FlowReport report;
    cold_results.push_back(pipeline.run(entry.mig, session, &report));
    cold_synthesized += report.oracle_synthesized;
  }

  auto session = make_session(2);
  BatchReport report;
  const auto results = BatchRunner(session).run(corpus, pipeline, &report);
  EXPECT_GT(report.oracle_synthesized, 0u);
  EXPECT_LT(report.oracle_synthesized, cold_synthesized);
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(to_blif(results[i]), to_blif(cold_results[i])) << corpus[i].name;
  }
}

}  // namespace
}  // namespace mighty::flow

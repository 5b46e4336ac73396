#include "flow/batch.hpp"

#include <cstdio>
#include <exception>
#include <functional>

#include "flow/session.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

namespace mighty::flow {

std::vector<mig::Mig> BatchRunner::run(const Corpus& corpus, const Pipeline& pipeline,
                                       BatchReport* report) {
  BatchReport local;
  BatchReport& out = report != nullptr ? (*report = BatchReport{}, *report) : local;

  const size_t count = corpus.size();
  std::vector<mig::Mig> results;
  results.reserve(count);
  out.networks.resize(count);
  for (size_t i = 0; i < count; ++i) {
    results.push_back(corpus[i].mig);
    out.networks[i].name = corpus[i].name;
    out.networks[i].flow.size_before = corpus[i].mig.count_live_gates();
    out.networks[i].flow.depth_before = corpus[i].mig.depth();
  }
  if (count == 0) return results;

  // Materialize the database and oracle before any concurrent task asks for
  // them: Session's lazy initialization is single-threaded by design.  A
  // pipeline of purely algebraic/mapping passes never queries them, and must
  // not pay (or trigger) a database load.
  if (pipeline.uses_oracle()) session_.oracle();

  const auto start = util::Clock::now();

  // One (network, pass) execution: transforms results[i] in place and
  // appends to its private per-network report.  Tasks of different networks
  // touch disjoint elements, so no locking is needed.
  auto execute_pass = [&](size_t i, size_t pass_index) {
    const auto pass_start = util::Clock::now();
    results[i] = pipeline.run_pass(pass_index, results[i], session_,
                                   out.networks[i].flow);
    out.networks[i].flow.seconds += util::seconds_since(pass_start);
  };
  auto fail_network = [&](size_t i, const char* what) {
    out.networks[i].error = what;
    results[i] = corpus[i].mig;  // a failed network passes through unchanged
  };
  auto finalize_network = [&](size_t i) {
    FlowReport& flow = out.networks[i].flow;
    flow.size_after = results[i].count_live_gates();
    flow.depth_after = results[i].depth();
    flow.accumulate_oracle_totals();
  };

  // Two-level scheduling: each (network, pass) unit is one task, and a
  // finished pass enqueues its network's next pass — so up to `threads`
  // networks are in flight, and a pass's own FFR shards fan out over the
  // same pool underneath.  At parallelism 1 the group runs every task inline
  // at submit, so networks run to completion in corpus order.
  util::ThreadPool::TaskGroup group(session_.pool());
  std::function<void(size_t, size_t)> step = [&](size_t i, size_t pass_index) {
    if (pass_index < pipeline.num_passes()) {
      try {
        execute_pass(i, pass_index);
      } catch (const std::exception& e) {
        fail_network(i, e.what());
        finalize_network(i);
        return;
      }
      group.submit([&step, i, pass_index] { step(i, pass_index + 1); });
      return;
    }
    finalize_network(i);
  };
  for (size_t i = 0; i < count; ++i) {
    group.submit([&step, i] { step(i, 0); });
  }
  group.wait();

  out.seconds = util::seconds_since(start);
  out.finalize();
  // Persist everything this batch synthesized in one write (a no-op without
  // a session cache path, or when the corpus brought nothing new).
  session_.save_cache();
  return results;
}

// --- BatchReport -------------------------------------------------------------

size_t BatchReport::failures() const {
  size_t n = 0;
  for (const auto& network : networks) {
    if (!network.error.empty()) ++n;
  }
  return n;
}

double BatchReport::oracle_hit_rate() const {
  return oracle_rate(oracle_answered, oracle_queries);
}

double BatchReport::cache5_reuse_rate() const {
  return oracle_rate(oracle_cache5_hits, oracle_cache5_hits + oracle_synthesized);
}

void BatchReport::finalize() {
  size_before = size_after = 0;
  depth_before = depth_after = 0;
  oracle_queries = oracle_answered = oracle_cache5_hits = 0;
  oracle_synthesized = oracle_failures = 0;
  for (const auto& network : networks) {
    if (!network.error.empty()) continue;
    size_before += network.flow.size_before;
    size_after += network.flow.size_after;
    depth_before += network.flow.depth_before;
    depth_after += network.flow.depth_after;
    oracle_queries += network.flow.oracle_queries;
    oracle_answered += network.flow.oracle_answered;
    oracle_cache5_hits += network.flow.oracle_cache5_hits;
    oracle_synthesized += network.flow.oracle_synthesized;
    oracle_failures += network.flow.oracle_failures;
  }
}

std::string BatchReport::summary() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line), "%-16s %18s %13s %9s  %s\n", "network", "size",
                "depth", "time[s]", "detail");
  out += line;
  for (const auto& network : networks) {
    const auto& f = network.flow;
    if (!network.error.empty()) {
      std::snprintf(line, sizeof(line), "%-16s %18s %13s %9s  FAILED: %s\n",
                    network.name.c_str(), "-", "-", "-", network.error.c_str());
      out += line;
      continue;
    }
    char detail[64] = "";
    if (f.oracle_queries > 0) {
      std::snprintf(detail, sizeof(detail), "%llu queries, %llu replacements",
                    static_cast<unsigned long long>(f.oracle_queries),
                    static_cast<unsigned long long>(f.replacements()));
    }
    std::snprintf(line, sizeof(line), "%-16s %8u -> %6u %5u -> %4u %9.2f  %s\n",
                  network.name.c_str(), f.size_before, f.size_after, f.depth_before,
                  f.depth_after, f.seconds, detail);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "corpus %8u -> %6u gates, %5llu -> %5llu depth, %.2fs wall, "
                "oracle %llu/%llu answered (%.0f%%), 5-cut cache reuse %.0f%%\n",
                size_before, size_after,
                static_cast<unsigned long long>(depth_before),
                static_cast<unsigned long long>(depth_after), seconds,
                static_cast<unsigned long long>(oracle_answered),
                static_cast<unsigned long long>(oracle_queries),
                100.0 * oracle_hit_rate(), 100.0 * cache5_reuse_rate());
  out += line;
  if (const size_t failed = failures(); failed > 0) {
    std::snprintf(line, sizeof(line), "%zu network(s) FAILED\n", failed);
    out += line;
  }
  return out;
}

}  // namespace mighty::flow

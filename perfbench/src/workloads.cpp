#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "api/api.hpp"
#include "exact/database.hpp"
#include "exact/exact_synthesis.hpp"
#include "flow/batch.hpp"
#include "flow/corpus.hpp"
#include "flow/pipeline.hpp"
#include "flow/session.hpp"
#include "gen/arith.hpp"
#include "io/io.hpp"
#include "mig/algebra/algebra.hpp"
#include "mig/cuts.hpp"
#include "mig/simulation.hpp"
#include "npn/npn.hpp"
#include "reference.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace mighty;

namespace {

constexpr uint32_t kBatchThreads = 4;  ///< session threads of the batch workloads
constexpr uint32_t kJobWorkers = 2;    ///< serve_warm daemon job workers
constexpr size_t kClients = 4;         ///< serve_warm closed-loop clients
/// Set-ups per run (setup_s is their median): at least kMinSetups, more
/// while they take under kSetupBudgetSeconds in total, at most kMaxSetups.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetSeconds = 1.0;
/// serve_warm runs until both --seconds passed and this many jobs completed,
/// so the p99 latency has at least ten samples beyond it.
constexpr uint64_t kMinServeJobs = 1000;
constexpr double kServeHardCapSeconds = 60.0;
constexpr const char* kServeScript = "TF5;size";

// --- shared helpers ------------------------------------------------------------

std::string to_blif(const mig::Mig& m) {
  std::ostringstream os;
  io::write_blif(os, m);
  return os.str();
}

mig::Mig from_blif(const std::string& text) {
  std::istringstream is(text);
  return io::read_blif(is);
}

/// FNV-1a over a byte range, chained through `h`.
uint64_t fnv(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Structural digest of a network: every node's fanins and every output.
uint64_t digest(const mig::Mig& m) {
  uint64_t h = kFnvBasis;
  const uint32_t header[2] = {m.num_pis(), m.num_nodes()};
  h = fnv(h, header, sizeof(header));
  for (uint32_t n = m.num_pis() + 1; n < m.num_nodes(); ++n) {
    for (const mig::Signal s : m.fanins(n)) {
      const uint32_t raw = s.raw();
      h = fnv(h, &raw, sizeof(raw));
    }
  }
  for (const mig::Signal s : m.outputs()) {
    const uint32_t raw = s.raw();
    h = fnv(h, &raw, sizeof(raw));
  }
  return h;
}

exact::Database load_database(const std::string& path) {
  auto db = exact::Database::load(path);
  if (!db) throw std::runtime_error("cannot load NPN-4 database " + path);
  return std::move(*db);
}

struct Named {
  std::string name;
  mig::Mig mig;
};

/// The workload's input networks in their canonical order.
std::vector<Named> base_networks(const std::string& workload) {
  std::vector<Named> out;
  if (workload == "epfl_paper_flow") {
    // Depth optimization dominates set-up; the circuits are independent, so
    // it runs on the workload's kBatchThreads threads.
    for (auto& b : gen::epfl_arithmetic_suite()) out.push_back({b.name, std::move(b.mig)});
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (size_t i = next++; i < out.size(); i = next++) {
        out[i].mig = algebra::depth_optimize(out[i].mig);
      }
    };
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kBatchThreads; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
    return out;
  }
  for (const auto& entry : flow::Corpus::generated_arithmetic()) {
    out.push_back({entry.name, entry.mig});
  }
  return out;
}

std::vector<NetworkSpec> specs_of(const std::vector<Named>& networks) {
  std::vector<NetworkSpec> specs;
  for (const auto& n : networks) {
    const auto spec = spec_for(n.name);
    if (!spec) throw std::runtime_error("no reference model for network " + n.name);
    specs.push_back(*spec);
  }
  return specs;
}

/// Checks the reference against the unoptimized inputs once per run: a
/// model that disagrees with the generators would make every verdict
/// meaningless, so it is a set-up failure, not a job failure.
void check_reference(const std::vector<Named>& inputs, const std::vector<NetworkSpec>& specs) {
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Verdict v = verify(inputs[i].mig, specs[i]);
    if (!v.ok) {
      throw std::runtime_error("reference model disagrees with input " + inputs[i].name +
                               ": " + v.detail);
    }
  }
}

/// Cross-seed determinism guard: the first run of a workload in a build
/// records its output digest; later runs (any seed) must reproduce it.
void check_digest(const Options& options, uint64_t value, Outcome& outcome) {
  const std::string path = options.state_dir + "/" + options.workload + ".digest";
  std::ifstream in(path);
  uint64_t recorded = 0, seed = 0;
  if (in >> std::hex >> recorded >> std::dec >> seed) {
    if (recorded != value) {
      outcome.problems.push_back("outputs differ from the run with seed " +
                                 std::to_string(seed));
    }
    return;
  }
  std::ofstream out(path);
  out << std::hex << value << std::dec << ' ' << options.seed << '\n';
}

/// Lines of an oracle cache file after its header.
std::set<std::string> cache_lines(const std::string& path) {
  std::set<std::string> lines;
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (!line.empty()) lines.insert(line);
  }
  return lines;
}

void add(std::vector<Metric>& metrics, const std::string& name, double value,
         const std::string& unit) {
  metrics.push_back({name, value, unit});
}

/// The daemon's Session would build a database in place of one that does
/// not load; the benchmark refuses instead, so its input never changes.
void require_database(const std::string& path) { load_database(path); }

/// Tracing cost of a measured phase: its CPU seconds over those seconds
/// less the time the phase's threads spent inside the tracer.
void add_overhead_ratio(std::vector<Metric>& metrics, double phase_cpu, double tracer_seconds) {
  add(metrics, "trace.overhead_ratio", phase_cpu / (phase_cpu - tracer_seconds), "ratio");
}

void write_trace(const Options& options, const Tracer& tracer) {
  if (options.trace_out.empty()) return;
  std::filesystem::create_directories(
      std::filesystem::path(options.trace_out).parent_path());
  std::ofstream out(options.trace_out);
  tracer.write_chrome_json(out);
  std::printf("trace: %zu spans written to %s\n", tracer.records().size(),
              options.trace_out.c_str());
}

// --- per-layer replays (traced runs) ---------------------------------------------

/// exact/sat: re-synthesizes every function the run's oracle synthesized
/// (cache lines new since set-up) with the oracle's own options, one span
/// per call, on kBatchThreads threads.
void replay_exact(const std::vector<std::string>& new_lines, const opt::OracleParams& oracle,
                  Tracer& tracer, std::vector<Metric>& metrics) {
  std::vector<tt::TruthTable> functions;
  std::vector<bool> cached_ok;
  for (const auto& line : new_lines) {
    std::istringstream is(line);
    std::string hex, status;
    is >> hex >> status;
    functions.push_back(tt::TruthTable::from_hex(5, hex));
    cached_ok.push_back(status == "ok");
  }
  exact::SynthesisOptions options;
  options.max_gates = oracle.max_gates;
  options.conflict_limit = oracle.synthesis_conflict_limit;

  std::vector<exact::SynthesisResult> results(functions.size());
  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (size_t i = next++; i < functions.size(); i = next++) {
      auto span = tracer.span("exact.synthesize_minimum_mig", i);
      results[i] = exact::synthesize_minimum_mig(functions[i], options);
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kBatchThreads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  uint64_t steps = 0, steps_unsat = 0, conflicts = 0, conflicts_unsat = 0, timeouts = 0;
  uint64_t disagreements = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const size_t n = r.conflicts_per_step.size();
    // Every step before the last is UNSAT; the last is SAT on success,
    // unknown on a timeout, and UNSAT when the gate bound is exhausted.
    const size_t unsat = r.status == exact::SynthesisStatus::exhausted ? n : (n > 0 ? n - 1 : 0);
    steps += n;
    steps_unsat += unsat;
    for (size_t k = 0; k < n; ++k) {
      conflicts += r.conflicts_per_step[k];
      if (k < unsat) conflicts_unsat += r.conflicts_per_step[k];
    }
    if (r.status == exact::SynthesisStatus::timeout) ++timeouts;
    if ((r.status == exact::SynthesisStatus::success) != cached_ok[i]) ++disagreements;
  }
  if (disagreements > 0) {
    std::printf("note: %llu replayed syntheses disagree with the oracle's cached outcome\n",
                static_cast<unsigned long long>(disagreements));
  }
  add(metrics, "exact.synth_calls", static_cast<double>(functions.size()), "count");
  add(metrics, "exact.synth_s", tracer.total_seconds("exact.synthesize_minimum_mig"), "s");
  add(metrics, "exact.steps", static_cast<double>(steps), "count");
  add(metrics, "exact.steps_unsat", static_cast<double>(steps_unsat), "count");
  add(metrics, "exact.conflicts", static_cast<double>(conflicts), "count");
  add(metrics, "exact.conflicts_unsat", static_cast<double>(conflicts_unsat), "count");
  add(metrics, "exact.timeouts", static_cast<double>(timeouts), "count");
}

struct CutReplayTotals {
  uint64_t cuts = 0;
  uint64_t lookups = 0;
  uint64_t checksum = 0;  ///< folds every result in, so no call is dead code
};

/// One network's cut layer, call type by call type, one span each: k=4 cut
/// enumeration; simulation of every non-trivial cut; support reduction plus
/// database lookup of every cut function (what the oracle does per query);
/// NPN canonization of the distinct reduced functions (what the lookup memo
/// does per miss).
void replay_network_cuts(const mig::Mig& m, const exact::Database& db, Tracer& tracer,
                         uint64_t job, CutReplayTotals& totals) {
  cuts::CutEnumerationParams params;
  params.cut_size = 4;
  std::vector<std::vector<cuts::Cut>> sets;
  {
    auto span = tracer.span("mig.enumerate_cuts", job);
    sets = cuts::enumerate_cuts(m, params);
  }
  totals.cuts += cuts::total_cut_count(sets);
  std::vector<tt::TruthTable> functions;
  {
    auto span = tracer.span("mig.simulate_cut", job);
    for (uint32_t n = m.num_pis() + 1; n < m.num_nodes(); ++n) {
      for (const cuts::Cut& cut : sets[n]) {
        if (cut.size == 1 && cut.leaves[0] == n) continue;  // the trivial cut
        functions.push_back(mig::simulate_cut(m, n, cut.leaf_vector()));
      }
    }
  }
  sets.clear();
  std::vector<uint64_t> reduced;
  reduced.reserve(functions.size());
  {
    auto span = tracer.span("exact.db_lookup", job);
    std::vector<uint32_t> old_vars;
    for (const tt::TruthTable& f : functions) {
      const tt::TruthTable g = f.shrink_to_support(old_vars).extend(4);
      totals.checksum += db.lookup(g).transform.input_negations;
      reduced.push_back(g.bits());
    }
  }
  totals.lookups += functions.size();
  std::sort(reduced.begin(), reduced.end());
  reduced.erase(std::unique(reduced.begin(), reduced.end()), reduced.end());
  auto span = tracer.span("npn.canonize", job);
  for (const uint64_t bits : reduced) {
    totals.checksum += npn::canonize(tt::TruthTable(4, bits)).representative.bits();
  }
}

/// mig/npn: cut enumeration, cut simulation, database lookup and NPN
/// canonization over the workload's input networks.
void replay_cuts(const std::vector<Named>& inputs, const exact::Database& db, Tracer& tracer,
                 std::vector<Metric>& metrics) {
  const exact::Database fresh(db);  // copies drop the lookup memo: start cold
  CutReplayTotals totals;
  for (size_t i = 0; i < inputs.size(); ++i) {
    replay_network_cuts(inputs[i].mig, fresh, tracer, i, totals);
  }
  add(metrics, "mig.cuts.enum_s", tracer.total_seconds("mig.enumerate_cuts"), "s");
  add(metrics, "mig.cuts.count", static_cast<double>(totals.cuts), "count");
  add(metrics, "mig.simulate_cut_s", tracer.total_seconds("mig.simulate_cut"), "s");
  add(metrics, "exact.db_lookup_s", tracer.total_seconds("exact.db_lookup"), "s");
  add(metrics, "exact.db_lookups", static_cast<double>(totals.lookups), "count");
  add(metrics, "npn.canonize_s", tracer.total_seconds("npn.canonize"), "s");
}

/// io: BLIF write and read of every input and output network.
void replay_io(const std::vector<const mig::Mig*>& networks, Tracer& tracer,
               std::vector<Metric>& metrics) {
  uint64_t bytes = 0;
  for (size_t i = 0; i < networks.size(); ++i) {
    std::string text;
    {
      auto span = tracer.span("io.write_blif", i);
      text = to_blif(*networks[i]);
    }
    bytes += text.size();
    auto span = tracer.span("io.read_blif", i);
    const mig::Mig parsed = from_blif(text);
    span.end();
    if (parsed.num_pos() != networks[i]->num_pos()) {
      throw std::runtime_error("BLIF round trip changed the output count");
    }
  }
  add(metrics, "io.read_blif_s", tracer.total_seconds("io.read_blif"), "s");
  add(metrics, "io.write_blif_s", tracer.total_seconds("io.write_blif"), "s");
  add(metrics, "io.blif_bytes", static_cast<double>(bytes), "B");
}

struct OptTotals {
  uint64_t syntheses = 0, failures = 0, cache5_hits = 0, queries = 0, answered = 0;
  uint64_t cuts = 0, replacements = 0, passes = 0;
  std::map<std::string, double> pass_seconds;
  std::map<std::string, std::vector<double>> network_seconds;

  void add_flow(const std::string& network, const flow::FlowReport& r) {
    syntheses += r.oracle_synthesized;
    failures += r.oracle_failures;
    cache5_hits += r.oracle_cache5_hits;
    queries += r.oracle_queries;
    answered += r.oracle_answered;
    cuts += r.cuts_evaluated();
    replacements += r.replacements();
    passes += r.passes.size();
    for (const auto& p : r.passes) pass_seconds[p.name] += p.seconds;
    network_seconds[network].push_back(r.seconds);
  }

  /// opt.* and flow.* metrics, counts scaled by `scale` (1 for one batch;
  /// jobs-per-job-set for the daemon, whose job count depends on the clock).
  void emit(double scale, std::vector<Metric>& metrics) const {
    const auto scaled = [scale](uint64_t v) { return static_cast<double>(v) * scale; };
    add(metrics, "opt.oracle.syntheses", scaled(syntheses), "count");
    add(metrics, "opt.oracle.synth_failures", scaled(failures), "count");
    add(metrics, "opt.oracle.cache5_hits", scaled(cache5_hits), "count");
    const uint64_t cache5_lookups = cache5_hits + syntheses;
    add(metrics, "opt.oracle.cache5_reuse",
        flow::oracle_rate(cache5_hits, cache5_lookups), "ratio");
    add(metrics, "opt.oracle.queries", scaled(queries), "count");
    add(metrics, "opt.oracle.answered_ratio", flow::oracle_rate(answered, queries), "ratio");
    add(metrics, "opt.cuts_evaluated", scaled(cuts), "count");
    add(metrics, "opt.replacements", scaled(replacements), "count");
    add(metrics, "opt.replace_ratio",
        cuts == 0 ? 0.0 : static_cast<double>(replacements) / static_cast<double>(cuts),
        "ratio");
    for (const char* pass : {"TF5", "TF", "BFD", "size"}) {
      const auto it = pass_seconds.find(pass);
      add(metrics, std::string("flow.pass_s.") + pass,
          it == pass_seconds.end() ? 0.0 : it->second * scale, "s");
    }
    add(metrics, "flow.passes", scaled(passes), "count");
    double critical = 0.0;
    for (const auto& [name, seconds] : network_seconds) {
      critical = std::max(critical, median(seconds));
    }
    add(metrics, "flow.critical_network_s", critical, "s");
  }
};

/// Per-layer metrics of layers a workload does not exercise read 0, so every
/// traced run reports the same metric set.
void emit_serve_zeros(std::vector<Metric>& metrics) {
  for (const char* name : {"serve.submit_ms_p50", "serve.result_wait_ms_p50",
                           "api.run_ms_p50", "serve.overhead_ms_p50"}) {
    add(metrics, name, 0.0, "ms");
  }
  add(metrics, "serve.latency_samples", 0.0, "count");
}

void emit_end_to_end(Outcome& outcome, double setup_s, double wall_s, double cpu_s,
                     uint64_t gates, uint64_t depth, double jobs_per_s,
                     const std::vector<double>& latencies_ms) {
  auto& m = outcome.metrics;
  add(m, "setup_s", setup_s, "s");
  add(m, "wall_s", wall_s, "s");
  add(m, "cpu_s", cpu_s, "s");
  add(m, "gates_out", static_cast<double>(gates), "count");
  add(m, "depth_out", static_cast<double>(depth), "count");
  const double attempted = static_cast<double>(std::max<uint64_t>(outcome.attempted, 1));
  add(m, "pass_ratio", 1.0 - static_cast<double>(outcome.failed) / attempted, "ratio");
  add(m, "peak_rss_mb", peak_rss_mb(), "MB");
  add(m, "jobs_per_s", jobs_per_s, "1/s");
  add(m, "latency_p50_ms", percentile(latencies_ms, 50), "ms");
  add(m, "latency_p99_ms", percentile(latencies_ms, 99), "ms");
  std::printf("fail_ratio %.6f (%llu of %llu failed); latency over %zu samples, %zu beyond p99\n",
              static_cast<double>(outcome.failed) / attempted,
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted), latencies_ms.size(),
              samples_beyond(latencies_ms, 99));
}

// --- batch workloads ---------------------------------------------------------------

struct BatchRep {
  double wall = 0.0;
  double cpu = 0.0;
  const flow::Corpus* corpus = nullptr;  ///< the entry order this run used
  flow::BatchReport report;
  std::vector<mig::Mig> outputs;  ///< kept for the phase's first run only
  std::vector<uint64_t> digests;  ///< per network, in corpus order
};

BatchRep run_batch(const exact::Database& db, const flow::Corpus& corpus,
                   const flow::Pipeline& pipeline, Tracer& tracer,
                   const std::string& cache_out) {
  flow::SessionParams params;
  params.threads = kBatchThreads;
  flow::Session session(db, params);  // fresh session: cold 5-input cache
  BatchRep rep;
  rep.corpus = &corpus;
  const double c0 = cpu_now();
  const double t0 = wall_now();
  {
    auto span = tracer.span("flow.BatchRunner.run");
    rep.outputs = flow::BatchRunner(session).run(corpus, pipeline, &rep.report);
  }
  rep.wall = wall_now() - t0;
  rep.cpu = cpu_now() - c0;
  if (!cache_out.empty()) session.oracle().save_cache(cache_out);
  for (const mig::Mig& out : rep.outputs) rep.digests.push_back(digest(out));
  return rep;
}

/// Batch runs until `seconds` have passed, one unit at a time; a unit runs
/// the batch once in every entry order.  Unit wall and CPU are per batch.
struct BatchPhase {
  std::vector<BatchRep> runs;
  std::vector<double> unit_walls;
  std::vector<double> unit_cpus;
  double cpu = 0.0;             ///< of the whole phase
  double tracer_seconds = 0.0;  ///< spent inside the tracer during the phase
};

BatchPhase run_batch_phase(const exact::Database& db, const std::vector<flow::Corpus>& orders,
                           const flow::Pipeline& pipeline, double seconds, Tracer& tracer,
                           const std::string& cache_out) {
  BatchPhase phase;
  const double start = wall_now();
  do {
    double wall = 0.0, cpu = 0.0;
    for (const flow::Corpus& corpus : orders) {
      phase.runs.push_back(
          run_batch(db, corpus, pipeline, tracer, phase.runs.empty() ? cache_out : ""));
      // Later runs are compared by digest; dropping their networks keeps
      // the process footprint that of one batch.
      if (phase.runs.size() > 1) phase.runs.back().outputs.clear();
      wall += phase.runs.back().wall;
      cpu += phase.runs.back().cpu;
    }
    phase.unit_walls.push_back(wall / static_cast<double>(orders.size()));
    phase.unit_cpus.push_back(cpu / static_cast<double>(orders.size()));
    phase.cpu += cpu;
  } while (wall_now() - start < seconds);
  phase.tracer_seconds = tracer.self_seconds();
  return phase;
}

Outcome run_batch_workload(const Options& options) {
  const bool cold_corpus = options.workload == "corpus_tf5_cold";
  const flow::Pipeline pipeline =
      flow::Pipeline::parse(cold_corpus ? "TF5;size" : "(TF;BFD;size)*");
  // The EPFL batch wall is bimodal in the Divisor's entry position (the
  // batch runner queues networks first come, first served): ~23 s when it
  // is among the first four, ~30 s otherwise.  Each unit therefore runs the
  // seeded order and its reverse, which puts it early exactly once.  A
  // traced run reports only per-layer metrics, which come from the first
  // batch, so it runs the seeded order alone.
  const bool paired = !cold_corpus && !options.trace;
  // --- set-up, repeated; setup_s is the median -----------------------------------
  std::vector<double> setup_times;
  exact::Database db;
  std::vector<Named> inputs;
  std::vector<flow::Corpus> orders;
  for (double total = 0.0; setup_times.size() < kMinSetups ||
                           (setup_times.size() < kMaxSetups && total < kSetupBudgetSeconds);) {
    const double t0 = wall_now();
    db = load_database(options.db_path);
    inputs = base_networks(options.workload);
    std::vector<size_t> order = seeded_permutation(inputs.size(), options.seed, 0x62617463);
    orders.assign(paired ? 2 : 1, flow::Corpus());
    for (flow::Corpus& corpus : orders) {
      for (const size_t i : order) corpus.add(inputs[i].name, inputs[i].mig);
      std::reverse(order.begin(), order.end());
    }
    setup_times.push_back(wall_now() - t0);
    total += setup_times.back();
  }
  const std::vector<NetworkSpec> specs = specs_of(inputs);
  check_reference(inputs, specs);

  // --- measured phase -------------------------------------------------------------
  Tracer tracer(options.trace);
  const std::string cache_out =
      options.trace ? options.state_dir + "/" + options.workload + ".trace.cache" : "";
  BatchPhase phase;
  {
    auto root = tracer.span("workload." + options.workload);
    phase = run_batch_phase(db, orders, pipeline, options.seconds, tracer, cache_out);
  }
  const double wall_s = median(phase.unit_walls);
  const double cpu_s = median(phase.unit_cpus);

  // --- correctness: reference, repeat determinism, cross-seed digest -----------
  Outcome outcome;
  std::map<std::string, uint64_t> reference_digest;
  std::map<std::string, bool> network_ok;
  uint64_t gates = 0, depth = 0;
  const BatchRep& first = phase.runs.front();
  for (size_t i = 0; i < first.corpus->size(); ++i) {
    const std::string& name = (*first.corpus)[i].name;
    const Verdict v = verify(first.outputs[i], *spec_for(name));
    network_ok[name] = v.ok && first.report.networks[i].error.empty();
    if (!network_ok[name]) {
      std::printf("FAIL %s: %s%s\n", name.c_str(), v.detail.c_str(),
                  first.report.networks[i].error.c_str());
    }
    reference_digest[name] = first.digests[i];
    gates += first.outputs[i].count_live_gates();
    depth += first.outputs[i].depth();
  }
  std::vector<double> latencies_ms;
  double total_wall = 0.0;
  for (const BatchRep& rep : phase.runs) {
    latencies_ms.push_back(rep.wall * 1e3);
    total_wall += rep.wall;
    for (size_t i = 0; i < rep.corpus->size(); ++i) {
      const std::string& name = (*rep.corpus)[i].name;
      ++outcome.attempted;
      const bool same = rep.digests[i] == reference_digest[name];
      if (!network_ok[name] || !same) ++outcome.failed;
      if (!same) outcome.problems.push_back("a repeat changed the output of " + name);
    }
  }
  uint64_t all = kFnvBasis;
  for (const auto& [name, d] : reference_digest) all = fnv(all, &d, sizeof(d));
  check_digest(options, all, outcome);

  std::printf("%s: %zu networks x %zu batch runs, wall %.3fs, cpu %.3fs, %llu gates out;"
              " batch walls",
              options.workload.c_str(), inputs.size(), phase.runs.size(), wall_s, cpu_s,
              static_cast<unsigned long long>(gates));
  for (const BatchRep& rep : phase.runs) std::printf(" %.3fs", rep.wall);
  std::printf("\n");
  if (!options.trace) {
    emit_end_to_end(outcome, median(setup_times), wall_s, cpu_s, gates, depth,
                    static_cast<double>(outcome.attempted) / total_wall, latencies_ms);
    return outcome;
  }

  // --- per-layer metrics and replays ---------------------------------------------
  auto& m = outcome.metrics;
  const std::set<std::string> lines = cache_lines(cache_out);
  replay_exact(std::vector<std::string>(lines.begin(), lines.end()),
               flow::SessionParams{}.oracle, tracer, m);
  OptTotals totals;
  for (const auto& network : first.report.networks) totals.add_flow(network.name, network.flow);
  totals.emit(1.0, m);
  add(m, "util.pool.cpu_util", cpu_s / (wall_s * kBatchThreads), "ratio");
  replay_cuts(inputs, db, tracer, m);
  std::vector<const mig::Mig*> io_networks;
  for (const auto& n : inputs) io_networks.push_back(&n.mig);
  for (const auto& out : first.outputs) io_networks.push_back(&out);
  replay_io(io_networks, tracer, m);
  emit_serve_zeros(m);
  add_overhead_ratio(m, phase.cpu, phase.tracer_seconds);
  write_trace(options, tracer);
  return outcome;
}

// --- serve_warm --------------------------------------------------------------------

struct Daemon {
  std::unique_ptr<api::LocalService> service;
  std::unique_ptr<serve::Server> server;

  /// `threads` is the session parallelism inside each job (1 when serving
  /// the measured workload).
  Daemon(const std::string& db_path, const std::string& socket_path, uint32_t threads = 1) {
    api::LocalService::Params params;
    params.session.database_path = db_path;
    params.session.threads = threads;
    params.job_workers = kJobWorkers;
    service = std::make_unique<api::LocalService>(params);
    serve::ServerParams server_params;
    server_params.socket_path = socket_path;
    server = std::make_unique<serve::Server>(*service, server_params);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  /// The service stops before the server: the reverse deadlocks on
  /// connections still blocked in result().
  ~Daemon() {
    service->shutdown();
    server->stop();
  }
};

std::vector<api::JobRequest> serve_jobs(const std::vector<Named>& inputs) {
  std::vector<api::JobRequest> jobs;
  for (const auto& n : inputs) {
    api::JobRequest request;
    request.name = n.name;
    request.script = kServeScript;
    request.network_blif = to_blif(n.mig);
    jobs.push_back(std::move(request));
  }
  return jobs;
}

/// One client submits every job once, then collects the results in order
/// (the daemon's job workers set the concurrency); returns the result BLIFs.
std::vector<std::string> run_round(const std::string& socket_path,
                                   const std::vector<api::JobRequest>& jobs) {
  serve::RemoteService client(socket_path);
  std::vector<api::JobId> ids;
  for (const auto& job : jobs) ids.push_back(client.submit(job));
  std::vector<std::string> blifs;
  for (size_t j = 0; j < jobs.size(); ++j) {
    const api::JobRequest& job = jobs[j];
    api::JobResult result = client.result(ids[j]);
    if (result.code != api::ErrorCode::ok) {
      throw std::runtime_error("warm-up job " + job.name + " failed [" +
                               api::error_code_name(result.code) + "]: " + result.message);
    }
    blifs.push_back(std::move(result.network_blif));
  }
  return blifs;
}

std::string warm_cache_path(const Options& options) {
  return options.state_dir + "/serve_warm.cache";
}

struct Sample {
  size_t job = 0;
  double latency = 0.0;  ///< submit start to result received, seconds
  double run = 0.0;      ///< JobResult.report.seconds
  bool ok = false;
  flow::FlowReport report;
};

struct ServePhase {
  double wall = 0.0;
  double cpu = 0.0;
  double tracer_seconds = 0.0;  ///< spent inside the tracer during the phase
  uint64_t syntheses = 0;
  std::vector<Sample> samples;
  std::vector<std::string> errors;
};

/// kClients closed-loop clients, each on its own connection, each sending a
/// seeded permutation of the job set round after round.
ServePhase run_clients(Daemon& daemon, const Options& options,
                       const std::vector<api::JobRequest>& jobs,
                       const std::vector<std::string>& reference, Tracer& tracer) {
  ServePhase phase;
  std::vector<std::vector<Sample>> per_client(kClients);
  std::vector<std::string> errors(kClients);
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> job_ids{0};
  const uint64_t synth_before = daemon.service->stats().oracle_synthesized;
  const double c0 = cpu_now();
  const double start = wall_now();
  auto done = [&] {
    const double elapsed = wall_now() - start;
    return (elapsed >= options.seconds && completed.load() >= kMinServeJobs) ||
           elapsed >= kServeHardCapSeconds;
  };
  auto client_loop = [&](size_t c) {
    try {
      serve::RemoteService client(options.socket_path);
      for (uint64_t round = 0; !done(); ++round) {
        for (const size_t j : seeded_permutation(jobs.size(), options.seed, c << 32 | round)) {
          if (done()) break;
          Sample s;
          s.job = j;
          auto job_span = tracer.span("serve.job", job_ids++);
          const double t0 = wall_now();
          auto submit_span = tracer.span("serve.submit");
          const api::JobId id = client.submit(jobs[j]);
          submit_span.end();
          auto result_span = tracer.span("serve.result");
          api::JobResult result = client.result(id);
          result_span.end();
          s.latency = wall_now() - t0;
          job_span.end();
          s.run = result.report.seconds;
          s.ok = result.code == api::ErrorCode::ok && result.network_blif == reference[j];
          s.report = std::move(result.report);
          per_client[c].push_back(std::move(s));
          ++completed;
        }
      }
    } catch (const std::exception& e) {
      errors[c] = e.what();
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
  for (auto& t : threads) t.join();
  phase.wall = wall_now() - start;
  phase.cpu = cpu_now() - c0;
  phase.tracer_seconds = tracer.self_seconds();
  phase.syntheses = daemon.service->stats().oracle_synthesized - synth_before;
  for (size_t c = 0; c < kClients; ++c) {
    for (auto& s : per_client[c]) phase.samples.push_back(std::move(s));
    if (!errors[c].empty()) phase.errors.push_back("client " + std::to_string(c) + ": " + errors[c]);
  }
  return phase;
}

Outcome run_serve_workload(const Options& options) {
  require_database(options.db_path);
  const std::string warm = warm_cache_path(options);

  // --- set-up, repeated; setup_s is the median -----------------------------------
  // One set-up: inputs and BLIF jobs, a daemon on a warm-loaded oracle, and
  // one warm-up round through the daemon that yields the reference outputs.
  std::vector<double> setup_times;
  std::unique_ptr<Daemon> daemon;
  std::vector<Named> inputs;
  std::vector<api::JobRequest> jobs;
  std::vector<std::string> reference;
  uint64_t warmup_syntheses = 0;
  for (double total = 0.0; setup_times.size() < kMinSetups ||
                           (setup_times.size() < kMaxSetups && total < kSetupBudgetSeconds);) {
    daemon.reset();
    const double t0 = wall_now();
    inputs = base_networks(options.workload);
    jobs = serve_jobs(inputs);
    daemon = std::make_unique<Daemon>(options.db_path, options.socket_path);
    const api::CacheInfo info = daemon->service->cache_load(warm);
    if (info.status != "loaded") {
      throw std::runtime_error("warm cache " + warm + " not loaded (" + info.status +
                               "); run `perfbench prepare` first");
    }
    const uint64_t before = daemon->service->stats().oracle_synthesized;
    reference = run_round(options.socket_path, jobs);
    warmup_syntheses = daemon->service->stats().oracle_synthesized - before;
    setup_times.push_back(wall_now() - t0);
    total += setup_times.back();
  }
  const std::vector<NetworkSpec> specs = specs_of(inputs);
  check_reference(inputs, specs);

  // --- measured phase ------------------------------------------------------------
  Tracer tracer(options.trace);
  ServePhase phase;
  {
    auto root = tracer.span("workload.serve_warm");
    phase = run_clients(*daemon, options, jobs, reference, tracer);
  }
  const std::string cache_out = options.state_dir + "/serve_warm.trace.cache";
  if (options.trace) daemon->service->cache_save(cache_out);

  Outcome outcome;
  for (const auto& e : phase.errors) outcome.problems.push_back(e);
  if (warmup_syntheses > 0) {
    outcome.problems.push_back("the warm cache missed part of the job set: warm-up performed " +
                               std::to_string(warmup_syntheses) + " syntheses");
  }
  if (phase.syntheses > 0) {
    outcome.problems.push_back("warm phase performed " + std::to_string(phase.syntheses) +
                               " syntheses");
  }
  // Every distinct output is checked once against the reference; repeats
  // must be bit-identical to it (checked per job in run_clients).
  std::vector<bool> job_ok(jobs.size());
  std::vector<mig::Mig> outputs;
  uint64_t gates = 0, depth = 0, all = kFnvBasis;
  for (size_t j = 0; j < jobs.size(); ++j) {
    outputs.push_back(from_blif(reference[j]));
    const Verdict v = verify(outputs.back(), specs[j]);
    job_ok[j] = v.ok;
    if (!v.ok) std::printf("FAIL %s: %s\n", jobs[j].name.c_str(), v.detail.c_str());
    gates += outputs.back().count_live_gates();
    depth += outputs.back().depth();
    all = fnv(all, reference[j].data(), reference[j].size());
  }
  check_digest(options, all, outcome);
  std::vector<double> latencies_ms;
  std::set<std::string> diverged;
  for (const Sample& s : phase.samples) {
    ++outcome.attempted;
    if (!s.ok || !job_ok[s.job]) ++outcome.failed;
    if (!s.ok) diverged.insert(jobs[s.job].name);
    latencies_ms.push_back(s.latency * 1e3);
  }
  for (const auto& name : diverged) {
    outcome.problems.push_back("job " + name + " failed or returned BLIF that differs from its warm-up result");
  }
  if (phase.samples.size() < kMinServeJobs) {
    outcome.problems.push_back("only " + std::to_string(phase.samples.size()) +
                               " jobs completed before the time cap");
  }
  const double per_job = phase.wall / static_cast<double>(phase.samples.size());
  std::printf("serve_warm: %zu jobs over %zu clients in %.3fs (%.1f jobs/s), %llu syntheses\n",
              phase.samples.size(), kClients, phase.wall, 1.0 / per_job,
              static_cast<unsigned long long>(phase.syntheses));
  if (!options.trace) {
    emit_end_to_end(outcome, median(setup_times), phase.wall, phase.cpu, gates, depth,
                    1.0 / per_job, latencies_ms);
    return outcome;
  }

  // --- per-layer metrics and replays ---------------------------------------------
  auto& m = outcome.metrics;
  const std::set<std::string> before = cache_lines(warm);
  std::vector<std::string> new_lines;
  for (const auto& line : cache_lines(cache_out)) {
    if (before.count(line) == 0) new_lines.push_back(line);
  }
  replay_exact(new_lines, flow::SessionParams{}.oracle, tracer, m);
  OptTotals totals;
  std::vector<double> run_ms, overhead_ms;
  double busy = 0.0;
  for (const Sample& s : phase.samples) {
    totals.add_flow(jobs[s.job].name, s.report);
    run_ms.push_back(s.run * 1e3);
    overhead_ms.push_back((s.latency - s.run) * 1e3);
    busy += s.run;
  }
  totals.emit(static_cast<double>(jobs.size()) / static_cast<double>(phase.samples.size()), m);
  // Busy share of the job workers: process CPU would also count the
  // clients, the connection threads and the BLIF comparisons.
  add(m, "util.pool.cpu_util", busy / (phase.wall * kJobWorkers), "ratio");
  replay_cuts(inputs, load_database(options.db_path), tracer, m);
  std::vector<const mig::Mig*> io_networks;
  for (const auto& n : inputs) io_networks.push_back(&n.mig);
  for (const auto& out : outputs) io_networks.push_back(&out);
  replay_io(io_networks, tracer, m);
  std::vector<double> submit_ms, wait_ms;
  for (const double d : tracer.durations("serve.submit")) submit_ms.push_back(d * 1e3);
  for (const double d : tracer.durations("serve.result")) wait_ms.push_back(d * 1e3);
  add(m, "serve.submit_ms_p50", percentile(submit_ms, 50), "ms");
  add(m, "serve.result_wait_ms_p50", percentile(wait_ms, 50), "ms");
  add(m, "api.run_ms_p50", percentile(run_ms, 50), "ms");
  add(m, "serve.overhead_ms_p50", percentile(overhead_ms, 50), "ms");
  add(m, "serve.latency_samples", static_cast<double>(phase.samples.size()), "count");
  add_overhead_ratio(m, phase.cpu, phase.tracer_seconds);
  write_trace(options, tracer);
  return outcome;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"corpus_tf5_cold", "epfl_paper_flow",
                                                 "serve_warm"};
  return names;
}

Outcome run_workload(const Options& options) {
  std::filesystem::create_directories(options.state_dir);
  if (options.workload == "serve_warm") return run_serve_workload(options);
  return run_batch_workload(options);
}

void prepare(const Options& options) {
  std::filesystem::create_directories(options.state_dir);
  require_database(options.db_path);
  const std::string warm = warm_cache_path(options);
  if (std::filesystem::exists(warm)) return;
  // The warm cache is built through the daemon path itself: the BLIF round
  // trip reorders cut leaves, and the 5-input cache keys raw truth tables,
  // so a cache warmed in-process would not cover what the daemon queries.
  // Oracle answers do not depend on the thread count, so this one-time cold
  // pass shards each job over kBatchThreads threads to finish sooner.
  const double t0 = wall_now();
  const auto jobs = serve_jobs(base_networks("serve_warm"));
  Daemon daemon(options.db_path, options.socket_path, kBatchThreads);
  run_round(options.socket_path, jobs);
  const size_t written = daemon.service->cache_save(warm);
  std::printf("prepared serve_warm warm cache: %zu entries in %.1fs\n", written,
              wall_now() - t0);
}

}  // namespace perfbench

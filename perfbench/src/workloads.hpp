#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file workloads.hpp
/// \brief The benchmark's three workloads (see perfbench/README.md).
///
///   * corpus_tf5_cold  — the generated 7-network corpus, `TF5;size`, one
///     BatchRunner run on a fresh Session (cold 5-input cache), 4 threads.
///   * epfl_paper_flow  — the 8 full-width EPFL arithmetic circuits,
///     depth-optimized, `(TF;BFD;size)*`, one BatchRunner run, 4 threads.
///   * serve_warm       — LocalService (2 job workers) behind serve::Server
///     on a unix socket, 4 closed-loop RemoteService clients resubmitting the
///     corpus as `TF5;size` BLIF jobs against a warm 5-input cache.
///
/// The seed permutes the order networks enter the batch (or each client's
/// job order); it never changes the inputs, so every output must be
/// identical across seeds.

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string db_path;      ///< NPN-4 database to load during set-up
  std::string state_dir;    ///< per-build state: warm cache, output digests
  std::string trace_out;    ///< Chrome trace file written by traced runs
  std::string socket_path;  ///< unix socket of the serve_warm daemon
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Guard violations (nondeterminism, syntheses in a warm phase, outputs
  /// that differ from another seed's run).  Any entry makes the run
  /// incorrect; failed jobs are counted in `failed` as well.
  std::vector<std::string> problems;

  bool correct() const { return failed == 0 && problems.empty(); }
};

const std::vector<std::string>& workload_names();

/// Runs one workload: set-up, the measured phase (untraced), and with
/// `trace` a traced phase plus the per-layer replays.  Trace-off runs report
/// the end-to-end metrics; trace-on runs the per-layer ones.  Throws on a
/// set-up failure.
Outcome run_workload(const Options& options);

/// One-time per-build preparation: builds the serve_warm warm cache through
/// the daemon path when the state directory does not hold one yet.
void prepare(const Options& options);

}  // namespace perfbench

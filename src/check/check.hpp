#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "check/report.hpp"
#include "exact/database.hpp"
#include "flow/pass.hpp"
#include "mig/ffr.hpp"
#include "mig/mig.hpp"
#include "mig/shard.hpp"
#include "opt/oracle.hpp"

/// \file check.hpp
/// \brief Structural invariant validation for every layer of the engine.
///
/// The rewriting loop is only sound while every intermediate network stays a
/// well-formed MIG; the shard-parallel passes are only deterministic while
/// every plan stays a disjoint, complete, wave-ordered cover; the CI gates
/// are only meaningful while every report's roll-up matches its trajectory.
/// This module states those invariants once, as executable checks with
/// precise diagnostics, so that
///
///   * the flow layer can run them between passes (Session::set_check_level),
///     turning every existing test into an invariant test;
///   * the `check` script word exposes them to shells and scripts;
///   * the fuzz harnesses (fuzz/) use them as the "accepted input must be
///     well-formed" half of their differential properties;
///   * `build_npn_db --lint` applies the artifact linters to the on-disk
///     NPN database and 5-input oracle cache beyond what a wholesale load
///     already validates.
///
/// Every validator returns a CheckReport rather than throwing, so callers
/// decide whether a finding is fatal; flow::Session throws std::logic_error
/// on the first failed between-pass check.

namespace mighty::check {

/// A raw, corruptible view of an MIG: the exact data the structural checks
/// judge, in a form tests can hand-mangle (Mig's own invariants are enforced
/// by construction, so a corrupted-MIG suite needs a representation that
/// admits corruption).  Node 0 is the constant; nodes 1..num_pis are PIs.
struct MigView {
  uint32_t num_pis = 0;
  /// Per-node fanin triples; terminals carry the all-constant default.
  std::vector<std::array<mig::Signal, 3>> fanins;
  std::vector<mig::Signal> outputs;

  static MigView of(const mig::Mig& m);

  uint32_t num_nodes() const { return static_cast<uint32_t>(fanins.size()); }
  bool is_gate(uint32_t n) const { return n > num_pis && n < num_nodes(); }
};

/// Structural invariants of the DAG itself, O(nodes): acyclicity via
/// topological fanin order, no dangling or self references, PO targets in
/// range, canonical (sorted, deduplicated, polarity-normalized) majority
/// fanins, intact terminals.
CheckReport validate_structure(const MigView& view);

/// Externally supplied per-node levels versus an independent recomputation
/// (the LevelTracker discipline: stale levels mean rewriting decisions
/// compare wrong depths).  `levels` must have one entry per node.
CheckReport validate_levels(const MigView& view, const std::vector<uint32_t>& levels);

/// Externally supplied fanout counts versus an independent recomputation.
CheckReport validate_fanouts(const MigView& view, const std::vector<uint32_t>& fanouts);

/// Full single-network validation: validate_structure plus the Mig's own
/// derived data (compute_levels, compute_fanout_counts, count_live_gates)
/// checked against independent recomputation over the raw view.
CheckReport validate(const mig::Mig& m);

/// What the flow's between-pass hook runs: validate_structure only when
/// `full` is false (O(nodes), cheap enough after every pass of a Debug test
/// run), otherwise validate() plus a fresh FFR partition, shard plan and
/// wave ordering validated end to end.
CheckReport validate_at(const mig::Mig& m, bool full);

/// FFR partition invariants: roots marked and topologically ordered, every
/// node's region root in range and marked, non-root members reaching their
/// root without crossing another root.
CheckReport validate_partition(const mig::Mig& m, const ffr::FfrPartition& partition);

/// Shard plan invariants: shards pairwise disjoint, together covering every
/// output-reachable gate, each shard's roots/nodes ascending, and every
/// shard node's region root grouped into the same shard.
CheckReport validate_shard_plan(const mig::Mig& m, const ffr::FfrPartition& partition,
                                const shard::ShardPlan& plan);

/// Wave ordering: for every live gate, any fanin in a *different* live
/// region must come from a region of strictly smaller level — the property
/// wave-parallel passes rely on to run regions of equal level concurrently.
/// `levels` is indexed by region root as produced by shard::region_levels.
CheckReport validate_wave_order(const mig::Mig& m, const ffr::FfrPartition& partition,
                                const std::vector<uint32_t>& levels);

/// FlowReport accounting: the whole-flow oracle roll-up must equal the sum
/// of the per-pass deltas, and every pass entry must conserve its counters
/// (answered <= queries; 5-input cache hits + syntheses <= queries;
/// failures <= syntheses).  Diagnostic `node` is the pass index.
CheckReport validate_report(const flow::FlowReport& report);

/// Oracle tally conservation: a report whose passes all tallied into
/// `tally` must agree with it exactly (the per-scope mirrors are bumped in
/// lockstep with the lifetime counters).
CheckReport validate_tally(const flow::FlowReport& report, const opt::OracleTally& tally);

// --- on-disk artifact linters -----------------------------------------------

/// NPN-4 database lint, beyond what Database::load validates wholesale:
/// exactly 222 classes, every representative its own NPN canonical form
/// ("canonical-form keys"), every chain over 4 variables realizing its
/// representative within the Theorem-2 bound of 7 gates.
CheckReport lint_database(const exact::Database& db);

/// 5-input oracle cache file lint: the diagnostics of the one cache-file
/// reader (opt::read_cache_file, which the oracle's loader runs too, so a
/// file lints without errors exactly when load_cache accepts it), plus a
/// warning when keys are not sorted (save_cache writes sorted; disorder
/// flags hand-editing).  Per-line diagnostics (`node` = 1-based line) cover
/// the header and its entry count, malformed lines and duplicate keys,
/// canonical-form keys (the stored chain must realize the key function and
/// re-serialize to the stored text; in a v2 file every key must be its own
/// NPN class representative, while v1 files key raw functions), and failure
/// budgets: -1 (proved absent, never retried) or any budget >= 0, retried
/// under a strictly larger one — a budget below -1 would rank as -1 and
/// freeze the class unanswered.
CheckReport lint_cache(std::istream& is);
/// lint_cache on the file at `path`; `artifact_io` when it cannot be opened.
CheckReport lint_cache_file(const std::string& path);

}  // namespace mighty::check

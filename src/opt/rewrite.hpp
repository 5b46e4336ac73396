#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exact/database.hpp"
#include "mig/cuts.hpp"
#include "mig/mig.hpp"

namespace mighty::util {
class ThreadPool;
}

/// \file rewrite.hpp
/// \brief MIG size optimization by functional hashing (paper Sec. IV).
///
/// Enumerates k-feasible cuts and replaces each with a minimum MIG for its
/// function, served by a ReplacementOracle: the precomputed NPN database for
/// 4-input cuts, cached on-demand synthesis for 5-input cuts.  Variants
/// (paper Sec. V-C naming):
///   T   top-down                       B   bottom-up
///   TD  top-down, depth-preserving     BD  bottom-up, depth-preserving
///   TF  top-down over fanout-free regions, etc.
/// The letter F selects fanout-free-region partitioning, D the
/// depth-preserving heuristic.

namespace mighty::opt {

class ReplacementOracle;
struct OracleTally;

enum class Direction { top_down, bottom_up };

struct RewriteParams {
  Direction direction = Direction::top_down;
  /// Partition into fanout-free regions first (paper Sec. IV-C).
  bool ffr_partition = false;
  /// Depth-preserving heuristic: discard replacements that locally increase
  /// the node's level (paper Sec. IV-A).
  bool depth_preserving = false;
  /// Bottom-up: number of candidates kept per node (paper: "a predetermined
  /// number of best candidates, similar to priority cuts").
  uint32_t max_candidates = 2;
  /// Bottom-up: cap on leaf-candidate combinations explored per cut.
  uint32_t max_combinations = 16;
  /// Extension discussed in the paper (Sec. IV, ref. [9]): also rewrite
  /// 5-input cuts, with minimum structures synthesized on demand and cached
  /// (the full 5-variable NPN enumeration being impractical).  The oracle's
  /// OracleParams decide within which budget 5-input cuts get answers.
  bool five_input_cuts = false;
  /// Worker pool for the fanout-free-region variants: their per-region
  /// analysis (cut enumeration, simulation, oracle queries, candidate
  /// search) runs one task per region concurrently, followed by a
  /// deterministic sequential merge — so the result is bit-identical for
  /// any pool size, including none.  Global variants ignore the pool (their
  /// cuts cross region boundaries and serialize).  Not owned.
  util::ThreadPool* pool = nullptr;
  /// Per-call oracle accounting sink of the drivers.  functional_hashing()
  /// installs its own and reports the result through RewriteStats.  Not
  /// owned.
  OracleTally* tally = nullptr;
};

struct RewriteStats {
  uint32_t size_before = 0;
  uint32_t size_after = 0;
  uint32_t depth_before = 0;
  uint32_t depth_after = 0;
  uint64_t cuts_evaluated = 0;
  uint64_t replacements = 0;
  /// Oracle activity of exactly this call, tallied per query rather than
  /// snapshotted from the shared oracle's lifetime counters — so attribution
  /// stays exact when concurrent passes (batch runs) share one oracle.
  uint64_t oracle_queries = 0;
  uint64_t oracle_answered = 0;
  uint64_t oracle_cache5_hits = 0;
  uint64_t oracle_synthesized = 0;
  uint64_t oracle_failures = 0;
  double seconds = 0.0;
};

/// Applies one pass of functional hashing over a caller-owned replacement
/// oracle, so its caches (5-input synthesis results, hit statistics) persist
/// across passes.  This is the primary entry point; multi-pass scripts should
/// prefer the `flow::Session` / `flow::Pipeline` API, which owns the oracle.
mig::Mig functional_hashing(const mig::Mig& mig, ReplacementOracle& oracle,
                            const RewriteParams& params = {},
                            RewriteStats* stats = nullptr);

/// Single-shot convenience overload: builds a private oracle per call with
/// default OracleParams.
/// Deprecated shim for pre-`flow` callers — nothing is shared between calls,
/// so iterated flows pay the oracle warm-up every pass.
mig::Mig functional_hashing(const mig::Mig& mig, const exact::Database& db,
                            const RewriteParams& params = {},
                            RewriteStats* stats = nullptr);

/// Translates a paper acronym ("T", "TD", "TF", "TFD", "B", "BD", "BF",
/// "BFD", case-insensitive) into parameters.  Throws std::invalid_argument
/// (naming the offending string) on unknown names.
RewriteParams variant_params(const std::string& acronym);

/// All acronyms accepted by variant_params, in the paper's table order.
std::vector<std::string> all_variants();

// --- shared internals (exposed for the two drivers and for tests) -----------

/// Cut enumeration settings of a pass: 4-input cuts, 5-input with
/// `five_input_cuts`, every cut kept.
cuts::CutEnumerationParams cut_params_for(const RewriteParams& params);

/// Fills `cone` with the nodes in the cone of (root, leaves): root first,
/// leaves and the constant excluded.  For a well-formed cut these are all
/// gates.  `cone` is caller scratch, so a pass can reuse one across cuts.
void cut_cone(const mig::Mig& mig, uint32_t root, std::span<const uint32_t> leaves,
              std::vector<uint32_t>& cone);

/// True iff no internal cone node other than the root has fanout outside the
/// cone (the paper's condition for a replaceable cut in global mode).
bool cone_is_replaceable(const mig::Mig& mig, std::span<const uint32_t> cone,
                         uint32_t root, const std::vector<uint32_t>& fanout_counts);

/// For each chain input, the longest path (in gates) from that input to the
/// chain output; -1 when the input is unused.  The oracle computes it once
/// per stored chain and reports it with every answer.
std::vector<int> chain_input_depths(const exact::MigChain& chain);

/// Top-down driver (Algorithm 1).
mig::Mig rewrite_top_down(const mig::Mig& mig, ReplacementOracle& oracle,
                          const RewriteParams& params, RewriteStats& stats);

/// Bottom-up driver (Algorithm 2).
mig::Mig rewrite_bottom_up(const mig::Mig& mig, ReplacementOracle& oracle,
                           const RewriteParams& params, RewriteStats& stats);

}  // namespace mighty::opt

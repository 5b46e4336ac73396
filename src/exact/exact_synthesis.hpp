#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "exact/chain.hpp"
#include "exact/encoding.hpp"
#include "tt/truth_table.hpp"

/// \file exact_synthesis.hpp
/// \brief Minimum-size and minimum-depth exact synthesis of MIGs (paper
/// Sec. III).
///
/// Size-minimum synthesis solves the decision problem "exists an MIG with k
/// gates for f" for k = 0, 1, 2, ... until satisfiable.  Depth-minimum
/// synthesis (used for the D(f) column of Table II) solves a complete-ternary-
/// tree formulation for increasing depth; sharing never reduces depth, so a
/// depth-optimal formula is also a depth-optimal circuit.

namespace mighty::exact {

enum class EncoderKind { onehot, smt };

struct SynthesisOptions {
  uint32_t max_gates = 20;
  /// Conflict budget per decision problem; -1 = unlimited.
  int64_t conflict_limit = -1;
  EncoderKind encoder = EncoderKind::onehot;
  EncodeOptions encode;
  /// If set, the chain is re-simulated and checked against f after
  /// extraction (cheap; on by default as a safety net).
  bool verify = true;
  /// After the size-minimum answer, also minimize depth among chains of
  /// that size: the same solver re-solves under "root no deeper than d" for
  /// d = depth - 1 down to 2 and stops at the first answer that is not SAT
  /// (one-hot encoder only).  Each depth step has the same conflict budget;
  /// a timed-out depth step keeps the best chain found so far.
  bool minimize_depth = false;
};

enum class SynthesisStatus {
  success,    ///< minimum chain found
  timeout,    ///< a decision problem exceeded the conflict budget
  exhausted,  ///< no solution within max_gates
};

struct SynthesisResult {
  SynthesisStatus status = SynthesisStatus::exhausted;
  MigChain chain;  ///< valid iff status == success
  /// Conflicts spent per decision problem, indexed by gate count offset.
  std::vector<uint64_t> conflicts_per_step;
  /// Conflicts spent per depth step (minimize_depth), in solve order.
  std::vector<uint64_t> conflicts_per_depth_step;
};

/// Finds a size-minimum MIG chain for f (up to 6 variables).
SynthesisResult synthesize_minimum_mig(const tt::TruthTable& f,
                                       const SynthesisOptions& options = {});

/// If f is constant or (complemented) projection, returns the trivial
/// zero-gate chain.
std::optional<MigChain> trivial_chain(const tt::TruthTable& f);

struct DepthSynthesisOptions {
  uint32_t max_depth = 6;
  int64_t conflict_limit = -1;
  /// Force the SAT tree formulation even for <= 4 variables (slow; the
  /// default path uses the exhaustive function-space depth table).
  bool use_sat = false;
};

struct DepthSynthesisResult {
  SynthesisStatus status = SynthesisStatus::exhausted;
  uint32_t depth = 0;
  MigChain chain;  ///< a depth-minimal realization (as a tree)
};

/// Finds the minimum depth D(f) over all MIGs for f, together with a witness.
DepthSynthesisResult synthesize_minimum_depth_mig(const tt::TruthTable& f,
                                                  const DepthSynthesisOptions& options = {});

}  // namespace mighty::exact

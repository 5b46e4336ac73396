#pragma once

#include "util/assert.hpp"
#include <cstdint>
#include <vector>

#include "mig/mig.hpp"

namespace mighty::util {
class ThreadPool;
}

/// \file algebra.hpp
/// \brief MIG algebraic rewriting (the paper's baseline substrate).
///
/// The paper starts from "heavily optimized" MIGs produced by the algebraic
/// depth/size optimization of the original MIG papers (refs. [3], [4]).  This
/// module implements that algebra:
///   Omega.M  majority:        <xxy> = x, <x!xy> = y   (applied by create_maj)
///   Omega.A  associativity:   <xu<yuz>> = <zu<yux>>
///   Omega.D  distributivity:  <xy<uvz>> = <<xyu><xyv>z>
///   Omega.I  inverters:       !<xyz> = <!x!y!z>        (polarity normalization)
///   Psi.C    compl. assoc.:   <xu<y!uz>> = <xu<yxz>>
/// plus greedy critical-path depth reduction and an algebraic size-reduction
/// pass built from the right-to-left distributivity.

namespace mighty::algebra {

/// Tracks node levels of a growing MIG so rewriting decisions can compare
/// depths without recomputation.
class LevelTracker {
public:
  explicit LevelTracker(mig::Mig& m);

  mig::Signal maj(mig::Signal a, mig::Signal b, mig::Signal c);
  uint32_t level(mig::Signal s) const {
    // Nodes must be created through maj() (or exist at construction);
    // anything else would read a level the tracker never computed.
    MIGHTY_ASSERT(s.index() < levels_.size());
    return levels_[s.index()];
  }
  mig::Mig& network() { return mig_; }

private:
  void refresh();
  mig::Mig& mig_;
  std::vector<uint32_t> levels_;
};

struct AlgebraStats {
  uint32_t size_before = 0, size_after = 0;
  uint32_t depth_before = 0, depth_after = 0;
  uint32_t applied_associativity = 0;
  uint32_t applied_distributivity = 0;
  uint32_t applied_complementary = 0;
  uint32_t rounds = 0;
};

struct DepthOptParams {
  /// Maximum full passes over the network.
  uint32_t max_rounds = 10;
  /// Allow distributivity moves (duplicate support gates) only when the
  /// critical fanin is at least this many levels above the others.
  uint32_t distributivity_threshold = 2;
  /// Size budget: distributivity (which duplicates logic) is suppressed once
  /// the network has grown beyond this factor of the input size; the
  /// size-neutral associativity moves keep running.  Prevents the duplication
  /// cascade on long carry/borrow chains.
  double max_growth = 2.0;
};

/// Greedy critical-path depth reduction (after ref. [3]).
mig::Mig depth_optimize(const mig::Mig& m, const DepthOptParams& params = {},
                        AlgebraStats* stats = nullptr);

struct SizeOptParams {
  uint32_t max_rounds = 4;
  /// Worker pool for rewriting the regions a round marks.  The reverse-
  /// distributivity rule only fires on single-fanout gate pairs, which lie in
  /// one fanout-free region, so each round scans the network inline, rewrites
  /// just the regions with a firing gate (concurrently on the pool), and
  /// splices every other region verbatim; the result is bit-identical for
  /// any pool size, including none.  Not owned.
  util::ThreadPool* pool = nullptr;
};

/// Algebraic size reduction: reverse distributivity and majority/relevance
/// simplifications (after ref. [4]).
mig::Mig size_optimize(const mig::Mig& m, const SizeOptParams& params = {},
                       AlgebraStats* stats = nullptr);

/// The paper's baseline script: interleaved depth and size passes.
mig::Mig baseline_optimize(const mig::Mig& m, AlgebraStats* stats = nullptr);

}  // namespace mighty::algebra

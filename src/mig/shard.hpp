#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mig/ffr.hpp"
#include "mig/mig.hpp"

namespace mighty::util {
class ThreadPool;
}

/// \file shard.hpp
/// \brief Balanced, disjoint shards of fanout-free regions.
///
/// The paper partitions the MIG into fanout-free regions precisely so that
/// functional hashing can treat them independently (Sec. IV-C); this planner
/// turns that independence into units of parallel work.  A shard is a group
/// of whole live FFRs: shards are pairwise disjoint, together cover every
/// output-reachable gate, and keep each shard's node list in ascending (=
/// topological) order so per-shard passes can run bottom-up sweeps locally.
///
/// The plan is a pure function of the network — region assignment uses
/// deterministic greedy balancing, never thread identity — which is the
/// foundation of the engine's `threads=N` == `threads=1` guarantee.

namespace mighty::shard {

struct Shard {
  /// Roots of the regions grouped into this shard, ascending (= topological).
  std::vector<uint32_t> roots;
  /// Every gate of those regions (roots included), ascending (= topological).
  std::vector<uint32_t> nodes;
};

struct ShardPlan {
  std::vector<Shard> shards;

  /// Total gates across all shards (= live gates of the partitioned network).
  uint64_t total_nodes() const {
    uint64_t total = 0;
    for (const auto& shard : shards) total += shard.nodes.size();
    return total;
  }
};

/// Shard count for a pass running on `pool` (null: inline).  A few shards
/// per thread lets the dynamic scheduler even out skewed region sizes; the
/// plan never affects a pass's result.
uint32_t shard_count(const util::ThreadPool* pool);

/// Groups the live regions of `partition` into at most `num_shards` balanced
/// shards (fewer when there are fewer live regions).  Balancing is greedy
/// largest-region-first onto the least-loaded shard with deterministic
/// tie-breaking; each shard's region set and node list come out sorted.
/// Only regions whose root is output-reachable are planned: dead regions
/// cannot influence the result network, so no pass should spend time there.
ShardPlan plan_ffr_shards(const mig::Mig& mig, const ffr::FfrPartition& partition,
                          uint32_t num_shards);

/// Dense view of the live regions for per-region passes.
struct RegionMembers {
  /// Live region roots in ascending (= topological) order.
  std::vector<uint32_t> live_roots;
  /// Dense index of each live root into `live_roots`/`members` (by node id;
  /// entries of other nodes are unspecified).
  std::vector<uint32_t> region_index;
  /// Member gates of each live region, ascending; the root is always last.
  std::vector<std::vector<uint32_t>> members;
};

/// Buckets every output-reachable gate into its region.
RegionMembers collect_region_members(const mig::Mig& mig,
                                     const ffr::FfrPartition& partition);

/// The distinct nodes feeding a region from outside (other regions' roots,
/// PIs — never the constant), in deterministic first-encounter order.  This
/// is the PI order of a region-private network: PI j realizes inputs[j].
std::vector<uint32_t> region_inputs(const mig::Mig& mig,
                                    const std::vector<uint32_t>& members);

/// One region's rewritten implementation, as built by a region-parallel pass.
struct RegionNet {
  mig::Mig net;                  ///< private network; PI j realizes inputs[j]
  std::vector<uint32_t> inputs;  ///< original node ids feeding the region
  mig::Signal chosen;            ///< the region root's implementation in `net`
};

/// Deterministic merge step shared by the region-parallel passes: builds a
/// network with the PIs of `mig`, then replays every live region of
/// `regions` in ascending root order, then the POs of `mig`.  `region(i)` is
/// the rebuilt region of `regions.live_roots[i]`, whose `chosen` cone is
/// replayed; null means the pass left the region unchanged, and its members
/// are replayed from `mig` in ascending order.  Structural hashing in the
/// result re-establishes cross-region sharing.
mig::Mig splice_regions(const mig::Mig& mig, const RegionMembers& regions,
                        const std::function<const RegionNet*(size_t)>& region);

/// Per-region topological levels: a region's level is one more than the
/// maximum level of the regions feeding its gates (pure-PI regions at 0).
/// Regions of equal level are independent, so wave-parallel passes process
/// levels in order and regions within a level concurrently.  Terminals and
/// dead regions get level 0.  Indexed by region root; non-root entries are 0.
std::vector<uint32_t> region_levels(const mig::Mig& mig,
                                    const ffr::FfrPartition& partition);

}  // namespace mighty::shard

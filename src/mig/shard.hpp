#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mig/ffr.hpp"
#include "mig/mig.hpp"

/// \file shard.hpp
/// \brief Fanout-free regions as the units of parallel work.
///
/// The paper partitions the MIG into fanout-free regions precisely so that
/// functional hashing can treat them independently (Sec. IV-C).  Every FFR
/// pass turns that independence into one task per live region: the regions
/// are disjoint, together cover every output-reachable gate, and each one's
/// members are listed in ascending (= topological) order so a task can sweep
/// its region bottom-up.  The thread pool hands the tasks out dynamically,
/// which evens out skewed region sizes.
///
/// Everything here is a pure function of the network, never of thread
/// identity, which is the foundation of the engine's `threads=N` ==
/// `threads=1` guarantee.

namespace mighty::shard {

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

#include "mig/shard.hpp"

#include <algorithm>
#include <cstdint>

#include "util/assert.hpp"

namespace mighty::shard {

RegionMembers collect_region_members(const mig::Mig& mig,
                                     const ffr::FfrPartition& partition) {
  RegionMembers result;
  const auto live = mig.live_mask();
  result.region_index.assign(mig.num_nodes(), 0);
  for (const uint32_t root : partition.roots) {
    if (!live[root]) continue;
    result.region_index[root] = static_cast<uint32_t>(result.live_roots.size());
    result.live_roots.push_back(root);
  }
  // Counted first, so each member list is allocated once, at its size.
  std::vector<uint32_t> count(result.live_roots.size(), 0);
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (mig.is_gate(n) && live[n]) ++count[result.region_index[partition.region_root[n]]];
  }
  result.members.resize(result.live_roots.size());
  for (size_t r = 0; r < count.size(); ++r) result.members[r].reserve(count[r]);
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!mig.is_gate(n) || !live[n]) continue;
    result.members[result.region_index[partition.region_root[n]]].push_back(n);
  }
  return result;
}

namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

/// What RegionSlots numbers into, one per thread.
struct SlotScratch {
  std::vector<uint32_t> slot_of;  ///< by node id; kNoSlot outside the region
  std::vector<uint32_t> inputs;
  bool in_use = false;
};

SlotScratch& slot_scratch() {
  thread_local SlotScratch scratch;
  return scratch;
}

}  // namespace

RegionSlots::RegionSlots(const mig::Mig& mig, const std::vector<uint32_t>& members)
    : members_(members), slot_of_(slot_scratch().slot_of), inputs_(slot_scratch().inputs) {
  MIGHTY_ASSERT(!slot_scratch().in_use && "one RegionSlots per thread at a time");
  slot_scratch().in_use = true;
  if (slot_of_.size() < mig.num_nodes()) slot_of_.resize(mig.num_nodes(), kNoSlot);
  slot_of_[mig::Mig::constant_node] = 0;
  for (uint32_t i = 0; i < members.size(); ++i) slot_of_[members[i]] = 1 + i;
  // Every fanin without a slot yet is an input seen for the first time.
  inputs_.clear();
  for (const uint32_t v : members) {
    for (const mig::Signal s : mig.fanins(v)) {
      if (slot_of_[s.index()] != kNoSlot) continue;
      slot_of_[s.index()] = size();
      inputs_.push_back(s.index());
    }
  }
}

RegionSlots::~RegionSlots() {
  slot_of_[mig::Mig::constant_node] = kNoSlot;
  for (const uint32_t v : members_) slot_of_[v] = kNoSlot;
  for (const uint32_t f : inputs_) slot_of_[f] = kNoSlot;
  slot_scratch().in_use = false;
}

namespace {

/// Reused by splice_regions across the regions it replays.
struct SpliceScratch {
  std::vector<uint8_t> keep;
  std::vector<mig::Signal> map;
};

/// Replays the cone of `region.chosen` into `result`, mapping PI j through
/// `committed_sig[region.inputs[j]]`; returns the root's signal.
mig::Signal splice_region(const RegionNet& region,
                          const std::vector<mig::Signal>& committed_sig,
                          mig::Mig& result, SpliceScratch& scratch) {
  const mig::Mig& net = region.net;
  // Nodes are in topological order, so one downward sweep marks the cone.
  auto& keep = scratch.keep;
  keep.assign(net.num_nodes(), 0);
  keep[region.chosen.index()] = 1;
  for (uint32_t p = region.chosen.index(); p > net.num_pis(); --p) {
    if (!keep[p]) continue;
    for (const mig::Signal f : net.fanins(p)) keep[f.index()] = 1;
  }
  auto& map = scratch.map;
  map.assign(net.num_nodes(), result.get_constant(false));
  for (uint32_t j = 0; j < region.inputs.size(); ++j) {
    map[1 + j] = committed_sig[region.inputs[j]];
  }
  for (uint32_t p = net.num_pis() + 1; p <= region.chosen.index(); ++p) {
    if (!keep[p]) continue;
    const auto& f = net.fanins(p);
    map[p] = result.create_maj(map[f[0].index()] ^ f[0].is_complemented(),
                               map[f[1].index()] ^ f[1].is_complemented(),
                               map[f[2].index()] ^ f[2].is_complemented());
  }
  return map[region.chosen.index()] ^ region.chosen.is_complemented();
}

}  // namespace

mig::Mig splice_regions(const mig::Mig& mig, const RegionMembers& regions,
                        const std::function<const RegionNet*(size_t)>& region) {
  mig::Mig result;
  result.reserve(mig.num_nodes());
  std::vector<mig::Signal> committed_sig(mig.num_nodes(), result.get_constant(false));
  for (uint32_t i = 0; i < mig.num_pis(); ++i) {
    committed_sig[1 + i] = result.create_pi();
  }
  SpliceScratch scratch;
  for (size_t i = 0; i < regions.live_roots.size(); ++i) {
    if (const RegionNet* rebuilt = region(i)) {
      committed_sig[regions.live_roots[i]] =
          splice_region(*rebuilt, committed_sig, result, scratch);
      continue;
    }
    for (const uint32_t v : regions.members[i]) {  // unchanged: copy from `mig`
      const auto& f = mig.fanins(v);
      committed_sig[v] =
          result.create_maj(committed_sig[f[0].index()] ^ f[0].is_complemented(),
                            committed_sig[f[1].index()] ^ f[1].is_complemented(),
                            committed_sig[f[2].index()] ^ f[2].is_complemented());
    }
  }
  for (const mig::Signal o : mig.outputs()) {
    result.create_po(committed_sig[o.index()] ^ o.is_complemented());
  }
  return result;
}

std::vector<uint32_t> region_levels(const mig::Mig& mig,
                                    const ffr::FfrPartition& partition) {
  std::vector<uint32_t> level(mig.num_nodes(), 0);
  // Nodes are topologically ordered, so every gate's fanin regions are
  // resolved before its own root is finalized; accumulate into the root.
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!mig.is_gate(n)) continue;
    const uint32_t root = partition.region_root[n];
    for (const mig::Signal s : mig.fanins(n)) {
      const uint32_t f = s.index();
      if (!mig.is_gate(f)) continue;
      const uint32_t f_root = partition.region_root[f];
      if (f_root == root) continue;  // in-region edge
      level[root] = std::max(level[root], level[f_root] + 1);
    }
  }
  return level;
}

}  // namespace mighty::shard

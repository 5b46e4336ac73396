#include "mig/shard.hpp"

#include <algorithm>
#include <unordered_set>

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
  result.members.resize(result.live_roots.size());
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!mig.is_gate(n) || !live[n]) continue;
    result.members[result.region_index[partition.region_root[n]]].push_back(n);
  }
  return result;
}

std::vector<uint32_t> region_inputs(const mig::Mig& mig,
                                    const std::vector<uint32_t>& members) {
  std::vector<uint32_t> inputs;
  // The set only deduplicates; the vector carries the deterministic
  // first-encounter order.  (A linear probe of `inputs` would go quadratic
  // on chain-shaped networks that collapse into one huge region.)
  std::unordered_set<uint32_t> seen;
  for (const uint32_t v : members) {
    for (const mig::Signal s : mig.fanins(v)) {
      const uint32_t f = s.index();
      if (mig.is_constant(f)) continue;
      if (mig.is_gate(f) && std::binary_search(members.begin(), members.end(), f)) {
        continue;  // in-region gate
      }
      if (seen.insert(f).second) inputs.push_back(f);
    }
  }
  return inputs;
}

namespace {

/// Replays the live cone of `region.chosen` into `result`, mapping PI j
/// through `committed_sig[region.inputs[j]]`; returns the root's signal.
mig::Signal splice_region(const RegionNet& region,
                          const std::vector<mig::Signal>& committed_sig,
                          mig::Mig& result) {
  const mig::Mig& net = region.net;
  const auto keep = net.live_mask();
  std::vector<mig::Signal> map(net.num_nodes(), result.get_constant(false));
  for (uint32_t j = 0; j < region.inputs.size(); ++j) {
    map[1 + j] = committed_sig[region.inputs[j]];
  }
  for (uint32_t p = 0; p < net.num_nodes(); ++p) {
    if (!net.is_gate(p) || !keep[p]) continue;
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
  for (size_t i = 0; i < regions.live_roots.size(); ++i) {
    if (const RegionNet* rebuilt = region(i)) {
      committed_sig[regions.live_roots[i]] = splice_region(*rebuilt, committed_sig, result);
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

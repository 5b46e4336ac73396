#include "mig/shard.hpp"

#include <algorithm>
#include <unordered_set>

#include "util/thread_pool.hpp"

namespace mighty::shard {

uint32_t shard_count(const util::ThreadPool* pool) {
  const uint32_t parallelism = pool != nullptr ? pool->parallelism() : 1;
  return parallelism > 1 ? parallelism * 4 : 1;
}

ShardPlan plan_ffr_shards(const mig::Mig& mig, const ffr::FfrPartition& partition,
                          uint32_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  const auto live = mig.live_mask();

  // Member gates per live region, keyed by root.  region_root is total on
  // gates, so one sweep buckets everything; members come out ascending.
  std::vector<uint32_t> live_roots;
  std::vector<uint32_t> region_size(mig.num_nodes(), 0);
  for (const uint32_t root : partition.roots) {
    if (live[root]) live_roots.push_back(root);
  }
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (mig.is_gate(n) && live[n]) ++region_size[partition.region_root[n]];
  }

  ShardPlan plan;
  plan.shards.resize(std::min<size_t>(num_shards, std::max<size_t>(live_roots.size(), 1)));
  if (live_roots.empty()) return plan;

  // Greedy LPT: biggest regions first onto the least-loaded shard.  Ties are
  // broken by (size, root) resp. shard index, so the plan is a deterministic
  // function of the network alone.
  std::vector<uint32_t> by_size = live_roots;
  std::stable_sort(by_size.begin(), by_size.end(), [&](uint32_t a, uint32_t b) {
    return region_size[a] != region_size[b] ? region_size[a] > region_size[b]
                                            : a < b;
  });
  std::vector<uint64_t> load(plan.shards.size(), 0);
  std::vector<uint32_t> shard_of_root(mig.num_nodes(), 0);
  for (const uint32_t root : by_size) {
    const size_t target =
        std::min_element(load.begin(), load.end()) - load.begin();
    shard_of_root[root] = static_cast<uint32_t>(target);
    load[target] += region_size[root];
    plan.shards[target].roots.push_back(root);
  }
  for (auto& shard : plan.shards) std::sort(shard.roots.begin(), shard.roots.end());

  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!mig.is_gate(n) || !live[n]) continue;
    plan.shards[shard_of_root[partition.region_root[n]]].nodes.push_back(n);
  }
  return plan;
}

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

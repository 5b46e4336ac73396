#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "mig/ffr.hpp"
#include "mig/shard.hpp"
#include "mig/simulation.hpp"
#include "opt/oracle.hpp"
#include "opt/rewrite.hpp"
#include "util/thread_pool.hpp"

/// Bottom-up functional hashing (paper Algorithm 2): dynamic programming in
/// topological order.  For every node a bounded list of candidate
/// implementations in the new network is maintained; cuts are replaced by
/// database minima over every (capped) combination of leaf candidates, and
/// each output finally picks its best candidate.
///
/// One DP step (candidate_step) serves both modes.  Global mode runs it over
/// every live gate into the result network.  In FFR mode the DP decomposes
/// by region: cuts are confined to fanout-free regions, and at every region
/// root the candidate list is committed to its single best entry anyway (so
/// downstream users share one implementation).  A region's DP therefore
/// needs only the committed (size, depth) of the regions feeding it — never
/// their structure — which yields a wave schedule: regions of equal
/// dependency level run the step concurrently, each into a private network,
/// and a deterministic sequential splice replays every region's committed
/// implementation into the result in fixed topological order.  The outcome
/// is bit-identical for every thread count.
///
/// A region task allocates only its private network and its input list.
/// Its per-worker scratch is cleared and reused by every region the worker
/// runs: the region-local numbering of the nodes it reads
/// (shard::RegionSlots) and the flat candidate store (CandidateLists, one
/// bounded list per numbered node).  Cut simulation and chain instantiation
/// keep per-thread scratch of their own.

namespace mighty::opt {

namespace {

struct Candidate {
  mig::Signal sig;
  uint32_t size = 0;   ///< accumulated-new-gates estimate (tree accounting)
  uint32_t depth = 0;  ///< estimated level in the new network
};

/// Bounded candidate lists, stored flat: list s holds count_[s] entries
/// starting at entry s * (max + 1), sorted by (size, depth).  The spare
/// entry takes the insertion that truncation then drops.
class CandidateLists {
public:
  /// Empties the store and sizes it for `lists` lists of at most
  /// `max_candidates` entries; reuses the previous allocation.
  void reset(size_t lists, uint32_t max_candidates) {
    max_ = max_candidates;
    stride_ = max_candidates + 1;
    count_.assign(lists, 0);
    if (entries_.size() < lists * stride_) entries_.resize(lists * stride_);
  }

  std::span<const Candidate> operator[](uint32_t list) const {
    return {entries_.data() + size_t{list} * stride_, count_[list]};
  }
  const Candidate& best(uint32_t list) const { return entries_[size_t{list} * stride_]; }

  /// Keeps the list sorted by (size, depth) and bounded.
  void insert(uint32_t list, const Candidate& c) {
    Candidate* const first = entries_.data() + size_t{list} * stride_;
    uint32_t& count = count_[list];
    Candidate* const same =
        std::find_if(first, first + count, [&](const Candidate& e) { return e.sig == c.sig; });
    if (same == first + count) {
      first[count++] = c;
    } else if (c.size < same->size || (c.size == same->size && c.depth < same->depth)) {
      // Same implementation reached twice: keep the better accounting.
      same->size = c.size;
      same->depth = c.depth;
    }
    std::sort(first, first + count, [](const Candidate& a, const Candidate& b) {
      return a.size != b.size ? a.size < b.size : a.depth < b.depth;
    });
    count = std::min(count, max_);
  }

private:
  std::vector<Candidate> entries_;
  std::vector<uint32_t> count_;
  uint32_t max_ = 0;
  uint32_t stride_ = 1;
};

struct StepCounters {
  uint64_t cuts_evaluated = 0;
  uint64_t replacements = 0;
};

/// The DP step for gate `v`, shared by both modes: fills v's list with the
/// baseline rebuild over the fanins' best candidates plus, for every answered
/// cut, one candidate per (capped) combination of leaf candidates — all
/// built into `net`.  Reads only the candidate lists of v's fanins and
/// leaves; `list_of` maps a node to its list in `cand`.
template <typename ListOf>
void candidate_step(const mig::Mig& mig, ReplacementOracle& oracle,
                    const RewriteParams& params, const std::vector<cuts::Cut>& cut_set,
                    uint32_t level, uint32_t v, const ListOf& list_of, CandidateLists& cand,
                    mig::Mig& net, StepCounters& counters) {
  const uint32_t list = list_of(v);

  // Baseline candidate: rebuild the node over its fanins' best candidates.
  {
    const auto& f = mig.fanins(v);
    const Candidate& c0 = cand.best(list_of(f[0].index()));
    const Candidate& c1 = cand.best(list_of(f[1].index()));
    const Candidate& c2 = cand.best(list_of(f[2].index()));
    Candidate base;
    base.sig = net.create_maj(c0.sig ^ f[0].is_complemented(),
                              c1.sig ^ f[1].is_complemented(),
                              c2.sig ^ f[2].is_complemented());
    base.size = 1 + c0.size + c1.size + c2.size;
    base.depth = 1 + std::max({c0.depth, c1.depth, c2.depth});
    cand.insert(list, base);
  }

  // A cut's leaves are below v, so their lists stay put while v's grows.
  std::array<std::span<const Candidate>, cuts::Cut::max_size> leaf_lists;
  std::array<mig::Signal, cuts::Cut::max_size> leaf_signals;
  for (const auto& cut : cut_set) {
    if (cut.size == 1 && cut.leaves[0] == v) continue;
    const std::span<const uint32_t> leaves(cut.leaves.data(), cut.size);
    ++counters.cuts_evaluated;
    const auto f = mig::simulate_cut(mig, v, leaves);
    const auto info = oracle.query(f, params.tally);
    if (!info) continue;

    // Iterate (capped) combinations of leaf candidates in mixed radix.
    uint64_t total = 1;
    for (size_t i = 0; i < leaves.size(); ++i) {
      leaf_lists[i] = cand[list_of(leaves[i])];
      total *= leaf_lists[i].size();
    }
    total = std::min<uint64_t>(total, params.max_combinations);
    for (uint64_t combo = 0; combo < total; ++combo) {
      uint64_t rem = combo;
      uint32_t size = info->size;
      // Depth estimate through the replacement's input-to-output paths.
      uint32_t depth = 0;
      for (size_t i = 0; i < leaves.size(); ++i) {
        const Candidate& chosen = leaf_lists[i][rem % leaf_lists[i].size()];
        rem /= leaf_lists[i].size();
        leaf_signals[i] = chosen.sig;
        size += chosen.size;
        if (info->input_depths[i] < 0) continue;
        depth = std::max(depth, chosen.depth + static_cast<uint32_t>(info->input_depths[i]));
      }
      if (params.depth_preserving && depth > level) continue;
      Candidate c;
      c.sig = oracle.instantiate(f, net, std::span(leaf_signals.data(), leaves.size()),
                                 params.tally);
      c.size = size;
      c.depth = depth;
      cand.insert(list, c);
      ++counters.replacements;
    }
  }
}

/// One region's DP result: the committed implementation of its root as a
/// private network over the region's inputs, ready to be spliced.
struct RegionOutcome : shard::RegionNet {
  uint32_t size = 0;   ///< committed tree-size accounting
  uint32_t depth = 0;  ///< committed depth accounting
  StepCounters counters;
};

/// Runs the candidate DP of one region into `outcome`, whose network must be
/// fresh.  Reads only the original network, the shared cut sets and the
/// committed (size, depth) of lower-wave regions; builds into the outcome's
/// private network.
void process_region(const mig::Mig& mig, ReplacementOracle& oracle,
                    const RewriteParams& params,
                    const std::vector<std::vector<cuts::Cut>>& cut_sets,
                    const std::vector<uint32_t>& levels,
                    const std::vector<uint32_t>& committed_size,
                    const std::vector<uint32_t>& committed_depth,
                    const std::vector<uint32_t>& members, RegionOutcome& outcome) {
  const shard::RegionSlots slots(mig, members);
  outcome.inputs = slots.inputs();
  // Room for the inputs and one baseline gate per member.
  outcome.net.reserve(slots.size());
  // The worker's candidate store, reused by every region it runs.
  thread_local CandidateLists cand;
  cand.reset(slots.size(), params.max_candidates);
  const auto list_of = [&](uint32_t n) { return slots.slot(n); };
  for (const uint32_t f : outcome.inputs) {
    cand.insert(slots.slot(f),
                {outcome.net.create_pi(), committed_size[f], committed_depth[f]});
  }
  cand.insert(slots.slot(mig::Mig::constant_node), {outcome.net.get_constant(false), 0, 0});

  for (const uint32_t v : members) {
    candidate_step(mig, oracle, params, cut_sets[v], levels[v], v, list_of, cand,
                   outcome.net, outcome.counters);
  }

  // Commit the root (the largest member) to its single best implementation
  // (what the sequential DP's boundary resize did); the PO confines the
  // splice to its cone.
  const Candidate& best = cand.best(slots.slot(members.back()));
  outcome.chosen = best.sig;
  outcome.size = best.size;
  outcome.depth = best.depth;
  outcome.net.create_po(best.sig);
}

/// FFR mode: wave-parallel region DP, then a deterministic splice.
mig::Mig rewrite_bottom_up_ffr(const mig::Mig& mig, ReplacementOracle& oracle,
                               const RewriteParams& params, RewriteStats& stats) {
  auto cut_params = cut_params_for(params);
  const auto partition = ffr::compute_ffrs(mig);
  const auto boundary = ffr::ffr_boundary(partition);
  cut_params.boundary = &boundary;
  const auto levels = mig.compute_levels();
  const auto regions = shard::collect_region_members(mig, partition);

  // Cut sets for every live gate, enumerated region-parallel (disjoint slots).
  std::vector<std::vector<cuts::Cut>> cut_sets(mig.num_nodes());
  util::parallel_for(params.pool, regions.members.size(), [&](size_t r) {
    cuts::enumerate_cuts_scoped(mig, cut_params, regions.members[r], cut_sets);
  });
  const auto& live_roots = regions.live_roots;

  // Wave schedule: regions grouped by dependency level.
  const auto region_level = shard::region_levels(mig, partition);
  uint32_t max_level = 0;
  for (const uint32_t root : live_roots) {
    max_level = std::max(max_level, region_level[root]);
  }
  std::vector<std::vector<uint32_t>> waves(max_level + 1);
  for (const uint32_t root : live_roots) {
    waves[region_level[root]].push_back(regions.region_index[root]);
  }

  std::vector<RegionOutcome> outcomes(live_roots.size());
  std::vector<uint32_t> committed_size(mig.num_nodes(), 0);
  std::vector<uint32_t> committed_depth(mig.num_nodes(), 0);
  for (const auto& wave : waves) {
    util::parallel_for(params.pool, wave.size(), [&](size_t i) {
      const uint32_t r = wave[i];
      process_region(mig, oracle, params, cut_sets, levels, committed_size, committed_depth,
                     regions.members[r], outcomes[r]);
      committed_size[live_roots[r]] = outcomes[r].size;
      committed_depth[live_roots[r]] = outcomes[r].depth;
    });
  }
  for (const RegionOutcome& outcome : outcomes) {
    stats.cuts_evaluated += outcome.counters.cuts_evaluated;
    stats.replacements += outcome.counters.replacements;
  }

  // Replaying the committed cones in topological (= root) order lets
  // structural hashing re-establish cross-region sharing exactly as the
  // sequential DP's shared build did.
  return shard::splice_regions(
      mig, regions, [&](size_t i) -> const shard::RegionNet* { return &outcomes[i]; });
}

}  // namespace

mig::Mig rewrite_bottom_up(const mig::Mig& mig, ReplacementOracle& oracle,
                           const RewriteParams& params, RewriteStats& stats) {
  if (params.ffr_partition) {
    return rewrite_bottom_up_ffr(mig, oracle, params, stats);
  }

  const auto cut_sets = cuts::enumerate_cuts(mig, cut_params_for(params));
  const auto levels = mig.compute_levels();

  mig::Mig result;
  // Global mode lists candidates by node id.
  CandidateLists cand;
  cand.reset(mig.num_nodes(), params.max_candidates);
  const auto list_of = [](uint32_t n) { return n; };
  cand.insert(mig::Mig::constant_node, {result.get_constant(false), 0, 0});
  for (uint32_t i = 0; i < mig.num_pis(); ++i) cand.insert(1 + i, {result.create_pi(), 0, 0});

  const auto live = mig.live_mask();
  StepCounters counters;
  for (uint32_t v = 0; v < mig.num_nodes(); ++v) {
    if (!mig.is_gate(v) || !live[v]) continue;
    candidate_step(mig, oracle, params, cut_sets[v], levels[v], v, list_of, cand, result,
                   counters);
  }
  stats.cuts_evaluated += counters.cuts_evaluated;
  stats.replacements += counters.replacements;

  for (const mig::Signal o : mig.outputs()) {
    const Candidate& best = cand.best(o.index());
    result.create_po(best.sig ^ o.is_complemented());
  }
  return result;
}

}  // namespace mighty::opt

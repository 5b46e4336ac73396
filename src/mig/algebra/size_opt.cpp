#include <algorithm>
#include <array>
#include <unordered_map>

#include "mig/algebra/algebra.hpp"
#include "mig/ffr.hpp"
#include "mig/shard.hpp"
#include "util/thread_pool.hpp"

/// Algebraic size reduction: reverse distributivity
/// <<xyu><xyv>z> -> <xy<uvz>> (one gate saved when the pair shares two
/// operands and the shared gates have no other fanout), plus the built-in
/// majority simplifications of create_maj.
///
/// The rule requires both shared gates to be single-fanout, and single-
/// fanout gates belong to the same fanout-free region as their unique
/// fanout — so a round of rewriting decomposes exactly like the functional-
/// hashing passes: every region rewrites independently (in a private network
/// over the region's inputs, concurrently when a pool is given), and a
/// deterministic sequential splice replays the results.  Output is
/// bit-identical for any pool size.

namespace mighty::algebra {

namespace {

struct GateView {
  bool is_gate = false;
  std::array<mig::Signal, 3> fanin;
};

GateView view_as_gate(const mig::Mig& m, mig::Signal s) {
  GateView v;
  if (!m.is_gate(s.index())) return v;
  v.is_gate = true;
  const auto& f = m.fanins(s.index());
  for (int i = 0; i < 3; ++i) {
    v.fanin[static_cast<size_t>(i)] =
        s.is_complemented() ? !f[static_cast<size_t>(i)] : f[static_cast<size_t>(i)];
  }
  return v;
}

/// One region's rewritten implementation over its inputs.
struct RegionOutcome : shard::RegionNet {
  uint32_t applied = 0;  ///< distributivity applications
};

/// Rebuilds one region with the reverse-distributivity rule.  Reads only
/// the source network and the global fanout counts.
RegionOutcome rewrite_region(const mig::Mig& source,
                             const std::vector<uint32_t>& fanout,
                             const std::vector<uint32_t>& members) {
  RegionOutcome outcome;
  const uint32_t root = members.back();  // largest index = the region root

  // Region-local mapping of original node ids to private signals (a full
  // per-node array per region would dwarf the actual rewriting work).
  outcome.inputs = shard::region_inputs(source, members);
  std::unordered_map<uint32_t, mig::Signal> map;
  map.emplace(mig::Mig::constant_node, outcome.net.get_constant(false));
  for (const uint32_t f : outcome.inputs) {
    map.emplace(f, outcome.net.create_pi());
  }

  for (const uint32_t v : members) {
    const auto& f = source.fanins(v);
    std::array<mig::Signal, 3> in;
    std::array<uint32_t, 3> old_fanout{};
    for (int i = 0; i < 3; ++i) {
      const auto& s = f[static_cast<size_t>(i)];
      in[static_cast<size_t>(i)] = map.at(s.index()) ^ s.is_complemented();
      old_fanout[static_cast<size_t>(i)] = fanout[s.index()];
    }

    mig::Signal result;
    bool rewritten = false;
    // Try every pair of fanins as the shared-gate pair (A, B).
    for (int i = 0; i < 3 && !rewritten; ++i) {
      for (int j = i + 1; j < 3 && !rewritten; ++j) {
        const int k = 3 - i - j;
        const GateView a = view_as_gate(outcome.net, in[static_cast<size_t>(i)]);
        const GateView b = view_as_gate(outcome.net, in[static_cast<size_t>(j)]);
        if (!a.is_gate || !b.is_gate) continue;
        // Only profitable when both shared gates die afterwards.
        if (old_fanout[static_cast<size_t>(i)] > 1 ||
            old_fanout[static_cast<size_t>(j)] > 1) {
          continue;
        }
        // Find two common operands x, y of A and B.
        std::vector<mig::Signal> common;
        std::vector<mig::Signal> a_rest, b_rest;
        std::array<bool, 3> b_used{};
        for (const mig::Signal sa : a.fanin) {
          bool matched = false;
          for (int t = 0; t < 3; ++t) {
            if (!b_used[static_cast<size_t>(t)] &&
                b.fanin[static_cast<size_t>(t)] == sa) {
              b_used[static_cast<size_t>(t)] = true;
              common.push_back(sa);
              matched = true;
              break;
            }
          }
          if (!matched) a_rest.push_back(sa);
        }
        for (int t = 0; t < 3; ++t) {
          if (!b_used[static_cast<size_t>(t)]) {
            b_rest.push_back(b.fanin[static_cast<size_t>(t)]);
          }
        }
        if (common.size() == 2 && a_rest.size() == 1 && b_rest.size() == 1) {
          // <<xyu><xyv>z> = <xy<uvz>>
          const mig::Signal inner =
              outcome.net.create_maj(a_rest[0], b_rest[0], in[static_cast<size_t>(k)]);
          result = outcome.net.create_maj(common[0], common[1], inner);
          rewritten = true;
          ++outcome.applied;
        }
      }
    }
    if (!rewritten) {
      result = outcome.net.create_maj(in[0], in[1], in[2]);
    }
    map[v] = result;
  }

  outcome.chosen = map.at(root);
  outcome.net.create_po(outcome.chosen);
  return outcome;
}

}  // namespace

mig::Mig size_optimize(const mig::Mig& m, const SizeOptParams& params,
                       AlgebraStats* stats) {
  AlgebraStats local;
  local.size_before = m.count_live_gates();
  local.depth_before = m.depth();

  mig::Mig source = m.cleanup();
  for (uint32_t round = 0; round < params.max_rounds; ++round) {
    ++local.rounds;
    const auto partition = ffr::compute_ffrs(source);
    const auto regions = shard::collect_region_members(source, partition);
    const auto fanout = source.compute_fanout_counts();

    // Rewrite regions concurrently; regions are independent for this rule.
    const auto plan =
        shard::plan_ffr_shards(source, partition, shard::shard_count(params.pool));
    std::vector<RegionOutcome> outcomes(regions.live_roots.size());
    util::parallel_for(params.pool, plan.shards.size(), [&](size_t s) {
      for (const uint32_t root : plan.shards[s].roots) {
        const uint32_t r = regions.region_index[root];
        outcomes[r] = rewrite_region(source, fanout, regions.members[r]);
      }
    });

    // Deterministic splice in topological root order.  Replaying only live
    // region cones leaves at most stray strash-simplified gates, so rounds
    // skip the full cleanup copy and decide on reachable-gate counts; one
    // final cleanup below restores the compact-network guarantee.
    bool changed = false;
    for (const RegionOutcome& outcome : outcomes) {
      if (outcome.applied > 0) changed = true;
      local.applied_distributivity += outcome.applied;
    }
    mig::Mig next = shard::splice_regions(
        source, regions.live_roots,
        [&](size_t i) -> const shard::RegionNet& { return outcomes[i]; });

    if (!changed || next.count_live_gates() >= source.count_live_gates()) {
      if (next.count_live_gates() < source.count_live_gates()) source = std::move(next);
      break;
    }
    source = std::move(next);
  }

  // Callers rely on size_optimize returning a compact network (every node
  // output-reachable), as the pre-shard implementation guaranteed.
  source = source.cleanup();

  local.size_after = source.count_live_gates();
  local.depth_after = source.depth();
  if (stats != nullptr) *stats = local;
  return source;
}

}  // namespace mighty::algebra

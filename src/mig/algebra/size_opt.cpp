#include <algorithm>
#include <array>
#include <optional>
#include <utility>
#include <vector>

#include "mig/algebra/algebra.hpp"
#include "mig/ffr.hpp"
#include "mig/shard.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

/// Algebraic size reduction: reverse distributivity
/// <<xyu><xyv>z> -> <xy<uvz>> (one gate saved when the pair shares two
/// operands and the shared gates have no other fanout), plus the built-in
/// majority simplifications of create_maj.
///
/// The rule requires both shared gates to be single-fanout, and single-
/// fanout gates belong to the same fanout-free region as their unique
/// fanout, so regions rewrite independently, each in a private network over
/// its inputs.  A round scans the source once and marks the regions with a
/// member on which the rule fires as the source stands; only those are
/// rewritten (concurrently when a pool is given), and the splice replays
/// every other region verbatim from the source.  That skips no firing: the
/// source is strashed and a region's inputs are distinct PIs of its private
/// network, so until its first firing member a rewrite is a 1:1 copy of the
/// source, and that member sees the source structure.  Output is bit-
/// identical for any pool size.

namespace mighty::algebra {

namespace {

/// Operands of <<xyu><xyv>z>: the shared gates' common x, y and rests u, v.
struct Match {
  std::array<mig::Signal, 2> common;
  mig::Signal u, v, z;
};

/// The first fanin pair of a gate with fanins `in` (in `net`) on which the
/// rule fires: both are gates that die afterwards (fanout at most one in
/// the source, whose fanins of the gate are `f`) and share exactly two
/// operands.  Gate fanins are distinct, so sharing is set intersection.
std::optional<Match> find_match(const mig::Mig& net, const std::array<mig::Signal, 3>& in,
                                const std::array<mig::Signal, 3>& f,
                                const std::vector<uint32_t>& fanout) {
  const auto operands = [&](mig::Signal s) {
    std::array<mig::Signal, 3> ops = net.fanins(s.index());
    for (mig::Signal& o : ops) o = o ^ s.is_complemented();
    return ops;
  };
  const auto has = [](const std::array<mig::Signal, 3>& ops, mig::Signal s) {
    return std::find(ops.begin(), ops.end(), s) != ops.end();
  };
  for (const auto& [i, j] : {std::pair{0, 1}, {0, 2}, {1, 2}}) {
    if (fanout[f[i].index()] > 1 || fanout[f[j].index()] > 1 ||
        !net.is_gate(in[i].index()) || !net.is_gate(in[j].index())) {
      continue;
    }
    const auto a = operands(in[i]), b = operands(in[j]);
    Match m;
    m.z = in[3 - i - j];
    size_t common = 0;
    for (const mig::Signal s : a) {
      if (!has(b, s)) {
        m.u = s;
      } else if (common < 2) {
        m.common[common++] = s;
      } else {
        common = 3;  // the same gate up to polarity
      }
    }
    if (common != 2) continue;
    for (const mig::Signal s : b) {
      if (!has(a, s)) m.v = s;
    }
    return m;
  }
  return std::nullopt;
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

  // Private signals of the nodes the region reads, by region slot.
  const shard::RegionSlots slots(source, members);
  outcome.inputs = slots.inputs();
  std::vector<mig::Signal> map(slots.size());
  map[slots.slot(mig::Mig::constant_node)] = outcome.net.get_constant(false);
  for (const uint32_t f : outcome.inputs) map[slots.slot(f)] = outcome.net.create_pi();

  for (const uint32_t v : members) {
    const auto& f = source.fanins(v);
    std::array<mig::Signal, 3> in;
    for (size_t i = 0; i < 3; ++i) {
      in[i] = map[slots.slot(f[i].index())] ^ f[i].is_complemented();
    }
    if (const auto m = find_match(outcome.net, in, f, fanout)) {
      // <<xyu><xyv>z> = <xy<uvz>>
      const mig::Signal inner = outcome.net.create_maj(m->u, m->v, m->z);
      map[slots.slot(v)] = outcome.net.create_maj(m->common[0], m->common[1], inner);
      ++outcome.applied;
    } else {
      map[slots.slot(v)] = outcome.net.create_maj(in[0], in[1], in[2]);
    }
  }

  outcome.chosen = map[slots.slot(root)];
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

    // Mark inline: one scan, stopping at each region's first firing member.
    std::vector<uint32_t> marked;
    for (uint32_t r = 0; r < regions.members.size(); ++r) {
      for (const uint32_t v : regions.members[r]) {
        const auto& f = source.fanins(v);
        if (find_match(source, f, f, fanout)) {
          marked.push_back(r);
          break;
        }
      }
    }
    if (marked.empty()) break;  // a splice would rebuild `source` verbatim

    std::vector<RegionOutcome> outcomes(marked.size());
    util::parallel_for(params.pool, marked.size(), [&](size_t i) {
      outcomes[i] = rewrite_region(source, fanout, regions.members[marked[i]]);
    });
    std::vector<const shard::RegionNet*> rebuilt(regions.live_roots.size(), nullptr);
    for (size_t i = 0; i < marked.size(); ++i) {
      MIGHTY_ASSERT(outcomes[i].applied > 0);  // the marking member fires
      local.applied_distributivity += outcomes[i].applied;
      rebuilt[marked[i]] = &outcomes[i];
    }

    // Deterministic splice in topological root order.  Replaying only live
    // region cones leaves at most stray strash-simplified gates, so rounds
    // skip the full cleanup copy and decide on reachable-gate counts; one
    // final cleanup below restores the compact-network guarantee.
    mig::Mig next = shard::splice_regions(
        source, regions, [&](size_t i) { return rebuilt[i]; });
    if (next.count_live_gates() >= source.count_live_gates()) break;
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

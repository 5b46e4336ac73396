#include <optional>

#include "mig/ffr.hpp"
#include "mig/shard.hpp"
#include "mig/simulation.hpp"
#include "opt/oracle.hpp"
#include "opt/rewrite.hpp"
#include "util/thread_pool.hpp"

/// Top-down functional hashing (paper Algorithm 1): starting from the
/// outputs, greedily replace the cut with the best size reduction and recur
/// on its leaves; where no cut improves, copy the node and recur on the
/// fanins.  Implemented as an explicit two-phase pass (plan top-down, build
/// bottom-up) so deep networks cannot overflow the stack.
///
/// One plan walk serves both modes; they differ only in where it starts and
/// which nodes it may enter.  Global mode walks once from the outputs over
/// every gate.  In FFR mode cuts are confined to fanout-free regions, so the
/// plan chosen for a node depends only on its own region (plus the shared
/// read-only oracle): one task per live region enumerates its cuts and walks
/// from its root, the tasks run concurrently, and a deterministic sequential
/// rebuild merges the plans — bit-identical for every thread count.  Global cuts cross region boundaries, so that mode has no disjoint
/// decomposition and walks sequentially.

namespace mighty::opt {

namespace {

struct Plan {
  bool replace = false;
  bool visited = false;  ///< the plan walk reached this node
  std::vector<uint32_t> leaves;
  tt::TruthTable func;  ///< cut function over the leaves
};

struct PlanCounters {
  uint64_t cuts_evaluated = 0;
  uint64_t replacements = 0;
};

/// What planning reads, shared by both modes.
struct PlanInputs {
  const mig::Mig& mig;
  ReplacementOracle& oracle;
  const RewriteParams& params;
  const std::vector<std::vector<cuts::Cut>>& cut_sets;
  const std::vector<uint32_t>& fanout;
  const std::vector<uint32_t>& levels;
};

/// Chooses the best replacement cut for `v`, or nullopt to keep the node.
std::optional<Plan> choose_plan(const PlanInputs& in, uint32_t v,
                                PlanCounters& counters) {
  const auto& [mig, oracle, params, cut_sets, fanout, levels] = in;
  int best_gain = 0;
  std::optional<Plan> best;
  for (const auto& cut : cut_sets[v]) {
    if (cut.size == 1 && cut.leaves[0] == v) continue;  // trivial cut
    const auto leaves = cut.leaf_vector();
    const auto cone = cut_cone(mig, v, leaves);
    // In global mode, discard cuts whose internal nodes have external
    // fanout (paper Sec. IV-C, first option); FFR cuts are confined by
    // construction.
    if (!params.ffr_partition && !cone_is_replaceable(mig, cone, v, fanout)) {
      continue;
    }
    ++counters.cuts_evaluated;
    const auto f = mig::simulate_cut(mig, v, leaves);
    const auto info = oracle.query(f, params.tally);
    if (!info) continue;
    const int gain = static_cast<int>(cone.size()) - static_cast<int>(info->size);
    if (gain <= best_gain) continue;
    if (params.depth_preserving) {
      // Estimated level of the replacement root (paper Sec. IV-A: discard
      // cuts whose minimum MIG locally increases the depth).
      uint32_t new_level = 0;
      for (uint32_t lv = 0; lv < leaves.size(); ++lv) {
        if (info->input_depths[lv] < 0) continue;
        new_level = std::max(new_level, levels[leaves[lv]] +
                                            static_cast<uint32_t>(info->input_depths[lv]));
      }
      if (new_level > levels[v]) continue;
    }
    best_gain = gain;
    best = Plan{true, true, leaves, f};
  }
  return best;
}

/// Phase 1: walks top-down from `roots`, planning every reached node for
/// which `in_scope` holds and entering no other node.  Plans depend only on
/// the node, never on visit order.  Writes only the plan slots of in-scope
/// nodes, so walks over disjoint scopes run concurrently without contention.
template <typename InScope>
void plan_walk(const PlanInputs& in, const std::vector<uint32_t>& roots,
               const InScope& in_scope, std::vector<Plan>& plans,
               PlanCounters& counters) {
  std::vector<uint32_t> stack;
  for (const uint32_t r : roots) {
    if (in_scope(r)) stack.push_back(r);
  }
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    if (plans[v].visited) continue;
    plans[v].visited = true;

    auto best = choose_plan(in, v, counters);
    if (best) {
      plans[v] = std::move(*best);
      ++counters.replacements;
      for (const uint32_t l : plans[v].leaves) {
        if (in_scope(l)) stack.push_back(l);
      }
    } else {
      for (const mig::Signal s : in.mig.fanins(v)) {
        if (in_scope(s.index())) stack.push_back(s.index());
      }
    }
  }
}

/// Phase 2 shared by both modes: walk the plans from the outputs to find the
/// needed nodes, then rebuild in ascending (= topological) node order.
mig::Mig rebuild_from_plans(const mig::Mig& mig, ReplacementOracle& oracle,
                            const std::vector<Plan>& plans,
                            OracleTally* tally) {
  std::vector<int8_t> needed(mig.num_nodes(), 0);
  std::vector<uint32_t> stack;
  for (const mig::Signal o : mig.outputs()) stack.push_back(o.index());
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    if (needed[v]) continue;
    needed[v] = 1;
    if (!mig.is_gate(v)) continue;
    if (plans[v].replace) {
      for (const uint32_t l : plans[v].leaves) stack.push_back(l);
    } else {
      for (const mig::Signal s : mig.fanins(v)) stack.push_back(s.index());
    }
  }

  mig::Mig result;
  result.reserve(mig.num_nodes());
  std::vector<mig::Signal> map(mig.num_nodes(), result.get_constant(false));
  for (uint32_t i = 0; i < mig.num_pis(); ++i) {
    map[1 + i] = result.create_pi();
  }
  for (uint32_t v = 0; v < mig.num_nodes(); ++v) {
    if (!needed[v] || !mig.is_gate(v)) continue;
    if (plans[v].replace) {
      std::vector<mig::Signal> leaf_signals;
      leaf_signals.reserve(plans[v].leaves.size());
      for (const uint32_t l : plans[v].leaves) leaf_signals.push_back(map[l]);
      map[v] = oracle.instantiate(plans[v].func, result, leaf_signals, tally);
    } else {
      const auto& f = mig.fanins(v);
      map[v] = result.create_maj(map[f[0].index()] ^ f[0].is_complemented(),
                                 map[f[1].index()] ^ f[1].is_complemented(),
                                 map[f[2].index()] ^ f[2].is_complemented());
    }
  }
  for (const mig::Signal o : mig.outputs()) {
    result.create_po(map[o.index()] ^ o.is_complemented());
  }
  return result;
}

}  // namespace

/// In FFR mode every live region is planned, including the rare region that
/// ends up unreachable because every replacement referencing its root
/// bypassed it.  That is deliberate: reachability-under-plans is only known
/// after planning, so skipping such regions would reintroduce a sequential
/// dependency (and thread-count-dependent stats).  The cost is bounded by the
/// region's cut work and shows up identically at every thread count.
mig::Mig rewrite_top_down(const mig::Mig& mig, ReplacementOracle& oracle,
                          const RewriteParams& params, RewriteStats& stats) {
  auto cut_params = cut_params_for(params);
  const auto fanout = mig.compute_fanout_counts();
  const auto levels = mig.compute_levels();
  std::vector<std::vector<cuts::Cut>> cut_sets;
  const PlanInputs in{mig, oracle, params, cut_sets, fanout, levels};
  std::vector<Plan> plans(mig.num_nodes());
  std::vector<PlanCounters> counters;

  if (!params.ffr_partition) {
    cut_sets = cuts::enumerate_cuts(mig, cut_params);
    std::vector<uint32_t> roots;
    for (const mig::Signal o : mig.outputs()) roots.push_back(o.index());
    counters.resize(1);
    plan_walk(in, roots, [&](uint32_t n) { return mig.is_gate(n); }, plans,
              counters[0]);
  } else {
    const auto partition = ffr::compute_ffrs(mig);
    const auto boundary = ffr::ffr_boundary(partition);
    cut_params.boundary = &boundary;
    const auto regions = shard::collect_region_members(mig, partition);
    cut_sets.resize(mig.num_nodes());
    counters.resize(regions.live_roots.size());
    util::parallel_for(params.pool, regions.live_roots.size(), [&](size_t r) {
      const uint32_t root = regions.live_roots[r];
      cuts::enumerate_cuts_scoped(mig, cut_params, regions.members[r], cut_sets);
      const auto in_region = [&](uint32_t n) {
        return mig.is_gate(n) && partition.region_root[n] == root;
      };
      plan_walk(in, {root}, in_region, plans, counters[r]);
    });
  }
  for (const auto& c : counters) {
    stats.cuts_evaluated += c.cuts_evaluated;
    stats.replacements += c.replacements;
  }
  return rebuild_from_plans(mig, oracle, plans, params.tally);
}

}  // namespace mighty::opt

#include "opt/rewrite.hpp"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "opt/oracle.hpp"
#include "util/clock.hpp"

namespace mighty::opt {

mig::Mig functional_hashing(const mig::Mig& mig, ReplacementOracle& oracle,
                            const RewriteParams& params, RewriteStats* stats) {
  RewriteStats local;
  local.size_before = mig.count_live_gates();
  local.depth_before = mig.depth();
  const auto start = util::Clock::now();

  // Attribute oracle activity to exactly this call: the drivers record every
  // query into a local tally instead of the caller reading lifetime counters
  // (which interleave arbitrarily when concurrent passes share the oracle).
  OracleTally tally;
  RewriteParams driver_params = params;
  driver_params.tally = &tally;

  mig::Mig result = params.direction == Direction::top_down
                        ? rewrite_top_down(mig, oracle, driver_params, local)
                        : rewrite_bottom_up(mig, oracle, driver_params, local);
  result = result.cleanup();

  local.seconds = util::seconds_since(start);
  local.size_after = result.count_live_gates();
  local.depth_after = result.depth();
  local.oracle_queries = tally.queries.load(std::memory_order_relaxed);
  local.oracle_answered = tally.answered.load(std::memory_order_relaxed);
  local.oracle_cache5_hits = tally.cache5_hits.load(std::memory_order_relaxed);
  local.oracle_synthesized = tally.synthesized.load(std::memory_order_relaxed);
  local.oracle_failures = tally.failures.load(std::memory_order_relaxed);
  if (stats != nullptr) *stats = local;
  return result;
}

mig::Mig functional_hashing(const mig::Mig& mig, const exact::Database& db,
                            const RewriteParams& params, RewriteStats* stats) {
  ReplacementOracle oracle(db);
  return functional_hashing(mig, oracle, params, stats);
}

RewriteParams variant_params(const std::string& acronym) {
  RewriteParams params;
  for (const char raw : acronym) {
    switch (std::toupper(static_cast<unsigned char>(raw))) {
      case 'T':
        params.direction = Direction::top_down;
        break;
      case 'B':
        params.direction = Direction::bottom_up;
        break;
      case 'F':
        params.ffr_partition = true;
        break;
      case 'D':
        params.depth_preserving = true;
        break;
      default:
        throw std::invalid_argument(std::string("unknown letter '") + raw +
                                    "' in variant acronym \"" + acronym + '"');
    }
  }
  const char head =
      acronym.empty()
          ? '\0'
          : static_cast<char>(std::toupper(static_cast<unsigned char>(acronym[0])));
  if (head != 'T' && head != 'B') {
    throw std::invalid_argument("variant must start with T or B: \"" + acronym + '"');
  }
  return params;
}

std::vector<std::string> all_variants() {
  return {"TF", "T", "TFD", "TD", "B", "BF", "BD", "BFD"};
}

cuts::CutEnumerationParams cut_params_for(const RewriteParams& params) {
  cuts::CutEnumerationParams cut_params;
  cut_params.cut_size = params.five_input_cuts ? 5 : 4;
  return cut_params;
}

void cut_cone(const mig::Mig& mig, uint32_t root, std::span<const uint32_t> leaves,
              std::vector<uint32_t>& cone) {
  // Breadth-first, with the cone itself as the work list.
  cone.assign(1, root);
  const auto is_leaf = [&](uint32_t n) {
    return std::find(leaves.begin(), leaves.end(), n) != leaves.end();
  };
  const auto seen = [&](uint32_t n) {
    return std::find(cone.begin(), cone.end(), n) != cone.end();
  };
  for (size_t i = 0; i < cone.size(); ++i) {
    for (const mig::Signal s : mig.fanins(cone[i])) {
      const uint32_t f = s.index();
      if (mig.is_constant(f) || is_leaf(f) || seen(f)) continue;
      cone.push_back(f);
    }
  }
}

bool cone_is_replaceable(const mig::Mig& mig, std::span<const uint32_t> cone,
                         uint32_t root, const std::vector<uint32_t>& fanout_counts) {
  for (const uint32_t n : cone) {
    if (n == root) continue;
    // Count references to n from inside the cone; any additional reference is
    // external fanout, which would keep the node alive after replacement.
    uint32_t internal = 0;
    for (const uint32_t m : cone) {
      for (const mig::Signal s : mig.fanins(m)) {
        if (s.index() == n) ++internal;
      }
    }
    if (internal < fanout_counts[n]) return false;
  }
  return true;
}

std::vector<int> chain_input_depths(const exact::MigChain& chain) {
  std::vector<int> result(chain.num_vars, -1);
  const uint32_t base = 1 + chain.num_vars;
  for (uint32_t v = 0; v < chain.num_vars; ++v) {
    // Longest path from input v through the steps to the output reference.
    std::vector<int> dist(base + chain.steps.size(), -1);
    dist[1 + v] = 0;
    for (uint32_t m = 0; m < chain.steps.size(); ++m) {
      int best = -1;
      for (const exact::RefLit l : chain.steps[m].fanin) {
        const uint32_t ref = exact::ref_of(l);
        if (dist[ref] >= 0) best = std::max(best, dist[ref] + 1);
      }
      dist[base + m] = best;
    }
    result[v] = dist[exact::ref_of(chain.output)];
  }
  return result;
}

}  // namespace mighty::opt

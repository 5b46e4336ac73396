#include "mig/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/assert.hpp"

namespace mighty::mig {

std::vector<uint64_t> simulate_words(const Mig& mig, const std::vector<uint64_t>& pi_words) {
  MIGHTY_ASSERT(pi_words.size() == mig.num_pis());
  std::vector<uint64_t> words(mig.num_nodes(), 0);
  for (uint32_t i = 0; i < mig.num_pis(); ++i) words[1 + i] = pi_words[i];
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!mig.is_gate(n)) continue;
    const auto& f = mig.fanins(n);
    const uint64_t a = resolve(words, f[0]);
    const uint64_t b = resolve(words, f[1]);
    const uint64_t c = resolve(words, f[2]);
    words[n] = (a & b) | (a & c) | (b & c);
  }
  return words;
}

std::vector<tt::TruthTable> simulate_truth_tables(const Mig& mig) {
  if (mig.num_pis() > tt::TruthTable::max_vars) {
    throw std::invalid_argument("truth-table simulation limited to 6 inputs");
  }
  const uint32_t n = mig.num_pis();
  std::vector<uint64_t> pi_words(n);
  for (uint32_t i = 0; i < n; ++i) pi_words[i] = tt::TruthTable::var_mask(i);
  const auto words = simulate_words(mig, pi_words);
  std::vector<tt::TruthTable> tables;
  tables.reserve(words.size());
  for (const uint64_t w : words) tables.emplace_back(n, w);
  return tables;
}

std::vector<tt::TruthTable> output_truth_tables(const Mig& mig) {
  const auto tables = simulate_truth_tables(mig);
  std::vector<tt::TruthTable> result;
  result.reserve(mig.num_pos());
  for (const Signal s : mig.outputs()) {
    result.push_back(s.is_complemented() ? ~tables[s.index()] : tables[s.index()]);
  }
  return result;
}

namespace {

/// Per-thread scratch of simulate_cut.  The cone's values are indexed by
/// position in the cone; `position[n]` is node n's position, valid only
/// while `stamp[n]` equals the current call's `epoch`, so a call never
/// clears the node-sized arrays.
struct CutScratch {
  std::vector<uint32_t> stamp;
  std::vector<uint32_t> position;
  uint32_t epoch = 0;
  std::vector<tt::TruthTable> value;
  std::vector<uint32_t> stack;
};

}  // namespace

tt::TruthTable simulate_cut(const Mig& mig, uint32_t root, std::span<const uint32_t> leaves) {
  MIGHTY_ASSERT(leaves.size() <= tt::TruthTable::max_vars);
  const auto k = static_cast<uint32_t>(leaves.size());

  thread_local CutScratch scratch;
  if (scratch.stamp.size() < mig.num_nodes()) {
    scratch.stamp.resize(mig.num_nodes(), 0);
    scratch.position.resize(mig.num_nodes());
  }
  if (++scratch.epoch == 0) {  // wrapped: every stale stamp could match again
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
    scratch.epoch = 1;
  }
  const uint32_t epoch = scratch.epoch;
  auto& value = scratch.value;
  const auto known = [&](uint32_t n) { return scratch.stamp[n] == epoch; };
  const auto assign = [&](uint32_t n, tt::TruthTable t) {
    scratch.stamp[n] = epoch;
    scratch.position[n] = static_cast<uint32_t>(value.size());
    value.push_back(t);
  };
  const auto get = [&](Signal s) {
    const tt::TruthTable& t = value[scratch.position[s.index()]];
    return s.is_complemented() ? ~t : t;
  };

  // Depth-first evaluation from the root down to the leaves, each node
  // evaluated once.  Uses an explicit stack; cones can be deep in large
  // networks.
  value.clear();
  assign(Mig::constant_node, tt::TruthTable::constant(k, false));
  for (uint32_t i = 0; i < k; ++i) assign(leaves[i], tt::TruthTable::projection(k, i));

  auto& stack = scratch.stack;
  stack.assign(1, root);
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    if (known(n)) {
      stack.pop_back();
      continue;
    }
    if (!mig.is_gate(n)) {
      throw std::invalid_argument("cut leaves do not cover a terminal");
    }
    const auto& f = mig.fanins(n);
    bool ready = true;
    for (const Signal s : f) {
      if (!known(s.index())) {
        if (ready) stack.push_back(s.index());
        ready = false;
      }
    }
    if (!ready) continue;
    stack.pop_back();
    assign(n, tt::TruthTable::maj(get(f[0]), get(f[1]), get(f[2])));
  }
  return get(Signal(root, false));
}

}  // namespace mighty::mig

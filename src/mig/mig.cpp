#include "mig/mig.hpp"

#include <algorithm>
#include <bit>

#include "util/assert.hpp"

namespace mighty::mig {

namespace {

/// Smallest structural-hash table that holds `gates` gates at load at most
/// one half.
size_t strash_slots_for(size_t gates) { return std::bit_ceil(std::max<size_t>(2 * gates, 16)); }

}  // namespace

Mig::Mig() {
  // Node 0 is the constant-0 terminal; its fanins point to itself.
  nodes_.push_back(Node{{Signal(0, false), Signal(0, false), Signal(0, false)}});
}

void Mig::reserve(uint32_t nodes) {
  nodes_.reserve(nodes);
  const size_t slots = strash_slots_for(nodes);
  if (slots > strash_.size()) rehash(slots);
}

size_t Mig::strash_home(const std::array<Signal, 3>& fanin) const {
  // FNV-1a over the raw fanins, then multiply-shift: the slot comes from the
  // product's high bits, because FNV's own low bits depend only on the
  // fanins' low bits.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const Signal s : fanin) {
    h ^= s.raw();
    h *= 0x100000001b3ull;
  }
  return static_cast<size_t>((h * 0x9e3779b97f4a7c15ull) >>
                             (64 - std::countr_zero(strash_.size())));
}

void Mig::rehash(size_t slots) {
  strash_.assign(slots, 0);
  const size_t mask = slots - 1;
  for (uint32_t g = num_pis_ + 1; g < num_nodes(); ++g) {
    size_t slot = strash_home(nodes_[g].fanin);
    while (strash_[slot] != 0) slot = (slot + 1) & mask;
    strash_[slot] = g;
  }
}

Signal Mig::create_pi() {
  MIGHTY_ASSERT(num_gates() == 0 && "PIs must be created before any gate");
  nodes_.push_back(Node{{Signal(0, false), Signal(0, false), Signal(0, false)}});
  ++num_pis_;
  return Signal(num_nodes() - 1, false);
}

std::vector<Signal> Mig::create_pis(uint32_t n) {
  std::vector<Signal> pis;
  pis.reserve(n);
  for (uint32_t i = 0; i < n; ++i) pis.push_back(create_pi());
  return pis;
}

Signal Mig::create_maj(Signal a, Signal b, Signal c) {
  // Canonical fanin order; majority is fully symmetric.
  if (b < a) std::swap(a, b);
  if (c < b) std::swap(b, c);
  if (b < a) std::swap(a, b);

  // Trivial simplifications: <xxy> = x and <x!xy> = y.  After sorting, equal
  // indices are adjacent.
  if (a == b) return a;
  if (b == c) return b;
  if (a.index() == b.index()) return c;  // a == !b
  if (b.index() == c.index()) return a;  // b == !c

  // Self-duality normalization: with two or more complemented fanins, flip
  // all three and complement the output, so each function has one canonical
  // node.  Flipping preserves the index-sorted order.
  bool output_complemented = false;
  const int complemented = (a.is_complemented() ? 1 : 0) + (b.is_complemented() ? 1 : 0) +
                           (c.is_complemented() ? 1 : 0);
  if (complemented >= 2) {
    a = !a;
    b = !b;
    c = !c;
    output_complemented = true;
  }

  const std::array<Signal, 3> fanin{a, b, c};
  if (2 * (size_t{num_gates()} + 1) > strash_.size()) {
    rehash(strash_slots_for(size_t{num_gates()} + 1));
  }
  const size_t mask = strash_.size() - 1;
  size_t slot = strash_home(fanin);
  for (; strash_[slot] != 0; slot = (slot + 1) & mask) {
    if (nodes_[strash_[slot]].fanin == fanin) {
      return Signal(strash_[slot], output_complemented);
    }
  }
  nodes_.push_back(Node{fanin});
  const uint32_t index = num_nodes() - 1;
  strash_[slot] = index;
  return Signal(index, output_complemented);
}

Signal Mig::create_xor(Signal a, Signal b) {
  // a ^ b = (a | b) & !(a & b) = <0, <1ab>, !<0ab>>.
  const Signal conj = create_and(a, b);
  const Signal disj = create_or(a, b);
  return create_and(disj, !conj);
}

Signal Mig::create_ite(Signal sel, Signal then_sig, Signal else_sig) {
  const Signal t = create_and(sel, then_sig);
  const Signal e = create_and(!sel, else_sig);
  return create_or(t, e);
}

Signal Mig::create_xor3(Signal a, Signal b, Signal c) {
  // The full-adder sum of Fig. 1: s = <!<abc>, <ab!c>, c> realizes a^b^c with
  // two gates on top of the carry <abc>.
  const Signal carry = create_maj(a, b, c);
  const Signal mid = create_maj(a, b, !c);
  return create_maj(!carry, mid, c);
}

void Mig::create_po(Signal s) { outputs_.push_back(s); }

std::vector<bool> Mig::live_mask() const {
  std::vector<bool> live(num_nodes(), false);
  std::vector<uint32_t> stack;
  for (const Signal s : outputs_) {
    if (!live[s.index()]) {
      live[s.index()] = true;
      stack.push_back(s.index());
    }
  }
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    if (!is_gate(n)) continue;
    for (const Signal f : fanins(n)) {
      if (!live[f.index()]) {
        live[f.index()] = true;
        stack.push_back(f.index());
      }
    }
  }
  return live;
}

uint32_t Mig::count_live_gates() const {
  const auto live = live_mask();
  uint32_t count = 0;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (live[n] && is_gate(n)) ++count;
  }
  return count;
}

std::vector<uint32_t> Mig::compute_levels() const {
  std::vector<uint32_t> level(num_nodes(), 0);
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (!is_gate(n)) continue;
    uint32_t max_level = 0;
    for (const Signal f : fanins(n)) {
      max_level = std::max(max_level, level[f.index()]);
    }
    level[n] = max_level + 1;
  }
  return level;
}

uint32_t Mig::depth() const {
  const auto level = compute_levels();
  uint32_t d = 0;
  for (const Signal s : outputs_) d = std::max(d, level[s.index()]);
  return d;
}

std::vector<uint32_t> Mig::compute_fanout_counts() const {
  std::vector<uint32_t> fanout(num_nodes(), 0);
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (!is_gate(n)) continue;
    for (const Signal f : fanins(n)) ++fanout[f.index()];
  }
  for (const Signal s : outputs_) ++fanout[s.index()];
  return fanout;
}

Mig Mig::cleanup(std::vector<Signal>* old_to_new) const {
  Mig result;
  result.reserve(num_nodes());
  std::vector<Signal> map(num_nodes(), result.get_constant(false));
  for (uint32_t i = 0; i < num_pis_; ++i) map[1 + i] = result.create_pi();

  const auto live = live_mask();
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (!live[n] || !is_gate(n)) continue;
    const auto& f = fanins(n);
    map[n] = result.create_maj(map[f[0].index()] ^ f[0].is_complemented(),
                               map[f[1].index()] ^ f[1].is_complemented(),
                               map[f[2].index()] ^ f[2].is_complemented());
  }
  for (const Signal s : outputs_) {
    result.create_po(map[s.index()] ^ s.is_complemented());
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return result;
}

}  // namespace mighty::mig

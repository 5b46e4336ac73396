#include "mig/cuts.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "util/assert.hpp"

namespace mighty::cuts {

bool Cut::subset_of(const Cut& other) const {
  if (size > other.size) return false;
  if ((signature & ~other.signature) != 0) return false;
  uint8_t j = 0;
  for (uint8_t i = 0; i < size; ++i) {
    while (j < other.size && other.leaves[j] < leaves[i]) ++j;
    if (j == other.size || other.leaves[j] != leaves[i]) return false;
  }
  return true;
}

bool merge_cuts(const Cut& a, const Cut& b, uint32_t k, Cut& out) {
  out.size = 0;
  out.signature = a.signature | b.signature;
  uint8_t i = 0;
  uint8_t j = 0;
  while (i < a.size || j < b.size) {
    uint32_t next;
    if (j == b.size || (i < a.size && a.leaves[i] <= b.leaves[j])) {
      if (i < a.size && j < b.size && a.leaves[i] == b.leaves[j]) ++j;
      next = a.leaves[i++];
    } else {
      next = b.leaves[j++];
    }
    if (out.size == k) return false;
    out.leaves[out.size++] = next;
  }
  return true;
}

namespace {

/// Inserts `cut` into `set` unless dominated; removes cuts it dominates.
void insert_cut(std::vector<Cut>& set, const Cut& cut, uint32_t max_cuts) {
  for (const Cut& existing : set) {
    if (existing.subset_of(cut)) return;  // dominated (or duplicate)
  }
  std::erase_if(set, [&](const Cut& existing) { return cut.subset_of(existing); });
  if (max_cuts != 0 && set.size() >= max_cuts) return;
  set.push_back(cut);
}

Cut trivial_cut(uint32_t node) {
  Cut c;
  c.size = 1;
  c.leaves[0] = node;
  c.signature = Cut::hash_leaf(node);
  return c;
}

/// True for the fanins that contribute only their trivial cut: PIs and
/// boundary nodes.  Global and scoped enumeration share this one predicate,
/// so their cut sets cannot drift apart.
bool is_leaf(const mig::Mig& mig, const CutEnumerationParams& params, uint32_t f) {
  return mig.is_pi(f) || (params.boundary != nullptr && f < params.boundary->size() &&
                          (*params.boundary)[f]);
}

/// The merge kernel shared by global and scoped enumeration: builds gate n's
/// cut set into `out` from its fanins' sets, reading `sets` only for gate
/// fanins that are not leaves.
void build_node_cuts(const mig::Mig& mig, const CutEnumerationParams& params, uint32_t n,
                     const std::vector<std::vector<Cut>>& sets, std::vector<Cut>& out) {
  // A terminal or boundary fanin contributes a single cut, held here; a
  // gate fanin's set is read in place.
  std::array<Cut, 3> single;
  std::array<std::span<const Cut>, 3> fanin_sets;
  const auto& f = mig.fanins(n);
  for (size_t i = 0; i < 3; ++i) {
    const uint32_t g = f[i].index();
    if (mig.is_constant(g)) {
      single[i] = Cut{};  // empty cut: paths exempt
    } else if (is_leaf(mig, params, g)) {
      single[i] = trivial_cut(g);
    } else {
      fanin_sets[i] = sets[g];
      continue;
    }
    fanin_sets[i] = std::span(&single[i], 1);
  }

  // Merged in per-thread scratch, so `out` is allocated once, at its size.
  thread_local std::vector<Cut> merged;
  merged.clear();
  Cut ab;
  Cut abc;
  for (const Cut& c0 : fanin_sets[0]) {
    for (const Cut& c1 : fanin_sets[1]) {
      if (!merge_cuts(c0, c1, params.cut_size, ab)) continue;
      for (const Cut& c2 : fanin_sets[2]) {
        if (!merge_cuts(ab, c2, params.cut_size, abc)) continue;
        insert_cut(merged, abc, params.max_cuts);
      }
    }
  }
  if (params.include_trivial) {
    insert_cut(merged, trivial_cut(n), /*max_cuts=*/0);
  }
  out.assign(merged.begin(), merged.end());
}

}  // namespace

std::vector<std::vector<Cut>> enumerate_cuts(const mig::Mig& mig,
                                             const CutEnumerationParams& params) {
  MIGHTY_ASSERT(params.cut_size <= Cut::max_size);
  std::vector<std::vector<Cut>> sets(mig.num_nodes());

  // The constant node contributes the empty cut, so that paths to it are
  // exempt from the covering requirement.
  sets[mig::Mig::constant_node] = {Cut{}};
  for (uint32_t n = 1; n < mig.num_nodes(); ++n) {
    if (mig.is_pi(n)) {
      sets[n] = {trivial_cut(n)};
      continue;
    }
    build_node_cuts(mig, params, n, sets, sets[n]);
  }
  return sets;
}

void enumerate_cuts_scoped(const mig::Mig& mig, const CutEnumerationParams& params,
                           const std::vector<uint32_t>& scope,
                           std::vector<std::vector<Cut>>& sets) {
  MIGHTY_ASSERT(params.cut_size <= Cut::max_size);
  MIGHTY_ASSERT(sets.size() == mig.num_nodes());
  for (const uint32_t n : scope) {
    MIGHTY_ASSERT(mig.is_gate(n));
    build_node_cuts(mig, params, n, sets, sets[n]);
  }
}

uint64_t total_cut_count(const std::vector<std::vector<Cut>>& cut_sets) {
  uint64_t total = 0;
  for (const auto& set : cut_sets) total += set.size();
  return total;
}

}  // namespace mighty::cuts

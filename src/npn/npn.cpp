#include "npn/npn.hpp"

#include <algorithm>
#include "util/assert.hpp"
#include <numeric>

namespace mighty::npn {

tt::TruthTable apply(const tt::TruthTable& f, const Transform& t) {
  MIGHTY_ASSERT(f.num_vars() == t.num_vars);
  tt::TruthTable g = f;
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    if ((t.input_negations >> v) & 1) g = g.flip(v);
  }
  g = g.permute(t.perm);
  if (t.output_negation) g = ~g;
  return g;
}

Transform inverse(const Transform& t) {
  Transform r;
  r.num_vars = t.num_vars;
  r.output_negation = t.output_negation;
  r.input_negations = 0;
  for (uint32_t i = 0; i < t.num_vars; ++i) {
    // t.perm maps original variable i to result variable t.perm[i]; the
    // inverse permutation maps it back.
    r.perm[t.perm[i]] = static_cast<uint8_t>(i);
    if ((t.input_negations >> i) & 1) {
      r.input_negations = static_cast<uint8_t>(r.input_negations | (1u << t.perm[i]));
    }
  }
  for (uint32_t i = t.num_vars; i < tt::TruthTable::max_vars; ++i) {
    r.perm[i] = static_cast<uint8_t>(i);
  }
  // Derivation: h(x) = f(x_{p(i)} ^ n_i) ^ o.  Solving for f gives
  // f(u) = h(u_{p^{-1}(j)} ^ n_{p^{-1}(j)}) ^ o, i.e. the inverse permutation
  // with negations carried to the permuted positions and the same output
  // negation.
  return r;
}

std::vector<std::array<uint8_t, tt::TruthTable::max_vars>> all_permutations(uint32_t n) {
  std::array<uint8_t, tt::TruthTable::max_vars> base{0, 1, 2, 3, 4, 5};
  std::vector<std::array<uint8_t, tt::TruthTable::max_vars>> result;
  std::array<uint8_t, tt::TruthTable::max_vars> p = base;
  do {
    result.push_back(p);
  } while (std::next_permutation(p.begin(), p.begin() + n));
  return result;
}

namespace {

/// The 5-variable walk: every permutation in Steinhaus-Johnson-Trotter
/// order, so consecutive permutations differ by one adjacent swap.
/// `swaps[p]` is the swap position (variables i and i + 1) that leads from
/// permutation p to p + 1, and `perms[p]` is permutation p in Transform
/// form: the walked table is f.permute(perms[p]).
struct FiveVarWalk {
  static constexpr uint32_t kPerms = 120;
  std::array<uint8_t, kPerms - 1> swaps{};
  std::array<std::array<uint8_t, tt::TruthTable::max_vars>, kPerms> perms{};
  /// Delta-swap masks: the positions whose variable i is 1 and variable
  /// i + 1 is 0, which trade places with the positions 2^i above them.
  std::array<uint32_t, 4> swap_masks{};

  FiveVarWalk() {
    for (uint32_t i = 0; i < 4; ++i) {
      swap_masks[i] = static_cast<uint32_t>(tt::TruthTable::var_mask(i) &
                                            ~tt::TruthTable::var_mask(i + 1));
    }
    // Johnson-Trotter: move the largest mobile element one step in its
    // direction, then reverse every larger element's direction.
    std::array<uint8_t, 5> order{0, 1, 2, 3, 4};
    std::array<int, 5> dir{-1, -1, -1, -1, -1};
    std::array<uint8_t, tt::TruthTable::max_vars> perm{0, 1, 2, 3, 4, 5};
    perms[0] = perm;
    for (uint32_t p = 1; p < kPerms; ++p) {
      int mobile = -1;
      for (int i = 0; i < 5; ++i) {
        const int j = i + dir[order[i]];
        if (j >= 0 && j < 5 && order[j] < order[i] &&
            (mobile < 0 || order[i] > order[mobile])) {
          mobile = i;
        }
      }
      MIGHTY_ASSERT(mobile >= 0);
      const uint8_t moved = order[mobile];
      const int target = mobile + dir[moved];
      std::swap(order[mobile], order[target]);
      for (uint8_t e = moved + 1; e < 5; ++e) dir[e] = -dir[e];
      const auto a = static_cast<uint8_t>(std::min(mobile, target));
      swaps[p - 1] = a;
      // Swapping walked variables a and a + 1 relabels them in the
      // transform: original input i, read from a, now reads a + 1.
      for (uint32_t i = 0; i < 5; ++i) {
        if (perm[i] == a) {
          perm[i] = static_cast<uint8_t>(a + 1);
        } else if (perm[i] == a + 1) {
          perm[i] = a;
        }
      }
      perms[p] = perm;
    }
  }
};

uint32_t swap_adjacent(uint32_t bits, uint32_t mask, uint32_t shift) {
  const uint32_t t = (bits ^ (bits >> shift)) & mask;
  return bits ^ t ^ (t << shift);
}

uint32_t flip_var(uint32_t bits, uint32_t var) {
  const auto m = static_cast<uint32_t>(tt::TruthTable::var_mask(var));
  const uint32_t shift = 1u << var;
  return ((bits & m) >> shift) | ((bits & ~m) << shift);
}

/// Exhaustive 5-variable canonization over the raw 32-bit table: 120
/// permutations x 32 input negations (Gray order, one flip per step) x
/// output negation.  Only the indices of the first minimum are tracked; the
/// transform is rebuilt for that winner alone.
CanonResult canonize5(const tt::TruthTable& f) {
  static const FiveVarWalk walk;
  uint32_t permuted = static_cast<uint32_t>(f.bits());
  // The initial state stands for the first candidate (f itself) whenever
  // f is all ones; any other first candidate is strictly smaller.
  uint32_t best = ~uint32_t{0};
  uint32_t best_perm = 0, best_gray = 0;
  bool best_out = false;
  for (uint32_t p = 0; p < FiveVarWalk::kPerms; ++p) {
    uint32_t g = permuted;
    for (uint32_t step = 0; step < 32; ++step) {
      if (step > 0) g = flip_var(g, static_cast<uint32_t>(__builtin_ctz(step)));
      if (g < best) best = g, best_perm = p, best_gray = step, best_out = false;
      if (~g < best) best = ~g, best_perm = p, best_gray = step, best_out = true;
    }
    if (p + 1 < FiveVarWalk::kPerms) {
      const uint32_t a = walk.swaps[p];
      permuted = swap_adjacent(permuted, walk.swap_masks[a], 1u << a);
    }
  }
  // After `best_gray` Gray steps the flipped walked variables are
  // gray(best_gray); walked variable perm[i] drives original input i.
  const uint32_t flipped = best_gray ^ (best_gray >> 1);
  CanonResult result;
  result.representative = tt::TruthTable(5, best);
  result.transform.num_vars = 5;
  result.transform.perm = walk.perms[best_perm];
  for (uint32_t i = 0; i < 5; ++i) {
    if ((flipped >> result.transform.perm[i]) & 1) {
      result.transform.input_negations =
          static_cast<uint8_t>(result.transform.input_negations | (1u << i));
    }
  }
  result.transform.output_negation = best_out;
  MIGHTY_ASSERT(apply(f, result.transform) == result.representative);
  return result;
}

}  // namespace

CanonResult canonize(const tt::TruthTable& f) {
  const uint32_t n = f.num_vars();
  MIGHTY_ASSERT(n <= 5);
  if (n == 5) return canonize5(f);
  const auto perms = all_permutations(n);

  CanonResult best;
  bool have_best = false;
  Transform t;
  t.num_vars = static_cast<uint8_t>(n);
  for (const auto& perm : perms) {
    t.perm = perm;
    for (uint32_t neg = 0; neg < (1u << n); ++neg) {
      t.input_negations = static_cast<uint8_t>(neg);
      for (uint32_t out = 0; out < 2; ++out) {
        t.output_negation = out != 0;
        tt::TruthTable candidate = apply(f, t);
        if (!have_best || candidate < best.representative) {
          best.representative = candidate;
          best.transform = t;
          have_best = true;
        }
      }
    }
  }
  return best;
}

uint64_t orbit_size(const tt::TruthTable& f) {
  const uint32_t n = f.num_vars();
  MIGHTY_ASSERT(n <= 4);
  std::vector<uint64_t> seen;
  Transform t;
  t.num_vars = static_cast<uint8_t>(n);
  for (const auto& perm : all_permutations(n)) {
    t.perm = perm;
    for (uint32_t neg = 0; neg < (1u << n); ++neg) {
      t.input_negations = static_cast<uint8_t>(neg);
      for (uint32_t out = 0; out < 2; ++out) {
        t.output_negation = out != 0;
        seen.push_back(apply(f, t).bits());
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  return static_cast<uint64_t>(std::unique(seen.begin(), seen.end()) - seen.begin());
}

std::vector<tt::TruthTable> enumerate_classes(uint32_t num_vars) {
  MIGHTY_ASSERT(num_vars <= 4);
  const uint64_t total = uint64_t{1} << (uint64_t{1} << num_vars);
  std::vector<bool> seen(total, false);
  std::vector<tt::TruthTable> reps;

  const auto perms = all_permutations(num_vars);
  Transform t;
  t.num_vars = static_cast<uint8_t>(num_vars);

  for (uint64_t bits = 0; bits < total; ++bits) {
    if (seen[bits]) continue;
    const tt::TruthTable f(num_vars, bits);
    reps.push_back(f);  // first unseen function is numerically smallest in its orbit
    for (const auto& perm : perms) {
      t.perm = perm;
      for (uint32_t neg = 0; neg < (1u << num_vars); ++neg) {
        t.input_negations = static_cast<uint8_t>(neg);
        for (uint32_t out = 0; out < 2; ++out) {
          t.output_negation = out != 0;
          seen[apply(f, t).bits()] = true;
        }
      }
    }
  }
  return reps;
}

}  // namespace mighty::npn

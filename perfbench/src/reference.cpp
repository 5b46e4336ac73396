#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "gen/arith.hpp"
#include "mig/simulation.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using u128 = unsigned __int128;
constexpr uint32_t kExhaustiveLimit = 16;  ///< inputs up to which all patterns run
constexpr uint32_t kRandomWords = 64;      ///< 64-pattern words for wider networks
/// log2_model reads the leading one of its input and the 14 bits below it.
constexpr uint32_t kLog2Window = 14;
constexpr uint64_t kVectorSeed = 0x6d696768747962ull;

/// One input or output assignment, bit i = PI/PO i.
class Bits {
public:
  explicit Bits(uint32_t n) : limbs_((n + 63) / 64, 0) {}
  bool get(uint32_t i) const { return (limbs_[i / 64] >> (i % 64)) & 1; }
  void set(uint32_t i, bool v) {
    if (v) {
      limbs_[i / 64] |= uint64_t{1} << (i % 64);
    } else {
      limbs_[i / 64] &= ~(uint64_t{1} << (i % 64));
    }
  }
  /// Little-endian field of `width` <= 128 bits starting at bit `offset`.
  u128 field(uint32_t offset, uint32_t width) const {
    u128 v = 0;
    for (uint32_t i = 0; i < width; ++i) v |= static_cast<u128>(get(offset + i)) << i;
    return v;
  }
  void put(uint32_t offset, uint32_t width, u128 v) {
    for (uint32_t i = 0; i < width; ++i) set(offset + i, ((v >> i) & 1) != 0);
  }
  uint64_t& limb(size_t i) { return limbs_[i]; }
  size_t num_limbs() const { return limbs_.size(); }

private:
  std::vector<uint64_t> limbs_;
};

u128 mask(uint32_t width) { return width >= 128 ? ~u128{0} : (u128{1} << width) - 1; }

/// floor(sqrt(x)) for any 128-bit x: a long-double estimate corrected by
/// exact integer comparisons.
u128 isqrt(u128 x) {
  constexpr u128 kMaxRoot = 0xffffffffffffffffull;
  u128 r = static_cast<u128>(std::sqrt(static_cast<long double>(x)));
  if (r > kMaxRoot) r = kMaxRoot;
  while (r * r > x) --r;
  while (r < kMaxRoot && (r + 1) * (r + 1) <= x) ++r;
  return r;
}

/// The reference: outputs of `spec` for input assignment `in`.
Bits evaluate(const NetworkSpec& spec, const Bits& in) {
  const uint32_t w = spec.width;
  Bits out(spec.num_outputs());
  switch (spec.family) {
    case Family::adder: {
      const u128 a = in.field(0, w), b = in.field(w, w);
      const u128 sum = a + b;  // wraps only at w == 128
      out.put(0, w, sum & mask(w));
      out.set(w, w == 128 ? sum < a : ((sum >> w) & 1) != 0);
      break;
    }
    case Family::divisor: {
      // Quotient bits then remainder bits.  Division by zero follows the
      // restoring-division convention: all-ones quotient, remainder = dividend.
      const u128 n = in.field(0, w), d = in.field(w, w);
      out.put(0, w, d == 0 ? mask(w) : n / d);
      out.put(w, w, d == 0 ? n : n % d);
      break;
    }
    case Family::log2:
      out.put(0, w + 5,
              mighty::gen::log2_model(static_cast<uint32_t>(in.field(0, 32)), w));
      break;
    case Family::max: {
      // Largest of four words, then its index (first maximal word on ties).
      u128 best = in.field(0, w);
      uint32_t index = 0;
      for (uint32_t k = 1; k < 4; ++k) {
        const u128 v = in.field(k * w, w);
        if (v > best) {
          best = v;
          index = k;
        }
      }
      out.put(0, w, best);
      out.set(w, (index & 1) != 0);
      out.set(w + 1, (index & 2) != 0);
      break;
    }
    case Family::multiplier:
      out.put(0, 2 * w, in.field(0, w) * in.field(w, w));
      break;
    case Family::sine:
      out.put(0, w + 1, mighty::gen::sine_model(static_cast<uint64_t>(in.field(0, w)), w));
      break;
    case Family::sqrt:
      out.put(0, w, isqrt(in.field(0, 2 * w)));
      break;
    case Family::square: {
      const u128 x = in.field(0, w);
      out.put(0, 2 * w, x * x);
      break;
    }
  }
  return out;
}

struct Field {
  uint32_t offset;
  uint32_t width;
};

/// The operands of `spec` as fields of the input assignment.
std::vector<Field> operand_fields(const NetworkSpec& spec) {
  const uint32_t w = spec.width;
  switch (spec.family) {
    case Family::adder:
    case Family::divisor:
    case Family::multiplier: return {{0, w}, {w, w}};
    case Family::log2: return {{0, 32}};
    case Family::max: return {{0, w}, {w, w}, {2 * w, w}, {3 * w, w}};
    case Family::sine:
    case Family::square: return {{0, w}};
    case Family::sqrt: return {{0, 2 * w}};
  }
  return {};
}

}  // namespace

uint32_t NetworkSpec::num_inputs() const {
  switch (family) {
    case Family::adder:
    case Family::divisor:
    case Family::multiplier:
    case Family::sqrt: return 2 * width;
    case Family::log2: return 32;
    case Family::max: return 4 * width;
    case Family::sine:
    case Family::square: return width;
  }
  return 0;
}

uint32_t NetworkSpec::num_outputs() const {
  switch (family) {
    case Family::adder: return width + 1;
    case Family::divisor:
    case Family::multiplier:
    case Family::square: return 2 * width;
    case Family::log2: return width + 5;
    case Family::max: return width + 2;
    case Family::sine: return width + 1;
    case Family::sqrt: return width;
  }
  return 0;
}

std::optional<NetworkSpec> spec_for(const std::string& name) {
  struct Suite {
    const char* name;
    NetworkSpec spec;
  };
  static const Suite kSuite[] = {
      {"Adder", {Family::adder, 128}},       {"Divisor", {Family::divisor, 64}},
      {"Log2", {Family::log2, 27}},          {"Max", {Family::max, 128}},
      {"Multiplier", {Family::multiplier, 64}}, {"Sine", {Family::sine, 24}},
      {"Square-root", {Family::sqrt, 64}},   {"Square", {Family::square, 64}},
  };
  for (const Suite& s : kSuite) {
    if (name == s.name) return s.spec;
  }
  struct Prefix {
    const char* prefix;
    Family family;
  };
  static const Prefix kCorpus[] = {
      {"adder", Family::adder},   {"divider", Family::divisor},
      {"log2_", Family::log2},    {"max", Family::max},
      {"multiplier", Family::multiplier}, {"sine", Family::sine},
      {"sqrt", Family::sqrt},     {"square", Family::square},
  };
  for (const Prefix& p : kCorpus) {
    const size_t len = std::strlen(p.prefix);
    if (name.size() <= len || name.compare(0, len, p.prefix) != 0) continue;
    const std::string digits = name.substr(len);
    if (digits.size() > 3 || digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const auto width = static_cast<uint32_t>(std::stoul(digits));
    if (width == 0 || width > 128) continue;
    return NetworkSpec{p.family, width};
  }
  return std::nullopt;
}

Verdict verify(const mighty::mig::Mig& network, const NetworkSpec& spec) {
  Verdict verdict;
  const uint32_t n_in = spec.num_inputs();
  const uint32_t n_out = spec.num_outputs();
  if (network.num_pis() != n_in || network.num_pos() != n_out) {
    verdict.detail = "interface " + std::to_string(network.num_pis()) + "/" +
                     std::to_string(network.num_pos()) + ", reference expects " +
                     std::to_string(n_in) + "/" + std::to_string(n_out);
    return verdict;
  }
  verdict.exhaustive = n_in <= kExhaustiveLimit;
  // log2 (32 inputs) runs one pattern per input class its model tells
  // apart: every leading-one position with every value of the window below
  // it, the bits further down random; pattern 0 is the input zero.
  const bool log2_classes = !verdict.exhaustive && spec.family == Family::log2;
  const uint64_t words = verdict.exhaustive ? ((uint64_t{1} << n_in) + 63) / 64
                         : log2_classes     ? (uint64_t{32} << kLog2Window) / 64
                                            : kRandomWords;
  uint64_t state = kVectorSeed ^ (static_cast<uint64_t>(spec.family) << 32 | spec.width);

  const std::vector<Field> operands = operand_fields(spec);
  std::vector<Bits> lanes(64, Bits(n_in));
  std::vector<uint64_t> pi_words(n_in);
  for (uint64_t word = 0; word < words; ++word) {
    const uint64_t lanes_used =
        verdict.exhaustive ? std::min<uint64_t>(64, (uint64_t{1} << n_in) - word * 64) : 64;
    for (uint64_t lane = 0; lane < 64; ++lane) {
      Bits& in = lanes[lane];
      if (verdict.exhaustive) {
        const uint64_t pattern = word * 64 + (lane < lanes_used ? lane : 0);
        for (uint32_t i = 0; i < n_in; ++i) in.set(i, (pattern >> i) & 1);
        continue;
      }
      for (size_t l = 0; l < in.num_limbs(); ++l) in.limb(l) = splitmix64(state);
      if (log2_classes) {
        const uint64_t pattern = word * 64 + lane;
        const auto lead = static_cast<uint32_t>(pattern >> kLog2Window);
        const uint32_t window = static_cast<uint32_t>(pattern) & ((1u << kLog2Window) - 1);
        const uint32_t below = lead > kLog2Window ? lead - kLog2Window : 0;
        uint32_t x = static_cast<uint32_t>(in.limb(0)) & ((1u << below) - 1);
        x |= (1u << lead) | ((window << below) & ((1u << lead) - 1));
        in.limb(0) = pattern == 0 ? 0 : x;
        continue;
      }
      // Each operand keeps a random number of its low bits, so every
      // leading-one position occurs (log2's integer part, short divisors
      // and their quotient widths), not just the top few of uniform words.
      for (const Field& f : operands) {
        const auto length = static_cast<uint32_t>(splitmix64(state) % (f.width + 1));
        for (uint32_t i = length; i < f.width; ++i) in.set(f.offset + i, false);
      }
      if (word == 0 && lane < 4) {
        // Corner patterns: all zeros, all ones, upper half zero (a zero
        // second operand), lower half zero.
        for (uint32_t i = 0; i < n_in; ++i) {
          const bool upper = i >= n_in / 2;
          if (lane == 0 || (lane == 2 && upper) || (lane == 3 && !upper)) in.set(i, false);
          if (lane == 1) in.set(i, true);
        }
      }
      for (uint32_t i = (n_in + 63) / 64 * 64; i-- > n_in;) in.set(i, false);
    }
    for (uint32_t i = 0; i < n_in; ++i) {
      uint64_t w = 0;
      for (uint64_t lane = 0; lane < 64; ++lane) {
        w |= static_cast<uint64_t>(lanes[lane].get(i)) << lane;
      }
      pi_words[i] = w;
    }
    const auto node_words = mighty::mig::simulate_words(network, pi_words);
    std::vector<uint64_t> po_words(n_out);
    for (uint32_t o = 0; o < n_out; ++o) {
      po_words[o] = mighty::mig::resolve(node_words, network.output(o));
    }
    for (uint64_t lane = 0; lane < lanes_used; ++lane) {
      const Bits expected = evaluate(spec, lanes[lane]);
      ++verdict.patterns;
      for (uint32_t o = 0; o < n_out; ++o) {
        const bool got = (po_words[o] >> lane) & 1;
        if (got == expected.get(o)) continue;
        ++verdict.mismatches;
        if (verdict.detail.empty()) {
          verdict.detail = "output " + std::to_string(o) + " wrong on pattern " +
                           std::to_string(verdict.patterns - 1);
        }
        break;
      }
    }
  }
  verdict.ok = verdict.mismatches == 0;
  return verdict;
}

}  // namespace perfbench

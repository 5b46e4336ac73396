#include "tt/truth_table.hpp"

#include <algorithm>
#include <stdexcept>

namespace mighty::tt {

TruthTable TruthTable::swap_vars(uint32_t a, uint32_t b) const {
  MIGHTY_ASSERT(a < num_vars_ && b < num_vars_);
  if (a == b) return *this;
  TruthTable result(num_vars_);
  for (uint32_t m = 0; m < num_bits(); ++m) {
    uint32_t src = m;
    const bool bit_a = (m >> a) & 1;
    const bool bit_b = (m >> b) & 1;
    src &= ~((1u << a) | (1u << b));
    src |= (uint32_t{bit_b} << a) | (uint32_t{bit_a} << b);
    result.set_bit(m, get_bit(src));
  }
  return result;
}

TruthTable TruthTable::permute(const std::array<uint8_t, max_vars>& perm) const {
  TruthTable result(num_vars_);
  for (uint32_t m = 0; m < num_bits(); ++m) {
    // Variable i of the original function reads result-variable perm[i].
    uint32_t src = 0;
    for (uint32_t v = 0; v < num_vars_; ++v) {
      if ((m >> perm[v]) & 1) src |= 1u << v;
    }
    result.set_bit(m, get_bit(src));
  }
  return result;
}

TruthTable TruthTable::extend(uint32_t new_num_vars) const {
  MIGHTY_ASSERT(new_num_vars >= num_vars_ && new_num_vars <= max_vars);
  uint64_t b = bits_;
  for (uint32_t v = num_vars_; v < new_num_vars; ++v) {
    b |= b << (1u << v);
  }
  return TruthTable(new_num_vars, b);
}

TruthTable TruthTable::shrink_to_support(std::array<uint32_t, max_vars>& old_vars) const {
  uint32_t k = 0;
  for (uint32_t v = 0; v < num_vars_; ++v) {
    if (depends_on(v)) old_vars[k++] = v;
  }
  TruthTable result(k);
  for (uint32_t m = 0; m < result.num_bits(); ++m) {
    uint32_t src = 0;
    for (uint32_t v = 0; v < k; ++v) {
      if ((m >> v) & 1) src |= 1u << old_vars[v];
    }
    result.set_bit(m, get_bit(src));
  }
  return result;
}

TruthTable TruthTable::shrink_to_support(std::vector<uint32_t>& old_vars) const {
  std::array<uint32_t, max_vars> vars{};
  const TruthTable result = shrink_to_support(vars);
  old_vars.assign(vars.begin(), vars.begin() + result.num_vars());
  return result;
}

std::string TruthTable::to_hex() const {
  const uint32_t nibbles = std::max(1u, num_bits() / 4);
  std::string out(nibbles, '0');
  for (uint32_t i = 0; i < nibbles; ++i) {
    const auto nib = static_cast<uint32_t>((bits_ >> (4 * (nibbles - 1 - i))) & 0xf);
    out[i] = "0123456789abcdef"[nib];
  }
  return out;
}

std::string TruthTable::to_binary() const {
  std::string out(num_bits(), '0');
  for (uint32_t i = 0; i < num_bits(); ++i) {
    out[i] = get_bit(num_bits() - 1 - i) ? '1' : '0';
  }
  return out;
}

TruthTable TruthTable::from_hex(uint32_t num_vars, const std::string& hex) {
  uint64_t bits = 0;
  for (char c : hex) {
    uint64_t nib = 0;
    if (c >= '0' && c <= '9') {
      nib = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nib = static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nib = static_cast<uint64_t>(c - 'A' + 10);
    } else {
      throw std::invalid_argument("invalid hex digit in truth table literal");
    }
    bits = (bits << 4) | nib;
  }
  return TruthTable(num_vars, bits);
}

}  // namespace mighty::tt

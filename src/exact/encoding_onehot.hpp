#pragma once

#include <vector>

#include "exact/encoding.hpp"

namespace mighty::exact {

/// Direct CNF encoding of the exact-synthesis decision problem with one-hot
/// select variables.  Variable layout per gate l (0-based, k gates over n
/// inputs, rows j in [0, 2^n)):
///   s[l][c][i] : operand c of gate l selects domain value i, where
///                i = 0 is the constant, 1..n the inputs, n+1+m step m;
///   p[l][c]    : operand c of gate l is complemented;
///   a[l][c][j] : value of operand c of gate l on row j (paper eq. (6)-(8));
///   b[l][j]    : output value of gate l on row j (paper eq. (4), (9)).
class OnehotEncoder final : public Encoder {
public:
  OnehotEncoder(sat::Solver& solver, const tt::TruthTable& f, uint32_t num_gates,
                const EncodeOptions& options = {});

  void encode() override;
  MigChain extract() const override;

  /// Opt-in depth bound, added after encode() — typically once the size-k
  /// problem came back SAT, so the size search itself is unchanged.  Adds
  /// level variables d[l][e] ("gate l is deeper than e"), forced by every
  /// gate fanin: selecting gate m makes gate l deeper than 1, and selecting
  /// a gate m deeper than e makes gate l deeper than e + 1.  Since the
  /// levels are only ever forced upward, solving under the negation of
  /// root_deeper_than(d) asks exactly for a k-gate chain of depth <= d.
  void encode_depth_levels();
  /// The literal "the root gate is deeper than `depth`", 1 <= depth < k.
  sat::Lit root_deeper_than(uint32_t depth) const;

private:
  uint32_t domain_size(uint32_t l) const { return 1 + n_ + l; }

  sat::Solver& solver_;
  tt::TruthTable f_;
  uint32_t k_;
  uint32_t n_;
  uint32_t rows_;
  EncodeOptions options_;

  std::vector<std::array<std::vector<sat::Var>, 3>> s_;
  std::vector<std::array<sat::Var, 3>> p_;
  std::vector<std::array<std::vector<sat::Var>, 3>> a_;
  std::vector<std::vector<sat::Var>> b_;
  /// deeper_[l][e - 1] <-> gate l is deeper than e, for 1 <= e <= l.
  std::vector<std::vector<sat::Var>> deeper_;
};

}  // namespace mighty::exact

#include "npn/npn.hpp"

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "exact/chain.hpp"

namespace mighty::npn {
namespace {

using tt::TruthTable;

TEST(NpnTest, IdentityTransformIsNoOp) {
  Transform t;
  t.num_vars = 4;
  std::mt19937 rng(1);
  for (int i = 0; i < 50; ++i) {
    const TruthTable f(4, rng());
    EXPECT_EQ(apply(f, t), f);
  }
}

TEST(NpnTest, OutputNegation) {
  Transform t;
  t.num_vars = 4;
  t.output_negation = true;
  const TruthTable f(4, 0x1234);
  EXPECT_EQ(apply(f, t), ~f);
}

TEST(NpnTest, InputNegationMatchesFlip) {
  Transform t;
  t.num_vars = 4;
  t.input_negations = 0b0101;
  std::mt19937 rng(2);
  const TruthTable f(4, rng());
  EXPECT_EQ(apply(f, t), f.flip(0).flip(2));
}

TEST(NpnTest, InverseRoundTripRandom) {
  std::mt19937 rng(3);
  const auto perms = all_permutations(4);
  for (int i = 0; i < 500; ++i) {
    Transform t;
    t.num_vars = 4;
    t.perm = perms[rng() % perms.size()];
    t.input_negations = static_cast<uint8_t>(rng() & 0xf);
    t.output_negation = (rng() & 1) != 0;
    const TruthTable f(4, rng());
    EXPECT_EQ(apply(apply(f, t), inverse(t)), f);
    EXPECT_EQ(apply(apply(f, inverse(t)), t), f);
  }
}

TEST(NpnTest, CanonizeIsIdempotent) {
  std::mt19937 rng(4);
  for (int i = 0; i < 200; ++i) {
    const TruthTable f(4, rng());
    const auto r1 = canonize(f);
    const auto r2 = canonize(r1.representative);
    EXPECT_EQ(r2.representative, r1.representative);
  }
}

TEST(NpnTest, CanonizeRelatesFunctionAndRepresentative) {
  std::mt19937 rng(5);
  for (int i = 0; i < 200; ++i) {
    const TruthTable f(4, rng());
    const auto r = canonize(f);
    EXPECT_EQ(apply(f, r.transform), r.representative);
    EXPECT_EQ(apply(r.representative, inverse(r.transform)), f);
  }
}

TEST(NpnTest, EquivalentFunctionsShareRepresentative) {
  std::mt19937 rng(6);
  const auto perms = all_permutations(4);
  for (int i = 0; i < 100; ++i) {
    const TruthTable f(4, rng());
    Transform t;
    t.num_vars = 4;
    t.perm = perms[rng() % perms.size()];
    t.input_negations = static_cast<uint8_t>(rng() & 0xf);
    t.output_negation = (rng() & 1) != 0;
    const TruthTable g = apply(f, t);
    EXPECT_EQ(canonize(f).representative, canonize(g).representative);
  }
}

TEST(NpnTest, RepresentativeIsSmallestInOrbit) {
  std::mt19937 rng(7);
  const auto perms = all_permutations(4);
  for (int i = 0; i < 10; ++i) {
    const TruthTable f(4, rng());
    const auto rep = canonize(f).representative;
    Transform t;
    t.num_vars = 4;
    for (const auto& perm : perms) {
      t.perm = perm;
      for (uint32_t neg = 0; neg < 16; ++neg) {
        t.input_negations = static_cast<uint8_t>(neg);
        for (int out = 0; out < 2; ++out) {
          t.output_negation = out != 0;
          EXPECT_FALSE(apply(f, t) < rep);
        }
      }
    }
  }
}

// The published NPN class counts (paper Sec. II-D): 2, 2, 4, 14, 222 classes
// for n = 0 (constants treated over 0 vars), 1, 2, 3, 4.
TEST(NpnTest, ClassCountsMatchLiterature) {
  EXPECT_EQ(enumerate_classes(0).size(), 1u);  // over zero variables: 0 and 1 collapse
  EXPECT_EQ(enumerate_classes(1).size(), 2u);
  EXPECT_EQ(enumerate_classes(2).size(), 4u);
  EXPECT_EQ(enumerate_classes(3).size(), 14u);
  EXPECT_EQ(enumerate_classes(4).size(), 222u);
}

TEST(NpnTest, ClassOrbitsPartitionAllFunctions) {
  const auto reps = enumerate_classes(3);
  std::set<uint64_t> seen;
  const auto perms = all_permutations(3);
  for (const auto& rep : reps) {
    Transform t;
    t.num_vars = 3;
    for (const auto& perm : perms) {
      t.perm = perm;
      for (uint32_t neg = 0; neg < 8; ++neg) {
        t.input_negations = static_cast<uint8_t>(neg);
        for (int out = 0; out < 2; ++out) {
          t.output_negation = out != 0;
          seen.insert(apply(rep, t).bits());
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 256u);
}

TEST(NpnTest, RepresentativesCanonizeToThemselves) {
  for (const auto& rep : enumerate_classes(3)) {
    EXPECT_EQ(canonize(rep).representative, rep);
  }
}

// --- five variables ------------------------------------------------------------

/// Reference canonization: the smallest apply(f, t) over all 7680 transforms
/// (output negation taken as the complement of each input transform's image,
/// which is what apply does for it).
TruthTable brute_force_representative(const TruthTable& f) {
  TruthTable best = f;
  Transform t;
  t.num_vars = 5;
  for (const auto& perm : all_permutations(5)) {
    t.perm = perm;
    for (uint32_t neg = 0; neg < 32; ++neg) {
      t.input_negations = static_cast<uint8_t>(neg);
      const TruthTable g = apply(f, t);
      if (g < best) best = g;
      if (~g < best) best = ~g;
    }
  }
  return best;
}

/// A (far from minimal) chain for any 5-variable function: a Shannon
/// expansion whose multiplexers are three majority gates each,
/// x ? a : b = <<x a 0> <!x b 0> 1>.
exact::MigChain shannon_chain(const TruthTable& f) {
  exact::MigChain chain;
  chain.num_vars = 5;
  const auto step = [&chain](exact::RefLit a, exact::RefLit b, exact::RefLit c) {
    chain.steps.push_back({{a, b, c}});
    return exact::make_ref_lit(6 + chain.size() - 1, false);
  };
  const auto build = [&](const auto& self, const TruthTable& g, int var) -> exact::RefLit {
    if (g.is_const0() || g.is_const1()) return exact::make_ref_lit(0, g.is_const1());
    const auto v = static_cast<uint32_t>(var);
    const auto lo = self(self, g.cofactor(v, false), var - 1);
    const auto hi = self(self, g.cofactor(v, true), var - 1);
    if (lo == hi) return lo;
    const exact::RefLit zero = exact::make_ref_lit(0, false);
    const auto on = step(exact::make_ref_lit(v + 1, false), hi, zero);
    const auto off = step(exact::make_ref_lit(v + 1, true), lo, zero);
    return step(on, off, exact::make_ref_lit(0, true));
  };
  chain.output = build(build, f, 4);
  return chain;
}

// Differential check of the 5-variable walk against the brute force, and of
// chain remapping: a chain of the representative, carried through the
// inverse transform, must compute the queried function.
TEST(NpnTest, FiveVarCanonizeMatchesBruteForceAndRemapsChains) {
  std::mt19937_64 rng(14);
  for (int i = 0; i < 10000; ++i) {
    const TruthTable f(5, rng());
    const auto r = canonize(f);
    ASSERT_EQ(r.representative, brute_force_representative(f)) << "f=0x" << f.to_hex();
    ASSERT_EQ(apply(f, r.transform), r.representative) << "f=0x" << f.to_hex();
    const auto rep_chain = shannon_chain(r.representative);
    ASSERT_EQ(rep_chain.simulate(), r.representative);
    const auto member = exact::apply_transform(rep_chain, inverse(r.transform));
    ASSERT_EQ(member.simulate(), f) << "f=0x" << f.to_hex();
    ASSERT_EQ(member.size(), rep_chain.size());
    ASSERT_EQ(member.depth(), rep_chain.depth());
  }
}

TEST(NpnTest, FiveVarCanonizeIsClassInvariant) {
  std::mt19937_64 rng(15);
  const auto perms = all_permutations(5);
  for (int i = 0; i < 200; ++i) {
    const TruthTable f(5, rng());
    Transform t;
    t.num_vars = 5;
    t.perm = perms[rng() % perms.size()];
    t.input_negations = static_cast<uint8_t>(rng() & 0x1f);
    t.output_negation = (rng() & 1) != 0;
    const auto rep = canonize(f).representative;
    EXPECT_EQ(canonize(apply(f, t)).representative, rep);
    EXPECT_EQ(canonize(rep).representative, rep);
  }
}

// The n <= 4 path is unchanged by the 5-variable walk: representative and
// transform of every 4-input function hash to the digest the exhaustive
// apply() loop has always produced (the NPN-4 database and every 4-input
// rewrite depend on these exact transforms).
TEST(NpnTest, FourVarCanonizeIsUnchanged) {
  uint64_t digest = 0xcbf29ce484222325ull;
  const auto mix = [&digest](uint64_t v) {
    digest ^= v;
    digest *= 0x100000001b3ull;
  };
  for (uint64_t bits = 0; bits < 65536; ++bits) {
    const auto r = canonize(TruthTable(4, bits));
    mix(r.representative.bits());
    for (uint32_t i = 0; i < 4; ++i) mix(r.transform.perm[i]);
    mix(r.transform.input_negations);
    mix(r.transform.output_negation);
  }
  EXPECT_EQ(digest, 0x85e7078a7de00701ull);
}

TEST(NpnTest, PermutationCount) {
  EXPECT_EQ(all_permutations(4).size(), 24u);
  EXPECT_EQ(all_permutations(3).size(), 6u);
  EXPECT_EQ(all_permutations(1).size(), 1u);
}

}  // namespace
}  // namespace mighty::npn

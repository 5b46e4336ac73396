#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mig/mig.hpp"

/// \file reference.hpp
/// \brief Independent functional reference for the generator families.
///
/// Every network the benchmark optimizes comes from one of the eight
/// src/gen arithmetic families.  The reference states what each family
/// computes as plain integer arithmetic (64/128-bit), except log2 and sine,
/// whose fixed-point semantics are defined by gen::log2_model and
/// gen::sine_model.  verify() simulates a network with mig::simulate_words
/// and compares every output bit on every pattern: exhaustively when the
/// network has at most 16 inputs; for log2 on one pattern per input class
/// its model distinguishes (leading-one position and the 14 bits below it);
/// otherwise on seeded random vectors, each operand cut to a random
/// bit-length, plus corner patterns.  None of it consults the optimizer under test.

namespace perfbench {

enum class Family { adder, divisor, log2, max, multiplier, sine, sqrt, square };

struct NetworkSpec {
  Family family = Family::adder;
  /// Operand width; fraction bits for log2; angle bits for sine.
  uint32_t width = 0;

  uint32_t num_inputs() const;
  uint32_t num_outputs() const;
};

/// The spec of a network by its corpus or suite name: the generated corpus
/// names ("adder16", "divider8", "log2_4", ...) and the EPFL suite names
/// ("Adder", "Divisor", ..., "Square").  nullopt for any other name.
std::optional<NetworkSpec> spec_for(const std::string& name);

struct Verdict {
  bool ok = false;
  uint64_t patterns = 0;    ///< input patterns simulated
  uint64_t mismatches = 0;  ///< patterns with at least one wrong output bit
  bool exhaustive = false;
  std::string detail;  ///< first mismatch (or interface mismatch), empty if ok
};

/// Simulates `network` against the reference model of `spec`.  The random
/// vectors are drawn from a fixed seed, so a verdict is reproducible.
Verdict verify(const mighty::mig::Mig& network, const NetworkSpec& spec);

}  // namespace perfbench

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

/// \file mig.hpp
/// \brief Majority-Inverter Graphs (paper Sec. II-B).
///
/// An MIG is a DAG whose only internal operation is the ternary majority
/// <abc>; edges carry optional complementation.  Terminals are the constant-0
/// node (index 0) and the primary inputs.  Nodes are stored in creation order,
/// which is always a topological order because fanins must exist before their
/// fanout.

namespace mighty::mig {

/// A (possibly complemented) pointer to a node: `index << 1 | complement`.
class Signal {
public:
  constexpr Signal() = default;
  constexpr Signal(uint32_t index, bool complemented)
      : data_((index << 1) | (complemented ? 1u : 0u)) {}
  static constexpr Signal from_raw(uint32_t raw) {
    Signal s;
    s.data_ = raw;
    return s;
  }

  constexpr uint32_t index() const { return data_ >> 1; }
  constexpr bool is_complemented() const { return (data_ & 1) != 0; }
  constexpr uint32_t raw() const { return data_; }

  constexpr Signal operator!() const { return from_raw(data_ ^ 1); }
  /// Complements the signal iff `complement` holds.
  constexpr Signal operator^(bool complement) const {
    return from_raw(data_ ^ (complement ? 1u : 0u));
  }

  constexpr bool operator==(const Signal&) const = default;
  constexpr bool operator<(const Signal& other) const { return data_ < other.data_; }

private:
  uint32_t data_ = 0;
};

/// A majority-inverter graph under construction.  create_maj structurally
/// hashes: each canonical fanin triple exists at most once.  The hash table
/// is open addressing over gate indices: a flat power-of-two array in which
/// 0 means "empty" (node 0 is the constant, never a gate), probed linearly
/// and grown to keep the load at most one half.  A slot stores only the gate
/// index; the key is read back from that gate's fanins.  Node indices come
/// from creation order, never from the table, so the table's layout cannot
/// change a network.  reserve() sizes both the node store and the table.
class Mig {
public:
  /// Index of the constant-0 node.
  static constexpr uint32_t constant_node = 0;

  Mig();

  /// Sizes the node store and the structural-hash table for `nodes` nodes
  /// (constant and PIs included), so building that many never reallocates
  /// or regrows the table.  A hint only: the network may still grow past it.
  void reserve(uint32_t nodes);

  /// The constant signal (`value` selects polarity).
  Signal get_constant(bool value) const { return Signal(constant_node, value); }

  /// Adds a primary input.  All primary inputs must be created before gates.
  Signal create_pi();
  /// Creates `n` primary inputs and returns their signals.
  std::vector<Signal> create_pis(uint32_t n);

  /// Creates (or looks up) a majority gate.  Applies the trivial
  /// simplifications <aab> = a and <a!ab> = b, canonicalizes the fanin order,
  /// normalizes polarities through self-duality, and structurally hashes.
  Signal create_maj(Signal a, Signal b, Signal c);

  // Derived operators (paper Sec. II-B: <0ab> = a AND b, <1ab> = a OR b).
  Signal create_and(Signal a, Signal b) { return create_maj(get_constant(false), a, b); }
  Signal create_or(Signal a, Signal b) { return create_maj(get_constant(true), a, b); }
  Signal create_xor(Signal a, Signal b);
  Signal create_ite(Signal sel, Signal then_sig, Signal else_sig);
  /// Three-input exclusive or (used by the adder generators; 3 gates).
  Signal create_xor3(Signal a, Signal b, Signal c);

  /// Registers a primary output.
  void create_po(Signal s);

  // --- structural queries ----------------------------------------------------

  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  uint32_t num_pis() const { return num_pis_; }
  uint32_t num_pos() const { return static_cast<uint32_t>(outputs_.size()); }
  /// Number of majority gates ever created (including ones no longer
  /// reachable from the outputs; see count_live_gates()).
  uint32_t num_gates() const { return num_nodes() - 1 - num_pis_; }

  bool is_constant(uint32_t index) const { return index == constant_node; }
  bool is_pi(uint32_t index) const { return index >= 1 && index <= num_pis_; }
  bool is_gate(uint32_t index) const { return index > num_pis_; }
  /// For PIs: the 0-based input position.
  uint32_t pi_index(uint32_t index) const { return index - 1; }

  const std::array<Signal, 3>& fanins(uint32_t index) const {
    return nodes_[index].fanin;
  }
  const std::vector<Signal>& outputs() const { return outputs_; }
  Signal output(uint32_t i) const { return outputs_[i]; }
  void replace_output(uint32_t i, Signal s) { outputs_[i] = s; }

  // --- derived data ------------------------------------------------------------

  /// Gate count of the logic reachable from the outputs ("size" in the paper).
  uint32_t count_live_gates() const;

  /// Level of every node (constant and PIs at level 0; a gate is one above
  /// its highest fanin).  Computed over all nodes.
  std::vector<uint32_t> compute_levels() const;

  /// Longest output-to-terminal path in visited gates ("depth" in the paper;
  /// the full adder of Fig. 1 has depth 2).
  uint32_t depth() const;

  /// Number of gate fanins plus primary outputs referring to each node.
  std::vector<uint32_t> compute_fanout_counts() const;

  /// Copies the output-reachable logic into a fresh MIG (with the same number
  /// of PIs) and returns it; `old_to_new`, if given, receives the mapping of
  /// old node indices to new signals (identity polarity).
  Mig cleanup(std::vector<Signal>* old_to_new = nullptr) const;

  /// Marks reachability from the outputs; element i is true iff node i is
  /// needed.  Constants/PIs are included when referenced.
  std::vector<bool> live_mask() const;

private:
  struct Node {
    std::array<Signal, 3> fanin;
  };

  std::vector<Node> nodes_;
  std::vector<Signal> outputs_;
  uint32_t num_pis_ = 0;
  /// Structural-hash table: gate indices by slot, 0 = empty; its size is a
  /// power of two and at least twice num_gates().
  std::vector<uint32_t> strash_;

  /// The table slot where probing for `fanin` starts.
  size_t strash_home(const std::array<Signal, 3>& fanin) const;
  /// Rebuilds the table with `slots` slots (a power of two).
  void rehash(size_t slots);
};

}  // namespace mighty::mig

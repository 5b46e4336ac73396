#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file script.hpp
/// \brief Syntax tree of the flow-script grammar (internal to src/flow).
///
/// parse() is the grammar's one reader: Pipeline::parse builds a pipeline
/// from its tree, and the autotuner mutates the tree directly (which '*'
/// belongs to which group, where a group begins).

namespace mighty::flow::script {

struct Item;
using Sequence = std::vector<Item>;

/// An item's '*' suffix: none, "*n", or "*" / "*<n".
enum class Mod : uint8_t { once, repeat, converge };

struct Item {
  /// Leaf when non-empty: the word's lowercased source text as written
  /// ("tf", "tf5", "map06").
  std::string word;
  Sequence body;  ///< group when non-empty; "(TF)" stays a group
  Mod mod = Mod::once;
  uint32_t count = 0;  ///< repeat times / convergence round cap

  bool is_group() const { return word.empty(); }
};

/// Parses a script (grammar in pipeline.hpp); Pipeline::parse builds the
/// pipeline this tree denotes.  Empty items are dropped.  Throws
/// api::ScriptError naming the offending token and its position.
Sequence parse(const std::string& text);

}  // namespace mighty::flow::script

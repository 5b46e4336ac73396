#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

/// \file report.hpp
/// \brief The diagnostics of check.hpp's validators, apart from them so a
/// lower layer's artifact reader (opt::read_cache_file) can report too.

namespace mighty::check {

/// What went wrong.  Codes are stable identifiers: tests assert on them, and
/// diagnostics print them, so a failure names the violated invariant rather
/// than just a message string.
enum class Code {
  // --- structural MIG invariants (validate_structure) ---
  po_target_out_of_range,    ///< primary output points past the node array
  fanin_out_of_range,        ///< gate fanin index past the node array
  fanin_self_reference,      ///< gate feeds itself
  fanin_not_topological,     ///< fanin index >= gate index (breaks the
                             ///< creation-order-is-topological invariant; the
                             ///< only way an index-addressed MIG can cycle)
  fanin_not_sorted,          ///< majority fanins not in canonical raw order
  fanin_duplicate_index,     ///< two fanins share a node (a trivial
                             ///< simplification <xxy>/<x!xy> was skipped)
  fanin_polarity_not_normalized,  ///< two or more complemented fanins
                                  ///< (self-duality normalization skipped)
  terminal_fanin_corrupt,    ///< constant/PI node carries a non-default fanin
  // --- derived-data consistency vs. recomputation (validate) ---
  level_mismatch,       ///< stored/reported level != independent recomputation
  fanout_mismatch,      ///< fanout count != independent recomputation
  live_count_mismatch,  ///< live-gate accounting != independent recomputation
  // --- FFR partition invariants (validate_partition) ---
  region_root_out_of_range,  ///< region_root points past the node array
  region_root_not_root,      ///< a node's region root is not marked is_root
  region_roots_not_topological,  ///< roots list not ascending (= topological)
  region_membership_broken,  ///< member's fanout leaves the region before the
                             ///< root, or a root maps to a different region
  // --- wave schedule (validate_wave_order) ---
  wave_order_broken,  ///< a region at level L fed by a region at level >= L
  // --- flow report accounting (validate_report / validate_tally) ---
  report_rollup_mismatch,   ///< totals differ from the per-pass sums
  report_pass_inconsistent, ///< a pass entry violates counter conservation
  report_tally_mismatch,    ///< report totals differ from the OracleTally
  // --- on-disk artifacts (lint_database / lint_cache_file) ---
  artifact_io,            ///< file missing or unreadable
  artifact_header,        ///< bad magic/version/count header
  artifact_entry,         ///< malformed or inconsistent entry line
  artifact_not_canonical, ///< key is not its own canonical form, or a chain
                          ///< does not re-serialize to the stored line
  artifact_budget,        ///< cache budget field violates monotonicity rules
  artifact_order,         ///< entries not sorted by key (warning)
};

/// Stable name of a code ("fanin_not_topological", ...), for messages/tests.
const char* code_name(Code code);

enum class Severity { error, warning };

/// Sentinel for diagnostics that are not about one specific node/line.
inline constexpr uint32_t kNoNode = std::numeric_limits<uint32_t>::max();

struct Diagnostic {
  Code code;
  Severity severity = Severity::error;
  /// Node index, pass index, or 1-based file line — whichever
  /// the validator's context documents; kNoNode when not applicable.
  uint32_t node = kNoNode;
  std::string message;
};

struct CheckReport {
  std::vector<Diagnostic> diagnostics;

  bool ok() const { return num_errors() == 0; }
  size_t num_errors() const;
  size_t num_warnings() const;
  bool has(Code code) const;
  /// First diagnostic with this code, or nullptr.
  const Diagnostic* find(Code code) const;

  void add(Code code, uint32_t node, std::string message,
           Severity severity = Severity::error);
  void merge(CheckReport other);

  /// One line per diagnostic: "error[fanin_not_topological] node 7: ...".
  std::string summary() const;
};

}  // namespace mighty::check

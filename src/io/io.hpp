#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "mig/mig.hpp"

/// \file io.hpp
/// \brief Interchange formats: BLIF (read/write), structural Verilog (write)
/// and Graphviz DOT (write) for MIGs.
///
/// BLIF models every majority gate as a three-input `.names` table; the
/// reader accepts arbitrary single-output tables of up to four inputs and
/// rebuilds them through majority decompositions, so round-tripping and
/// importing foreign combinational BLIF both work.

namespace mighty::io {

void write_blif(std::ostream& os, const mig::Mig& mig,
                const std::string& model_name = "mig");
void write_blif_file(const std::string& path, const mig::Mig& mig,
                     const std::string& model_name = "mig");

/// Parses a combinational BLIF model in one pass over `text`.
///
/// The accepted dialect:
///  - directives `.model`, `.inputs`, `.outputs`, `.names` and `.end`; any
///    other directive (`.latch`, `.subckt`, ...) is rejected.  Several
///    `.inputs`/`.outputs` lines accumulate, and `.model`/`.end` only close
///    the current table, so the models of one file share one namespace;
///  - `#` comments to the end of the line, CRLF line endings, and backslash
///    continuations (whitespace after the backslash tolerated);
///  - single-output `.names` tables with cover rows of `0`/`1`/`-` patterns
///    and an output value of `0` or `1`.  A table without rows is constant 0.
///    Tables may appear in any order.  A table over 4 inputs, or one with a
///    malformed row, is rejected only when an output reaches it.
///
/// Throws api::Error (invalid_network, a std::runtime_error) on malformed or
/// unsupported input; the message carries the offending line number.  Besides
/// the cases above, it rejects a cover row with a pattern character other
/// than `0`, `1` or `-`, an output value other than `0` or `1`, a table that
/// mixes ON-set and OFF-set rows, a signal with more than one driver (two
/// tables, a table driving a primary input, or a name listed twice in
/// `.inputs`), a signal without driver, and a combinational cycle.
///
/// Time and memory are linear in the text.  The network is built by walking
/// back from each `.outputs` name in order, table inputs left to right, so
/// equal texts give node-for-node equal networks.
mig::Mig read_blif(std::string_view text);
/// Reads `is` to its end and parses it as read_blif(std::string_view).
mig::Mig read_blif(std::istream& is);
/// Like read_blif; error messages are prefixed with `path`.
mig::Mig read_blif_file(const std::string& path);

void write_verilog(std::ostream& os, const mig::Mig& mig,
                   const std::string& module_name = "mig");

void write_dot(std::ostream& os, const mig::Mig& mig);

}  // namespace mighty::io

#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "api/error.hpp"
#include "io/io.hpp"
#include "tt/truth_table.hpp"
#include "util/atomic_file.hpp"

namespace mighty::io {

namespace {

/// Writes the BLIF name of node `index` (const0, x<input> or n<node>) at
/// `out` and returns its end: at most 11 bytes.
char* put_name(char* out, const mig::Mig& mig, uint32_t index) {
  if (mig.is_constant(index)) {
    std::memcpy(out, "const0", 6);
    return out + 6;
  }
  const bool pi = mig.is_pi(index);
  *out++ = pi ? 'x' : 'n';
  return std::to_chars(out, out + 10, pi ? mig.pi_index(index) : index).ptr;
}

/// Builds an arbitrary function of up to 6 leaves by Shannon decomposition.
mig::Signal build_function(mig::Mig& m, const tt::TruthTable& f,
                           const mig::Signal* leaves) {
  if (f.is_const0()) return m.get_constant(false);
  if (f.is_const1()) return m.get_constant(true);
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    if (f == tt::TruthTable::projection(f.num_vars(), v)) return leaves[v];
    if (f == ~tt::TruthTable::projection(f.num_vars(), v)) return !leaves[v];
  }
  // Majority of three (possibly complemented) leaves becomes one gate, so a
  // write_blif/read_blif round trip reconstructs a MIG gate-for-gate instead
  // of inflating each gate into its Shannon decomposition.  Eight input
  // polarity combinations suffice: majority is self-dual, so a complemented
  // output is some all-complemented input combination.
  if (f.num_vars() == 3) {
    const auto p0 = tt::TruthTable::projection(3, 0);
    const auto p1 = tt::TruthTable::projection(3, 1);
    const auto p2 = tt::TruthTable::projection(3, 2);
    for (uint32_t polarity = 0; polarity < 8; ++polarity) {
      const auto a = (polarity & 1) != 0 ? ~p0 : p0;
      const auto b = (polarity & 2) != 0 ? ~p1 : p1;
      const auto c = (polarity & 4) != 0 ? ~p2 : p2;
      if (f == ((a & b) | (a & c) | (b & c))) {
        return m.create_maj((polarity & 1) != 0 ? !leaves[0] : leaves[0],
                            (polarity & 2) != 0 ? !leaves[1] : leaves[1],
                            (polarity & 4) != 0 ? !leaves[2] : leaves[2]);
      }
    }
  }
  // Split on the highest support variable.
  uint32_t var = 0;
  for (uint32_t v = 0; v < f.num_vars(); ++v) {
    if (f.depends_on(v)) var = v;
  }
  const auto f0 = build_function(m, f.cofactor(var, false), leaves);
  const auto f1 = build_function(m, f.cofactor(var, true), leaves);
  return m.create_ite(leaves[var], f1, f0);
}

}  // namespace

void write_blif(std::ostream& os, const mig::Mig& mig, const std::string& model_name) {
  os << ".model " << model_name << '\n';
  os << ".inputs";
  for (uint32_t i = 0; i < mig.num_pis(); ++i) os << " x" << i;
  os << '\n';
  os << ".outputs";
  for (uint32_t o = 0; o < mig.num_pos(); ++o) os << " y" << o;
  os << '\n';

  const auto live = mig.live_mask();
  bool const_used = live[mig::Mig::constant_node];
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!live[n] || !mig.is_gate(n)) continue;
    const auto& f = mig.fanins(n);
    if (f[0].index() == mig::Mig::constant_node) const_used = true;
  }
  if (const_used) os << ".names const0\n";  // empty cover = constant 0

  // Each table is formatted into one buffer and written at once: no name
  // becomes a string of its own.
  char buffer[96];
  for (uint32_t n = 0; n < mig.num_nodes(); ++n) {
    if (!live[n] || !mig.is_gate(n)) continue;
    const auto& f = mig.fanins(n);
    char* p = buffer;
    std::memcpy(p, ".names ", 7);
    p += 7;
    for (const mig::Signal s : f) {
      p = put_name(p, mig, s.index());
      *p++ = ' ';
    }
    p = put_name(p, mig, n);
    *p++ = '\n';
    // Majority ON-set {11-, 1-1, -11}, with complemented fanins flipping the
    // corresponding care literal.
    const char one[3] = {f[0].is_complemented() ? '0' : '1',
                         f[1].is_complemented() ? '0' : '1',
                         f[2].is_complemented() ? '0' : '1'};
    const char rows[18] = {one[0], one[1], '-',    ' ', '1', '\n',
                           one[0], '-',    one[2], ' ', '1', '\n',
                           '-',    one[1], one[2], ' ', '1', '\n'};
    std::memcpy(p, rows, sizeof(rows));
    p += sizeof(rows);
    os.write(buffer, p - buffer);
  }

  for (uint32_t o = 0; o < mig.num_pos(); ++o) {
    const mig::Signal s = mig.output(o);
    char* p = buffer;
    std::memcpy(p, ".names ", 7);
    p = put_name(p + 7, mig, s.index());
    std::memcpy(p, " y", 2);
    p = std::to_chars(p + 2, p + 12, o).ptr;
    std::memcpy(p, s.is_complemented() ? "\n0 1\n" : "\n1 1\n", 5);
    os.write(buffer, p + 5 - buffer);
  }
  os << ".end\n";
}

void write_blif_file(const std::string& path, const mig::Mig& mig,
                     const std::string& model_name) {
  // Atomic tmp+rename: a crash mid-write must not leave a truncated BLIF
  // behind (downstream flows re-read these files).
  try {
    util::write_file_atomically(
        path, [&](std::ostream& os) { write_blif(os, mig, model_name); });
  } catch (const api::Error&) {
    throw;
  } catch (const std::exception& e) {
    throw api::Error(api::ErrorCode::io_error, e.what());
  }
}

namespace {

/// The bytes `operator>>` on a std::string splits at in the classic locale.
constexpr bool is_blank(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Pops the next blank-separated token off the front of `rest`; empty when
/// none is left.
std::string_view next_token(std::string_view& rest) {
  size_t begin = 0;
  while (begin < rest.size() && is_blank(rest[begin])) ++begin;
  size_t end = begin;
  while (end < rest.size() && !is_blank(rest[end])) ++end;
  const std::string_view token = rest.substr(begin, end - begin);
  rest.remove_prefix(end);
  return token;
}

api::Error error_at(size_t line, const std::string& what) {
  // Still a std::runtime_error for pre-taxonomy catch sites, now carrying
  // the stable code the api layer and wire protocol report.
  return api::Error(api::ErrorCode::invalid_network,
                    "BLIF line " + std::to_string(line) + ": " + what);
}

constexpr uint32_t kNone = ~uint32_t{0};
/// Projections x0..x3 over four variables, the cube literals of a cover row.
constexpr uint16_t kProjection[4] = {0xaaaa, 0xcccc, 0xf0f0, 0xff00};

/// One pass over the text: names map to dense ids through views into it,
/// tables of up to four inputs fold into their truth table row by row, and
/// no line or token is copied (a backslash continuation excepted, which
/// joins its lines into one side buffer).
class BlifReader {
public:
  explicit BlifReader(std::string_view text) : text_(text) {
    // A written gate takes ~40 bytes (.names line plus three rows): sized
    // so the name map of a written network never rehashes.
    ids_.reserve(text.size() / 32);
  }

  mig::Mig read() {
    std::string_view line;
    size_t line_number = 0;
    uint32_t current = kNone;  ///< table the cover rows belong to
    while (next_line(line, line_number)) {
      std::string_view rest = line;
      const std::string_view head = next_token(rest);
      if (head.empty()) continue;
      if (head == ".model" || head == ".end") {
        current = kNone;
      } else if (head == ".inputs") {
        for (auto name = next_token(rest); !name.empty(); name = next_token(rest)) {
          Name& n = names_[drive(intern(name), line_number)];
          n.signal = mig_.create_pi();
          n.state = Name::resolved;
        }
        current = kNone;
      } else if (head == ".outputs") {
        for (auto name = next_token(rest); !name.empty(); name = next_token(rest)) {
          outputs_.push_back(intern(name));
        }
        outputs_line_ = line_number;
        current = kNone;
      } else if (head == ".names") {
        const auto first = static_cast<uint32_t>(table_inputs_.size());
        for (auto name = next_token(rest); !name.empty(); name = next_token(rest)) {
          table_inputs_.push_back(intern(name));
        }
        if (table_inputs_.size() == first) {
          throw error_at(line_number, ".names without signals");
        }
        const uint32_t output = drive(table_inputs_.back(), line_number);
        table_inputs_.pop_back();
        current = static_cast<uint32_t>(tables_.size());
        names_[output].table = current;
        tables_.push_back({.output = output,
                           .first_input = first,
                           .num_inputs = static_cast<uint32_t>(table_inputs_.size()) - first,
                           .line = line_number});
      } else if (head[0] == '.') {
        throw error_at(line_number, "unsupported BLIF construct: " + std::string(head));
      } else if (current == kNone) {
        throw error_at(line_number, "cover row outside .names");
      } else {
        fold_row(tables_[current], line.substr(static_cast<size_t>(head.data() - line.data())));
      }
    }
    // A written network has one table per gate; a foreign table may take
    // a few gates, so this is only a hint.
    mig_.reserve(mig_.num_nodes() + static_cast<uint32_t>(tables_.size()));
    for (const uint32_t output : outputs_) mig_.create_po(resolve(output, outputs_line_));
    return std::move(mig_);
  }

private:
  struct Name {
    std::string_view text;
    mig::Signal signal;        ///< valid once resolved
    uint32_t table = kNone;    ///< driving table
    size_t driver_line = 0;    ///< line of the driving .inputs/.names; 0 = undriven
    enum : uint8_t { unresolved, in_progress, resolved } state = unresolved;
  };

  struct Table {
    uint32_t output;
    uint32_t first_input;  ///< into table_inputs_
    uint32_t num_inputs;
    size_t line;           ///< physical line of the .names directive (for errors)
    uint16_t cover = 0;    ///< union of the rows' cubes (tables of <= 4 inputs)
    int8_t value = -1;     ///< output value of the rows; -1 while there are none
    /// What is wrong with `bad_row`, the first malformed row; reported only
    /// when an output reaches the table, as a table over 4 inputs is.
    const char* error = nullptr;
    std::string_view bad_row{};
  };

  /// A table whose inputs are being resolved, left to right.
  struct Frame {
    uint32_t name;
    uint32_t resolved_inputs = 0;
    std::array<mig::Signal, 4> leaves{};
  };

  /// Yields the next logical line: a '\r' before the newline is dropped,
  /// '#' comments are cut, and backslash continuations (whitespace after the
  /// backslash tolerated, as common exporters emit it) are joined with a
  /// blank, so they join tokens without fusing them.  `line_number` is the
  /// physical line the logical line starts on, so errors point into the file.
  bool next_line(std::string_view& line, size_t& line_number) {
    bool continued = false;
    size_t joined_begin = 0;
    while (pos_ < text_.size()) {
      const size_t newline = text_.find('\n', pos_);
      const size_t end = newline == std::string_view::npos ? text_.size() : newline;
      std::string_view physical = text_.substr(pos_, end - pos_);
      pos_ = end + 1;
      ++physical_line_;
      if (!physical.empty() && physical.back() == '\r') physical.remove_suffix(1);
      if (const auto hash = physical.find('#'); hash != std::string_view::npos) {
        physical = physical.substr(0, hash);
      }
      if (!continued) line_number = physical_line_;
      const auto last = physical.find_last_not_of(" \t");
      if (last != std::string_view::npos && physical[last] == '\\') {
        if (!continued) {
          // Joined lines are never longer than their text, so the buffer
          // never reallocates and views into it stay valid.
          if (joined_.empty()) joined_.reserve(text_.size());
          joined_begin = joined_.size();
          continued = true;
        }
        joined_.append(physical.substr(0, last));
        joined_.push_back(' ');
        continue;
      }
      if (!continued) {
        line = physical;
        return true;
      }
      joined_.append(physical);
      line = std::string_view(joined_).substr(joined_begin);
      return true;
    }
    if (continued) throw error_at(line_number, "backslash continuation at end of file");
    return false;
  }

  uint32_t intern(std::string_view name) {
    const auto [it, inserted] =
        ids_.try_emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted) names_.emplace_back().text = name;
    return it->second;
  }

  /// Records `line` as the driver of `id`; a signal has one driver.
  uint32_t drive(uint32_t id, size_t line) {
    Name& n = names_[id];
    if (n.driver_line != 0) {
      throw error_at(line, "signal '" + std::string(n.text) +
                               "' has more than one driver (first driven at line " +
                               std::to_string(n.driver_line) + ")");
    }
    n.driver_line = line;
    return id;
  }

  /// Folds one cover row into its table.  A malformed row is kept, and
  /// reported only when an output reaches the table.
  void fold_row(Table& t, std::string_view row) {
    if (t.num_inputs > 4 || t.error != nullptr) return;
    const auto fail = [&](const char* what) {
      t.error = what;
      t.bad_row = row;
    };
    std::string_view rest = row;
    std::string_view pattern;
    if (t.num_inputs > 0) pattern = next_token(rest);
    const std::string_view value = next_token(rest);
    if (value.empty()) return fail("malformed cover row in");
    if (!next_token(rest).empty()) return fail("trailing tokens in cover row of");
    if (pattern.size() != t.num_inputs) return fail("cover row width mismatch in");
    uint16_t cube = 0xffff;
    for (uint32_t i = 0; i < t.num_inputs; ++i) {
      if (pattern[i] == '1') {
        cube &= kProjection[i];
      } else if (pattern[i] == '0') {
        cube &= static_cast<uint16_t>(~kProjection[i]);
      } else if (pattern[i] != '-') {
        return fail("cover row character other than 0, 1 or - in");
      }
    }
    if (value != "0" && value != "1") return fail("cover row output other than 0 or 1 in");
    const int8_t v = value == "1" ? 1 : 0;
    if (t.value >= 0 && t.value != v) return fail("ON-set and OFF-set rows mixed in");
    t.value = v;
    t.cover |= cube;
  }

  api::Error row_error(const Table& t) const {
    std::string message = std::string(t.error) + " table '" +
                          std::string(names_[t.output].text) + "':";
    std::string_view rest = t.bad_row;
    for (auto token = next_token(rest); !token.empty(); token = next_token(rest)) {
      message += ' ';
      message += token;
    }
    return error_at(t.line, message);
  }

  // Resolve signals with an explicit stack (BLIF does not promise
  // topological order, and call-stack recursion would overflow on deeply
  // chained tables — adversarial inputs nest thousands).  `referenced_at`
  // is the line mentioning the name, so "signal without driver" points at
  // the use, not somewhere downstream.  A name reached again while its own
  // table is still being resolved is a combinational cycle, which recursion
  // would chase forever.

  /// True when `id` is resolved; otherwise pushes a frame for its driving
  /// table.
  bool resolved_or_push(uint32_t id, size_t referenced_at) {
    Name& n = names_[id];
    if (n.state == Name::resolved) return true;
    if (n.table == kNone) {
      throw error_at(referenced_at, "signal without driver: " + std::string(n.text));
    }
    const Table& t = tables_[n.table];
    if (t.num_inputs > 4) {
      throw error_at(t.line, "table with more than 4 inputs: " + std::string(n.text));
    }
    if (n.state == Name::in_progress) {
      throw error_at(t.line, "combinational cycle through signal: " + std::string(n.text));
    }
    n.state = Name::in_progress;
    stack_.push_back({id});
    return false;
  }

  mig::Signal resolve(uint32_t root, size_t referenced_at) {
    if (resolved_or_push(root, referenced_at)) return names_[root].signal;
    while (!stack_.empty()) {
      Frame& top = stack_.back();
      const Table& t = tables_[names_[top.name].table];
      if (top.resolved_inputs < t.num_inputs) {
        const uint32_t next = table_inputs_[t.first_input + top.resolved_inputs];
        // Either consumes an already-resolved leaf or pushes its table (and
        // leaves `top` alone); the loop revisits this frame after the new
        // frame completes.
        if (resolved_or_push(next, t.line)) {
          top.leaves[top.resolved_inputs++] = names_[next].signal;
        }
        continue;
      }
      if (t.error != nullptr) throw row_error(t);
      tt::TruthTable f(t.num_inputs, t.cover);
      if (t.value == 0) f = ~f;
      Name& n = names_[top.name];
      n.signal = build_function(mig_, f, top.leaves.data());
      n.state = Name::resolved;
      stack_.pop_back();
    }
    return names_[root].signal;
  }

  std::string_view text_;
  size_t pos_ = 0;            ///< start of the next physical line
  size_t physical_line_ = 0;  ///< physical lines consumed so far
  std::string joined_;        ///< continued lines, joined

  mig::Mig mig_;
  std::unordered_map<std::string_view, uint32_t> ids_;
  std::vector<Name> names_;
  std::vector<Table> tables_;
  std::vector<uint32_t> table_inputs_;  ///< every table's inputs, back to back
  std::vector<uint32_t> outputs_;
  size_t outputs_line_ = 0;
  std::vector<Frame> stack_;
};

}  // namespace

mig::Mig read_blif(std::string_view text) { return BlifReader(text).read(); }

mig::Mig read_blif(std::istream& is) {
  std::string text;
  char chunk[1 << 16];
  do {
    is.read(chunk, sizeof(chunk));
    text.append(chunk, static_cast<size_t>(is.gcount()));
  } while (is);
  return read_blif(text);
}

mig::Mig read_blif_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw api::Error(api::ErrorCode::io_error, "cannot open " + path);
  try {
    return read_blif(is);
  } catch (const api::Error& e) {
    // Parse errors carry the line; corpus loads read many files, so name
    // the file too.  Rethrown with the same code — prefixing the path must
    // not downgrade invalid_network to internal.
    throw api::Error(e.code(), path + ": " + e.what());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace mighty::io

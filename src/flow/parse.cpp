#include <cctype>
#include <stdexcept>
#include <string>

#include "api/error.hpp"
#include "flow/pipeline.hpp"
#include "flow/script.hpp"

/// Recursive-descent parser for the flow-script grammar (see pipeline.hpp):
///
///   sequence := item (';' item)*
///   item     := atom ['*' count | '*' '<' count | '*']
///   atom     := '(' sequence ')' | word
///   word     := variant acronym | size | depth | map[k] | check
///
/// Case-insensitive; whitespace between tokens is insignificant (a token
/// itself cannot be split: "ma p" is not "map"); empty items ("TF;;BF",
/// trailing ';') are permitted and skipped so shell-assembled scripts don't
/// need trimming.  Every word is validated where it stands, so the first
/// error in the text is the one reported.

namespace mighty::flow::script {

namespace {

class Parser {
public:
  explicit Parser(const std::string& script) : script_(script) {}

  Sequence parse() {
    Sequence result = sequence();
    if (!at_end()) {
      fail(std::string("unexpected '") + peek() + "'");
    }
    return result;
  }

private:
  /// Reports `what` anchored at `pos` — always a token's *start*, so the
  /// column survives leading whitespace and multi-character tokens (a count
  /// error must not point past the digits it rejects).
  [[noreturn]] void fail_at(size_t pos, const std::string& what) const {
    // ScriptError derives std::invalid_argument (the documented contract of
    // Pipeline::parse) and carries ErrorCode::invalid_script for the api
    // layer and the wire protocol.
    throw api::ScriptError("flow script error at position " +
                           std::to_string(pos) + ": " + what + " in \"" +
                           script_ + '"');
  }

  [[noreturn]] void fail(const std::string& what) const { fail_at(pos_, what); }

  void skip_space() {
    while (pos_ < script_.size() &&
           std::isspace(static_cast<unsigned char>(script_[pos_]))) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_space();
    return pos_ >= script_.size();
  }

  char peek() {
    skip_space();
    return pos_ < script_.size() ? script_[pos_] : '\0';
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  Sequence sequence() {
    Sequence result;
    while (true) {
      if (at_end() || peek() == ')') break;
      if (consume(';')) continue;  // empty item
      result.push_back(item());
      if (!at_end() && peek() != ')' && !consume(';')) {
        fail(std::string("expected ';' before '") + peek() + "'");
      }
    }
    return result;
  }

  Item item() {
    Item result = atom();
    if (!consume('*')) return result;
    result.mod = Mod::converge;
    result.count = kDefaultConvergenceRounds;
    if (consume('<')) {  // "x*<N": until convergence, at most N rounds
      result.count = integer();
      if (result.count == 0) fail_at(int_start_, "round cap must be at least 1");
      return result;
    }
    skip_space();
    if (pos_ < script_.size() &&
        std::isdigit(static_cast<unsigned char>(script_[pos_]))) {
      result.mod = Mod::repeat;
      result.count = integer();
      if (result.count == 0) fail_at(int_start_, "repeat count must be at least 1");
    }
    return result;
  }

  Item atom() {
    Item result;
    if (consume('(')) {
      result.body = sequence();
      if (!consume(')')) fail("missing ')'");
      if (result.body.empty()) fail("empty group '()'");
      return result;
    }
    result.word = word();
    return result;
  }

  /// Consumes one word and returns its lowercased text.
  std::string word() {
    skip_space();
    const size_t start = pos_;
    std::string text;
    while (pos_ < script_.size() &&
           std::isalpha(static_cast<unsigned char>(script_[pos_]))) {
      text += static_cast<char>(
          std::tolower(static_cast<unsigned char>(script_[pos_])));
      ++pos_;
    }
    if (text.empty()) {
      fail(at_end() ? std::string("expected a pass name")
                    : std::string("expected a pass name, got '") + script_[pos_] +
                          "'");
    }

    if (text == "size" || text == "depth" || text == "check") return text;
    if (text == "map") {
      if (pos_ < script_.size() &&
          std::isdigit(static_cast<unsigned char>(script_[pos_]))) {
        const size_t digits = pos_;
        const uint32_t lut_size = integer();
        if (lut_size < 2 || lut_size > 16) {
          fail_at(int_start_, "LUT size out of range in 'map" +
                                  std::to_string(lut_size) + "'");
        }
        text.append(script_, digits, pos_ - digits);
      }
      return text;
    }
    // A trailing '5' selects the variant's 5-input-cut extension ("TF5");
    // it is part of the word, not a repeat count (those need '*').
    if (pos_ < script_.size() && script_[pos_] == '5') {
      text += '5';
      ++pos_;
    }
    try {
      make_rewrite_pass(text);
    } catch (const std::invalid_argument&) {
      fail_at(start, "unknown pass \"" + text + '"');
    }
    return text;
  }

  /// Largest count any production accepts; far below UINT32_MAX, so inputs
  /// like "TF*4294967296" are rejected as too large instead of wrapping to a
  /// silently different pipeline.
  static constexpr uint64_t kMaxCount = 1'000'000;

  uint32_t integer() {
    skip_space();
    const size_t start = pos_;
    uint64_t value = 0;
    while (pos_ < script_.size() &&
           std::isdigit(static_cast<unsigned char>(script_[pos_]))) {
      // Saturate instead of accumulating: a thousand-digit count must neither
      // overflow the accumulator nor change the error reported.
      if (value <= kMaxCount) {
        value = value * 10 + static_cast<uint64_t>(script_[pos_] - '0');
      }
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    if (value > kMaxCount) {
      fail_at(start, "count too large (at most " + std::to_string(kMaxCount) + ")");
    }
    int_start_ = start;
    return static_cast<uint32_t>(value);
  }

  const std::string& script_;
  size_t pos_ = 0;
  /// Start position of the count integer() consumed last; range checks in the
  /// callers anchor their error there, at the token, not after it.
  size_t int_start_ = 0;
};

/// The pass a word the parser accepted denotes.
std::unique_ptr<Pass> word_pass(const std::string& word) {
  if (word == "size") return make_size_pass();
  if (word == "depth") return make_depth_pass();
  if (word == "check") return make_check_pass();
  if (word.compare(0, 3, "map") == 0) {
    map::MapParams params;
    if (word.size() > 3) params.lut_size = static_cast<uint32_t>(std::stoul(word.substr(3)));
    return make_lut_map_pass(params);
  }
  return make_rewrite_pass(word);
}

/// The pipeline a parsed tree denotes; groups without a suffix are spliced
/// into their parent sequence.
Pipeline build(const Sequence& sequence) {
  Pipeline result;
  for (const auto& item : sequence) {
    Pipeline unit = item.is_group() ? build(item.body) : Pipeline().add(word_pass(item.word));
    if (item.mod == Mod::repeat) unit = unit.repeat(item.count);
    if (item.mod == Mod::converge) unit = unit.until_convergence(item.count);
    result.then(unit);
  }
  return result;
}

}  // namespace

Sequence parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace mighty::flow::script

namespace mighty::flow {

Pipeline Pipeline::parse(const std::string& script) {
  return script::build(script::parse(script));
}

}  // namespace mighty::flow

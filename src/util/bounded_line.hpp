#pragma once

#include <cstddef>
#include <istream>
#include <string>

/// \file bounded_line.hpp
/// \brief Line reads with a length cap, for the on-disk artifact readers.
///
/// std::getline grows its string with the line, so a corrupt or hostile file
/// with one huge line costs memory in proportion to that line before any
/// check sees a byte of it.

namespace mighty::util {

/// Longest line the artifact readers (opt::read_cache_file and
/// exact::Database::load) accept.  Their writers emit at most about 300
/// characters a line: a truth-table key, two or three counters and an MIG
/// chain, whose synthesis is capped at 20 steps of three small references
/// each.  The cap leaves an order of magnitude of headroom above that.
inline constexpr size_t kMaxArtifactLine = 4096;

enum class LineRead {
  ok,        ///< a line was read (possibly empty, possibly unterminated at EOF)
  end,       ///< the input held no further characters
  too_long,  ///< the line exceeds kMaxArtifactLine; the rest of it is unread
};

/// Reads one '\n'-terminated line into `line`, without the newline, taking at
/// most kMaxArtifactLine + 1 characters from `is`.  Sets eofbit at the end
/// of the input, as std::getline does.
inline LineRead read_bounded_line(std::istream& is, std::string& line) {
  using Traits = std::istream::traits_type;
  line.clear();
  std::streambuf* buf = is.rdbuf();
  for (;;) {
    const Traits::int_type c = buf->sbumpc();
    if (Traits::eq_int_type(c, Traits::eof())) {
      is.setstate(std::ios::eofbit);
      return line.empty() ? LineRead::end : LineRead::ok;
    }
    if (Traits::to_char_type(c) == '\n') return LineRead::ok;
    if (line.size() == kMaxArtifactLine) return LineRead::too_long;
    line.push_back(Traits::to_char_type(c));
  }
}

}  // namespace mighty::util

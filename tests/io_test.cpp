#include "io/io.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "api/error.hpp"
#include "cec/cec.hpp"
#include "flow/corpus.hpp"
#include "gen/arith.hpp"
#include "mig/simulation.hpp"
#include "test_util.hpp"

namespace mighty::io {
namespace {

/// FNV-1a over a byte range, chained through `h`.
uint64_t fnv(uint64_t h, const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Chains the structural digest of `m` into `h`: PI and node counts, every
/// gate's fanins in node order, every output.  Equal digests mean the reader
/// built the same network node for node.
uint64_t structural_digest(uint64_t h, const mig::Mig& m) {
  const uint32_t header[3] = {m.num_pis(), m.num_nodes(), m.num_pos()};
  h = fnv(h, header, sizeof(header));
  for (uint32_t n = 0; n < m.num_nodes(); ++n) {
    if (!m.is_gate(n)) continue;
    for (const mig::Signal s : m.fanins(n)) {
      const uint32_t raw = s.raw();
      h = fnv(h, &raw, sizeof(raw));
    }
  }
  for (const mig::Signal s : m.outputs()) {
    const uint32_t raw = s.raw();
    h = fnv(h, &raw, sizeof(raw));
  }
  return h;
}

std::string read_text(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// A hand-written BLIF with a 3-input table and don't-cares.
const std::string kForeignBlif = R"(
# a comment
.model test
.inputs a b c
.outputs f g
.names a b t
11 1
.names t c f
1- 1
-1 1
.names a g
0 1
.end
)";

// Golden digests, taken with the line-by-line reader and string-building
// writer this reader and writer replaced: a change of either digest means
// the network (or the bytes) a BLIF text turns into changed.
TEST(BlifGoldenTest, CorpusBlifIsUnchanged) {
  uint64_t text_digest = kFnvBasis;
  uint64_t network_digest = kFnvBasis;
  for (const auto& entry : flow::Corpus::generated_arithmetic()) {
    std::ostringstream os;
    write_blif(os, entry.mig);
    const std::string text = os.str();
    text_digest = fnv(text_digest, text.data(), text.size());
    network_digest = structural_digest(network_digest, read_blif(text));
  }
  EXPECT_EQ(text_digest, 0xfd0b6840a0711bb0ull) << std::hex << text_digest;
  EXPECT_EQ(network_digest, 0x1dbbeca5f52ea2f0ull) << std::hex << network_digest;
}

TEST(BlifGoldenTest, SeedsAndForeignBlifAreUnchanged) {
  uint64_t digest = kFnvBasis;
  for (const char* seed : {"adder1", "const", "continuation", "xor_chain"}) {
    const std::string path =
        std::string(MIGHTY_SOURCE_DIR) + "/fuzz/corpus/blif/" + seed + ".blif";
    const std::string text = read_text(path);
    ASSERT_FALSE(text.empty()) << path;
    digest = structural_digest(digest, read_blif(text));
  }
  digest = structural_digest(digest, read_blif(kForeignBlif));
  EXPECT_EQ(digest, 0x4c616e65a04f6d3eull) << std::hex << digest;
}

TEST(BlifTest, RoundTripPreservesFunction) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const auto m = testutil::random_mig(5, 40, 4, 100 + seed);
    std::stringstream ss;
    write_blif(ss, m);
    const auto back = read_blif(ss);
    ASSERT_EQ(back.num_pis(), m.num_pis());
    ASSERT_EQ(back.num_pos(), m.num_pos());
    EXPECT_EQ(cec::check_equivalence(m, back).status, cec::CecStatus::equivalent)
        << "seed " << seed;
  }
}

TEST(BlifTest, RoundTripWithConstantsAndComplementedOutputs) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  m.create_po(!m.create_and(a, b));
  m.create_po(m.get_constant(true));
  m.create_po(m.create_or(m.get_constant(false), a));  // collapses to a
  std::stringstream ss;
  write_blif(ss, m);
  const auto back = read_blif(ss);
  EXPECT_EQ(cec::check_equivalence(m, back).status, cec::CecStatus::equivalent);
}

TEST(BlifTest, ReadsForeignBlif) {
  std::stringstream ss(kForeignBlif);
  const auto m = read_blif(ss);
  ASSERT_EQ(m.num_pis(), 3u);
  ASSERT_EQ(m.num_pos(), 2u);
  const auto tts = mig::output_truth_tables(m);
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], (ta & tb) | tc);
  EXPECT_EQ(tts[1], ~ta);
}

TEST(BlifTest, ReadsCrlfLineEndings) {
  // The same model as ReadsForeignBlif, exported with \r\n line endings and
  // a backslash continuation followed by a carriage return — the shape
  // Windows tools produce.
  const std::string text =
      ".model test\r\n"
      ".inputs a \\\r\n"
      "b c\r\n"
      ".outputs f\r\n"
      ".names a b t\r\n"
      "11 1\r\n"
      ".names t c f\r\n"
      "1- 1\r\n"
      "-1 1\r\n"
      ".end\r\n";
  std::stringstream ss(text);
  const auto m = read_blif(ss);
  ASSERT_EQ(m.num_pis(), 3u);
  ASSERT_EQ(m.num_pos(), 1u);
  const auto tts = mig::output_truth_tables(m);
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], (ta & tb) | tc);
}

TEST(BlifTest, ContinuationDoesNotFuseTokens) {
  // "a\" + newline + "b" lists two signals, not one called "ab"; trailing
  // whitespace after the backslash must not defeat the continuation.
  const std::string text =
      ".model test\n"
      ".inputs a\\ \n"
      "b\n"
      ".outputs f\n"
      ".names a b f\n"
      "11 1\n"
      ".end\n";
  std::stringstream ss(text);
  const auto m = read_blif(ss);
  EXPECT_EQ(m.num_pis(), 2u);
}

TEST(BlifTest, ErrorsCarryLineNumbers) {
  const auto message_of = [](const std::string& text) {
    std::stringstream ss(text);
    try {
      read_blif(ss);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  EXPECT_NE(message_of(".model x\n.inputs a\n.outputs q\n.latch a q\n.end\n")
                .find("BLIF line 4"),
            std::string::npos);
  // Undriven output: the error points at the .outputs line that demands it.
  EXPECT_NE(message_of(".model x\n.inputs a\n.outputs q\n.end\n")
                .find("BLIF line 3"),
            std::string::npos);
  // Malformed cover row: attributed to the table's .names line.
  EXPECT_NE(message_of(".model x\n.inputs a b\n.outputs q\n.names a b q\n1 1\n.end\n")
                .find("BLIF line 4"),
            std::string::npos);
  EXPECT_NE(message_of(".model x\n.inputs a\n.outputs q\n.names a q\n1 1\n1\\\n"),
            "(no error)");
}

TEST(BlifTest, FileErrorsNameTheFile) {
  // Unique per process: concurrent suite runs (Debug + TSan trees on one
  // machine) must not race on a shared fixture file.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mighty_io_bad_" + std::to_string(::getpid()) + ".blif"))
          .string();
  std::ofstream os(path);
  os << ".model x\n.inputs a\n.outputs q\n.end\n";
  os.close();
  try {
    read_blif_file(path);
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("BLIF line"), std::string::npos);
  }
  std::filesystem::remove(path);
}

/// The message of the invalid_network error read_blif throws on `text`, or
/// "(no error)".
std::string rejection_of(const std::string& text) {
  try {
    read_blif(text);
  } catch (const api::Error& e) {
    EXPECT_EQ(e.code(), api::ErrorCode::invalid_network) << e.what();
    return e.what();
  }
  return "(no error)";
}

bool mentions(const std::string& message, const std::string& part) {
  return message.find(part) != std::string::npos;
}

TEST(BlifTest, RejectsUnknownPatternCharacter) {
  // Was read as "1- 1".
  const auto m = rejection_of(".model x\n.inputs a b\n.outputs y\n.names a b y\n1x 1\n.end\n");
  EXPECT_TRUE(mentions(m, "BLIF line 4")) << m;
  EXPECT_TRUE(mentions(m, "1x 1")) << m;
}

TEST(BlifTest, RejectsOutputValueOtherThanZeroOrOne) {
  // Was read as an OFF-set row.
  const auto m = rejection_of(".model x\n.inputs a b\n.outputs y\n.names a b y\n11 2\n.end\n");
  EXPECT_TRUE(mentions(m, "BLIF line 4")) << m;
  EXPECT_TRUE(mentions(m, "11 2")) << m;
}

TEST(BlifTest, RejectsTableMixingOnAndOffSetRows) {
  // Was read as XOR: the last row's value set the polarity of every row.
  const auto m = rejection_of(
      ".model x\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n");
  EXPECT_TRUE(mentions(m, "BLIF line 4")) << m;
  EXPECT_TRUE(mentions(m, "ON-set and OFF-set rows mixed")) << m;
  EXPECT_TRUE(mentions(m, "00 0")) << m;
}

TEST(BlifTest, AcceptsOffSetCovers) {
  const auto m = read_blif(".model x\n.inputs a b\n.outputs y\n.names a b y\n11 0\n00 0\n.end\n");
  const auto ta = tt::TruthTable::projection(2, 0);
  const auto tb = tt::TruthTable::projection(2, 1);
  EXPECT_EQ(mig::output_truth_tables(m)[0], ta ^ tb);
}

TEST(BlifTest, RejectsSecondTableForOneSignal) {
  // The last table used to win.
  const auto m = rejection_of(
      ".model x\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.names a b y\n00 1\n.end\n");
  EXPECT_TRUE(mentions(m, "BLIF line 6")) << m;
  EXPECT_TRUE(mentions(m, "'y' has more than one driver (first driven at line 4)")) << m;
}

TEST(BlifTest, RejectsTableDrivingPrimaryInput) {
  // The table used to be ignored.
  const auto m = rejection_of(
      ".model x\n.inputs a b\n.outputs y\n.names b a\n1 1\n.names a b y\n11 1\n.end\n");
  EXPECT_TRUE(mentions(m, "BLIF line 4")) << m;
  EXPECT_TRUE(mentions(m, "'a' has more than one driver (first driven at line 2)")) << m;
}

TEST(BlifTest, RejectsRepeatedInputName) {
  // Used to make two inputs, the name bound to the second.
  const auto m = rejection_of(".model x\n.inputs a b\n.inputs a\n.outputs y\n.names a b y\n11 1\n");
  EXPECT_TRUE(mentions(m, "BLIF line 3")) << m;
  EXPECT_TRUE(mentions(m, "'a' has more than one driver (first driven at line 2)")) << m;
}

TEST(BlifTest, ChecksOnlyTablesAnOutputReaches) {
  // A wide table and a malformed row are rejected when an output needs
  // them, and ignored otherwise.
  const std::string unused =
      ".names a b c d e w\n11111 1\n.names a b bad\n1x 1\n";
  const std::string head = ".model x\n.inputs a b c d e\n.outputs y\n.names a b y\n11 1\n";
  EXPECT_EQ(read_blif(head + unused).num_pos(), 1u);
  EXPECT_TRUE(mentions(rejection_of(".model x\n.inputs a b c d e\n.outputs w\n" + unused),
                       "table with more than 4 inputs: w"));
  EXPECT_TRUE(mentions(rejection_of(".model x\n.inputs a b c d e\n.outputs bad\n" + unused),
                       "BLIF line 6"));
}

TEST(BlifTest, RejectsLatches) {
  std::stringstream ss(".model x\n.inputs a\n.outputs q\n.latch a q\n.end\n");
  EXPECT_THROW(read_blif(ss), std::runtime_error);
}

TEST(BlifTest, RejectsUndrivenSignal) {
  std::stringstream ss(".model x\n.inputs a\n.outputs q\n.end\n");
  EXPECT_THROW(read_blif(ss), std::runtime_error);
}

TEST(VerilogTest, EmitsStructuralMajority) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.create_po(!m.create_maj(a, b, c));
  std::stringstream ss;
  write_verilog(ss, m, "test_mod");
  const std::string v = ss.str();
  EXPECT_NE(v.find("module test_mod"), std::string::npos);
  EXPECT_NE(v.find("(x0 & x1) | (x0 & x2) | (x1 & x2)"), std::string::npos);
  EXPECT_NE(v.find("assign y0 = ~n"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

TEST(DotTest, EmitsGraph) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  m.create_po(m.create_and(a, !b));
  std::stringstream ss;
  write_dot(ss, m);
  const std::string d = ss.str();
  EXPECT_NE(d.find("digraph mig"), std::string::npos);
  EXPECT_NE(d.find("MAJ"), std::string::npos);
  EXPECT_NE(d.find("style=dashed"), std::string::npos);
}

TEST(BlifTest, FileRoundTrip) {
  const auto m = gen::make_adder_n(4);
  const std::string path = "/tmp/mighty_io_test.blif";
  write_blif_file(path, m);
  const auto back = read_blif_file(path);
  EXPECT_EQ(cec::check_equivalence(m, back).status, cec::CecStatus::equivalent);
}

}  // namespace
}  // namespace mighty::io

#include "exact/database.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "util/bounded_line.hpp"

/// File I/O behavior of the NPN-4 database: crash-safe (atomic) saves,
/// lossless build_seconds round trips, and rejection of corrupted files.
/// Loads the shared prebuilt database (npndb fixture) and re-saves it into
/// a scratch directory, so no synthesis runs here.

namespace mighty::exact {
namespace {

namespace fs = std::filesystem;

const Database& db() {
  static const Database instance = Database::load_or_build(default_database_path());
  return instance;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream is(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

void write_lines(const fs::path& path, const std::vector<std::string>& lines) {
  std::ofstream os(path);
  for (const auto& line : lines) os << line << '\n';
}

using testutil::ScratchDir;

TEST(DatabaseIoTest, SaveLoadRoundTripIsExact) {
  ScratchDir scratch("mighty_db_roundtrip");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  const auto loaded = Database::load(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->num_entries(), db().num_entries());
  for (size_t i = 0; i < db().num_entries(); ++i) {
    const auto& a = db().entries()[i];
    const auto& b = loaded->entries()[i];
    EXPECT_EQ(a.representative, b.representative);
    EXPECT_EQ(a.chain, b.chain);
    EXPECT_EQ(a.conflicts, b.conflicts);
    // max_digits10 precision: the stored wall time round-trips bit-exactly
    // (the old default precision truncated to 6 significant digits).
    EXPECT_EQ(a.build_seconds, b.build_seconds);
  }
  // Saving the loaded copy must reproduce the file byte for byte.
  const auto path2 = (scratch.dir / "db2.txt").string();
  loaded->save(path2);
  EXPECT_EQ(read_file(path), read_file(path2));
}

TEST(DatabaseIoTest, SaveIsAtomicAndLeavesNoTemporaries) {
  ScratchDir scratch("mighty_db_atomic");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  db().save(path);  // overwriting an existing file must also work
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(scratch.dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u) << "temp files left behind in " << scratch.dir;
  EXPECT_TRUE(Database::load(path).has_value());
}

TEST(DatabaseIoTest, DuplicateRepresentativeLineRejected) {
  ScratchDir scratch("mighty_db_dup");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  auto lines = read_lines(path);
  ASSERT_GT(lines.size(), 2u);
  // Duplicate the first entry line and fix up the header count so only the
  // duplication itself can be the reason for rejection.
  lines.push_back(lines[1]);
  std::istringstream hs(lines[0]);
  std::string magic, version;
  size_t count = 0;
  hs >> magic >> version >> count;
  lines[0] = magic + " " + version + " " + std::to_string(count + 1);
  write_lines(path, lines);
  EXPECT_FALSE(Database::load(path).has_value());
}

TEST(DatabaseIoTest, TruncatedFileRejected) {
  ScratchDir scratch("mighty_db_trunc");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  const auto full = read_file(path);
  // Cut mid-file: either a short entry line or a count mismatch, both of
  // which a crashed in-place writer used to leave behind.
  std::ofstream os(path, std::ios::trunc);
  os << full.substr(0, full.size() / 2);
  os.close();
  EXPECT_FALSE(Database::load(path).has_value());
}

TEST(DatabaseIoTest, OverLongLineRejectedAfterABoundedRead) {
  // A 64 MB line must be turned down after a bounded prefix of it, not after
  // it was buffered whole.
  testutil::GeneratedStreamBuf buf("mighty-mig-npn4-db v1 1\n", '0', size_t{64} << 20);
  std::istream is(&buf);
  EXPECT_FALSE(Database::load(is).has_value());
  EXPECT_LT(buf.consumed(), size_t{1} << 20);
}

TEST(BoundedLineTest, CapAdmitsLinesUpToItsLength) {
  const std::string at_cap(util::kMaxArtifactLine, 'x');
  std::istringstream is(at_cap + "\n" + at_cap + "x\nrest");
  std::string line;
  EXPECT_EQ(util::read_bounded_line(is, line), util::LineRead::ok);
  EXPECT_EQ(line, at_cap);
  EXPECT_EQ(util::read_bounded_line(is, line), util::LineRead::too_long);
  EXPECT_EQ(line, at_cap);  // the prefix read before giving up
  std::istringstream tail("last\n\nunterminated");
  EXPECT_EQ(util::read_bounded_line(tail, line), util::LineRead::ok);
  EXPECT_EQ(line, "last");
  EXPECT_EQ(util::read_bounded_line(tail, line), util::LineRead::ok);
  EXPECT_EQ(line, "");
  EXPECT_EQ(util::read_bounded_line(tail, line), util::LineRead::ok);
  EXPECT_EQ(line, "unterminated");
  EXPECT_EQ(util::read_bounded_line(tail, line), util::LineRead::end);
  EXPECT_TRUE(tail.eof());
}

TEST(DatabaseIoTest, LoadOrBuildPrefersExistingFile) {
  ScratchDir scratch("mighty_db_existing");
  const auto path = (scratch.dir / "db.txt").string();
  db().save(path);
  // With a valid file present, load_or_build must not synthesize anything;
  // a rebuild of all 222 classes would blow the test timeout.
  const Database loaded = Database::load_or_build(path);
  EXPECT_EQ(loaded.num_entries(), db().num_entries());
}

}  // namespace
}  // namespace mighty::exact

#include "exact/database.hpp"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/atomic_file.hpp"
#include "util/bounded_line.hpp"
#include "util/clock.hpp"

namespace mighty::exact {

Database Database::build(const SynthesisOptions& options) {
  Database db;
  const auto classes = npn::enumerate_classes(4);
  for (const auto& rep : classes) {
    const auto start = util::Clock::now();
    const auto result = synthesize_minimum_mig(rep, options);
    if (result.status != SynthesisStatus::success) {
      throw std::runtime_error("database build failed for class 0x" + rep.to_hex());
    }
    DatabaseEntry entry;
    entry.representative = rep;
    entry.chain = result.chain;
    for (const uint64_t c : result.conflicts_per_step) entry.conflicts += c;
    entry.build_seconds = util::seconds_since(start);
    db.index_.emplace(rep.bits(), db.entries_.size());
    db.entries_.push_back(std::move(entry));
  }
  return db;
}

void Database::save(const std::string& path) const {
  // Temp-file + atomic rename: a crash mid-write must not leave a truncated
  // database for the next load (which would silently trigger a full rebuild),
  // and a concurrent loader sees either the old or the new complete file.
  util::write_file_atomically(path, [this](std::ostream& os) {
    // max_digits10 makes build_seconds round-trip exactly; the default
    // precision (6 significant digits) was lossy.
    os << std::setprecision(std::numeric_limits<double>::max_digits10);
    os << "mighty-mig-npn4-db v1 " << entries_.size() << '\n';
    for (const auto& entry : entries_) {
      os << entry.representative.to_hex() << ' ' << entry.conflicts << ' '
         << entry.build_seconds << ' ' << entry.chain.to_string() << '\n';
    }
  });
}

std::optional<Database> Database::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  return load(is);
}

std::optional<Database> Database::load(std::istream& is) {
  std::string header;
  if (util::read_bounded_line(is, header) != util::LineRead::ok) return std::nullopt;
  std::istringstream hs(header);
  std::string magic, version;
  size_t count = 0;
  if (!(hs >> magic >> version >> count) || magic != "mighty-mig-npn4-db" ||
      version != "v1") {
    return std::nullopt;
  }
  Database db;
  std::string line;
  for (;;) {
    const util::LineRead read = util::read_bounded_line(is, line);
    if (read == util::LineRead::end) break;
    if (read == util::LineRead::too_long) return std::nullopt;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string hex;
    DatabaseEntry entry;
    if (!(ls >> hex >> entry.conflicts >> entry.build_seconds)) return std::nullopt;
    std::string rest;
    std::getline(ls, rest);
    try {
      entry.representative = tt::TruthTable::from_hex(4, hex);
      entry.chain = MigChain::from_string(rest);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    // Consistency check: the stored chain must realize the representative.
    if (entry.chain.simulate() != entry.representative) return std::nullopt;
    // A duplicate representative means a corrupt or hand-mangled file; the
    // old last-wins emplace kept the first entry in the index but leaked the
    // second into entries_ (and past the header count check).
    if (!db.index_.emplace(entry.representative.bits(), db.entries_.size()).second) {
      return std::nullopt;
    }
    db.entries_.push_back(std::move(entry));
  }
  if (db.entries_.size() != count) return std::nullopt;
  return db;
}

Database Database::load_or_build(const std::string& path, const SynthesisOptions& options) {
  if (auto db = load(path)) return std::move(*db);
  Database db = build(options);
  // Two processes that both missed now race to save.  The build takes
  // minutes, so a concurrent builder may have finished meanwhile: prefer its
  // completed file over overwriting it (the contents are equivalent, and
  // skipping the save avoids rename churn).  Saves themselves are atomic
  // renames, so even a genuine collision leaves a complete file.
  if (auto concurrent = load(path)) return std::move(*concurrent);
  db.save(path);
  return db;
}

Database::LookupResult Database::lookup(const tt::TruthTable& f) const {
  const auto f4 = f.num_vars() < 4 ? f.extend(4) : f;
  if (f4.num_vars() != 4) {
    throw std::invalid_argument("database lookup requires at most 4 variables");
  }
  LookupStripe& stripe = lookup_stripe(f4.bits());
  {
    util::MutexLock lock(stripe.mutex);
    if (const auto cached = stripe.map.find(f4.bits()); cached != stripe.map.end()) {
      return cached->second;
    }
  }
  // Canonize outside the lock: it is pure, and it dominates the miss cost.
  // Two tasks missing on the same function both compute the same result;
  // emplace keeps the first and the duplicate is discarded.
  auto canon = npn::canonize(f4);
  const auto it = index_.find(canon.representative.bits());
  if (it == index_.end()) {
    throw std::logic_error("NPN class missing from database");  // cannot happen when complete
  }
  const LookupResult result{&entries_[it->second], canon.transform};
  util::MutexLock lock(stripe.mutex);
  stripe.map.emplace(f4.bits(), result);
  return result;
}

mig::Signal Database::instantiate(const tt::TruthTable& f, mig::Mig& mig,
                                  std::span<const mig::Signal> leaves) const {
  const auto result = lookup(f);
  const auto inv = npn::inverse(result.transform);

  // f == apply(rep, inv): variable i of the representative is driven by leaf
  // inv.perm[i], complemented per inv's negation mask; the output picks up
  // inv's output negation.
  std::array<mig::Signal, 4> inputs;
  for (uint32_t i = 0; i < 4; ++i) {
    const uint32_t leaf = inv.perm[i];
    const mig::Signal base =
        leaf < leaves.size() ? leaves[leaf] : mig.get_constant(false);
    inputs[i] = base ^ (((inv.input_negations >> i) & 1) != 0);
  }
  return result.entry->chain.instantiate(mig, inputs) ^ inv.output_negation;
}

std::vector<uint32_t> Database::size_histogram() const {
  std::vector<uint32_t> histogram;
  for (const auto& entry : entries_) {
    const uint32_t size = entry.chain.size();
    if (histogram.size() <= size) histogram.resize(size + 1, 0);
    ++histogram[size];
  }
  return histogram;
}

std::string default_database_path() {
  // One switch for every tool, bench and test: point MIGHTY_DB_PATH at a
  // prebuilt database so repeated runs never re-synthesize the 222 classes.
  if (const char* env = std::getenv("MIGHTY_DB_PATH"); env != nullptr && *env != '\0') {
    return env;
  }
  return "data/mig_npn4.db";
}

}  // namespace mighty::exact

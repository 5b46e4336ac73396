#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "exact/chain.hpp"
#include "exact/exact_synthesis.hpp"
#include "npn/npn.hpp"
#include "tt/truth_table.hpp"
#include "util/mutex.hpp"

/// \file database.hpp
/// \brief The precomputed database of minimum MIGs for all 222 NPN classes of
/// 4-variable functions (paper Sec. IV, V-A).
///
/// Functional hashing replaces 4-input cuts with precomputed minimum
/// representations; since MIG size is invariant under input/output negation
/// and input permutation, one minimum chain per NPN class suffices.

namespace mighty::exact {

struct DatabaseEntry {
  tt::TruthTable representative;  ///< NPN class representative (4 variables)
  MigChain chain;                 ///< minimum-size chain for the representative
  /// Conflicts spent across the size loop when the entry was built.
  uint64_t conflicts = 0;
  /// Wall-clock seconds spent building the entry.
  double build_seconds = 0.0;
};

class Database {
public:
  Database() = default;
  /// Copies and moves transfer the entries but start with a cold lookup
  /// memo: cached LookupResults hold pointers into the source's entry
  /// storage, and the memo's stripe locks are not transferable anyway.
  Database(const Database& other) : entries_(other.entries_), index_(other.index_) {}
  Database(Database&& other) noexcept
      : entries_(std::move(other.entries_)), index_(std::move(other.index_)) {}
  Database& operator=(const Database& other) {
    if (this != &other) {
      entries_ = other.entries_;
      index_ = other.index_;
      clear_lookup_cache();
    }
    return *this;
  }
  Database& operator=(Database&& other) noexcept {
    entries_ = std::move(other.entries_);
    index_ = std::move(other.index_);
    clear_lookup_cache();
    return *this;
  }

  /// Builds the database by exact synthesis over all 222 class
  /// representatives.  `options` tunes the underlying synthesis (budget,
  /// encoder).  Throws std::runtime_error if any class fails to synthesize
  /// within the options' limits.
  static Database build(const SynthesisOptions& options = {});

  /// Loads from the text file written by save(); returns std::nullopt if the
  /// file does not exist or is malformed.
  static std::optional<Database> load(const std::string& path);
  /// Same validation over an already-open stream (in-memory buffers, fuzz
  /// harnesses, sockets); a stream is never "missing", only malformed.
  static std::optional<Database> load(std::istream& is);

  /// Loads `path` if present, otherwise builds and saves to `path`.
  static Database load_or_build(const std::string& path,
                                const SynthesisOptions& options = {});

  void save(const std::string& path) const;

  /// Looks up the minimum chain for an arbitrary function of up to 4
  /// variables.  Returns the NPN canonization result alongside the entry, so
  /// the caller can instantiate the stored chain with transformed leaves:
  ///   f == apply(entry.representative, inverse(transform)).
  /// Thread-safe: concurrent lookups share the striped canonization memo.
  struct LookupResult {
    const DatabaseEntry* entry;
    npn::Transform transform;  ///< canonizing transform of the query
  };
  LookupResult lookup(const tt::TruthTable& f) const;

  /// Builds f on top of the given leaf signals inside `mig`, using the stored
  /// minimum chain, honoring the NPN transform.  `leaves[i]` drives variable
  /// i of f.  Unused leaves are ignored.
  mig::Signal instantiate(const tt::TruthTable& f, mig::Mig& mig,
                          std::span<const mig::Signal> leaves) const;

  const std::vector<DatabaseEntry>& entries() const { return entries_; }
  size_t num_entries() const { return entries_.size(); }

  /// Histogram of entry sizes (index = number of majority gates); reproduces
  /// the "Classes" column of Table I.
  std::vector<uint32_t> size_histogram() const;

private:
  std::vector<DatabaseEntry> entries_;
  std::unordered_map<uint64_t, size_t> index_;  ///< representative bits -> entry
  /// Canonization memo: cut functions repeat massively during rewriting, so
  /// lookups cache the full result keyed by the query's bits.  Lookups are
  /// the hottest operation of every rewriting task, so the memo is striped:
  /// each stripe guards its own map, canonization happens outside any lock
  /// (it is pure), and a racing duplicate insert is harmlessly dropped by
  /// emplace.  Results are returned by value, never by reference into a map.
  struct LookupStripe {
    util::Mutex mutex{util::LockRank::db_lookup_stripe};
    std::unordered_map<uint64_t, LookupResult> map MIGHTY_GUARDED_BY(mutex);
  };
  static constexpr size_t kLookupStripes = 64;
  mutable std::array<LookupStripe, kLookupStripes> lookup_cache_;

  LookupStripe& lookup_stripe(uint64_t bits) const {
    return lookup_cache_[(bits * 0x9e3779b97f4a7c15ull) >> 58 & (kLookupStripes - 1)];
  }
  void clear_lookup_cache() {
    for (auto& stripe : lookup_cache_) {
      util::MutexLock lock(stripe.mutex);
      stripe.map.clear();
    }
  }
};

/// Default on-disk location used by tools, benches and tests: the
/// MIGHTY_DB_PATH environment variable when set, else "data/mig_npn4.db"
/// relative to the current directory.
std::string default_database_path();

}  // namespace mighty::exact

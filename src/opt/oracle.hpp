#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/report.hpp"
#include "exact/database.hpp"
#include "mig/mig.hpp"
#include "npn/npn.hpp"
#include "tt/truth_table.hpp"
#include "util/mutex.hpp"

/// \file oracle.hpp
/// \brief Uniform replacement oracle for the rewriting drivers.
///
/// Answers "what is the minimum MIG for this cut function, and how deep is
/// each input in it?" for functions of up to five variables:
///
///  * support <= 4: the precomputed NPN database (exact minima, instant);
///  * support == 5: on-demand bounded exact synthesis, one per NPN class.
///    The paper notes that enumerating all NPN classes beyond four
///    variables is impractical and that 5-input rewriting works on a
///    dynamically discovered subset (Sec. IV, ref. [9]); this oracle is that
///    mechanism.  MIG size is NPN-invariant, so a query is canonized
///    (npn::canonize) and only the class representative is synthesized —
///    minimal in size first, then in depth among chains of that size.
///    Synthesis is budgeted both in gate count (it only needs to beat the
///    cut's cone) and in SAT conflicts; failures are cached as "no
///    replacement" together with the budget that produced them, and are
///    re-attempted when queried under a strictly larger conflict budget.
///
/// Two striped stores serve the 5-input path.  The *class store* maps each
/// representative to its synthesis outcome.  The *member memo* maps each
/// queried function to its representative, its canonizing transform and the
/// class chain remapped onto the function (exact::apply_transform through
/// npn::inverse, checked by simulation), so a repeated query neither
/// canonizes nor touches the class store.  Failed members are memoized too
/// (without a chain); they re-consult the class store, which a later load
/// or budget upgrade may have turned into a success.  An answer therefore
/// depends only on the function's NPN class and the transform canonize picks
/// for it — never on which member was queried first.
///
/// The class store persists to disk (save_cache / load_cache): a versioned
/// text file alongside the NPN-4 database, one line per class
/// representative — hex truth table, chain-or-failure record, the synthesis
/// budget in force, and the conflicts spent.  Version v2 keys lines by
/// representative; a v1 file (keyed by raw function) is migrated on load:
/// each line is canonized, its chain remapped to the representative, and
/// lines of one class merge by the union rules below.  Loading unions the
/// file with the in-memory store (a cached success always beats a cached
/// failure; among failures the larger budget wins), so sessions warm-start
/// across processes the same way a batch run warm-starts across networks.
/// Dirty-entry tracking lets save_cache skip the write when nothing changed
/// since the last save/load.
///
/// The oracle is shared by every region task of a parallel pass, so query() and
/// instantiate() are safe to call concurrently: both stores are striped,
/// canonization and remapping run outside any lock, no thread ever holds two
/// stripes, and synthesis runs under the class stripe's lock so a class is
/// synthesized exactly once no matter how many regions race for its members.
/// The accounting is atomic, and because answers are a pure function of the
/// queried truth table, cache behavior and every counter are identical
/// whether one thread queries or eight do.

namespace mighty::opt {

/// Caller-owned oracle accounting: the same counters the oracle keeps for its
/// lifetime, recorded additionally into this tally by every query/instantiate
/// that is handed one.  A pass (or one network of a batch run) owns a tally
/// for exact attribution — global before/after snapshots would interleave
/// arbitrarily once several networks mutate the shared counters concurrently.
/// Atomic because a single pass already fans out over FFR regions.
struct OracleTally {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> cache5_hits{0};
  std::atomic<uint64_t> synthesized{0};
  std::atomic<uint64_t> failures{0};
};

struct OracleParams {
  /// Conflict budget per synthesis decision problem.
  int64_t synthesis_conflict_limit = 20000;
  /// Gate bound for on-demand synthesis ("only useful if smaller than the
  /// cone" is applied on top by the caller through max_gates).
  uint32_t max_gates = 9;
};

class ReplacementOracle {
public:
  ReplacementOracle(const exact::Database& db, const OracleParams& params = {});

  struct Info {
    uint32_t size = 0;   ///< gates of the minimum (or best-known) realization
    uint32_t depth = 0;  ///< its depth
    /// Longest path from cut-function variable v to the output; -1 if unused
    /// or beyond the function's variables.
    std::array<int, tt::TruthTable::max_vars> input_depths{-1, -1, -1, -1, -1, -1};
  };

  /// Returns the replacement structure for a cut function over at most five
  /// variables (in cut-leaf order), or std::nullopt if no structure is known
  /// within the budgets.  Thread-safe.  When `tally` is given, the call's
  /// counter increments are mirrored into it.  The shape is computed once per
  /// stored chain (per NPN-4 class at construction, per 5-input member when
  /// its chain is memoized), so a query only remaps it.
  std::optional<Info> query(const tt::TruthTable& f, OracleTally* tally = nullptr);

  /// Builds the replacement in `mig`; `leaves[v]` drives variable v of f.
  /// Must only be called after a successful query for the same function.
  /// Thread-safe as long as no other thread touches the same `mig`.
  mig::Signal instantiate(const tt::TruthTable& f, mig::Mig& mig,
                          std::span<const mig::Signal> leaves,
                          OracleTally* tally = nullptr);

  // --- persistence of the 5-input cache -------------------------------------

  /// Aggregate view of the 5-input class store for reporting.
  struct CacheStats {
    size_t entries = 0;    ///< cached classes (successes + failures)
    size_t successes = 0;  ///< classes with a known replacement chain
    size_t failures = 0;   ///< classes cached as "no replacement"
    size_t dirty = 0;      ///< entries not yet persisted by save_cache
  };
  CacheStats cache_stats() const;

  enum class CacheLoadStatus {
    loaded,    ///< file parsed and merged
    missing,   ///< no file at `path` (a fresh cache; not an error)
    malformed  ///< rejected: bad header/line/duplicate/inconsistent chain
  };
  struct CacheLoadResult {
    CacheLoadStatus status = CacheLoadStatus::missing;
    size_t entries = 0;  ///< lines parsed from the file
    size_t adopted = 0;  ///< classes that changed or extended the in-memory store
  };

  /// Merges the cache file at `path` into the in-memory class store.  The
  /// file is read and validated wholesale by read_cache_file before any
  /// merge: any error it reports rejects the file without touching the
  /// store (check::lint_cache_file prints the same findings).  v1 lines
  /// are migrated to their classes first, merging lines of one class by the
  /// rules below in file order.  Merge semantics: unknown classes are
  /// adopted; a success on disk replaces an in-memory failure (never the
  /// reverse); between two failures the larger budget wins; between two
  /// successes the in-memory chain is kept (both are proven minima, and
  /// replacing it would dangle outstanding pointers).  Entries adopted from
  /// v2 are clean; entries migrated from v1 are dirty, so the next save
  /// rewrites the file as v2; surviving in-memory entries keep their dirty
  /// bit.  Thread-safe.
  CacheLoadResult load_cache(const std::string& path);
  /// Same validation and merge over an already-open stream (in-memory
  /// buffers, fuzz harnesses); a stream is never "missing", only malformed.
  CacheLoadResult load_cache(std::istream& is);

  /// Persists the whole class store to `path` as v2 (crash-safe: temp
  /// file + atomic rename; entries sorted by representative so the file is
  /// deterministic).  Skipped entirely — returning 0 — when no entry is
  /// dirty and `path` is known to hold exactly this cache already (the last
  /// successful save or whole-file load went there), so repeated autosaves
  /// of an unchanged cache never rewrite the file while saves to a new
  /// location always write.  Returns the number of entries written and
  /// marks them clean.  Thread-safe.
  size_t save_cache(const std::string& path);

  /// Number of on-demand syntheses performed / failed (for reporting); one
  /// per class, plus budget-upgrade retries.
  uint64_t synthesized_count() const {
    return synthesized_.load(std::memory_order_relaxed);
  }
  uint64_t synthesis_failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

  /// Query accounting across the oracle's lifetime (flows share one oracle
  /// over many passes, so these measure cross-pass cache effectiveness).
  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  /// Queries answered with a replacement structure (4-input lookups always
  /// hit; 5-input queries hit when cached or synthesized within budget).
  uint64_t answered() const { return answered_.load(std::memory_order_relaxed); }
  /// 5-input queries resolved from the cache without touching the SAT solver.
  uint64_t cache5_hits() const { return cache5_hits_.load(std::memory_order_relaxed); }
  /// Fraction of queries answered; 1.0 when no query was made.
  double hit_rate() const {
    const uint64_t q = queries();
    return q == 0 ? 1.0 : static_cast<double>(answered()) / q;
  }

private:
  /// Shared core of both load_cache overloads; an empty `path` means the
  /// stream has no on-disk identity for the clean-skip bookkeeping.
  CacheLoadResult load_cache_stream(std::istream& is, const std::string& path);

  /// One class-store entry: the synthesis outcome of a representative.
  /// `budget` is the conflict limit in force when the entry was produced:
  /// -1 means unlimited — for a failure that encodes "proved absent within
  /// max_gates, never retry", while a finite budget on a failure marks a
  /// timeout that a later query under a larger budget re-attempts.
  /// `conflicts` is the solver effort spent producing the entry (summed over
  /// size and depth steps, accumulated across retries).  `dirty` tracks
  /// divergence from the last save/load.
  struct CacheEntry {
    std::optional<exact::MigChain> chain;  ///< nullopt = no replacement
    int64_t budget = 0;
    uint64_t conflicts = 0;
    bool dirty = true;
  };

  /// One lock-striped slice of the class store.  A per-stripe lock makes
  /// "look up or synthesize" a single atomic step.
  struct CacheStripe {
    mutable util::Mutex mutex{util::LockRank::oracle_stripe};  ///< cache_stats() locks from const
    std::unordered_map<uint64_t, CacheEntry> map MIGHTY_GUARDED_BY(mutex);
  };
  static constexpr size_t kCacheStripes = 16;

  /// A chain with the Info query() reports for it, in its own variable order.
  struct ShapedChain {
    exact::MigChain chain;
    Info info;
  };

  /// One member-memo entry: a queried function's class and its chain.
  struct MemberEntry {
    uint64_t representative = 0;
    npn::Transform transform;  ///< apply(member, transform) == representative
    /// The class chain remapped onto the member; nullopt while the class
    /// has none.  Set once, never replaced.
    std::optional<ShapedChain> chain;
  };
  /// Member-memo slice; hit on every 5-input query, so striped as finely
  /// as the database's lookup memo.
  struct MemberStripe {
    util::Mutex mutex{util::LockRank::oracle_member_stripe};
    std::unordered_map<uint64_t, MemberEntry> map MIGHTY_GUARDED_BY(mutex);
  };
  static constexpr size_t kMemberStripes = 64;

  /// Merge rule shared by load_cache and v1 migration: whether `incoming`
  /// replaces `held` for the same class.
  static bool supersedes(const CacheEntry& incoming, const CacheEntry& held);

  CacheStripe& stripe_for(uint64_t key) {
    return cache5_[(key * 0x9e3779b97f4a7c15ull) >> 60 & (kCacheStripes - 1)];
  }
  MemberStripe& member_stripe_for(uint64_t bits) {
    return members_[(bits * 0x9e3779b97f4a7c15ull) >> 58 & (kMemberStripes - 1)];
  }

  /// The chain for a 5-input function, from the member memo or its class.
  /// Chains are created once and never replaced or erased, and
  /// unordered_map never moves its elements, so the returned pointer stays
  /// valid after the stripe lock is released.
  const ShapedChain* five_input_chain(const tt::TruthTable& f5, OracleTally* tally);
  /// The class store's chain for a representative, synthesized under its
  /// stripe lock on a miss (or a retry under a larger budget).
  const exact::MigChain* class_chain(uint64_t representative, OracleTally* tally);

  const exact::Database& db_;
  /// Shape of each database entry's chain (over its representative's
  /// variables), by entry index.
  std::vector<Info> class_info_;
  OracleParams params_;
  std::array<CacheStripe, kCacheStripes> cache5_;
  std::array<MemberStripe, kMemberStripes> members_;
  /// Path whose on-disk contents are known to equal the in-memory cache —
  /// set by a successful save, or by a load that filled an empty cache
  /// wholesale; cleared when a load changes memory without that guarantee.
  /// Together with the dirty bits this gates save_cache's clean-skip, so a
  /// save to a *different* path never silently keeps a stale file.
  std::string persisted_path_ MIGHTY_GUARDED_BY(persist_mutex_);
  util::Mutex persist_mutex_{util::LockRank::oracle_persist};
  std::atomic<uint64_t> synthesized_{0};
  std::atomic<uint64_t> failures_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> answered_{0};
  std::atomic<uint64_t> cache5_hits_{0};
};

// --- the 5-input cache file ---------------------------------------------------

/// One line of a cache file that passed every check.
struct CacheRecord {
  uint64_t key = 0;        ///< the 5-input function the line is filed under
  npn::CanonResult canon;  ///< its NPN class and canonizing transform
  std::optional<exact::MigChain> chain;  ///< nullopt: a failure record
  int64_t budget = 0;      ///< conflict budget in force (-1 = unlimited)
  uint64_t conflicts = 0;  ///< solver effort spent
};

struct CacheFile {
  bool class_keyed = true;  ///< v2 keys representatives; v1 raw functions
  std::vector<CacheRecord> records;  ///< file order
  /// Findings, `node` = 1-based file line; error-free exactly when the
  /// file is well formed, in which case `records` holds every line.
  check::CheckReport report;
};

/// The one reader of the file save_cache writes; check::lint_cache lists
/// what it reports.  Without `all_diagnostics` the read stops at the first
/// error, so a huge corrupt file costs no more than its well-formed prefix.
CacheFile read_cache_file(std::istream& is, bool all_diagnostics);

}  // namespace mighty::opt

#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>

#include "exact/database.hpp"
#include "exact/exact_synthesis.hpp"
#include "opt/oracle.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

/// \file session.hpp
/// \brief Shared state for optimization flows.
///
/// Every pre-`flow` entry point re-created its expensive context per call:
/// the NPN-4 database was re-loaded (or worse, re-synthesized) and each
/// functional-hashing pass built a private ReplacementOracle, throwing away
/// the 5-input synthesis cache between passes.  A Session owns both once, so
/// iterated and interleaved pipelines amortize them across every pass — and,
/// through flow::BatchRunner, across every network of a corpus: the oracle
/// is concurrency-safe, so many networks in flight share one warm cache.
///
/// Lazy initialization (database(), oracle(), pool()) is single-threaded
/// by design; materialize before handing the session to concurrent tasks
/// (BatchRunner does this itself).

namespace mighty::flow {

/// How much invariant checking Pipeline::run_into performs between passes
/// (see check/check.hpp).  `fast` runs the O(nodes) structural validation of
/// every intermediate network; `full` additionally re-derives levels/fanouts/
/// live counts and validates a fresh FFR partition, shard plan and wave
/// order.  A failed check throws std::logic_error naming the offending pass.
enum class CheckLevel { off, fast, full };

struct SessionParams {
  /// On-disk NPN-4 database location; empty selects
  /// exact::default_database_path() (which honors $MIGHTY_DB_PATH).
  std::string database_path;
  /// Synthesis options used only when the database must be built from
  /// scratch (first run on a fresh checkout).
  exact::SynthesisOptions synthesis;
  /// Configuration of the shared replacement oracle.  These params govern
  /// every rewrite pass run on the session: all of them query this one
  /// oracle, 5-input passes included.  Passes that never enumerate 5-cuts
  /// never reach 5-input synthesis, and passes that do share one cache (and
  /// one conflict budget) for the whole session.
  opt::OracleParams oracle;
  /// On-disk location of the persistent 5-input oracle cache; empty turns
  /// persistence off.  When set, the file is merged into the oracle when it
  /// materializes, and the cache is written back by Session::save_cache(),
  /// once per BatchRunner::run, and automatically on session destruction —
  /// so a later process warm-starts where this one left off.
  std::string oracle_cache_path;
  /// Parallelism for shard-parallel passes (1 = everything inline).  The
  /// sharded FFR passes produce bit-identical networks for every value;
  /// Session::set_threads() changes it later.
  uint32_t threads = 1;
};

class Session {
public:
  Session() : Session(SessionParams{}) {}
  explicit Session(SessionParams params);

  /// Adopts an already-loaded database (no disk access, no lazy build).
  explicit Session(exact::Database db, SessionParams params = {});

  /// Not copyable or movable: the materialized oracle holds a reference into
  /// this object's database, which a move would silently leave dangling.
  /// (Factory functions returning a Session prvalue still work — guaranteed
  /// copy elision constructs it in place.)
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Autosaves the oracle cache when a cache path is set (best effort: a
  /// failure is reported on stderr, never thrown).
  ~Session();

  /// The NPN-4 database, loaded (or built and saved) on first use.
  const exact::Database& database();

  /// The shared replacement oracle; materializes the database on first use.
  opt::ReplacementOracle& oracle();

  /// Non-materializing observer for reporting: nullptr until some pass has
  /// asked for the oracle.
  const opt::ReplacementOracle* oracle_if_created() const {
    return oracle_ ? &*oracle_ : nullptr;
  }

  /// Path the database is (or would be) loaded from.
  std::string database_path() const;

  const SessionParams& params() const { return params_; }

  // --- persistent 5-input oracle cache ----------------------------------------

  /// Location of the on-disk oracle cache; empty = persistence off.
  const std::string& cache_path() const { return params_.oracle_cache_path; }

  /// Points the session at an on-disk oracle cache (the shell's `cache`
  /// command and the daemon's `--cache` flag land here).  Records
  /// the path without touching the disk: the file is merged when the oracle
  /// materializes, or immediately via load_cache().  An empty path turns
  /// persistence (and destructor autosave) off.
  void set_cache_path(std::string path);

  /// Merges the cache file into the oracle, materializing it.  A missing
  /// file is normal (status `missing`: it appears on first save); a
  /// malformed one is reported on stderr, left untouched on disk, and
  /// ignored — the next save overwrites it wholesale.
  opt::ReplacementOracle::CacheLoadResult load_cache();

  /// Persists the oracle cache to cache_path().  Returns the number of
  /// entries written: 0 when no path is set, the oracle never materialized,
  /// or nothing changed since the last save/load (dirty-entry tracking).
  size_t save_cache();

  /// The single choke point every shutdown path persists through: the
  /// destructor autosave, api::Service shutdown, and the daemon's SIGTERM
  /// handler all call this, serialized by an internal mutex so concurrent
  /// shutdown paths never interleave writes.  Idempotent: the first call
  /// writes the dirty entries, a repeat with nothing new returns 0 (the
  /// oracle's dirty tracking makes the save itself a no-op).
  size_t persist();

  // --- parallel execution -----------------------------------------------------

  /// Sets the parallelism of subsequent pipeline runs (0 is treated as 1).
  /// Shard-parallel passes produce bit-identical networks for every value,
  /// so this is purely a throughput knob.  Rebuilds the pool on change.
  void set_threads(uint32_t threads);
  /// Effective parallelism.  Clamped exactly as the pool clamps, also for
  /// widths smuggled in through SessionParams — otherwise pool() would see a
  /// perpetual mismatch and respawn on every pass.
  uint32_t threads() const {
    const uint32_t t = params_.threads == 0 ? 1 : params_.threads;
    return std::min(t, util::ThreadPool::kMaxParallelism);
  }

  /// The worker pool shared by every pass and batch task for the lifetime
  /// of the session, so repeated runs never pay thread startup; created on
  /// first use at threads() width.
  util::ThreadPool& pool();

  // --- between-pass invariant checking ----------------------------------------

  /// Selects the between-pass check level.  Defaults to `fast` when the
  /// library is built without NDEBUG (every Debug test run doubles as an
  /// invariant test) and `off` otherwise, so Release benches measure the
  /// passes, not the checks.  The library decides, for every constructor:
  /// a caller's own NDEBUG does not change the default.
  void set_check_level(CheckLevel level) { check_level_ = level; }
  CheckLevel check_level() const { return check_level_; }

  /// Pool for shard-parallel passes: nullptr at parallelism 1, so passes
  /// take the inline path (the same sharded algorithms, which keeps
  /// `threads=N` bit-identical to `threads=1`) without materializing a pool.
  util::ThreadPool* worker_pool() { return threads() > 1 ? &pool() : nullptr; }

private:
  /// Merges cache_path() into the materialized oracle, warning on stderr
  /// about a malformed file.  Requires oracle_ to exist.
  opt::ReplacementOracle::CacheLoadResult merge_cache_file();

  SessionParams params_;
  /// Serializes persist() across shutdown paths.
  util::Mutex persist_mutex_{util::LockRank::flow_session_persist};
  CheckLevel check_level_;
  std::optional<exact::Database> database_;
  std::optional<opt::ReplacementOracle> oracle_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace mighty::flow

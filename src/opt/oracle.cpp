#include "opt/oracle.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "exact/exact_synthesis.hpp"
#include "opt/rewrite.hpp"
#include "util/atomic_file.hpp"
#include "util/bounded_line.hpp"

namespace mighty::opt {

namespace {

constexpr const char* kCacheMagic = "mighty-mig-5cut-cache";
/// v2 keys lines by NPN class representative; v1 (raw functions) loads
/// through migration.
constexpr const char* kCacheVersion = "v2";
constexpr const char* kCacheVersionV1 = "v1";

/// Bumps a lifetime counter and its optional per-scope mirror.
void bump(std::atomic<uint64_t>& global, OracleTally* tally,
          std::atomic<uint64_t> OracleTally::* member) {
  global.fetch_add(1, std::memory_order_relaxed);
  if (tally != nullptr) (tally->*member).fetch_add(1, std::memory_order_relaxed);
}

/// Orders conflict budgets with -1 (unlimited) on top, so "retry when
/// queried under a strictly larger budget" and "the larger failure budget
/// wins a merge" share one comparison.
int64_t budget_rank(int64_t budget) {
  return budget < 0 ? std::numeric_limits<int64_t>::max() : budget;
}

uint64_t total_conflicts(const exact::SynthesisResult& result) {
  uint64_t total = 0;
  for (const uint64_t c : result.conflicts_per_step) total += c;
  for (const uint64_t c : result.conflicts_per_depth_step) total += c;
  return total;
}

}  // namespace

/// Union semantics of a merge: a success always beats a failure; between
/// two successes the held one is kept — both are proven minima of the same
/// class, and replacing a chain would dangle the stable pointers
/// class_chain hands out; between failures the one produced under the
/// larger budget wins.
bool ReplacementOracle::supersedes(const CacheEntry& incoming, const CacheEntry& held) {
  return incoming.chain
             ? !held.chain
             : (!held.chain && budget_rank(incoming.budget) > budget_rank(held.budget));
}

ReplacementOracle::ReplacementOracle(const exact::Database& db,
                                     const OracleParams& params)
    : db_(db), params_(params) {}

const exact::MigChain* ReplacementOracle::class_chain(uint64_t representative,
                                                      OracleTally* tally) {
  CacheStripe& stripe = stripe_for(representative);
  // Synthesis runs under the stripe lock: concurrent queries for the same
  // class would otherwise both pay the SAT solver, and the hit/synthesis
  // counters would depend on thread interleaving.  Classes in other
  // stripes proceed unhindered.
  util::MutexLock lock(stripe.mutex);
  const auto it = stripe.map.find(representative);
  bool retry = false;
  if (it != stripe.map.end()) {
    // A failure recorded under a smaller conflict budget is not an answer
    // for a query with a larger one — persisted caches would otherwise
    // freeze the failures of low-budget sessions forever.  Successes and
    // same-or-larger-budget failures are plain hits.
    retry = !it->second.chain &&
            budget_rank(params_.synthesis_conflict_limit) > budget_rank(it->second.budget);
    if (!retry) {
      bump(cache5_hits_, tally, &OracleTally::cache5_hits);
      return it->second.chain ? &*it->second.chain : nullptr;
    }
  }
  exact::SynthesisOptions options;
  options.max_gates = params_.max_gates;
  options.conflict_limit = params_.synthesis_conflict_limit;
  options.minimize_depth = true;
  const auto result =
      exact::synthesize_minimum_mig(tt::TruthTable(5, representative), options);
  bump(synthesized_, tally, &OracleTally::synthesized);

  CacheEntry& entry = retry ? it->second : stripe.map[representative];
  if (retry) {
    entry.conflicts += total_conflicts(result);  // retries accumulate effort
  } else {
    entry.conflicts = total_conflicts(result);
  }
  entry.dirty = true;
  if (result.status == exact::SynthesisStatus::success) {
    entry.chain = result.chain;
    entry.budget = params_.synthesis_conflict_limit;
    return &*entry.chain;
  }
  bump(failures_, tally, &OracleTally::failures);
  // "exhausted" means every decision problem up to max_gates came back UNSAT
  // — a definitive no that no conflict budget overturns; record it as an
  // unlimited-budget failure so it is never retried.  A timeout keeps the
  // finite budget so a richer session can try again.
  entry.budget = result.status == exact::SynthesisStatus::exhausted
                     ? -1
                     : params_.synthesis_conflict_limit;
  entry.chain.reset();
  return nullptr;
}

const exact::MigChain* ReplacementOracle::five_input_chain(const tt::TruthTable& f5,
                                                           OracleTally* tally) {
  const uint64_t bits = f5.bits();
  MemberStripe& members = member_stripe_for(bits);
  std::optional<npn::CanonResult> canon;
  {
    util::MutexLock lock(members.mutex);
    if (const auto it = members.map.find(bits); it != members.map.end()) {
      if (it->second.chain) {
        bump(cache5_hits_, tally, &OracleTally::cache5_hits);
        return &*it->second.chain;
      }
      // A memoized failure: its class may have gained a chain since (a
      // load, a budget upgrade), so ask the class store again — without
      // canonizing twice.
      canon = npn::CanonResult{tt::TruthTable(5, it->second.representative),
                               it->second.transform};
    }
  }
  // Canonization and remapping are pure: both run outside any lock, and the
  // two stripes are never held together.
  if (!canon) canon = npn::canonize(f5);
  const exact::MigChain* cls = class_chain(canon->representative.bits(), tally);
  std::optional<exact::MigChain> member;
  if (cls != nullptr) {
    member = exact::apply_transform(*cls, npn::inverse(canon->transform));
    if (member->simulate() != f5) {
      throw std::logic_error("remapped class chain does not realize 0x" + f5.to_hex());
    }
  }
  util::MutexLock lock(members.mutex);
  auto& entry = members.map
                    .try_emplace(bits, MemberEntry{canon->representative.bits(),
                                                   canon->transform, std::nullopt})
                    .first->second;
  // A racing thread may have set the chain first; both remapped the same
  // class chain through the same transform, so either copy is the answer.
  if (member && !entry.chain) entry.chain = std::move(member);
  return entry.chain ? &*entry.chain : nullptr;
}

std::optional<ReplacementOracle::Info> ReplacementOracle::query(const tt::TruthTable& f,
                                                                OracleTally* tally) {
  bump(queries_, tally, &OracleTally::queries);
  Info info;
  info.input_depths.assign(f.num_vars(), -1);

  if (f.support_size() <= 4) {
    std::vector<uint32_t> old_vars;
    const auto g = f.shrink_to_support(old_vars).extend(4);
    const auto lookup = db_.lookup(g);
    const auto inv = npn::inverse(lookup.transform);
    const auto depths = chain_input_depths(lookup.entry->chain);
    info.size = lookup.entry->chain.size();
    info.depth = lookup.entry->chain.depth();
    for (uint32_t i = 0; i < 4; ++i) {
      if (depths[i] < 0) continue;
      const uint32_t g_var = inv.perm[i];
      if (g_var < old_vars.size()) {
        info.input_depths[old_vars[g_var]] = depths[i];
      }
    }
    bump(answered_, tally, &OracleTally::answered);
    return info;
  }

  if (f.num_vars() > 5) return std::nullopt;
  const auto* chain = five_input_chain(f.extend(5), tally);
  if (chain == nullptr) return std::nullopt;
  info.size = chain->size();
  info.depth = chain->depth();
  const auto depths = chain_input_depths(*chain);
  for (uint32_t v = 0; v < f.num_vars(); ++v) info.input_depths[v] = depths[v];
  bump(answered_, tally, &OracleTally::answered);
  return info;
}

ReplacementOracle::CacheStats ReplacementOracle::cache_stats() const {
  CacheStats stats;
  for (const auto& stripe : cache5_) {
    util::MutexLock lock(stripe.mutex);
    stats.entries += stripe.map.size();
    // mighty-lint: allow(nondeterministic-iteration): pure counting — every entry contributes commutatively to the tallies, so visit order cannot reach the result
    for (const auto& [key, entry] : stripe.map) {
      (void)key;
      if (entry.chain) {
        ++stats.successes;
      } else {
        ++stats.failures;
      }
      if (entry.dirty) ++stats.dirty;
    }
  }
  return stats;
}

ReplacementOracle::CacheLoadResult ReplacementOracle::load_cache(const std::string& path) {
  std::ifstream is(path);
  if (!is) return {CacheLoadStatus::missing, 0, 0};
  return load_cache_stream(is, path);
}

ReplacementOracle::CacheLoadResult ReplacementOracle::load_cache(std::istream& is) {
  // A stream has no on-disk identity, so the clean-skip bookkeeping below
  // can never claim "persisted at path X" for it.
  return load_cache_stream(is, std::string());
}

ReplacementOracle::CacheLoadResult ReplacementOracle::load_cache_stream(
    std::istream& is, const std::string& path) {
  // The whole file is read and validated before anything merges: a
  // corrupted, truncated or duplicate-carrying cache is rejected without
  // leaving a partially merged in-memory state behind.
  CacheFile file = read_cache_file(is, /*all_diagnostics=*/false);
  if (!file.report.ok()) return {CacheLoadStatus::malformed, 0, 0};
  const bool migrate = !file.class_keyed;

  std::vector<std::pair<uint64_t, CacheEntry>> parsed;  // by class, first-seen order
  parsed.reserve(file.records.size());
  std::unordered_map<uint64_t, size_t> class_index;
  for (auto& record : file.records) {
    // v2 content is by definition persisted.  v1 keyed raw functions: the
    // line is filed under its class, with the chain carried onto the
    // representative, and is not yet on disk in v2.
    CacheEntry entry{std::move(record.chain), record.budget, record.conflicts, migrate};
    if (migrate && entry.chain) {
      entry.chain = exact::apply_transform(*entry.chain, record.canon.transform);
    }
    const uint64_t key = record.canon.representative.bits();
    const auto [slot, fresh] = class_index.try_emplace(key, parsed.size());
    if (fresh) {
      parsed.emplace_back(key, std::move(entry));
    } else if (supersedes(entry, parsed[slot->second].second)) {
      parsed[slot->second].second = std::move(entry);
    }
  }

  CacheLoadResult result{CacheLoadStatus::loaded, file.records.size(), 0};
  for (auto& [key, disk] : parsed) {
    CacheStripe& stripe = stripe_for(key);
    util::MutexLock lock(stripe.mutex);
    const auto it = stripe.map.find(key);
    if (it == stripe.map.end()) {
      stripe.map.emplace(key, std::move(disk));
      ++result.adopted;
      continue;
    }
    if (supersedes(disk, it->second)) {
      it->second = std::move(disk);
      ++result.adopted;
    }
  }

  // Update what the clean-skip in save_cache may rely on.  Memory equals
  // the file exactly when every file entry was adopted and nothing else was
  // cached; a load that merely changed memory invalidates any previous
  // "path X holds this cache" claim, and a no-op load leaves it intact.
  size_t total = 0;
  for (auto& stripe : cache5_) {
    util::MutexLock lock(stripe.mutex);
    total += stripe.map.size();
  }
  {
    util::MutexLock lock(persist_mutex_);
    if (!path.empty() && !migrate && result.adopted == result.entries &&
        total == result.entries) {
      persisted_path_ = path;
    } else if (result.adopted > 0) {
      persisted_path_.clear();
    }
  }
  return result;
}

size_t ReplacementOracle::save_cache(const std::string& path) {
  // Snapshot under the stripe locks; entries sorted by representative so the
  // file contents are deterministic regardless of hashing or thread
  // interleaving.  The write itself is crash-safe (temp file + rename), so
  // a reader — or a crash — never sees a truncated cache.
  std::vector<std::pair<uint64_t, CacheEntry>> snapshot;
  size_t dirty = 0;
  for (auto& stripe : cache5_) {
    util::MutexLock lock(stripe.mutex);
    // mighty-lint: allow(nondeterministic-iteration): snapshot collection — the vector is sorted by key below, before anything order-sensitive reads it
    for (const auto& [key, entry] : stripe.map) {
      if (entry.dirty) ++dirty;
      snapshot.emplace_back(key, entry);
    }
  }
  // Dirty tracking: an autosave of a cache whose every entry already came
  // from (or went to) exactly this file must not rewrite it.  A different
  // target path always gets a write — its current contents are unknown and
  // skipping would silently keep a stale file there.
  {
    util::MutexLock lock(persist_mutex_);
    if (dirty == 0 && path == persisted_path_ && std::ifstream(path).good()) return 0;
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  util::write_file_atomically(path, [&snapshot](std::ostream& os) {
    os << kCacheMagic << ' ' << kCacheVersion << ' ' << snapshot.size() << '\n';
    for (const auto& [key, entry] : snapshot) {
      const auto f = tt::TruthTable(5, key);
      os << f.to_hex() << ' ' << (entry.chain ? "ok" : "fail") << ' '
         << entry.budget << ' ' << entry.conflicts;
      if (entry.chain) os << ' ' << entry.chain->to_string();
      os << '\n';
    }
  });

  // Only now — after the rename succeeded — mark what was written as clean.
  // Entries mutated since the snapshot keep their dirty bit because their
  // content no longer matches the snapshot's.
  for (auto& stripe : cache5_) {
    util::MutexLock lock(stripe.mutex);
    // mighty-lint: allow(nondeterministic-iteration): per-entry dirty-bit clear — each entry is judged against the sorted snapshot independently of every other
    for (auto& [key, entry] : stripe.map) {
      const auto it = std::lower_bound(
          snapshot.begin(), snapshot.end(), key,
          [](const auto& a, uint64_t k) { return a.first < k; });
      if (it != snapshot.end() && it->first == key && it->second.chain == entry.chain &&
          it->second.budget == entry.budget && it->second.conflicts == entry.conflicts) {
        entry.dirty = false;
      }
    }
  }
  {
    util::MutexLock lock(persist_mutex_);
    persisted_path_ = path;
  }
  return snapshot.size();
}

mig::Signal ReplacementOracle::instantiate(const tt::TruthTable& f, mig::Mig& mig,
                                           const std::vector<mig::Signal>& leaves,
                                           OracleTally* tally) {
  if (f.support_size() <= 4) {
    std::vector<uint32_t> old_vars;
    const auto g = f.shrink_to_support(old_vars).extend(4);
    std::vector<mig::Signal> mapped(4, mig.get_constant(false));
    for (uint32_t i = 0; i < old_vars.size(); ++i) {
      mapped[i] = leaves[old_vars[i]];
    }
    return db_.instantiate(g, mig, mapped);
  }
  const auto* chain = five_input_chain(f.extend(5), tally);
  if (chain == nullptr) {
    throw std::logic_error("instantiate called without a successful query");
  }
  return chain->instantiate(mig, leaves);
}

namespace {

/// `text` quoted for a diagnostic, cut short: a line of an untrusted file
/// can be arbitrarily long, and the report must not copy it whole.
std::string quoted(const std::string& text) {
  constexpr size_t kShown = 64;
  std::string out = "\"";
  out.append(text, 0, kShown);
  out += text.size() > kShown ? "...\"" : "\"";
  return out;
}

/// One line of read_cache_file: the record when the line holds no error,
/// with every finding added to `report`.
std::optional<CacheRecord> read_cache_line(const std::string& line, uint32_t line_number,
                                           bool class_keyed,
                                           std::unordered_set<uint64_t>& seen,
                                           check::CheckReport& report) {
  using check::Code;
  std::istringstream ls(line);
  std::string hex, status;
  CacheRecord record;
  const size_t findings = report.diagnostics.size();
  const auto flag = [&](Code code, std::string message) {
    report.add(code, line_number, std::move(message));
  };
  if (!(ls >> hex >> status >> record.budget >> record.conflicts)) {
    flag(Code::artifact_entry, "malformed line: " + quoted(line));
    return std::nullopt;
  }
  tt::TruthTable f(5);
  try {
    // 5-variable truth tables are exactly 8 hex digits; from_hex would
    // silently mask a longer string onto the wrong function.
    if (hex.size() != 8) throw std::invalid_argument("key length");
    f = tt::TruthTable::from_hex(5, hex);
  } catch (const std::exception&) {
    flag(Code::artifact_entry, "key must be 8 hex digits, got " + quoted(hex));
    return std::nullopt;
  }
  record.key = f.bits();
  if (!seen.insert(record.key).second) {
    flag(Code::artifact_entry, "duplicate key 0x" + hex);
  }
  record.canon = npn::canonize(f);
  // v2 keys are representatives; anything else would make lookups of the
  // class miss the line.
  if (class_keyed && !(record.canon.representative == f)) {
    flag(Code::artifact_not_canonical,
         "key 0x" + hex + " is not a class representative (canonizes to 0x" +
             record.canon.representative.to_hex() + ")");
  }

  if (status == "ok") {
    std::string rest;
    std::getline(ls, rest);
    try {
      record.chain = exact::MigChain::from_string(rest);
    } catch (const std::exception&) {
      flag(Code::artifact_entry, "unparsable chain for 0x" + hex);
      return std::nullopt;
    }
    if (record.chain->num_vars != 5 || !(record.chain->simulate() == f)) {
      flag(Code::artifact_entry, "chain does not realize key 0x" + hex);
      return std::nullopt;
    }
    // The line must be exactly the chain's canonical serialization, so the
    // file round-trips bit-identically.
    const auto start = rest.find_first_not_of(' ');
    if (start == std::string::npos || rest.substr(start) != record.chain->to_string()) {
      flag(Code::artifact_not_canonical,
           "chain for 0x" + hex + " is not in canonical serialization");
    }
  } else if (status == "fail") {
    std::string extra;
    if (ls >> extra) {
      flag(Code::artifact_entry, "trailing tokens after failure record for 0x" + hex);
    }
    // A failure is retried under any strictly larger budget, with -1 ranking
    // above every finite value; a budget below -1 would rank as -1 and freeze
    // the class unanswered for good.
    if (record.budget < -1) {
      flag(Code::artifact_budget, "failure for 0x" + hex + " recorded under budget " +
                                      std::to_string(record.budget) +
                                      " (must be -1 or >= 0)");
    }
  } else {
    flag(Code::artifact_entry, "unknown status " + quoted(status) + " for 0x" + hex);
  }
  if (report.diagnostics.size() != findings) return std::nullopt;
  return record;
}

}  // namespace

CacheFile read_cache_file(std::istream& is, bool all_diagnostics) {
  CacheFile file;
  std::string header;
  util::read_bounded_line(is, header);  // an over-long header fails to parse
  std::istringstream hs(header);
  std::string magic, version;
  size_t count = 0;
  if (!(hs >> magic >> version >> count) || magic != kCacheMagic ||
      (version != kCacheVersion && version != kCacheVersionV1)) {
    file.report.add(check::Code::artifact_header, 1, "bad header: " + quoted(header));
    return file;
  }
  file.class_keyed = version == kCacheVersion;
  // The header count is itself unvalidated input, so the reserve is clamped:
  // a garbage count must produce a diagnostic, not a petabyte reserve.
  file.records.reserve(std::min<size_t>(count, 1u << 16));

  std::unordered_set<uint64_t> seen;
  size_t lines = 0;
  std::string line;
  for (uint32_t line_number = 2;; ++line_number) {
    const util::LineRead read = util::read_bounded_line(is, line);
    if (read == util::LineRead::end) break;
    if (read == util::LineRead::too_long) {
      // The rest of the line is unread, so nothing after it can be judged.
      file.report.add(check::Code::artifact_entry, line_number,
                      "line longer than " + std::to_string(util::kMaxArtifactLine) +
                          " characters");
      return file;
    }
    if (line.empty()) continue;
    ++lines;
    auto record = read_cache_line(line, line_number, file.class_keyed, seen, file.report);
    if (record) {
      file.records.push_back(std::move(*record));
    } else if (!all_diagnostics) {
      return file;
    }
  }
  if (lines != count) {
    file.report.add(check::Code::artifact_header, 1,
                    "header promises " + std::to_string(count) + " entries, file has " +
                        std::to_string(lines));
  }
  return file;
}

}  // namespace mighty::opt

#include "flow/autotune.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>

#include "flow/batch.hpp"
#include "flow/session.hpp"
#include "util/clock.hpp"

namespace mighty::flow {

namespace {

// --- candidate representation ------------------------------------------------
//
// Mutations need structure (which '*' belongs to which group, where a group
// begins), so candidates live as a tiny AST mirroring the script grammar, and
// are rendered to script text for everything else: validation and
// canonicalization through Pipeline::parse, evaluation, reporting.

struct Item;
using Sequence = std::vector<Item>;

enum class Mod : uint8_t { once, repeat, converge };

struct Item {
  std::string word;  ///< leaf when non-empty ("TF", "size", "map4")
  Sequence body;     ///< group when non-empty
  Mod mod = Mod::once;
  uint32_t count = 0;  ///< repeat times / convergence round cap

  bool is_group() const { return word.empty(); }
};

/// Renders one candidate back to script text.  `cap` clamps every
/// convergence-round budget — the successive-halving rungs evaluate the same
/// structure under smaller budgets, so losers cost one round, not sixteen.
std::string render(const Sequence& sequence, uint32_t cap);

std::string render_item(const Item& item, uint32_t cap) {
  std::string out;
  if (item.is_group()) {
    // Built by append, not operator+: GCC 12's -Wrestrict misfires on the
    // `"(" + rvalue-string` overload (GCC PR105329).
    out += '(';
    out += render(item.body, cap);
    out += ')';
  } else {
    out = item.word;
    // A modifier on a bare word still round-trips without parentheses, but a
    // parenthesized single word is equally valid; keep words bare so the
    // canonical form matches what Pipeline::to_script emits.
  }
  switch (item.mod) {
    case Mod::once:
      break;
    case Mod::repeat:
      out += '*';
      out += std::to_string(item.count);
      break;
    case Mod::converge: {
      const uint32_t rounds = std::min(item.count, cap);
      out += '*';
      if (rounds != kDefaultConvergenceRounds) {
        out += '<';
        out += std::to_string(rounds);
      }
      break;
    }
  }
  return out;
}

std::string render(const Sequence& sequence, uint32_t cap) {
  std::string out;
  for (const auto& item : sequence) {
    if (!out.empty()) out += ";";
    out += render_item(item, cap);
  }
  return out;
}

size_t count_words(const Sequence& sequence) {
  size_t n = 0;
  for (const auto& item : sequence) {
    n += item.is_group() ? count_words(item.body) : 1;
  }
  return n;
}

/// Minimal recursive-descent parser from script text into the mutation AST.
/// Accepts exactly the candidate subset of the grammar: words, groups,
/// '*'-modifiers.
class AstParser {
public:
  explicit AstParser(const std::string& script) : script_(script) {}

  Sequence parse() {
    Sequence result = sequence();
    skip_space();
    if (pos_ < script_.size()) {
      throw std::invalid_argument("autotune seed script: unexpected '" +
                                  std::string(1, script_[pos_]) + "' in \"" +
                                  script_ + '"');
    }
    return result;
  }

private:
  void skip_space() {
    while (pos_ < script_.size() &&
           std::isspace(static_cast<unsigned char>(script_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_space();
    return pos_ < script_.size() ? script_[pos_] : '\0';
  }

  Sequence sequence() {
    Sequence result;
    while (true) {
      const char c = peek();
      if (c == '\0' || c == ')') break;
      if (c == ';') {
        ++pos_;
        continue;
      }
      result.push_back(item());
    }
    return result;
  }

  Item item() {
    Item result;
    if (peek() == '(') {
      ++pos_;
      result.body = sequence();
      if (peek() != ')') {
        throw std::invalid_argument("autotune seed script: missing ')' in \"" +
                                    script_ + '"');
      }
      ++pos_;
      if (result.body.empty()) {
        throw std::invalid_argument("autotune seed script: empty group in \"" +
                                    script_ + '"');
      }
    } else {
      result.word = word();
    }
    if (peek() == '*') {
      ++pos_;
      if (peek() == '<') {
        ++pos_;
        result.mod = Mod::converge;
        result.count = integer();
      } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
        result.mod = Mod::repeat;
        result.count = integer();
      } else {
        result.mod = Mod::converge;
        result.count = kDefaultConvergenceRounds;
      }
    }
    return result;
  }

  std::string word() {
    skip_space();
    std::string text;
    while (pos_ < script_.size() &&
           std::isalnum(static_cast<unsigned char>(script_[pos_]))) {
      text += static_cast<char>(
          std::tolower(static_cast<unsigned char>(script_[pos_])));
      ++pos_;
    }
    if (text.empty()) {
      throw std::invalid_argument("autotune seed script: expected a pass name in \"" +
                                  script_ + '"');
    }
    return text;
  }

  uint32_t integer() {
    // Mirrors the main grammar's integer(): consume every digit with a
    // saturating accumulator, then reject oversized counts outright — a
    // huge seed count must fail as "too large", not stop mid-number or wrap.
    constexpr uint64_t kMaxCount = 1'000'000;
    skip_space();
    uint64_t value = 0;
    size_t digits = 0;
    while (pos_ < script_.size() &&
           std::isdigit(static_cast<unsigned char>(script_[pos_]))) {
      if (value <= kMaxCount) {
        value = value * 10 + static_cast<uint64_t>(script_[pos_] - '0');
      }
      ++pos_;
      ++digits;
    }
    if (digits == 0) {
      throw std::invalid_argument("autotune seed script: expected a count in \"" +
                                  script_ + '"');
    }
    if (value > kMaxCount) {
      throw std::invalid_argument("autotune seed script: count too large in \"" +
                                  script_ + '"');
    }
    return static_cast<uint32_t>(value);
  }

  const std::string& script_;
  size_t pos_ = 0;
};

// --- mutation ----------------------------------------------------------------

/// Deterministic helper: r(n) below draws uniformly-enough from [0, n) with
/// identical results on every standard library (uniform_int_distribution is
/// implementation-defined, which would make the "same seed, same search"
/// guarantee compiler-dependent).
struct Rng {
  std::mt19937 engine;
  explicit Rng(uint32_t seed) : engine(seed) {}
  size_t operator()(size_t n) { return n == 0 ? 0 : engine() % n; }
};

/// Every sequence of a candidate, outermost first — the mutation sites.
void collect_sequences(Sequence& root, std::vector<Sequence*>& out) {
  out.push_back(&root);
  for (auto& item : root) {
    if (item.is_group()) collect_sequences(item.body, out);
  }
}

void collect_items(Sequence& root, std::vector<Item*>& out) {
  for (auto& item : root) {
    out.push_back(&item);
    if (item.is_group()) collect_items(item.body, out);
  }
}

/// Applies one structural mutation in place; returns false when the drawn
/// operator has no applicable site (the caller redraws).
bool mutate_once(Sequence& root, const std::vector<std::string>& vocabulary,
                 uint32_t max_words, uint32_t max_cap, Rng& rng) {
  std::vector<Sequence*> sequences;
  collect_sequences(root, sequences);
  std::vector<Item*> items;
  collect_items(root, items);

  switch (rng(6)) {
    case 0: {  // swap adjacent passes
      std::vector<Sequence*> sites;
      for (auto* seq : sequences) {
        if (seq->size() >= 2) sites.push_back(seq);
      }
      if (sites.empty()) return false;
      Sequence& seq = *sites[rng(sites.size())];
      const size_t i = rng(seq.size() - 1);
      std::swap(seq[i], seq[i + 1]);
      return true;
    }
    case 1: {  // bump/shrink a repeat count or convergence cap
      if (items.empty()) return false;
      Item& item = *items[rng(items.size())];
      const bool bump = rng(2) == 0;
      switch (item.mod) {
        case Mod::once:
          // An unmodified item is an implicit repeat of 1: bumping it makes
          // the "x*N" region of the grammar reachable.
          if (!bump) return false;
          item.mod = Mod::repeat;
          item.count = 2;
          return true;
        case Mod::repeat:
          // Repeats are exact work multipliers; keep them small, and fold
          // "x*1" back into the bare item.
          if (bump) {
            item.count = std::min(item.count + 1, 4u);
          } else if (--item.count <= 1) {
            item.mod = Mod::once;
            item.count = 0;
          }
          return true;
        case Mod::converge:
          // Caps above the full budget would be clamped away at render time;
          // bumping past max_cap only manufactures duplicates.
          item.count = bump ? std::min(item.count * 2, max_cap)
                            : std::max(item.count / 2, 1u);
          return true;
      }
      return false;
    }
    case 2: {  // wrap a span in a "(...)*" convergence group
      if (count_words(root) >= max_words) return false;  // groups invite growth
      Sequence& seq = *sequences[rng(sequences.size())];
      if (seq.empty()) return false;
      const size_t begin = rng(seq.size());
      const size_t len = 1 + rng(seq.size() - begin);
      Item group;
      group.mod = Mod::converge;
      group.count = max_cap;
      group.body.assign(seq.begin() + static_cast<long>(begin),
                        seq.begin() + static_cast<long>(begin + len));
      seq.erase(seq.begin() + static_cast<long>(begin),
                seq.begin() + static_cast<long>(begin + len));
      seq.insert(seq.begin() + static_cast<long>(begin), std::move(group));
      return true;
    }
    case 3: {  // unwrap a group (drop its modifier, splice the body)
      std::vector<std::pair<Sequence*, size_t>> sites;
      for (auto* seq : sequences) {
        for (size_t i = 0; i < seq->size(); ++i) {
          if ((*seq)[i].is_group()) sites.emplace_back(seq, i);
        }
      }
      if (sites.empty()) return false;
      auto [seq, index] = sites[rng(sites.size())];
      Sequence body = std::move((*seq)[index].body);
      seq->erase(seq->begin() + static_cast<long>(index));
      seq->insert(seq->begin() + static_cast<long>(index),
                  std::make_move_iterator(body.begin()),
                  std::make_move_iterator(body.end()));
      return true;
    }
    case 4: {  // replace a pass word
      std::vector<Item*> sites;
      for (auto* item : items) {
        if (!item->is_group()) sites.push_back(item);
      }
      if (sites.empty()) return false;
      Item& item = *sites[rng(sites.size())];
      const std::string& word = vocabulary[rng(vocabulary.size())];
      if (word == item.word) return false;
      item.word = word;
      return true;
    }
    default: {  // insert or delete a pass word
      if (rng(2) == 0 && count_words(root) < max_words) {
        Sequence& seq = *sequences[rng(sequences.size())];
        Item item;
        item.word = vocabulary[rng(vocabulary.size())];
        seq.insert(seq.begin() + static_cast<long>(rng(seq.size() + 1)),
                   std::move(item));
        return true;
      }
      if (count_words(root) <= 1 || items.empty()) return false;
      std::vector<std::pair<Sequence*, size_t>> sites;
      for (auto* seq : sequences) {
        for (size_t i = 0; i < seq->size(); ++i) sites.emplace_back(seq, i);
      }
      auto [seq, index] = sites[rng(sites.size())];
      seq->erase(seq->begin() + static_cast<long>(index));
      // Dropping a group's last sibling may leave an empty group upstream;
      // prune those so the render always parses.
      std::function<void(Sequence&)> prune = [&](Sequence& s) {
        for (auto& item : s) {
          if (item.is_group()) prune(item.body);
        }
        s.erase(std::remove_if(s.begin(), s.end(),
                               [](const Item& item) {
                                 return item.is_group() && item.body.empty();
                               }),
                s.end());
      };
      prune(root);
      return count_words(root) >= 1;
    }
  }
}

// --- evaluation --------------------------------------------------------------

struct Evaluation {
  uint32_t size = 0;
  uint64_t depth = 0;
  uint64_t objective = 0;
  double seconds = 0.0;
  bool failed = false;
};

uint64_t objective_value(Objective objective, const BatchReport& batch) {
  switch (objective) {
    case Objective::size:
      return batch.size_after;
    case Objective::depth:
      return batch.depth_after;
    case Objective::product: {
      uint64_t total = 0;
      for (const auto& network : batch.networks) {
        total += static_cast<uint64_t>(network.flow.size_after) *
                 network.flow.depth_after;
      }
      return total;
    }
  }
  return 0;
}

struct Candidate {
  Sequence ast;
  std::string canonical;  ///< Pipeline::parse(render).to_script()
};

}  // namespace

// --- objective names ---------------------------------------------------------

Objective parse_objective(const std::string& name) {
  std::string lower;
  for (const char c : name) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "size") return Objective::size;
  if (lower == "depth") return Objective::depth;
  if (lower == "product" || lower == "size*depth") return Objective::product;
  throw std::invalid_argument("unknown autotune objective \"" + name +
                              "\" (size, depth, product)");
}

const char* objective_name(Objective objective) {
  switch (objective) {
    case Objective::size:
      return "size";
    case Objective::depth:
      return "depth";
    case Objective::product:
      return "product";
  }
  return "?";
}

// --- TuneReport --------------------------------------------------------------

const TuneEntry& TuneReport::best() const {
  return evaluated.empty() ? baseline : evaluated.front();
}

std::vector<TuneEntry> TuneReport::pareto_front() const {
  std::vector<TuneEntry> front;
  for (const auto& entry : evaluated) {
    if (entry.pareto) front.push_back(entry);
  }
  return front;
}

std::string TuneReport::summary() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-8s %8s %7s %12s %8s  %s\n", "", "size",
                "depth", "objective", "time[s]", "script");
  out += line;
  for (const auto& entry : evaluated) {
    std::snprintf(line, sizeof(line), "%-8s %8u %7llu %12llu %8.2f  %s\n",
                  entry.pareto ? "pareto" : "", entry.size,
                  static_cast<unsigned long long>(entry.depth),
                  static_cast<unsigned long long>(entry.objective), entry.seconds,
                  entry.script.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-8s %8u %7llu %12llu %8.2f  %s\n", "baseline",
                baseline.size, static_cast<unsigned long long>(baseline.depth),
                static_cast<unsigned long long>(baseline.objective),
                baseline.seconds, baseline.script.c_str());
  out += line;
  const TuneEntry& winner = best();
  const double gain =
      baseline.objective == 0
          ? 0.0
          : 100.0 * (1.0 - static_cast<double>(winner.objective) /
                               static_cast<double>(baseline.objective));
  std::snprintf(line, sizeof(line),
                "best: %s (objective %llu, %+.1f%% vs baseline)\n"
                "search: %zu candidates, %zu duplicates pruned, %zu invalid, "
                "%zu evaluations, %.2fs\n",
                winner.script.c_str(),
                static_cast<unsigned long long>(winner.objective), gain,
                candidates_generated, duplicates_pruned, invalid_rejected,
                evaluations, seconds);
  out += line;
  return out;
}

// --- Autotuner ---------------------------------------------------------------

Autotuner::Autotuner(Session& session, TuneParams params)
    : session_(session), params_(std::move(params)) {}

Pipeline Autotuner::tune(const mig::Mig& network, TuneReport* report) {
  Corpus corpus;
  corpus.add("network", network);
  return tune(corpus, report);
}

Pipeline Autotuner::tune(const Corpus& corpus, TuneReport* report) {
  if (corpus.empty()) {
    throw std::invalid_argument("autotune needs a non-empty corpus");
  }
  if (params_.population == 0) {
    throw std::invalid_argument("autotune population must be at least 1");
  }
  if (params_.full_round_cap == 0) {
    throw std::invalid_argument("autotune round cap must be at least 1");
  }

  TuneReport local;
  TuneReport& out = report != nullptr ? (*report = TuneReport{}, *report) : local;
  const auto search_start = util::Clock::now();

  std::vector<std::string> vocabulary = params_.vocabulary;
  if (vocabulary.empty()) {
    vocabulary = {"TF", "TFD", "BF", "BFD", "size", "depth"};
    if (params_.five_input_words) {
      for (const char* word : {"TF5", "TFD5", "BF5", "BFD5"}) {
        vocabulary.push_back(word);
      }
    }
  }
  for (auto& word : vocabulary) {
    Pipeline::parse(word);  // throws with the offending word on a bad vocabulary
    // AST words are stored lowercase (the grammar is case-insensitive);
    // vocabulary words must match, or the replace-mutation's no-op guard
    // ("drew the item's own word") never fires.
    for (auto& c : word) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }

  std::vector<std::string> seeds = params_.seed_scripts;
  if (seeds.empty()) {
    // The paper's flows: the default baseline, its unrolled prefix form, a
    // depth-first warmup, the depth-preserving dual and a cheap two-pass —
    // diverse enough that first-generation mutants cover order, grouping and
    // budget changes.
    seeds = {kBaselineScript, "TF;(BFD;size)*", "depth;(TF;size)*", "(TFD;size)*",
             "BF;size"};
  } else {
    // The baseline is always part of the search: it is the bar to beat and
    // the fallback winner.
    if (std::find(seeds.begin(), seeds.end(), kBaselineScript) == seeds.end()) {
      seeds.insert(seeds.begin(), kBaselineScript);
    }
  }

  // Canonicalize one candidate script: parse into the engine's structure and
  // re-emit.  Throws on scripts the grammar rejects.
  const auto canonicalize = [](const std::string& script) {
    const Pipeline pipeline = Pipeline::parse(script);
    if (pipeline.empty()) {
      throw std::invalid_argument("autotune candidate is empty: " + script);
    }
    return pipeline.to_script();
  };

  // One batch evaluation of `script`, memoized on the script text alone —
  // the rung budget is already baked into the rendered caps, so a candidate
  // without convergence groups costs one evaluation across all rungs.  The
  // memo makes re-encounters free *and* keeps the search deterministic: a
  // cached result is bit-identical to a fresh one, so hitting the memo can
  // never change a selection.
  std::map<std::string, Evaluation> memo;
  const auto evaluate = [&](const std::string& script) -> const Evaluation& {
    auto it = memo.find(script);
    if (it != memo.end()) return it->second;
    Evaluation eval;
    BatchReport batch;
    try {
      BatchRunner(session_).run(corpus, Pipeline::parse(script), &batch);
      if (batch.failures() > 0) {
        eval.failed = true;
      } else {
        eval.size = batch.size_after;
        eval.depth = batch.depth_after;
        eval.objective = objective_value(params_.objective, batch);
        eval.seconds = batch.seconds;
      }
    } catch (const std::exception&) {
      eval.failed = true;
    }
    ++out.evaluations;
    return memo.emplace(script, std::move(eval)).first->second;
  };

  // Budget ladder for successive halving: losers get one convergence round,
  // the middle rung a few, and only graduates pay the full budget.
  std::vector<uint32_t> ladder;
  for (const uint32_t cap : {1u, 4u}) {
    if (cap < params_.full_round_cap) ladder.push_back(cap);
  }
  ladder.push_back(params_.full_round_cap);

  Rng rng(params_.seed);
  std::set<std::string> seen;            // canonical forms ever pooled
  std::map<std::string, TuneEntry> graduated;  // canonical -> full-budget entry

  // Record one full-budget evaluation as a report entry.
  const auto graduate = [&](const Candidate& candidate) {
    if (graduated.count(candidate.canonical) > 0) return;
    const Evaluation& eval = evaluate(candidate.canonical);
    if (eval.failed) {
      ++out.invalid_rejected;
      return;
    }
    TuneEntry entry;
    entry.script = candidate.canonical;
    entry.size = eval.size;
    entry.depth = eval.depth;
    entry.objective = eval.objective;
    entry.seconds = eval.seconds;
    graduated.emplace(candidate.canonical, std::move(entry));
  };

  // Seed pool.
  std::vector<Candidate> pool;
  for (const auto& seed : seeds) {
    Candidate candidate;
    Pipeline::parse(seed);  // a bad seed fails with the grammar's own error
    candidate.ast = AstParser(seed).parse();
    candidate.canonical = canonicalize(render(candidate.ast, params_.full_round_cap));
    if (!seen.insert(candidate.canonical).second) continue;
    ++out.candidates_generated;
    pool.push_back(std::move(candidate));
  }

  // The baseline always graduates, even if a rung would prune it — the
  // report's bar to beat must exist.
  {
    Candidate baseline;
    baseline.ast = AstParser(kBaselineScript).parse();
    // Rendered under the same full-budget clamp as every candidate: with a
    // non-default full_round_cap the bar to beat must run the same number of
    // convergence rounds the winners are allowed, or the comparison (and the
    // bench's "strictly beats baseline" gate) would use unequal budgets.
    baseline.canonical = canonicalize(render(baseline.ast, params_.full_round_cap));
    graduate(baseline);
    const auto it = graduated.find(baseline.canonical);
    if (it == graduated.end()) {
      throw std::runtime_error("autotune baseline failed to evaluate on this corpus");
    }
    out.baseline = it->second;
  }

  const size_t parents = std::max<size_t>(2, params_.population / 4);
  for (uint32_t generation = 0;; ++generation) {
    // Grow the pool to `population` with mutants of the current members
    // (generation 0 mutates the seeds).
    const std::vector<Candidate> basis = pool;
    size_t attempts = 0;
    const size_t max_attempts = 20u * params_.population + 100u;
    while (pool.size() < params_.population && !basis.empty() &&
           attempts < max_attempts) {
      ++attempts;
      Candidate mutant = basis[rng(basis.size())];
      if (!mutate_once(mutant.ast, vocabulary, params_.max_words,
                       params_.full_round_cap, rng)) {
        continue;
      }
      std::string canonical;
      try {
        canonical = canonicalize(render(mutant.ast, params_.full_round_cap));
      } catch (const std::invalid_argument&) {
        ++out.invalid_rejected;
        continue;
      }
      if (!seen.insert(canonical).second) {
        ++out.duplicates_pruned;
        continue;
      }
      mutant.canonical = std::move(canonical);
      ++out.candidates_generated;
      pool.push_back(std::move(mutant));
    }

    // Successive halving over the budget ladder: evaluate everyone under the
    // rung's cap, keep the better half (ties break on the canonical script,
    // so selection is deterministic), graduate whoever survives the last rung.
    for (size_t rung = 0; rung < ladder.size(); ++rung) {
      const uint32_t cap = ladder[rung];
      std::vector<std::pair<std::pair<uint64_t, std::string>, size_t>> ranked;
      for (size_t i = 0; i < pool.size(); ++i) {
        const std::string budgeted =
            rung + 1 == ladder.size()
                ? pool[i].canonical
                : canonicalize(render(pool[i].ast, cap));
        const Evaluation& eval = evaluate(budgeted);
        if (eval.failed) {
          ++out.invalid_rejected;
          continue;
        }
        ranked.push_back({{eval.objective, pool[i].canonical}, i});
      }
      std::sort(ranked.begin(), ranked.end());
      const size_t keep = rung + 1 == ladder.size()
                              ? ranked.size()
                              : std::max<size_t>(parents, (ranked.size() + 1) / 2);
      std::vector<Candidate> survivors;
      for (size_t i = 0; i < ranked.size() && i < keep; ++i) {
        survivors.push_back(std::move(pool[ranked[i].second]));
      }
      pool = std::move(survivors);
    }
    for (const auto& candidate : pool) graduate(candidate);

    if (generation >= params_.generations) break;

    // Parents of the next generation: the best graduates so far.
    std::vector<const TuneEntry*> entries;
    entries.reserve(graduated.size());
    for (const auto& [script, entry] : graduated) entries.push_back(&entry);
    std::sort(entries.begin(), entries.end(),
              [](const TuneEntry* a, const TuneEntry* b) {
                return std::make_pair(a->objective, a->script) <
                       std::make_pair(b->objective, b->script);
              });
    pool.clear();
    for (size_t i = 0; i < entries.size() && i < parents; ++i) {
      Candidate parent;
      parent.ast = AstParser(entries[i]->script).parse();
      parent.canonical = entries[i]->script;
      pool.push_back(std::move(parent));
    }
  }

  // Report: every graduate, best objective first; Pareto flags on (size,
  // depth) — wall time is informative, never a dominance criterion.
  out.evaluated.reserve(graduated.size());
  for (auto& [script, entry] : graduated) out.evaluated.push_back(entry);
  std::sort(out.evaluated.begin(), out.evaluated.end(),
            [](const TuneEntry& a, const TuneEntry& b) {
              return std::make_pair(a.objective, a.script) <
                     std::make_pair(b.objective, b.script);
            });
  for (auto& entry : out.evaluated) {
    entry.pareto = true;
    for (const auto& other : out.evaluated) {
      const bool leq = other.size <= entry.size && other.depth <= entry.depth;
      const bool strict = other.size < entry.size || other.depth < entry.depth;
      if (leq && strict) {
        entry.pareto = false;
        break;
      }
    }
    // The baseline entry was copied out before the flags existed; keep the
    // copy's pareto field in sync with its twin in `evaluated`.
    if (entry.script == out.baseline.script) out.baseline.pareto = entry.pareto;
  }
  out.seconds = util::seconds_since(search_start);
  return Pipeline::parse(out.best().script);
}

}  // namespace mighty::flow

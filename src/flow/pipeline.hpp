#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "flow/pass.hpp"

/// \file pipeline.hpp
/// \brief Composition of passes into optimization flows.
///
/// A Pipeline is an ordered sequence of passes with combinators for the
/// iterated and interleaved flows behind the paper's best results (Sec. V-C:
/// "running it several times or combining it with other optimization ...
/// algorithms will likely lead to further improvements"):
///
///   flow::Session session;
///   auto flow = flow::Pipeline()
///                   .rewrite("TF")
///                   .then(flow::Pipeline().rewrite("BFD").size_opt()
///                             .until_convergence())
///                   .lut_map();
///   flow::FlowReport report;
///   auto optimized = flow.run(mig, session, &report);
///
/// The same flow as a script, for CLIs and shells:
///
///   auto flow = flow::Pipeline::parse("TF; (BFD; size)*; map");
///
/// Script grammar (case-insensitive; whitespace between tokens is ignored):
///   sequence := item (';' item)*
///   item     := atom ['*' count             -- repeat n times
///                    | '*' '<' count        -- to convergence, round cap
///                    | '*']                 -- to convergence, default cap
///   atom     := '(' sequence ')' | word
///   word     := T|TD|TF|TFD|B|BD|BF|BFD     -- functional-hashing variants
///             | variant '5'                 -- 5-input-cut extension (TF5, ...)
///             | size | depth                -- algebraic optimization
///             | map[k]                      -- k-LUT mapping, default k=6
///             | check                       -- full invariant validation

namespace mighty::flow {

struct RunControl;

/// Round cap until_convergence() applies when none is given; the bare "x*"
/// script form maps to exactly this value.
inline constexpr uint32_t kDefaultConvergenceRounds = 16;

class Pipeline {
public:
  Pipeline() = default;
  Pipeline(const Pipeline& other);
  Pipeline& operator=(const Pipeline& other);
  Pipeline(Pipeline&&) noexcept = default;
  Pipeline& operator=(Pipeline&&) noexcept = default;

  // --- building --------------------------------------------------------------

  /// Appends an arbitrary pass; returns *this for chaining.
  Pipeline& add(std::unique_ptr<Pass> pass);
  /// Appends a copy of every pass of `other`.
  Pipeline& then(const Pipeline& other);
  /// Appends a functional-hashing pass by paper acronym ("TF", "bfd", ...).
  Pipeline& rewrite(const std::string& variant);
  /// Appends algebraic size optimization.
  Pipeline& size_opt(const algebra::SizeOptParams& params = {});
  /// Appends algebraic depth optimization.
  Pipeline& depth_opt(const algebra::DepthOptParams& params = {});
  /// Appends a k-LUT mapping (analysis) pass.
  Pipeline& lut_map(const map::MapParams& params = {});
  /// Appends a "check" pass: full invariant validation of the current
  /// network (check::validate_at full level, regardless of the session's
  /// check level), throwing std::logic_error on the first violation.
  Pipeline& check();

  // --- combinators (value semantics; *this is not modified) ------------------

  /// The whole pipeline as one unit, executed `times` times.
  Pipeline repeat(uint32_t times) const;

  /// The whole pipeline as one unit, executed until a round fails to improve
  /// the network (or `max_rounds` is reached).  A round improves when it
  /// reduces (live gates, depth) lexicographically — so size-oriented and
  /// depth-oriented bodies both converge.  The non-improving final round is
  /// rolled back: its output and its trajectory entries are discarded, and
  /// the best network seen is returned.  Terminates by strict improvement.
  Pipeline until_convergence(uint32_t max_rounds = kDefaultConvergenceRounds) const;

  /// Round-robin interleaving: the first pass of every phase, then the second
  /// of every phase, and so on (phases shorter than the longest simply drop
  /// out).  With single-pass phases this is plain concatenation — combine
  /// with repeat()/until_convergence() for alternating rounds.
  static Pipeline interleave(std::initializer_list<Pipeline> phases);
  static Pipeline interleave(const std::vector<Pipeline>& phases);

  /// Parses the flow-script grammar above.  Throws std::invalid_argument
  /// with the offending token on malformed scripts.
  static Pipeline parse(const std::string& script);

  // --- execution -------------------------------------------------------------

  /// Runs every pass in order.  When `report` is given it is reset and filled
  /// with the per-pass trajectory, whole-flow totals and the oracle counters
  /// accumulated during this run.  When `control` is given, cancellation and
  /// the node/wall/conflict budgets are enforced at every pass boundary (any
  /// nesting depth); a violation throws api::Error with the matching code
  /// (cancelled, node_budget_exceeded, wall_budget_exceeded,
  /// conflict_budget_exceeded).  `control` must outlive the call.
  mig::Mig run(const mig::Mig& mig, Session& session,
               FlowReport* report = nullptr,
               const RunControl* control = nullptr) const;

  /// Executes the passes appending their trajectory entries to `report`
  /// without touching its totals — the building block of composite passes
  /// (repeat, until_convergence).  Most callers want run().
  mig::Mig run_into(const mig::Mig& mig, Session& session,
                    FlowReport& report) const;

  /// Runs pass `i`, then the run control riding on `report` and the
  /// session's between-pass invariant check (std::logic_error naming the
  /// pass) — for run_into and the batch runner's per-pass tasks alike.
  mig::Mig run_pass(size_t i, const mig::Mig& mig, Session& session,
                    FlowReport& report) const;

  // --- inspection ------------------------------------------------------------

  size_t num_passes() const { return passes_.size(); }
  bool empty() const { return passes_.empty(); }
  const Pass& pass(size_t i) const { return *passes_[i]; }

  /// True when any pass (at any nesting depth) may query the session oracle.
  bool uses_oracle() const;

  /// Canonical script form; parse(p.to_script()) is structurally identical
  /// to p (the round trip is what deduplication, reporting and reproducing a
  /// tuned flow rely on — see autotune.hpp).
  std::string to_script() const;
  /// Alias of to_script(), kept for symmetry with the standard conversion
  /// idiom.
  std::string to_string() const { return to_script(); }

private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

}  // namespace mighty::flow

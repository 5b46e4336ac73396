#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

/// \file trace.hpp
/// \brief In-memory spans around the benchmark's calls into each layer.
///
/// A span records name, start, end, the span that was open on the same
/// thread when it began (its parent) and a job id shared by the spans of one
/// job.  Spans live in memory until the run ends and are then written as
/// Chrome trace_event JSON (chrome://tracing, Perfetto).  A disabled tracer
/// records nothing and costs one branch per span.  An enabled one also sums
/// the time its callers spend inside span() and end(), so a run can state
/// what tracing cost it without a second, untraced run.

namespace perfbench {

class Tracer {
public:
  struct Record {
    std::string name;
    double start = 0.0;  ///< seconds, steady clock
    double end = 0.0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
    uint64_t job = 0;
    uint32_t thread = 0;  ///< small per-thread number, stable within a run
  };

  /// Ends its span on destruction (or at an explicit end()).
  class Span {
  public:
    Span() = default;
    Span(Tracer* tracer, int64_t index) : tracer_(tracer), index_(index) {}
    Span(Span&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }

    void end();

  private:
    Tracer* tracer_ = nullptr;
    int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread still has open.
  Span span(const std::string& name, uint64_t job = 0);

  /// Snapshot of every span recorded so far (open spans have end == start).
  std::vector<Record> records() const;

  /// Sum of the durations of every closed span called `name`.
  double total_seconds(const std::string& name) const;
  /// Durations of every closed span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Seconds spent inside span() and Span::end() so far, summed over threads.
  double self_seconds() const { return static_cast<double>(self_ns_.load()) * 1e-9; }

  /// Chrome trace_event JSON ("X" complete events, microseconds relative to
  /// the first span; parent and job in each event's args).
  void write_chrome_json(std::ostream& os) const;

private:
  void finish(int64_t index);
  void charge(double since);


  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
  std::vector<bool> closed_;     // guarded by mutex_
  std::atomic<int64_t> self_ns_{0};
};

}  // namespace perfbench

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

/// \file thread_pool.hpp
/// \brief A small work-sharing thread pool for region-parallel passes and for
/// the two-level batch scheduler.
///
/// Two primitives share one set of workers and one FIFO task queue:
///
///  * parallel_for: run fn(i) for every i in [0, count), distributing indices
///    dynamically over the workers and the calling thread, which also evens
///    out uneven task sizes (one task per fanout-free region in the FFR
///    passes).  Dynamic distribution is safe for those passes because every
///    task writes only to slots it owns — results are a pure function of the
///    task index, never of the schedule — which is what makes `--threads N`
///    bit-identical to `--threads 1`.
///
///  * TaskGroup: submit independent tasks (the batch runner's (network, pass)
///    units) and wait for all of them; a task may submit follow-up tasks into
///    its own group, so a chain of dependent passes is expressed as a task
///    that enqueues its successor.  wait() participates in draining the
///    queue, so the caller is a worker too.
///
/// The two levels compose: a TaskGroup task may call parallel_for on the same
/// pool (its inner region fan-out); the caller of parallel_for always drains
/// its own job, so completion never depends on idle workers being available.
///
/// A pool of parallelism 1 has no worker threads at all; parallel_for then
/// degenerates to an inline loop and TaskGroup::submit runs tasks
/// immediately, in submission order.
///
/// Locking contract (machine-checked; see docs/concurrency.md): the pool's
/// queue and stop flag are guarded by `mutex_` (rank pool_queue), each
/// parallel_for call's error slot by its ForJob's own mutex (rank
/// pool_for_job), and a TaskGroup's pending/error state by the pool's mutex
/// through the group's back-pointer.  No pool code path acquires another
/// tracked lock while holding either rank — tasks always run with the queue
/// mutex dropped.

namespace mighty::util {

class ThreadPool {
public:
  /// Hard cap on pool width: the region-parallel passes stop profiting far
  /// earlier, and an absurd request must not try to spawn thousands of OS
  /// threads.
  static constexpr uint32_t kMaxParallelism = 256;

  /// `parallelism` counts the calling thread: a pool of parallelism N spawns
  /// N-1 workers.  0 is treated as 1; values above kMaxParallelism clamp.
  explicit ThreadPool(uint32_t parallelism);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism including the calling thread.
  uint32_t parallelism() const { return static_cast<uint32_t>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, count); returns when all invocations have
  /// finished.  The first exception thrown by any invocation is rethrown on
  /// the caller once in-flight items complete (items not yet started are
  /// skipped).  May be called from inside a TaskGroup task or another
  /// parallel_for item on the same pool: each job is independent and the
  /// caller drains its own job, so nesting cannot deadlock.
  void parallel_for(size_t count, const std::function<void(size_t)>& fn);

  /// A set of independently scheduled tasks with a completion barrier: the
  /// unit the batch runner schedules is one (network, pass) task, and each
  /// task submits its network's next pass into the same group.  Tasks may run
  /// on any worker or on the thread calling wait().
  class TaskGroup {
  public:
    explicit TaskGroup(ThreadPool& pool);
    /// Waits for outstanding tasks; a pending task exception is dropped here
    /// (destructors must not throw) — call wait() to observe it.
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Enqueues a task.  Safe to call from inside a running task of the same
    /// group (the chain-scheduling case).  On a single-threaded pool the task
    /// runs inline before submit returns.
    void submit(std::function<void()> task);

    /// Blocks until every submitted task (including transitively submitted
    /// ones) has finished, helping to drain the pool's queue meanwhile.
    /// Rethrows the first exception that escaped a task.
    void wait();

  private:
    /// Group state shared with the wrapper closures still in the queue.  The
    /// guarding mutex lives in the pool, reached through `pool` — the
    /// annotations spell that path out, and the access sites pin the alias
    /// with Mutex::assert_held() (the analysis cannot prove on its own that
    /// `pool_.mutex_` and `state_->pool->mutex_` are one object).
    struct State {
      ThreadPool* pool = nullptr;
      size_t pending MIGHTY_GUARDED_BY(pool->mutex_) = 0;
      std::exception_ptr error MIGHTY_GUARDED_BY(pool->mutex_);
    };

    ThreadPool& pool_;
    std::shared_ptr<State> state_;
  };

private:
  /// Shared state of one parallel_for call.  Index claiming is a single
  /// fetch_add, so an index is either run by exactly one drainer or skipped
  /// after an error; `finished` counts both and completion is exactly
  /// `finished == count` — no claim/accounting race window.  The per-item
  /// path is two relaxed atomic increments; the mutex is touched only to
  /// record an error and to publish completion.
  struct ForJob {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> finished{0};
    std::atomic<bool> failed{false};
    Mutex mutex{LockRank::pool_for_job};
    CondVar done;
    std::exception_ptr error MIGHTY_GUARDED_BY(mutex);
  };

  static void drain(ForJob& job);
  void enqueue(std::vector<std::function<void()>> tasks);
  void worker_loop();

  std::vector<std::thread> workers_;

  Mutex mutex_{LockRank::pool_queue};
  /// Queue activity and group completion share one condition variable:
  /// workers wake on stop/queue-non-empty, group waiters additionally on
  /// pending reaching zero.  notify_all keeps the predicates honest.
  CondVar wake_;
  std::deque<std::function<void()>> queue_ MIGHTY_GUARDED_BY(mutex_);
  bool stop_ MIGHTY_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for every i in [0, count): on `pool` when there is one, else
/// inline in index order.  The region-parallel passes take an optional pool; this is
/// their single "pool or loop" branch.
inline void parallel_for(ThreadPool* pool, size_t count,
                         const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(count, fn);
  } else {
    for (size_t i = 0; i < count; ++i) fn(i);
  }
}

}  // namespace mighty::util

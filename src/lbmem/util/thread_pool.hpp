#pragma once
/// \file thread_pool.hpp
/// \brief Reusable work-queue thread pool behind the scenario sweep's
/// `threads` knob (DESIGN.md F20): `parallel_for(count, body)` runs body(i)
/// for every i in [0, count) across the pool's workers plus the calling
/// thread, and blocks until every index completed.
///
/// The pool is an execution accelerator, never a semantics knob: callers
/// own determinism by construction — each index writes its own pre-sized
/// slot and reads only shared-immutable state, so any schedule of the
/// indices produces the same result, and every reduction over the slots
/// happens on the calling thread afterwards, in index order.
///
/// Indices are claimed from a single atomic counter (dynamic
/// load-balancing: a worker stuck on an expensive index never strands
/// cheap ones behind it). With `threads <= 1`, zero workers are spawned
/// and parallel_for degenerates to an inline loop on the caller — the
/// serial fallback costs no synchronization at all.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lbmem {

class ThreadPool {
 public:
  /// Spawns `resolve(threads) - 1` workers (the calling thread is the
  /// remaining member of the team).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Team size including the calling thread (>= 1).
  int thread_count() const { return thread_count_; }

  /// Run body(i) for every i in [0, count); returns once all completed.
  /// The first exception thrown by any invocation is rethrown here (the
  /// remaining indices still run — slots stay fully written). Must not be
  /// called from inside another parallel_for on the same pool.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

  /// std::thread::hardware_concurrency(), clamped to >= 1 (the standard
  /// allows 0 for "unknown").
  static int hardware_threads();

  /// The `threads` knob contract: 0 (and any negative value) resolves to
  /// hardware_threads(), anything else is taken literally.
  static int resolve(int threads);

 private:
  void worker_loop();
  /// Wake every worker with stop_ set and join it.
  void stop_workers();
  /// Claim and run indices of the current job; records the first error.
  void drain(const std::function<void(std::size_t)>& body, std::size_t count);

  int thread_count_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;  // workers wait here between jobs
  std::condition_variable done_cv_;   // the caller waits here per job
  std::uint64_t job_ = 0;             // generation counter; bumps per job
  bool stop_ = false;
  std::size_t count_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t active_workers_ = 0;  // workers still inside the current job
  std::exception_ptr error_;
  std::atomic<std::size_t> next_{0};  // next unclaimed index
};

}  // namespace lbmem

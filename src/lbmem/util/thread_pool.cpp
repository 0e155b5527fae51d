#include "lbmem/util/thread_pool.hpp"

#include <algorithm>

#include "lbmem/util/check.hpp"

namespace lbmem {

int ThreadPool::hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ThreadPool::resolve(int threads) {
  return threads <= 0 ? hardware_threads() : threads;
}

ThreadPool::ThreadPool(int threads) : thread_count_(resolve(threads)) {
  workers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
  try {
    for (int i = 1; i < thread_count_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A failed spawn (e.g. at the system's thread limit) must not leave the
    // started workers waiting on members that are about to be destroyed.
    stop_workers();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::drain(const std::function<void(std::size_t)>& body,
                       std::size_t count) {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || job_ != seen; });
      if (stop_) return;
      seen = job_;
      body = body_;
      count = count_;
    }
    drain(*body, count);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty() || count == 1) {
    // Serial fallback: no job setup, no synchronization.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LBMEM_REQUIRE(body_ == nullptr,
                  "parallel_for is not reentrant on the same pool");
    body_ = &body;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);
    active_workers_ = workers_.size();
    ++job_;
  }
  start_cv_.notify_all();
  drain(body, count);  // the caller is part of the team
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return active_workers_ == 0; });
    body_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace lbmem

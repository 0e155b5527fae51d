/// The work-queue pool behind the `threads` knob (DESIGN.md F20):
/// parallel_for must run every index exactly once, propagate exceptions,
/// stay reusable across jobs, and degenerate to an inline loop when the
/// team is a single thread.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "lbmem/util/thread_pool.hpp"

namespace lbmem {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4);
  constexpr std::size_t kCount = 10'000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int job = 0; job < 50; ++job) {
    pool.parallel_for(17, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 50 * 17);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  // threads=1 spawns no workers: the body observes the caller's thread.
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  pool.parallel_for(seen.size(),
                    [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, EmptyRangeReturnsImmediately) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // The remaining indices still ran (slots stay fully written), and the
  // pool is reusable after the failed job.
  EXPECT_EQ(completed.load(), 99);
  std::atomic<int> again{0};
  pool.parallel_for(10, [&](std::size_t) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 10);
}

TEST(ThreadPool, ResolveContract) {
  // 0 (and negatives) mean "hardware concurrency", which is always >= 1;
  // positive values are taken literally.
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
  EXPECT_EQ(ThreadPool::resolve(0), ThreadPool::hardware_threads());
  EXPECT_EQ(ThreadPool::resolve(-3), ThreadPool::hardware_threads());
  EXPECT_EQ(ThreadPool::resolve(1), 1);
  EXPECT_EQ(ThreadPool::resolve(13), 13);
}

TEST(ThreadPool, OversubscribedTeamStillCoversSmallRanges) {
  // More threads than work: the extra workers find the range exhausted
  // and must not deadlock the completion handshake.
  ThreadPool pool(16);
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 3);
}

}  // namespace
}  // namespace lbmem

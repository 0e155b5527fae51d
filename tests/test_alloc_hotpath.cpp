/// Allocation-tracking tests for the balancer hot path and the online
/// engine's graph edits.
///
/// This binary replaces global operator new/delete with counting wrappers
/// and runs LoadBalancer::balance over a generated mid-size system. The
/// heuristic evaluates every block against every processor (M * Nblocks
/// evaluations); with the scratch-buffer hot path an evaluation performs
/// zero heap allocations, so the total allocation count of a balance run is
/// O(total instances) and — crucially — far below one allocation per
/// evaluation. The pre-optimization implementation allocated several
/// vectors per evaluation (shifted layouts, consumed-instance lists,
/// per-candidate reject strings), i.e. hundreds of thousands of allocations
/// on this workload; the bounds below fail loudly if that behaviour
/// regresses.
///
/// The graph-edit tests hold the two TaskGraph delta constructors (task
/// arrival and removal in the online engine) to a fixed number of
/// allocations: the same count at N=500 and at N=2000. A per-task or
/// per-edge allocation (a hashed name node, a per-task adjacency vector, a
/// growing heap) would make the counts differ.
///
/// Skipped under sanitizers: ASan and TSan interpose the allocator and
/// this counting definition would fight their bookkeeping.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include <string>
#include <vector>

#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/model/task_graph.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LBMEM_ALLOC_TEST_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LBMEM_ALLOC_TEST_DISABLED 1
#endif
#endif

#ifndef LBMEM_ALLOC_TEST_DISABLED

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Out of line: inlined into a caller, free() on a pointer the compiler saw
// come from operator new trips -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

#endif  // !LBMEM_ALLOC_TEST_DISABLED

namespace lbmem {
namespace {

TEST(BalancerAllocations, EvaluationIsAllocationFree) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  SuiteSpec spec;
  spec.params.tasks = 1000;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.15;
  spec.params.max_in_degree = 2;
  spec.processors = 8;
  spec.comm_cost = 2;
  spec.count = 1;
  spec.base_seed = 99'000 + 1000ull * 31 + 8;
  spec.max_seed_attempts = 400;
  const auto suite = make_suite(spec);
  ASSERT_FALSE(suite.empty());
  const Schedule& input = suite.front().schedule;

  const LoadBalancer balancer;
  // Warm-up run (first-touch effects), then the measured run.
  const BalanceResult warmup = balancer.balance(input);
  ASSERT_GT(warmup.stats.blocks_total, 0);

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  const BalanceResult result = balancer.balance(input);
  const std::size_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - before;

  const auto evaluations =
      static_cast<std::size_t>(result.stats.blocks_total) *
      static_cast<std::size_t>(input.architecture().processor_count()) *
      static_cast<std::size_t>(result.stats.attempts_used);
  const std::size_t instances = input.graph().total_instances();

  // Zero allocations per evaluation: the run's total must stay well below
  // one allocation per block x destination evaluation…
  EXPECT_LT(allocs, evaluations / 2)
      << allocs << " allocations over " << evaluations << " evaluations";
  // …and bounded by the O(instances) setup work (schedule copies, block
  // decomposition, occupancy population) with generous slack.
  EXPECT_LT(allocs, 24 * instances)
      << allocs << " allocations for " << instances << " instances";

  // Determinism sanity for the counter itself: a third run allocates
  // exactly as much as the second.
  const std::size_t again = g_alloc_count.load(std::memory_order_relaxed);
  const BalanceResult result2 = balancer.balance(input);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed) - again, allocs);
  EXPECT_EQ(result2.stats.makespan_after, result.stats.makespan_after);
#endif
}

#ifndef LBMEM_ALLOC_TEST_DISABLED

/// N tasks named t0..t<N-1> (short enough for the small-string buffer)
/// over a harmonic period ladder, each consuming up to two earlier tasks.
TaskGraph ladder_graph(int tasks) {
  TaskGraph g;
  for (int t = 0; t < tasks; ++t) {
    g.add_task("t" + std::to_string(t), Time{4} << (t % 3), 1, 1);
    if (t >= 1) g.add_dependence(t - 1, t, 1);
    if (t >= 7) g.add_dependence(t - 7, t, 2);
  }
  g.freeze();
  return g;
}

struct EditAllocations {
  std::size_t arrival = 0;
  std::size_t removal = 0;
};

EditAllocations count_edit_allocations(int tasks) {
  const TaskGraph base = ladder_graph(tasks);
  const Task task{"arrival", 8, 1, 1};
  const std::vector<NamedProducer> producers = {{"t3", 1}, {"t10", 2}};
  const std::vector<TaskId> victims = {static_cast<TaskId>(tasks / 2)};
  EditAllocations counts;
  std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  {
    const TaskGraph grown = TaskGraph::with_task(base, task, producers);
    counts.arrival = g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(grown.task_count(), base.task_count() + 1);
  }
  before = g_alloc_count.load(std::memory_order_relaxed);
  {
    const TaskGraph shrunk = TaskGraph::without_tasks(base, victims);
    counts.removal = g_alloc_count.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(shrunk.task_count(), base.task_count() - 1);
  }
  return counts;
}

#endif  // !LBMEM_ALLOC_TEST_DISABLED

TEST(GraphEditAllocations, DeltaCountsDoNotGrowWithN) {
#ifdef LBMEM_ALLOC_TEST_DISABLED
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  const EditAllocations small = count_edit_allocations(500);
  const EditAllocations large = count_edit_allocations(2000);
  EXPECT_EQ(small.arrival, large.arrival);
  EXPECT_EQ(small.removal, large.removal);
  // A handful of flat arrays per edit: tasks, dependences, the name table,
  // two CSR directions, the topological order, the instance tables.
  EXPECT_LE(large.arrival, 16u);
  EXPECT_LE(large.removal, 16u);
#endif
}

}  // namespace
}  // namespace lbmem

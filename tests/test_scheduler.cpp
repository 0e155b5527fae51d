/// Unit tests for the initial distributed scheduler (lbmem/sched/scheduler).

#include <gtest/gtest.h>

#include "lbmem/gen/paper_example.hpp"
#include "lbmem/gen/random_graph.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/validate/validator.hpp"

namespace lbmem {
namespace {

TEST(Scheduler, PeriodClusterReproducesFigure3) {
  const TaskGraph g = paper_example_graph();
  SchedulerOptions options;
  options.policy = PlacementPolicy::PeriodCluster;
  const Schedule s = build_initial_schedule(
      g, paper_example_architecture(), paper_example_comm(), options);
  validate_or_throw(s);
  EXPECT_EQ(s.makespan(), 15);
  EXPECT_EQ(s.memory_on(0), 16);
  EXPECT_EQ(s.memory_on(1), 4);
  EXPECT_EQ(s.memory_on(2), 4);
}

TEST(Scheduler, MinStartTimeIsValidAndNoSlower) {
  const TaskGraph g = paper_example_graph();
  SchedulerOptions options;
  options.policy = PlacementPolicy::MinStartTime;
  const Schedule s = build_initial_schedule(
      g, paper_example_architecture(), paper_example_comm(), options);
  validate_or_throw(s);
  // Greedy earliest-start places b next to a (no comm): strictly earlier
  // completion than the PeriodCluster schedule.
  EXPECT_LE(s.makespan(), 15);
}

TEST(Scheduler, SingleProcessorSerializes) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  g.add_dependence(a, b);
  g.freeze();
  const Schedule s = build_initial_schedule(g, Architecture(1),
                                            CommModel::flat(1), {});
  validate_or_throw(s);
  // Same processor: no communication delay.
  EXPECT_EQ(s.first_start(a), 0);
  EXPECT_EQ(s.first_start(b), 1);
}

TEST(Scheduler, CommunicationDelaysRemoteConsumer) {
  TaskGraph g;
  const TaskId a = g.add_task("a", 8, 4, 1);   // hog: fills half of P
  const TaskId b = g.add_task("b", 8, 4, 1);
  const TaskId c = g.add_task("c", 8, 1, 1);
  g.add_dependence(a, c, /*data_size=*/1);
  g.freeze();
  (void)b;
  const Schedule s = build_initial_schedule(
      g, Architecture(2), CommModel::flat(3), {});
  validate_or_throw(s);
  const ProcId pa = s.proc(TaskInstance{a, 0});
  const ProcId pc = s.proc(TaskInstance{c, 0});
  if (pa == pc) {
    EXPECT_GE(s.first_start(c), s.end(TaskInstance{a, 0}));
  } else {
    EXPECT_GE(s.first_start(c), s.end(TaskInstance{a, 0}) + 3);
  }
}

TEST(Scheduler, ThrowsWhenUnschedulable) {
  // Two tasks each needing the whole period cannot share one processor.
  TaskGraph g;
  g.add_task("a", 4, 4, 1);
  g.add_task("b", 4, 4, 1);
  g.freeze();
  EXPECT_THROW(
      build_initial_schedule(g, Architecture(1), CommModel::flat(1), {}),
      ScheduleError);
}

TEST(Scheduler, FitsExactlyOnTwoProcessors) {
  TaskGraph g;
  g.add_task("a", 4, 4, 1);
  g.add_task("b", 4, 4, 1);
  g.freeze();
  const Schedule s = build_initial_schedule(g, Architecture(2),
                                            CommModel::flat(1), {});
  validate_or_throw(s);
  EXPECT_NE(s.proc(TaskInstance{0, 0}), s.proc(TaskInstance{1, 0}));
}

TEST(Scheduler, PrecedenceLowerBoundMultiRate) {
  const TaskGraph g = paper_example_graph();
  Schedule s(g, paper_example_architecture(), paper_example_comm());
  const TaskId a = g.find("a");
  const TaskId b = g.find("b");
  s.set_first_start(a, 0);
  s.assign_all(a, 0);
  // b0 needs a0,a1 (ready 4 local / 5 remote); b1 needs a2,a3 (ready 10
  // local / 11 remote). Lower bound on the first start of b:
  // max(ready_k - k*T_b).
  std::vector<Time> bounds;
  precedence_bounds(s, b, bounds);
  EXPECT_EQ(bounds, (std::vector<Time>{4, 5, 5}));
}

TEST(Scheduler, ForcedScheduleHonoursAssignment) {
  const TaskGraph g = paper_example_graph();
  std::vector<ProcId> assignment(g.task_count(), 0);
  assignment[static_cast<std::size_t>(g.find("d"))] = 2;
  assignment[static_cast<std::size_t>(g.find("e"))] = 2;
  const Schedule s = build_forced_schedule(
      g, paper_example_architecture(), paper_example_comm(), assignment);
  validate_or_throw(s);
  for (TaskId t = 0; t < static_cast<TaskId>(g.task_count()); ++t) {
    for (InstanceIdx k = 0; k < g.instance_count(t); ++k) {
      EXPECT_EQ(s.proc(TaskInstance{t, k}),
                assignment[static_cast<std::size_t>(t)]);
    }
  }
}

TEST(Scheduler, ForcedScheduleThrowsWhenOverloaded) {
  TaskGraph g;
  g.add_task("a", 4, 3, 1);
  g.add_task("b", 4, 3, 1);
  g.freeze();
  const std::vector<ProcId> all_on_p1(g.task_count(), 0);
  EXPECT_THROW(build_forced_schedule(g, Architecture(2), CommModel::flat(1),
                                     all_on_p1),
               ScheduleError);
}

TEST(Scheduler, ClusterFallbackRescuesOverflow) {
  // Three equal-period hogs: the period cluster targets one processor but
  // only two fit; fallback must spread them.
  TaskGraph g;
  g.add_task("a", 4, 2, 1);
  g.add_task("b", 4, 2, 1);
  g.add_task("c", 4, 2, 1);
  g.freeze();
  SchedulerOptions options;
  options.policy = PlacementPolicy::PeriodCluster;
  options.cluster_fallback = true;
  const Schedule s =
      build_initial_schedule(g, Architecture(2), CommModel::flat(1), options);
  validate_or_throw(s);

  options.cluster_fallback = false;
  EXPECT_THROW(
      build_initial_schedule(g, Architecture(2), CommModel::flat(1), options),
      ScheduleError);
}

TEST(Scheduler, RandomGraphsScheduleAndValidate) {
  RandomGraphParams params;
  params.tasks = 40;
  params.intended_processors = 4;
  int scheduled = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const TaskGraph g = random_task_graph(params, seed);
    try {
      const Schedule s = build_initial_schedule(g, Architecture(4),
                                                CommModel::flat(2), {});
      validate_or_throw(s);
      ++scheduled;
    } catch (const ScheduleError&) {
      // acceptable for some seeds
    }
  }
  EXPECT_GE(scheduled, 5) << "generator produces mostly schedulable systems";
}

}  // namespace
}  // namespace lbmem

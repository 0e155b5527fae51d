/// Unit tests for the Schedule container (lbmem/sched/schedule.hpp).

#include <gtest/gtest.h>

#include "lbmem/gen/paper_example.hpp"
#include "lbmem/sched/schedule.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {
namespace {

class ScheduleTest : public ::testing::Test {
 protected:
  ScheduleTest() : graph_(paper_example_graph()) {}

  Schedule empty_schedule() {
    return Schedule(graph_, paper_example_architecture(),
                    paper_example_comm());
  }

  TaskGraph graph_;
};

TEST_F(ScheduleTest, StartsDeriveFromFirstInstance) {
  Schedule s = empty_schedule();
  const TaskId a = graph_.find("a");
  s.set_first_start(a, 2);
  EXPECT_EQ(s.start(TaskInstance{a, 0}), 2);
  EXPECT_EQ(s.start(TaskInstance{a, 3}), 2 + 3 * 3);
  EXPECT_EQ(s.end(TaskInstance{a, 1}), 2 + 3 + 1);
}

TEST_F(ScheduleTest, CompletenessTracking) {
  Schedule s = empty_schedule();
  EXPECT_FALSE(s.complete());
  for (TaskId t = 0; t < static_cast<TaskId>(graph_.task_count()); ++t) {
    s.set_first_start(t, 0);
    s.assign_all(t, 0);
  }
  EXPECT_TRUE(s.complete());
}

TEST_F(ScheduleTest, PerInstanceAssignment) {
  Schedule s = empty_schedule();
  const TaskId a = graph_.find("a");
  s.set_first_start(a, 0);
  s.assign(TaskInstance{a, 0}, 0);
  s.assign(TaskInstance{a, 1}, 1);
  EXPECT_EQ(s.proc(TaskInstance{a, 0}), 0);
  EXPECT_EQ(s.proc(TaskInstance{a, 1}), 1);
  EXPECT_EQ(s.proc(TaskInstance{a, 2}), kNoProc);
}

TEST_F(ScheduleTest, AssignValidation) {
  Schedule s = empty_schedule();
  const TaskId a = graph_.find("a");
  EXPECT_THROW(s.assign(TaskInstance{a, 99}, 0), PreconditionError);
  EXPECT_THROW(s.assign(TaskInstance{a, 0}, 7), PreconditionError);
  EXPECT_THROW(s.assign(TaskInstance{99, 0}, 0), PreconditionError);
  EXPECT_THROW(s.set_first_start(a, -1), PreconditionError);
}

TEST_F(ScheduleTest, MemoryCountsInstances) {
  Schedule s = empty_schedule();
  const TaskId a = graph_.find("a");  // m=4, 4 instances
  s.set_first_start(a, 0);
  s.assign(TaskInstance{a, 0}, 0);
  s.assign(TaskInstance{a, 1}, 0);
  s.assign(TaskInstance{a, 2}, 1);
  s.assign(TaskInstance{a, 3}, 1);
  EXPECT_EQ(s.memory_on(0), 8);
  EXPECT_EQ(s.memory_on(1), 8);
  EXPECT_EQ(s.memory_on(2), 0);
}

TEST_F(ScheduleTest, DataReadyLocalVsRemote) {
  Schedule s = empty_schedule();
  const TaskId a = graph_.find("a");
  const TaskId b = graph_.find("b");
  s.set_first_start(a, 0);
  s.assign_all(a, 0);
  // b instance 0 consumes a0 (end 1) and a1 (end 4); C = 1.
  EXPECT_EQ(s.data_ready(TaskInstance{b, 0}, 0), 4);  // local to a
  EXPECT_EQ(s.data_ready(TaskInstance{b, 0}, 1), 5);  // + comm
}

TEST_F(ScheduleTest, DataReadyMixedProducers) {
  Schedule s = empty_schedule();
  const TaskId a = graph_.find("a");
  const TaskId b = graph_.find("b");
  s.set_first_start(a, 0);
  s.assign(TaskInstance{a, 0}, 0);
  s.assign(TaskInstance{a, 1}, 1);  // a1 on P2
  s.assign(TaskInstance{a, 2}, 0);
  s.assign(TaskInstance{a, 3}, 0);
  // On P2: a0 arrives 1+1=2, a1 local at 4 -> ready 4.
  EXPECT_EQ(s.data_ready(TaskInstance{b, 0}, 1), 4);
  // On P1: a0 local 1, a1 arrives 4+1=5 -> ready 5.
  EXPECT_EQ(s.data_ready(TaskInstance{b, 0}, 0), 5);
}

TEST_F(ScheduleTest, MakespanIsLastCompletion) {
  const Schedule s = paper_example_schedule(graph_);
  EXPECT_EQ(s.makespan(), 15);
}

TEST_F(ScheduleTest, InstancesOnSortedByStart) {
  const Schedule s = paper_example_schedule(graph_);
  const auto on_p2 = s.instances_on(1);
  for (std::size_t i = 1; i < on_p2.size(); ++i) {
    EXPECT_LE(s.start(on_p2[i - 1]), s.start(on_p2[i]));
  }
}

TEST_F(ScheduleTest, BusyAndIdle) {
  const Schedule s = paper_example_schedule(graph_);
  EXPECT_EQ(s.busy_on(0), 4);  // four a instances of wcet 1
  EXPECT_EQ(s.busy_on(1), 4);  // b0,b1,c0,c1
  EXPECT_EQ(s.busy_on(2), 2);  // d,e
  EXPECT_DOUBLE_EQ(s.idle_fraction(0), 1.0 - 4.0 / 12.0);
  EXPECT_DOUBLE_EQ(s.idle_fraction(2), 1.0 - 2.0 / 12.0);
}

TEST_F(ScheduleTest, MaxMemory) {
  const Schedule s = paper_example_schedule(graph_);
  EXPECT_EQ(s.max_memory(), 16);
}

TEST_F(ScheduleTest, CopyIsIndependent) {
  Schedule s = paper_example_schedule(graph_);
  Schedule copy = s;
  copy.set_first_start(graph_.find("b"), 4);
  EXPECT_EQ(s.first_start(graph_.find("b")), 5);
  EXPECT_EQ(copy.first_start(graph_.find("b")), 4);
}

}  // namespace
}  // namespace lbmem

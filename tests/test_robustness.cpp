/// Tests for the robustness harness (lbmem/sim/robustness.hpp): the
/// percentile helper, replication aggregation, and — end to end — the
/// mid-run ProcessorFailure handoff to the online Rebalancer, both the
/// graceful (repaired) and hard (rejected, rolled back) outcomes.

#include <gtest/gtest.h>

#include "lbmem/api/problem.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/sim/robustness.hpp"

namespace lbmem {
namespace {

/// A balanced 12-task / 3-processor workload (the CLI smoke scenario):
/// known schedulable, and known repairable when one processor dies.
Outcome solved_workload() {
  WorkloadSpec spec;
  spec.graph.tasks = 12;
  spec.graph.intended_processors = 3;
  spec.processors = 3;
  spec.seed = 7;
  const Problem problem = Problem::generate(spec);
  Outcome outcome = HeuristicSolver().solve(problem);
  EXPECT_TRUE(outcome.feasible());
  return outcome;
}

TEST(Robustness, PercentileIsNearestRank) {
  const std::vector<double> v = {0.4, 0.1, 0.3, 0.2};
  EXPECT_DOUBLE_EQ(robustness_percentile(v, 50.0), 0.2);
  EXPECT_DOUBLE_EQ(robustness_percentile(v, 99.0), 0.4);
  EXPECT_DOUBLE_EQ(robustness_percentile(v, 25.0), 0.1);
  EXPECT_DOUBLE_EQ(robustness_percentile({0.7}, 50.0), 0.7);
  EXPECT_DOUBLE_EQ(robustness_percentile({}, 50.0), 0.0);
}

TEST(Robustness, ReportIsDeterministic) {
  const Outcome outcome = solved_workload();
  RobustnessOptions rob;
  rob.replications = 3;
  rob.perturb.seed = 5;
  rob.perturb.wcet_jitter = 0.5;
  rob.perturb.comm_jitter = 0.5;
  rob.perturb.bus_fifo = true;
  const RobustnessReport a = run_robustness(*outcome.schedule, rob);
  const RobustnessReport b = run_robustness(*outcome.schedule, rob);
  EXPECT_DOUBLE_EQ(a.miss_p50, b.miss_p50);
  EXPECT_DOUBLE_EQ(a.miss_p99, b.miss_p99);
  EXPECT_DOUBLE_EQ(a.mean_span_inflation, b.mean_span_inflation);
  EXPECT_EQ(a.total_violations, b.total_violations);
  ASSERT_EQ(a.replications.size(), b.replications.size());
  for (std::size_t r = 0; r < a.replications.size(); ++r) {
    EXPECT_DOUBLE_EQ(a.replications[r].miss_rate, b.replications[r].miss_rate);
  }
}

TEST(Robustness, MidRunFailureRecoversThroughRebalancer) {
  // The acceptance scenario: a processor dies mid-run, the online engine
  // repairs the schedule, and the repaired table takes over at the next
  // hyper-period boundary. Noise is off so the before/after split is
  // attributable to the failure alone.
  const Outcome outcome = solved_workload();
  const Time h = outcome.schedule->graph().hyperperiod();
  RobustnessOptions rob;
  rob.sim.hyperperiods = 2;
  rob.replications = 2;
  rob.perturb.failures = {{1, h / 2}};
  const RobustnessReport report = run_robustness(*outcome.schedule, rob);
  EXPECT_TRUE(report.failure_injected);
  ASSERT_TRUE(report.recovered) << report.repair_detail;
  EXPECT_GT(report.recovery_latency, 0);
  EXPECT_LE(report.recovery_latency, h);
  // Graceful degradation: misses while the dead processor's work is lost,
  // a clean tail once the repaired schedule is live.
  EXPECT_GT(report.mean_miss_before, 0.0);
  EXPECT_DOUBLE_EQ(report.mean_miss_after, 0.0);
  EXPECT_GT(report.total_lost_instances, 0);
  EXPECT_FALSE(report.repair_detail.empty());
}

TEST(Robustness, RejectedRepairDegradesHard) {
  // Two fat tasks, one per processor, capacity that fits exactly one:
  // the repair would bust the survivor's memory, so the Rebalancer rolls
  // back and the dead processor's work stays lost for the whole tail.
  TaskGraph g;
  const TaskId t1 = g.add_task("t1", 4, 1, 60);
  const TaskId t2 = g.add_task("t2", 4, 1, 60);
  g.freeze();
  Schedule s(g, Architecture(2, /*memory_capacity=*/100), CommModel::flat(1));
  s.set_first_start(t1, 0);
  s.assign_all(t1, 0);
  s.set_first_start(t2, 0);
  s.assign_all(t2, 1);

  RobustnessOptions rob;
  rob.sim.hyperperiods = 2;
  rob.replications = 1;
  rob.perturb.failures = {{1, 2}};
  rob.repair.balance.enforce_memory_capacity = true;
  const RobustnessReport report = run_robustness(s, rob);
  EXPECT_TRUE(report.failure_injected);
  EXPECT_FALSE(report.recovered);
  EXPECT_FALSE(report.repair_detail.empty());
  // Hard degradation: the tail keeps losing t2's instances.
  EXPECT_GT(report.mean_miss_after, 0.0);
  EXPECT_GT(report.total_lost_instances, 0);
}

TEST(Robustness, RejectedRepairRollsTheSystemBack) {
  // The same infeasible repair, observed at the Rebalancer level: the
  // rejected ProcessorFailure must leave the running schedule untouched
  // (DESIGN.md F14 rollback).
  TaskGraph g;
  const TaskId t1 = g.add_task("t1", 4, 1, 60);
  const TaskId t2 = g.add_task("t2", 4, 1, 60);
  g.freeze();
  Schedule s(g, Architecture(2, /*memory_capacity=*/100), CommModel::flat(1));
  s.set_first_start(t1, 0);
  s.assign_all(t1, 0);
  s.set_first_start(t2, 0);
  s.assign_all(t2, 1);

  RebalancerOptions opts;
  opts.balance.enforce_memory_capacity = true;
  Rebalancer system = Rebalancer::adopt(g, s, opts);
  const EventOutcome out = system.fail_processor(1, 2);
  EXPECT_FALSE(out.applied);
  EXPECT_FALSE(out.reject_reason.empty());
  EXPECT_EQ(system.schedule().proc(TaskInstance{t2, 0}), 1);
}

TEST(Robustness, FailAtOutsideTheWindowIsRejected) {
  const Outcome outcome = solved_workload();
  const Time h = outcome.schedule->graph().hyperperiod();
  RobustnessOptions rob;
  rob.sim.hyperperiods = 2;
  rob.perturb.failures = {{0, 2 * h}};  // first tick past the simulated span
  EXPECT_THROW(run_robustness(*outcome.schedule, rob), Error);
}

}  // namespace
}  // namespace lbmem

/// Tests for the degraded-mode repair ladder (DESIGN.md F28), concurrent
/// failure streams, retry backoff, and the miss-rate-driven selector
/// (DESIGN.md F30): rung escalation order, per-rung rollback (F14), load
/// shedding determinism, and the harness-level multi-failure recovery.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "lbmem/api/problem.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sim/robustness.hpp"

namespace lbmem {
namespace {

/// The capacity-starved pair: one fat task per processor, capacity that
/// fits exactly one — any failure makes the survivor's memory bust, so
/// without the ladder the event rejects (test_robustness pins that).
struct FatPair {
  TaskGraph graph;
  TaskId t1;
  TaskId t2;
  Schedule make_schedule() const {
    Schedule s(graph, Architecture(2, /*memory_capacity=*/100),
               CommModel::flat(1));
    s.set_first_start(t1, 0);
    s.assign_all(t1, 0);
    s.set_first_start(t2, 0);
    s.assign_all(t2, 1);
    return s;
  }
};

FatPair fat_pair() {
  FatPair f;
  f.t1 = f.graph.add_task("t1", 4, 1, 60);
  f.t2 = f.graph.add_task("t2", 4, 1, 60);
  f.graph.freeze();
  return f;
}

RebalancerOptions degraded_options() {
  RebalancerOptions opts;
  opts.balance.enforce_memory_capacity = true;
  opts.degraded.enabled = true;
  return opts;
}

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

TEST(Degraded, AllFailuresSortsAndDedupsTheList) {
  // The list comes back sorted by (at, proc); a processor only dies
  // once — the earliest time wins.
  PerturbSpec spec;
  spec.failures = {{1, 9}, {0, 3}, {1, 5}};
  EXPECT_TRUE(spec.any_failure());
  const std::vector<ProcessorFault> all = spec.all_failures();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].proc, 0);
  EXPECT_EQ(all[0].at, 3);
  EXPECT_EQ(all[1].proc, 1);
  EXPECT_EQ(all[1].at, 5);  // the t=9 entry deduplicated away
}

TEST(Degraded, FailureListAloneActivatesTheSpec) {
  PerturbSpec spec;
  EXPECT_FALSE(spec.any_failure());
  spec.failures = {{0, 0}};
  EXPECT_TRUE(spec.any_failure());
  EXPECT_TRUE(spec.active());
  const std::vector<ProcessorFault> all = spec.all_failures();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].proc, 0);
}

TEST(Degraded, SelectorExploresUnobservedCandidatesFirst) {
  MissRateSelector sel({"x", "y", "z"});
  EXPECT_EQ(sel.size(), 3);
  EXPECT_EQ(sel.pick(), 0);
  sel.observe(0, 0.5);
  EXPECT_EQ(sel.pick(), 1);
  sel.observe(1, 0.1);
  EXPECT_EQ(sel.pick(), 2);
  sel.observe(2, 0.3);
  // All observed: exploit the lowest pooled mean.
  EXPECT_EQ(sel.pick(), 1);
  EXPECT_EQ(sel.name(sel.pick()), "y");
}

TEST(Degraded, SelectorPoolsObservationsAndBreaksTiesEarlier) {
  MissRateSelector sel({"x", "y"});
  sel.observe(0, 0.2);
  sel.observe(1, 0.2);
  EXPECT_EQ(sel.pick(), 0);  // equal pooled means -> earlier candidate
  sel.observe(0, 0.8);       // pools to 0.5, y now strictly better
  EXPECT_EQ(sel.pick(), 1);
  EXPECT_DOUBLE_EQ(sel.pooled(0), 0.5);
  EXPECT_EQ(sel.observations(0), 2);
  EXPECT_EQ(sel.observations(1), 1);
}

TEST(DegradedLadder, ShedRungRecoversCapacityStarvedFailure) {
  // The whole ladder fails until rung 4: the survivor cannot host both
  // fat tasks, so the lowest-priority one is explicitly dropped and the
  // event applies instead of rejecting.
  const FatPair f = fat_pair();
  Rebalancer system =
      Rebalancer::adopt(f.graph, f.make_schedule(), degraded_options());
  const EventOutcome out = system.fail_processor(1, 2);
  EXPECT_TRUE(out.applied);
  EXPECT_EQ(out.degraded_rung, 4);
  ASSERT_EQ(out.shed.size(), 1u);
  EXPECT_EQ(out.shed[0], "t1");  // period/memory tie -> name order
  EXPECT_EQ(system.shed_tasks(), out.shed);
  EXPECT_EQ(system.graph().task_count(), 1);
  EXPECT_EQ(system.graph().task(0).name, "t2");
  EXPECT_EQ(system.alive_processor_count(), 1);
  EXPECT_LE(system.schedule().memory_on(0), 100);
}

TEST(DegradedLadder, ShedSetIsDeterministic) {
  const FatPair f = fat_pair();
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    Rebalancer system =
        Rebalancer::adopt(f.graph, f.make_schedule(), degraded_options());
    const EventOutcome out = system.fail_processor(1, 2);
    EXPECT_TRUE(out.applied);
    if (run == 0) {
      first = out.shed;
    } else {
      EXPECT_EQ(out.shed, first);
    }
  }
}

TEST(DegradedLadder, ExhaustedLadderRollsBackCompletely) {
  // max_shed = 0 removes the last rung, so the whole ladder fails — and
  // per DESIGN.md F14 the reject must leave no trace: schedule, graph,
  // failed-processor set all exactly as before.
  const FatPair f = fat_pair();
  RebalancerOptions opts = degraded_options();
  opts.degraded.max_shed = 0;
  Rebalancer system = Rebalancer::adopt(f.graph, f.make_schedule(), opts);
  const EventOutcome out = system.fail_processor(1, 2);
  EXPECT_FALSE(out.applied);
  EXPECT_FALSE(out.reject_reason.empty());
  EXPECT_EQ(out.degraded_rung, 0);
  EXPECT_EQ(system.graph().task_count(), 2);
  EXPECT_EQ(system.schedule().proc(TaskInstance{f.t2, 0}), 1);
  EXPECT_EQ(system.alive_processor_count(), 2);
  EXPECT_TRUE(system.shed_tasks().empty());
}

TEST(DegradedLadder, BackToBackFailuresKeepEveryRollbackContract) {
  // Two ProcessorFailures at the same timestamp, applied back to back:
  // each runs the full ladder against the state the previous one left —
  // the first sheds t1, the second (on the shrunken graph) sheds t2 —
  // and nothing leaks between the rungs (the regression the per-rung
  // pre-event snapshots exist for).
  TaskGraph g;
  const TaskId t1 = g.add_task("t1", 4, 1, 60);
  const TaskId t2 = g.add_task("t2", 4, 1, 60);
  const TaskId t3 = g.add_task("t3", 4, 1, 60);
  g.freeze();
  Schedule s(g, Architecture(3, /*memory_capacity=*/100), CommModel::flat(1));
  s.set_first_start(t1, 0);
  s.assign_all(t1, 0);
  s.set_first_start(t2, 0);
  s.assign_all(t2, 1);
  s.set_first_start(t3, 0);
  s.assign_all(t3, 2);

  Rebalancer system = Rebalancer::adopt(g, s, degraded_options());
  const EventOutcome first = system.fail_processor(1, 2);
  EXPECT_TRUE(first.applied);
  EXPECT_EQ(first.degraded_rung, 4);
  ASSERT_EQ(first.shed.size(), 1u);
  EXPECT_EQ(first.shed[0], "t1");
  EXPECT_EQ(system.graph().task_count(), 2);

  const EventOutcome second = system.fail_processor(2, 2);
  EXPECT_TRUE(second.applied);
  EXPECT_EQ(second.degraded_rung, 4);
  ASSERT_EQ(second.shed.size(), 1u);
  EXPECT_EQ(second.shed[0], "t2");
  // Accumulated across events, in shed order.
  EXPECT_EQ(system.shed_tasks(),
            (std::vector<std::string>{"t1", "t2"}));
  EXPECT_EQ(system.graph().task_count(), 1);
  EXPECT_EQ(system.graph().task(0).name, "t3");
  EXPECT_EQ(system.alive_processor_count(), 1);
  EXPECT_LE(system.schedule().memory_on(0), 100);
}

TEST(DegradedLadder, BackoffParksTheEventAndRetriesLater) {
  // backoff_events = 1: the infeasible repair defers instead of running
  // the ladder inline — the system is untouched while the event is
  // parked — and the re-attempt (ladder and all) resolves during the
  // next apply(), surfacing in its resolved_pending.
  const FatPair f = fat_pair();
  RebalancerOptions opts = degraded_options();
  opts.degraded.backoff_events = 1;
  Rebalancer system = Rebalancer::adopt(f.graph, f.make_schedule(), opts);

  const EventOutcome parked = system.fail_processor(1, 2);
  EXPECT_TRUE(parked.deferred);
  EXPECT_FALSE(parked.applied);
  EXPECT_FALSE(parked.reject_reason.empty());
  EXPECT_EQ(system.pending_retries(), 1);
  // Parked means untouched: the processor is not even marked failed yet.
  EXPECT_EQ(system.alive_processor_count(), 2);
  EXPECT_EQ(system.schedule().proc(TaskInstance{f.t2, 0}), 1);

  // Any subsequent event ages the queue; this benign change applies and
  // carries the expired re-attempt's outcome.
  const EventOutcome next = system.apply(
      Event{3, WcetChange{"t2", 2}});
  EXPECT_TRUE(next.applied);
  ASSERT_EQ(next.resolved_pending.size(), 1u);
  const EventOutcome& retried = next.resolved_pending[0];
  EXPECT_TRUE(retried.applied);
  EXPECT_EQ(retried.degraded_rung, 4);
  ASSERT_EQ(retried.shed.size(), 1u);
  EXPECT_EQ(retried.shed[0], "t1");
  EXPECT_EQ(system.pending_retries(), 0);
  EXPECT_EQ(system.alive_processor_count(), 1);
  EXPECT_EQ(system.graph().task_count(), 1);
}

/// Hand-built exact packing for the rung-3 scenario below: the greedy
/// whole-task repair (earliest start, then preference, then memory)
/// cannot find it, but it exists — the kind of gap a real solver closes.
class ExactPackingSolver : public Solver {
 public:
  const std::string& name() const override {
    static const std::string n = "exact-packing-stub";
    return n;
  }
  SolverCaps capabilities() const override { return {}; }
  Outcome solve(const Problem& problem) const override {
    const TaskGraph& g = problem.graph();
    Schedule sched(g, problem.architecture(), problem.comm());
    struct Slot {
      const char* task;
      ProcId proc;
      Time start;
    };
    for (const Slot& slot :
         {Slot{"a", 0, 0}, Slot{"c", 0, 1}, Slot{"b", 1, 0}, Slot{"d", 1, 1},
          Slot{"e", 1, 2}, Slot{"f", 1, 3}}) {
      const TaskId t = g.find(slot.task);
      sched.set_first_start(t, slot.start);
      sched.assign_all(t, slot.proc);
    }
    SolveStats stats;
    detail::fill_before(stats, problem.initial_schedule());
    return detail::finish_outcome(problem, std::move(stats), std::move(sched),
                                  "hand-built exact packing");
  }
};

TEST(DegradedLadder, ResolveRungCommitsTheConfiguredSolver) {
  // Memory bin-packing where the greedy rungs all fail: after P3 dies,
  // {60,40,40,30,15,15} must pack into two 100-capacity bins. Greedy
  // (earliest start, memory tie-break) strands the last 15 on both
  // processors at 105/110, but the exact packing {60,40} / {40,30,15,15}
  // exists — rung 3 adopts it from the configured solver.
  TaskGraph g;
  const TaskId a = g.add_task("a", 4, 1, 60);
  const TaskId b = g.add_task("b", 4, 1, 40);
  const TaskId c = g.add_task("c", 4, 1, 40);
  const TaskId d = g.add_task("d", 4, 1, 30);
  const TaskId e = g.add_task("e", 4, 1, 15);
  const TaskId fr = g.add_task("f", 4, 1, 15);
  g.freeze();
  Schedule s(g, Architecture(3, /*memory_capacity=*/100), CommModel::flat(1));
  s.set_first_start(a, 0);
  s.assign_all(a, 0);
  s.set_first_start(d, 1);
  s.assign_all(d, 0);
  s.set_first_start(b, 0);
  s.assign_all(b, 1);
  s.set_first_start(c, 1);
  s.assign_all(c, 1);
  s.set_first_start(e, 0);
  s.assign_all(e, 2);
  s.set_first_start(fr, 1);
  s.assign_all(fr, 2);

  RebalancerOptions opts = degraded_options();
  opts.degraded.resolver = std::make_shared<ExactPackingSolver>();
  Rebalancer system = Rebalancer::adopt(g, s, opts);
  const EventOutcome out = system.fail_processor(2, 1);
  EXPECT_TRUE(out.applied);
  EXPECT_EQ(out.degraded_rung, 3);
  EXPECT_TRUE(out.shed.empty());
  EXPECT_EQ(system.graph().task_count(), 6);
  EXPECT_EQ(system.schedule().memory_on(0), 100);
  EXPECT_EQ(system.schedule().memory_on(1), 100);
  EXPECT_EQ(system.schedule().memory_on(2), 0);
  // Without the resolver the same event must shed instead.
  Rebalancer bare = Rebalancer::adopt(g, s, degraded_options());
  const EventOutcome fallback = bare.fail_processor(2, 1);
  EXPECT_TRUE(fallback.applied);
  EXPECT_EQ(fallback.degraded_rung, 4);
  EXPECT_FALSE(fallback.shed.empty());
}

TEST(DegradedLadder, HarnessRecoversConcurrentFailuresThroughTheLadder) {
  // End to end: two concurrent failures on the solved workload, degraded
  // mode on — every failure repairs (one through a deep rung), the
  // per-failure outcomes are reported in injection order, and the run is
  // deterministic.
  const Outcome outcome = solved_workload();
  RobustnessOptions rob;
  rob.sim.hyperperiods = 4;
  rob.replications = 2;
  rob.perturb.failures = {{0, 3}, {1, 9}};
  rob.repair.degraded.enabled = true;
  const RobustnessReport report = run_robustness(*outcome.schedule, rob);
  EXPECT_TRUE(report.failure_injected);
  EXPECT_TRUE(report.recovered);
  ASSERT_EQ(report.failures.size(), 2u);
  EXPECT_EQ(report.failures[0].proc, 0);
  EXPECT_EQ(report.failures[0].at, 3);
  EXPECT_TRUE(report.failures[0].repaired);
  EXPECT_EQ(report.failures[1].proc, 1);
  EXPECT_EQ(report.failures[1].at, 9);
  EXPECT_TRUE(report.failures[1].repaired);
  // The second failure leaves one survivor: deep-rung recovery.
  EXPECT_GT(report.failures[1].degraded_rung, 0);
  EXPECT_GT(report.recovery_latency, 0);
  // recovery_latency rolls up the slowest repair.
  Time worst = 0;
  for (const FailureOutcome& fo : report.failures) {
    if (fo.recovery_latency > worst) worst = fo.recovery_latency;
  }
  EXPECT_EQ(report.recovery_latency, worst);

  const RobustnessReport again = run_robustness(*outcome.schedule, rob);
  ASSERT_EQ(again.failures.size(), report.failures.size());
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    EXPECT_EQ(again.failures[i].repaired, report.failures[i].repaired);
    EXPECT_EQ(again.failures[i].degraded_rung,
              report.failures[i].degraded_rung);
    EXPECT_EQ(again.failures[i].shed, report.failures[i].shed);
  }
  ASSERT_EQ(again.replications.size(), report.replications.size());
  for (std::size_t r = 0; r < report.replications.size(); ++r) {
    EXPECT_DOUBLE_EQ(again.replications[r].miss_rate,
                     report.replications[r].miss_rate);
  }
}

TEST(DegradedLadder, UnrepairedFailureLeavesRecoveredFalse) {
  // Multi-failure semantics: recovered means *every* failure repaired.
  // The fat pair cannot survive a failure without shedding, and the
  // harness's repair has the ladder off — so the report must say so.
  const FatPair f = fat_pair();
  const Schedule s = f.make_schedule();
  RobustnessOptions rob;
  rob.sim.hyperperiods = 2;
  rob.replications = 1;
  rob.perturb.failures = {{1, 2}};
  rob.repair.balance.enforce_memory_capacity = true;
  const RobustnessReport report = run_robustness(s, rob);
  EXPECT_TRUE(report.failure_injected);
  EXPECT_FALSE(report.recovered);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_FALSE(report.failures[0].repaired);
  EXPECT_EQ(report.failures[0].recovery_latency, 0);
  EXPECT_FALSE(report.failures[0].detail.empty());
}

TEST(DegradedLadder, StalenessPreservesFeasibilityDecisions) {
  // F29: frozen memory aggregates may only change placement *quality* —
  // the degraded run with staleness must still recover every failure.
  const Outcome outcome = solved_workload();
  RobustnessOptions rob;
  rob.sim.hyperperiods = 4;
  rob.replications = 1;
  rob.perturb.failures = {{0, 3}};
  rob.repair.degraded.enabled = true;
  rob.repair.staleness_events = 3;
  const RobustnessReport report = run_robustness(*outcome.schedule, rob);
  EXPECT_TRUE(report.recovered);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_TRUE(report.failures[0].repaired);
}

}  // namespace
}  // namespace lbmem

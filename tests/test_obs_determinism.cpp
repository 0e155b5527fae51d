/// Determinism contract of the metrics pipeline (DESIGN.md F25): with the
/// "timing" subtree stripped, the emitted metrics JSON is byte-identical
/// across repeated runs — for the balancer and the online engine — and
/// across thread counts for the scenario sweep.

#include <gtest/gtest.h>

#include <string>

#include "lbmem/api/problem.hpp"
#include "lbmem/api/scenario.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/gen/event_trace.hpp"
#include "lbmem/obs/metrics.hpp"
#include "lbmem/online/runner.hpp"
#include "lbmem/report/stats.hpp"

namespace lbmem {
namespace {

WorkloadSpec small_workload() {
  WorkloadSpec spec;
  spec.graph.tasks = 16;
  spec.graph.intended_processors = 3;
  spec.processors = 3;
  spec.seed = 7;
  return spec;
}

/// Deterministic-class view of a run: the timing subtree is exactly what
/// the contract excludes.
std::string deterministic_json(const obs::Registry& reg) {
  return metrics_to_json(reg.snapshot(), /*include_timing=*/false);
}

TEST(ObsDeterminism, BalancerMetricsIdenticalAcrossRuns) {
  const Problem problem = Problem::generate(small_workload());

  std::string reference;
  for (int run = 0; run < 2; ++run) {
    obs::Registry reg;
    BalanceOptions options;
    options.record_trace = false;
    options.metrics = &reg;
    const Outcome outcome = HeuristicSolver(options).solve(problem);
    ASSERT_TRUE(outcome.feasible());
    const std::string json = deterministic_json(reg);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "run=" << run;
    }
  }
  // The timing subtree exists and is allowed to differ — but the
  // deterministic view above must not contain it. The prune counters are
  // exact work counters, so they belong to the deterministic view.
  EXPECT_EQ(reference.find("\"timing\""), std::string::npos);
  EXPECT_NE(reference.find("lb.balance_runs"), std::string::npos);
  EXPECT_NE(reference.find("lb.dest_evaluated"), std::string::npos);
}

TEST(ObsDeterminism, ScenarioMetricsIdenticalAcrossThreadCounts) {
  std::string reference;
  for (int threads : {1, 4}) {
    obs::Registry reg;
    ScenarioSpec spec;
    spec.suite.params.tasks = 12;
    spec.suite.params.intended_processors = 2;
    spec.suite.processors = 2;
    spec.suite.base_seed = 7;
    spec.suite.count = 2;
    spec.solvers = {"heuristic-lex", "memory-greedy"};
    spec.threads = threads;
    spec.metrics = &reg;
    const ScenarioReport report = ScenarioRunner().run(spec);
    ASSERT_GT(report.instances, 0);
    const std::string json = deterministic_json(reg);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "threads=" << threads;
    }
  }
  EXPECT_NE(reference.find("compare.cells"), std::string::npos);
}

TEST(ObsDeterminism, OnlineMetricsIdenticalAcrossRuns) {
  const Problem problem = Problem::generate(small_workload());
  const Outcome outcome = HeuristicSolver().solve(problem);
  ASSERT_TRUE(outcome.feasible());

  EventTraceParams params;
  params.events = 8;
  const EventTrace trace = random_event_trace(
      problem.graph(), outcome.schedule->architecture(), params, 5);

  std::string reference;
  for (int run = 0; run < 2; ++run) {
    obs::Registry reg;
    RebalancerOptions options;
    options.metrics = &reg;
    Rebalancer system =
        Rebalancer::adopt(problem.graph(), *outcome.schedule, options);
    const OnlineReport report = OnlineRunner().replay(system, trace);
    ASSERT_EQ(report.total_violations, 0);
    const std::string json = deterministic_json(reg);
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "run=" << run;
    }
  }
  EXPECT_NE(reference.find("online.events_applied"), std::string::npos);
  // The per-event latency histogram is wall clock: it must sit in the
  // stripped timing subtree, never in the deterministic view.
  EXPECT_EQ(reference.find("online.repair_latency_us"), std::string::npos);
}

}  // namespace
}  // namespace lbmem

/// A/B determinism suite for the threaded path (DESIGN.md F20): the
/// ScenarioRunner's parallel (instance x solver) sweep must produce a
/// report bit-identical to the sequential sweep for every thread count.
/// The sequential path is the exactness oracle, exactly the way
/// test_prune_equivalence.cpp uses the exhaustive path as the oracle for
/// bound-and-prune selection.
///
/// The whole file is TSan-relevant: under the tsan preset these tests are
/// the regression net for the shared-state audit (pre-sized slots,
/// per-call solver and balancer state).

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "lbmem/api/problem.hpp"
#include "lbmem/api/registry.hpp"
#include "lbmem/api/scenario.hpp"
#include "lbmem/api/solvers.hpp"
#include "lbmem/gen/suites.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/report/solve.hpp"

namespace lbmem {
namespace {

std::vector<SuiteInstance> suite(int tasks, int procs, std::uint64_t seed,
                                 int count = 3) {
  SuiteSpec spec;
  spec.params.tasks = tasks;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.2;
  spec.params.intended_processors = procs;
  spec.processors = procs;
  spec.comm_cost = 2;
  spec.count = count;
  spec.base_seed = seed;
  return make_suite(spec);
}

void expect_equal_schedules(const Schedule& a, const Schedule& b) {
  for (const TaskInstance inst : a.all_instances()) {
    ASSERT_EQ(a.proc(inst), b.proc(inst))
        << "processor diverged for task " << inst.task << " k=" << inst.k;
    ASSERT_EQ(a.start(inst), b.start(inst))
        << "start diverged for task " << inst.task << " k=" << inst.k;
  }
}

/// Everything in BalanceStats except wall time must match bit for bit.
void expect_equal_outcomes(const BalanceStats& a, const BalanceStats& b) {
  EXPECT_EQ(a.makespan_before, b.makespan_before);
  EXPECT_EQ(a.makespan_after, b.makespan_after);
  EXPECT_EQ(a.gain_total, b.gain_total);
  EXPECT_EQ(a.max_memory_before, b.max_memory_before);
  EXPECT_EQ(a.max_memory_after, b.max_memory_after);
  EXPECT_EQ(a.memory_after, b.memory_after);
  EXPECT_EQ(a.blocks_total, b.blocks_total);
  EXPECT_EQ(a.blocks_category1, b.blocks_category1);
  EXPECT_EQ(a.moves_off_home, b.moves_off_home);
  EXPECT_EQ(a.gains_applied, b.gains_applied);
  EXPECT_EQ(a.forced_stays, b.forced_stays);
  EXPECT_EQ(a.attempts_used, b.attempts_used);
  EXPECT_EQ(a.fell_back, b.fell_back);
  EXPECT_EQ(a.dest_evaluated, b.dest_evaluated);
  EXPECT_EQ(a.dest_skipped_by_bound, b.dest_skipped_by_bound);
  EXPECT_EQ(a.dest_cut_by_incumbent, b.dest_cut_by_incumbent);
}

// ---- sweep level ----------------------------------------------------------

ScenarioSpec sweep_spec(int threads) {
  ScenarioSpec spec;
  spec.suite.params.tasks = 16;
  spec.suite.params.intended_processors = 2;
  spec.suite.processors = 2;
  spec.suite.comm_cost = 2;
  spec.suite.count = 3;
  spec.suite.base_seed = 11;
  spec.solvers = {"initial", "heuristic-lex", "heuristic-memory",
                  "round-robin", "memory-greedy"};
  spec.threads = threads;
  return spec;
}

void expect_equal_reports(const ScenarioReport& a, const ScenarioReport& b) {
  ASSERT_EQ(a.instances, b.instances);
  ASSERT_EQ(a.skipped_seeds, b.skipped_seeds);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].solver, b.cells[i].solver) << "cell " << i;
    EXPECT_EQ(a.cells[i].seed, b.cells[i].seed) << "cell " << i;
    EXPECT_EQ(a.cells[i].feasible, b.cells[i].feasible) << "cell " << i;
    EXPECT_EQ(a.cells[i].makespan, b.cells[i].makespan) << "cell " << i;
    EXPECT_EQ(a.cells[i].max_memory, b.cells[i].max_memory) << "cell " << i;
    EXPECT_EQ(a.cells[i].gain, b.cells[i].gain) << "cell " << i;
    EXPECT_EQ(a.cells[i].detail, b.cells[i].detail) << "cell " << i;
  }
  // Byte-identical timing-free renderings: the compare JSON golden
  // contract under --threads.
  EXPECT_EQ(scenario_report_to_json(a, /*include_timing=*/false),
            scenario_report_to_json(b, /*include_timing=*/false));
  EXPECT_EQ(summarize_scenario(a, /*include_timing=*/false),
            summarize_scenario(b, /*include_timing=*/false));
}

TEST(ParallelEquivalence, ScenarioSweepMatchesSequential) {
  const ScenarioRunner runner;
  const ScenarioReport sequential = runner.run(sweep_spec(1));
  const ScenarioReport parallel = runner.run(sweep_spec(8));
  expect_equal_reports(sequential, parallel);
}

TEST(ParallelEquivalence, ScenarioSweepOversubscribed) {
  // More threads than cells (5 solvers x 1 instance): the team is capped
  // at the cell count, so even a count far beyond any thread limit runs
  // and leaves the slot writes undisturbed.
  ScenarioSpec spec = sweep_spec(1);
  spec.suite.count = 1;
  const ScenarioRunner runner;
  const ScenarioReport sequential = runner.run(spec);
  for (const int threads : {16, 1 << 20}) {
    spec.threads = threads;
    const ScenarioReport parallel = runner.run(spec);
    ASSERT_GT(parallel.instances, 0);
    EXPECT_LT(parallel.instances, 16);
    expect_equal_reports(sequential, parallel);
  }
}

// ---- shared-state audit regressions (exercised under TSan) ----------------

TEST(ParallelEquivalence, ConcurrentSolvesShareNoState) {
  // Registered solvers are immutable after construction and keep all
  // mutable state per call (per-call Rng in the GA, per-Attempt scratch in
  // the heuristic, thread-safe magic statics in the registry): concurrent
  // solve() calls on the same solver and the same Problem must be clean
  // under TSan and agree with each other.
  const auto instances = suite(24, 3, 9000, /*count=*/1);
  ASSERT_FALSE(instances.empty());
  const Problem problem(instances.front().graph, instances.front().schedule);
  const std::vector<std::string> names = {"heuristic-lex", "memory-greedy",
                                          "ga", "round-robin"};
  for (const std::string& name : names) {
    const auto solver = SolverRegistry::builtin().require(name);
    constexpr int kCallers = 4;
    std::vector<Outcome> outcomes(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] { outcomes[c] = solver->solve(problem); });
    }
    for (std::thread& caller : callers) caller.join();
    for (int c = 1; c < kCallers; ++c) {
      EXPECT_EQ(outcomes[c].feasible(), outcomes[0].feasible()) << name;
      EXPECT_EQ(outcomes[c].stats.makespan_after,
                outcomes[0].stats.makespan_after)
          << name;
      EXPECT_EQ(outcomes[c].detail, outcomes[0].detail) << name;
    }
  }
}

TEST(ParallelEquivalence, ConcurrentBalancersOnSharedInput) {
  // One immutable input schedule, many LoadBalancer::balance calls racing
  // over it — the balancer must only ever read shared state (per-Attempt
  // working copies, per-pop scratch) for this to pass under TSan.
  const auto instances = suite(40, 4, 9500, /*count=*/1);
  ASSERT_FALSE(instances.empty());
  const Schedule& input = instances.front().schedule;
  const LoadBalancer balancer;
  constexpr int kCallers = 3;
  std::vector<std::optional<BalanceResult>> results(kCallers);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] { results[c] = balancer.balance(input); });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 1; c < kCallers; ++c) {
    ASSERT_TRUE(results[0].has_value() && results[c].has_value());
    expect_equal_schedules(results[0]->schedule, results[c]->schedule);
    expect_equal_outcomes(results[0]->stats, results[c]->stats);
  }
}

}  // namespace
}  // namespace lbmem

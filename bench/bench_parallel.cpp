/// \file bench_parallel.cpp
/// \brief Threading scaling sweep behind the `threads` knob (DESIGN.md
/// F20), recorded into BENCH_parallel.json by tools/bench_record.sh.
///
/// BM_SweepThreads sweeps thread counts 1/2/4/8 over ScenarioRunner
/// farming (instance x solver) cells onto the pool — an embarrassingly
/// parallel layer, expected to scale near-linearly up to the core count.
/// The report is bit-identical for every thread count (enforced by
/// tests/test_parallel_equivalence.cpp); the benchmark exports its result
/// signature as a counter so a scaling run doubles as a cross-thread-count
/// consistency check in the recorded JSON.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "lbmem/api/scenario.hpp"
#include "lbmem/gen/suites.hpp"

namespace {

using namespace lbmem;

SuiteSpec sweep_suite() {
  SuiteSpec spec;
  spec.params.tasks = 300;
  spec.params.period_levels = 3;
  spec.params.edge_probability = 0.15;
  spec.params.max_in_degree = 2;
  spec.params.intended_processors = 8;
  spec.processors = 8;
  spec.comm_cost = 2;
  spec.count = 4;
  spec.base_seed = 77'000;
  spec.max_seed_attempts = 200;
  return spec;
}

/// The sweep layer: instances x solvers cells on the pool.
void BM_SweepThreads(benchmark::State& state) {
  ScenarioSpec spec;
  spec.suite = sweep_suite();
  spec.solvers = {"heuristic-lex", "heuristic-memory", "round-robin",
                  "memory-greedy"};
  spec.threads = static_cast<int>(state.range(0));
  const ScenarioRunner runner;
  double makespan_sum = 0;
  for (auto _ : state) {
    const ScenarioReport report = runner.run(spec);
    benchmark::DoNotOptimize(report.cells.data());
    makespan_sum = 0;
    for (const ScenarioSolverSummary& row : report.summary) {
      makespan_sum += row.mean_makespan * row.solved;
    }
  }
  // Identical across thread counts by the determinism contract; recorded
  // so a scaling sweep's JSON carries its own consistency evidence.
  state.counters["makespan_sum"] = makespan_sum;
}

BENCHMARK(BM_SweepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

LBMEM_BENCHMARK_MAIN()

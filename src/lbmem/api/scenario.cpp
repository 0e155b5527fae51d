#include "lbmem/api/scenario.hpp"

#include <algorithm>

#include "lbmem/obs/metrics.hpp"
#include "lbmem/obs/trace.hpp"
#include "lbmem/sim/robustness.hpp"
#include "lbmem/util/thread_pool.hpp"

namespace lbmem {

ScenarioRunner::ScenarioRunner(const SolverRegistry& registry)
    : registry_(&registry) {}

ScenarioReport ScenarioRunner::run(const ScenarioSpec& spec) const {
  // Resolve the subset up front: an unknown name is a caller error and
  // must fail before minutes of workload generation, not after.
  std::vector<std::shared_ptr<const Solver>> solvers;
  if (spec.solvers.empty()) {
    solvers = registry_->solvers();
  } else {
    solvers.reserve(spec.solvers.size());
    for (const std::string& name : spec.solvers) {
      solvers.push_back(registry_->require(name));
    }
  }

  ScenarioReport report;
  report.summary.resize(solvers.size());
  for (std::size_t s = 0; s < solvers.size(); ++s) {
    report.summary[s].solver = solvers[s]->name();
  }

  int skipped = 0;
  const std::vector<SuiteInstance> suite = make_suite(spec.suite, &skipped);
  report.instances = static_cast<int>(suite.size());
  report.skipped_seeds = skipped;
  report.replications = spec.replications;

  // The (instance x solver) cells are independent units of work: each
  // builds its own Problem from the shared-immutable suite instance,
  // solves it, and fills exactly its own pre-sized slot — so the cell
  // order (instance-major) and everything derived from it are identical
  // for every thread count (DESIGN.md F20). push_back would be both
  // a data race and an ordering leak under the pool.
  const std::size_t width = solvers.size();
  report.cells.assign(suite.size() * width, ScenarioCell{});

  // Metric ids are resolved once, on this thread, before the sweep: the
  // pool workers then only shard-record, and the emitted name set is fixed
  // up front (one wall-time histogram per racing solver — Timing class,
  // wall clock is never deterministic; the cell counters are).
  obs::MetricId cells_id, feasible_id;
  std::vector<obs::MetricId> wall_ids(width);
  if (spec.metrics != nullptr) {
    cells_id = spec.metrics->counter("compare.cells",
                                     obs::MetricClass::Deterministic);
    feasible_id = spec.metrics->counter("compare.cells_feasible",
                                        obs::MetricClass::Deterministic);
    for (std::size_t s = 0; s < width; ++s) {
      wall_ids[s] = spec.metrics->histogram(
          "compare.wall_us." + solvers[s]->name(), obs::MetricClass::Timing);
    }
  }

  const auto solve_cell = [&](std::size_t idx) {
    obs::ScopedSpan cell_span("compare.cell", "compare");
    const SuiteInstance& instance = suite[idx / width];
    const std::shared_ptr<const Solver>& solver = solvers[idx % width];
    const Problem problem(instance.graph, instance.schedule);
    const Outcome outcome = solver->solve(problem);
    ScenarioCell& cell = report.cells[idx];
    cell.solver = solver->name();
    cell.seed = instance.seed;
    cell.feasible = outcome.feasible();
    cell.makespan = outcome.stats.makespan_after;
    cell.max_memory = outcome.stats.max_memory_after;
    cell.gain = outcome.stats.gain_total;
    cell.wall_seconds = outcome.stats.wall_seconds;
    cell.detail = outcome.detail;
    if (spec.metrics != nullptr) {
      spec.metrics->add(cells_id, 1);
      if (cell.feasible) spec.metrics->add(feasible_id, 1);
      spec.metrics->record(
          wall_ids[idx % width],
          static_cast<std::int64_t>(cell.wall_seconds * 1e6));
    }
    if (spec.replications > 0 && outcome.feasible()) {
      // Robustness replications: the instance's noise stream is shared by
      // every solver racing on it (seeded from the workload seed, not the
      // solver), so a task overruns identically under each schedule and
      // the miss-rate column compares schedules, not luck.
      RobustnessOptions rob;
      rob.sim = spec.sim;
      if (rob.sim.metrics == nullptr) rob.sim.metrics = spec.metrics;
      rob.perturb = spec.suite.perturb;
      rob.perturb.seed = perturb_hash(spec.suite.perturb.seed,
                                      kPerturbScenario, instance.seed);
      rob.replications = spec.replications;
      const RobustnessReport r = run_robustness(*outcome.schedule, rob);
      cell.perturbed = true;
      cell.rep_miss_rates.reserve(r.replications.size());
      for (const RobustnessReplication& rep : r.replications) {
        cell.rep_miss_rates.push_back(rep.miss_rate);
      }
      cell.miss_p50 = r.miss_p50;
      cell.miss_p99 = r.miss_p99;
      cell.mean_span_inflation = r.mean_span_inflation;
      cell.sim_violations = r.total_violations;
    }
  };
  // A team larger than the cell count would only spawn idle workers (and
  // an absurd --threads would exhaust the process's thread limit).
  const std::size_t threads = std::min(
      static_cast<std::size_t>(ThreadPool::resolve(spec.threads)),
      report.cells.size());
  if (threads > 1) {
    ThreadPool pool(static_cast<int>(threads));
    pool.parallel_for(report.cells.size(), solve_cell);
  } else {
    for (std::size_t idx = 0; idx < report.cells.size(); ++idx) {
      solve_cell(idx);
    }
  }

  // Summary post-pass on this thread, in cell order. Quality means
  // aggregate over the solved instances; wall time over all of them (a
  // solver that burns seconds before declaring infeasible must not look
  // free in the timing column).
  for (std::size_t idx = 0; idx < report.cells.size(); ++idx) {
    const ScenarioCell& cell = report.cells[idx];
    ScenarioSolverSummary& row = report.summary[idx % width];
    row.mean_wall_seconds += cell.wall_seconds;
    if (!cell.feasible) continue;
    ++row.solved;
    row.mean_makespan += static_cast<double>(cell.makespan);
    row.mean_max_memory += static_cast<double>(cell.max_memory);
    row.mean_gain += static_cast<double>(cell.gain);
  }
  for (ScenarioSolverSummary& row : report.summary) {
    if (row.solved > 0) {
      const double n = row.solved;
      row.mean_makespan /= n;
      row.mean_max_memory /= n;
      row.mean_gain /= n;
    }
    if (report.instances > 0) {
      row.mean_wall_seconds /= report.instances;
    }
  }

  // Robustness post-pass (sequential, cell order): pool every replication
  // of every solved instance per solver and take nearest-rank percentiles
  // — deterministic because the pooled order is the cell order.
  if (spec.replications > 0) {
    for (std::size_t s = 0; s < width; ++s) {
      std::vector<double> pooled;
      double inflation_sum = 0.0;
      int perturbed_cells = 0;
      for (std::size_t idx = s; idx < report.cells.size(); idx += width) {
        const ScenarioCell& cell = report.cells[idx];
        if (!cell.perturbed) continue;
        pooled.insert(pooled.end(), cell.rep_miss_rates.begin(),
                      cell.rep_miss_rates.end());
        inflation_sum += cell.mean_span_inflation;
        ++perturbed_cells;
      }
      ScenarioSolverSummary& row = report.summary[s];
      row.miss_p50 = robustness_percentile(pooled, 50.0);
      row.miss_p99 = robustness_percentile(pooled, 99.0);
      if (perturbed_cells > 0) {
        row.mean_span_inflation = inflation_sum / perturbed_cells;
      }
    }
  }

  // Adaptive post-pass (DESIGN.md F30), sequential and in suite order: a
  // virtual policy that, per instance, mirrors the cell of the candidate
  // with the best pooled miss rate observed on the previous instances.
  // Pure fold over already-solved cells — thread-count invariant, and the
  // per-instance noise streams are solver-fair (F24), so the pool compares
  // schedules, not luck.
  if (spec.adaptive && spec.replications > 0 && width > 0) {
    report.adaptive = true;
    std::vector<std::string> names;
    names.reserve(width);
    for (const auto& solver : solvers) names.push_back(solver->name());
    MissRateSelector selector(std::move(names));
    ScenarioSolverSummary& row = report.adaptive_summary;
    row.solver = "adaptive";
    report.adaptive_picks.reserve(suite.size());
    std::vector<double> pooled;
    double inflation_sum = 0.0;
    int perturbed_cells = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const int pick = selector.pick();
      const ScenarioCell& cell =
          report.cells[i * width + static_cast<std::size_t>(pick)];
      report.adaptive_picks.push_back(cell.solver);
      row.mean_wall_seconds += cell.wall_seconds;
      if (cell.feasible) {
        ++row.solved;
        row.mean_makespan += static_cast<double>(cell.makespan);
        row.mean_max_memory += static_cast<double>(cell.max_memory);
        row.mean_gain += static_cast<double>(cell.gain);
      }
      if (cell.perturbed) {
        double sum = 0.0;
        for (const double m : cell.rep_miss_rates) sum += m;
        selector.observe(pick, cell.rep_miss_rates.empty()
                                   ? 0.0
                                   : sum / cell.rep_miss_rates.size());
        pooled.insert(pooled.end(), cell.rep_miss_rates.begin(),
                      cell.rep_miss_rates.end());
        inflation_sum += cell.mean_span_inflation;
        ++perturbed_cells;
      } else {
        // An infeasible pick still teaches the policy: a schedule that
        // does not exist misses every deadline.
        selector.observe(pick, 1.0);
      }
    }
    if (row.solved > 0) {
      const double n = row.solved;
      row.mean_makespan /= n;
      row.mean_max_memory /= n;
      row.mean_gain /= n;
    }
    if (report.instances > 0) {
      row.mean_wall_seconds /= report.instances;
    }
    row.miss_p50 = robustness_percentile(pooled, 50.0);
    row.miss_p99 = robustness_percentile(pooled, 99.0);
    if (perturbed_cells > 0) {
      row.mean_span_inflation = inflation_sum / perturbed_cells;
    }
  }
  return report;
}

}  // namespace lbmem

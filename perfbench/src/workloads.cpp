#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "lbmem/gen/random_graph.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sched/scheduler.hpp"
#include "lbmem/stream/coalescer.hpp"
#include "lbmem/stream/service.hpp"
#include "lbmem/util/check.hpp"
#include "lbmem/util/rng.hpp"
#include "lbmem/validate/validator.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace lbmem;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workload constants
// ---------------------------------------------------------------------------

constexpr int kProcs = 8;
constexpr Time kCommCost = 2;
constexpr int kMaxSeedAttempts = 50;

// offline: kOfflineSystems systems of kOfflineTasks tasks; the first
// kPeriodClusterSystems are placed by PeriodCluster (skewed memory, many
// moves), the rest by MinStartTime (already spread, most candidates
// pruned). The two kinds solve at different speeds; an odd split keeps the
// median solve inside one kind rather than on the gap between them.
constexpr int kOfflineTasks = 4000;
constexpr int kOfflineSystems = 16;
constexpr int kPeriodClusterSystems = 9;
constexpr int kTracedPasses = 3;

// modechange / churn: kTenants independent balanced systems of kOnlineTasks
// tasks, each with its own trace, served by one open loop. Many short
// histories instead of one long one keep a run's figures from hanging on
// the path a single system happens to take. One trace tick is kTickMs of
// wall time; a tenant's admission window of kCycleTicks ticks is due at its
// close, and tenant k's windows come due k/kTenants of a window later than
// tenant 0's, so that windows come due evenly.
constexpr int kOnlineTasks = 1000;
constexpr int kTenants = 72;
constexpr Time kCycleTicks = 4000;
constexpr double kTickMs = 1.0;
// Offered rates over all tenants (events per second of wall time), about
// half of what the engine drains per busy second on each workload.
constexpr double kModechangeRate = 90.0;
constexpr double kChurnRate = 60.0;
// Largest WCET of a re-estimate or an arriving task, as a share of the
// task's period.
constexpr double kWcetCeiling = 0.5;
// modechange: share of re-estimates aimed at the hot set, and its size.
constexpr double kHotShare = 0.5;
constexpr int kHotTasks = 8;
// churn: relative weights of arrival, removal and re-estimate.
constexpr double kArrivalWeight = 0.40;
constexpr double kRemovalWeight = 0.35;
constexpr double kWcetWeight = 0.25;

enum class Kind { Offline, Modechange, Churn };

Kind parse_kind(const std::string& name) {
  if (name == "offline") return Kind::Offline;
  if (name == "modechange") return Kind::Modechange;
  if (name == "churn") return Kind::Churn;
  throw std::invalid_argument("unknown workload: " + name);
}

/// Independent 64-bit stream \p stream of seed \p seed (splitmix64).
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Median of the per-system set-up times.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

RandomGraphParams graph_params(int tasks) {
  RandomGraphParams params;
  params.tasks = tasks;
  params.period_levels = 3;
  params.edge_probability = 0.15;
  params.max_in_degree = 2;
  params.intended_processors = kProcs;
  return params;
}

/// Violations of \p engine's schedule: validator findings plus instances
/// left on a failed processor (a rule the validator cannot know).
int engine_violations(const Rebalancer& engine) {
  int violations =
      static_cast<int>(validate(engine.schedule()).violations.size());
  const auto& failed = engine.failed_procs();
  for (ProcId p = 0; p < static_cast<ProcId>(failed.size()); ++p) {
    if (failed[static_cast<std::size_t>(p)] &&
        !engine.schedule().instances_on(p).empty()) {
      ++violations;
    }
  }
  return violations;
}

// ---------------------------------------------------------------------------
// Per-layer metrics: one list, printed for every workload (0 where a layer
// does not run).
// ---------------------------------------------------------------------------

const char* const kEventKinds[] = {"arrival", "removal", "wcet", "failure"};

struct Layers {
  std::vector<double> model_build_ms;
  std::vector<double> sched_initial_ms;
  std::vector<double> lb_balance_ms;
  BalanceStats lb;  ///< summed counters (offline, per pass)
  std::int64_t lb_fell_back = 0;
  std::int64_t lb_dirty_blocks = 0;
  std::int64_t lb_balance_moves = 0;
  std::vector<double> validate_ms;
  std::int64_t validate_violations = 0;
  /// online.apply_ms samples keyed "<kind>.<applied|rejected>".
  std::map<std::string, std::vector<double>> apply_ms;
  std::int64_t repaired_tasks = 0;
  std::int64_t migrated_instances = 0;
  std::int64_t graph_rebuilds = 0;
  std::int64_t full_replaces = 0;
  std::vector<double> coalesce_ms;
  std::int64_t coalesced = 0;
  std::int64_t admitted = 0;
  std::vector<double> batch_events;
  std::vector<double> wait_ms;
  std::vector<double> late_ms;
  std::int64_t backlog_max = 0;
  double trace_overhead_frac = 0.0;
};

void add_balance_stats(Layers& layers, const BalanceStats& s) {
  BalanceStats& sum = layers.lb;
  sum.blocks_total += s.blocks_total;
  sum.moves_off_home += s.moves_off_home;
  sum.forced_stays += s.forced_stays;
  sum.attempts_used += s.attempts_used;
  sum.dest_evaluated += s.dest_evaluated;
  sum.dest_skipped_by_bound += s.dest_skipped_by_bound;
  layers.lb_fell_back += s.fell_back ? 1 : 0;
}

void emit_layers(const Layers& l, MetricSheet& m) {
  m.add("model.build_ms", mean(l.model_build_ms), "ms");
  m.add("sched.initial_ms", mean(l.sched_initial_ms), "ms");
  m.add("lb.balance_ms", mean(l.lb_balance_ms), "ms");
  m.add("lb.blocks", static_cast<double>(l.lb.blocks_total), "count");
  m.add("lb.moves_off_home", static_cast<double>(l.lb.moves_off_home),
        "count");
  m.add("lb.forced_stays", static_cast<double>(l.lb.forced_stays), "count");
  m.add("lb.dest_evaluated", static_cast<double>(l.lb.dest_evaluated),
        "count");
  m.add("lb.prune_ratio",
        ratio(static_cast<double>(l.lb.dest_skipped_by_bound),
              static_cast<double>(l.lb.dest_evaluated +
                                  l.lb.dest_skipped_by_bound)),
        "ratio");
  m.add("lb.attempts_used", static_cast<double>(l.lb.attempts_used),
        "count");
  m.add("lb.fell_back", static_cast<double>(l.lb_fell_back), "count");
  m.add("lb.dirty_blocks", static_cast<double>(l.lb_dirty_blocks), "count");
  m.add("lb.balance_moves", static_cast<double>(l.lb_balance_moves),
        "count");
  m.add("validate.ms", mean(l.validate_ms), "ms");
  m.add("validate.calls", static_cast<double>(l.validate_ms.size()),
        "count");
  m.add("validate.violations", static_cast<double>(l.validate_violations),
        "count");
  for (const char* kind : kEventKinds) {
    for (const char* verdict : {"applied", "rejected"}) {
      const std::string key = std::string(kind) + "." + verdict;
      const auto it = l.apply_ms.find(key);
      const std::vector<double> none;
      const std::vector<double>& samples =
          it != l.apply_ms.end() ? it->second : none;
      m.add("online.apply_ms." + key + ".p50", percentile(samples, 50.0),
            "ms");
      m.add("online.apply_ms." + key + ".count",
            static_cast<double>(samples.size()), "count");
    }
  }
  m.add("online.repaired_tasks", static_cast<double>(l.repaired_tasks),
        "count");
  m.add("online.migrated_instances",
        static_cast<double>(l.migrated_instances), "count");
  m.add("online.graph_rebuilds", static_cast<double>(l.graph_rebuilds),
        "count");
  m.add("online.full_replaces", static_cast<double>(l.full_replaces),
        "count");
  m.add("stream.coalesce_ms", mean(l.coalesce_ms), "ms");
  m.add("stream.coalesced_frac",
        ratio(static_cast<double>(l.coalesced),
              static_cast<double>(l.admitted)),
        "ratio");
  m.add("stream.batch_events_p50", percentile(l.batch_events, 50.0),
        "count");
  m.add("stream.wait_ms_p50", percentile(l.wait_ms, 50.0), "ms");
  m.add("stream.wait_ms_p90", percentile(l.wait_ms, 90.0), "ms");
  m.add("stream.backlog_max", static_cast<double>(l.backlog_max), "count");
  m.add("ingress.late_ms_p90", percentile(l.late_ms, 90.0), "ms");
  m.add("trace_overhead_frac", l.trace_overhead_frac, "ratio");
}

// ---------------------------------------------------------------------------
// offline
// ---------------------------------------------------------------------------

struct OfflineSystem {
  std::unique_ptr<TaskGraph> graph;
  PlacementPolicy policy = PlacementPolicy::PeriodCluster;
  std::uint64_t seed = 0;
};

/// System \p i of the suite: the first seed of stream i whose graph the
/// scheduler can place under the system's policy.
OfflineSystem build_system(std::uint64_t seed, int i, SpanLog* log) {
  const RandomGraphParams params = graph_params(kOfflineTasks);
  OfflineSystem system;
  system.policy = i < kPeriodClusterSystems ? PlacementPolicy::PeriodCluster
                                             : PlacementPolicy::MinStartTime;
  for (int attempt = 0; attempt < kMaxSeedAttempts; ++attempt) {
    const std::uint64_t s =
        derive(seed, static_cast<std::uint64_t>(i) * 1000 +
                         static_cast<std::uint64_t>(attempt));
    std::unique_ptr<TaskGraph> graph;
    {
      ScopedSpan span(log, "model.build");
      graph = std::make_unique<TaskGraph>(random_task_graph(params, s));
    }
    try {
      ScopedSpan span(log, "setup.feasibility");
      SchedulerOptions options;
      options.policy = system.policy;
      build_initial_schedule(*graph, Architecture(kProcs),
                             CommModel::flat(kCommCost), options);
    } catch (const ScheduleError&) {
      continue;  // unschedulable seed: not part of the workload
    }
    system.graph = std::move(graph);
    system.seed = s;
    return system;
  }
  throw std::runtime_error("no schedulable offline system for slot " +
                           std::to_string(i));
}

struct SolveOutcome {
  BalanceStats stats;
  int violations = 0;
  double ms = 0.0;
};

/// One design-time solve: schedule -> balance -> validate.
SolveOutcome solve(const OfflineSystem& system, std::int64_t request,
                   SpanLog* log, Layers* layers) {
  SolveOutcome out;
  const Clock::time_point t0 = Clock::now();
  ScopedSpan whole(log, "solve", request);
  SchedulerOptions options;
  options.policy = system.policy;
  ScopedSpan sched_span(log, "sched.initial", request);
  const Schedule initial =
      build_initial_schedule(*system.graph, Architecture(kProcs),
                             CommModel::flat(kCommCost), options);
  const double sched_ms = sched_span.close();
  ScopedSpan lb_span(log, "lb.balance", request);
  BalanceResult balanced = LoadBalancer().balance(initial);
  const double lb_ms = lb_span.close();
  ScopedSpan validate_span(log, "validate", request);
  out.violations =
      static_cast<int>(validate(balanced.schedule).violations.size());
  const double validate_ms = validate_span.close();
  whole.close();
  out.ms = ms_between(t0, Clock::now());
  out.stats = std::move(balanced.stats);
  if (layers != nullptr) {
    layers->sched_initial_ms.push_back(sched_ms);
    layers->lb_balance_ms.push_back(lb_ms);
    layers->validate_ms.push_back(validate_ms);
    layers->validate_violations += out.violations;
  }
  return out;
}

bool same_result(const SolveOutcome& a, const SolveOutcome& b) {
  return a.violations == b.violations &&
         a.stats.makespan_after == b.stats.makespan_after &&
         a.stats.max_memory_after == b.stats.max_memory_after &&
         a.stats.moves_off_home == b.stats.moves_off_home &&
         a.stats.forced_stays == b.stats.forced_stays;
}

RunResult run_offline(const RunConfig& config) {
  RunResult result;
  SpanLog span_log;
  SpanLog* log = config.trace ? &span_log : nullptr;

  // ---- set-up: generate the suite, timing each system -------------------
  std::vector<double> setup_s;
  std::vector<OfflineSystem> suite;
  for (int i = 0; i < kOfflineSystems; ++i) {
    const Clock::time_point t0 = Clock::now();
    suite.push_back(build_system(config.seed, i, log));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // ---- untraced run: whole passes over the suite until the time is up ---
  std::vector<SolveOutcome> reference;
  std::vector<double> solve_ms;
  double busy_ms = 0.0;
  std::int64_t request = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      SolveOutcome out = solve(suite[i], request++, nullptr, nullptr);
      solve_ms.push_back(out.ms);
      busy_ms += out.ms;
      ++result.attempted;
      bool ok = true;
      if (out.violations != 0) {
        ok = false;
        result.problems.push_back("solve " + std::to_string(i) + ": " +
                                  std::to_string(out.violations) +
                                  " violations");
      }
      if (out.stats.makespan_after > out.stats.makespan_before) {
        ok = false;
        result.problems.push_back("solve " + std::to_string(i) +
                                  ": makespan grew");
      }
      if (reference.size() < suite.size()) {
        reference.push_back(std::move(out));
      } else if (!same_result(reference[i], out)) {
        ok = false;
        result.problems.push_back("solve " + std::to_string(i) +
                                  ": repeated solve differs");
      }
      if (!ok) ++result.failed;
    }
  } while (ms_between(start, Clock::now()) < config.seconds * 1000.0);

  double mem_before = 0.0, mem_after = 0.0, mk_before = 0.0, mk_after = 0.0;
  double forced = 0.0, blocks = 0.0;
  for (const SolveOutcome& out : reference) {
    mem_before += static_cast<double>(out.stats.max_memory_before);
    mem_after += static_cast<double>(out.stats.max_memory_after);
    mk_before += static_cast<double>(out.stats.makespan_before);
    mk_after += static_cast<double>(out.stats.makespan_after);
    forced += out.stats.forced_stays;
    blocks += out.stats.blocks_total;
  }

  if (!config.trace) {
    MetricSheet& m = result.metrics;
    m.add("setup_s", median(setup_s), "s");
    // A solve is due when it is issued (closed loop), so its latency is
    // its solve time.
    m.add("solve_ms_p50", percentile(solve_ms, 50.0), "ms");
    m.add("solve_ms_p90", percentile(solve_ms, 90.0), "ms");
    m.add("latency_ms_p50", percentile(solve_ms, 50.0), "ms");
    m.add("latency_ms_p90", percentile(solve_ms, 90.0), "ms");
    m.add("capacity_eps",
          static_cast<double>(solve_ms.size()) / (busy_ms / 1000.0), "1/s");
    m.add("reject_frac", ratio(forced, blocks), "ratio");
    m.add("mem_peak_ratio", ratio(mem_after, mem_before), "ratio");
    m.add("makespan_ratio", ratio(mk_after, mk_before), "ratio");
    return result;
  }

  // ---- traced run: fixed passes, spans around every layer call ----------
  Layers layers;
  layers.model_build_ms = span_log.durations_ms("model.build");
  double traced_ms = 0.0;
  std::int64_t traced_solves = 0;
  for (int pass = 0; pass < kTracedPasses; ++pass) {
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const SolveOutcome out = solve(suite[i], request++, log, &layers);
      traced_ms += out.ms;
      ++traced_solves;
      if (pass == 0) add_balance_stats(layers, out.stats);
      if (!same_result(reference[i], out)) {
        result.problems.push_back("traced solve " + std::to_string(i) +
                                  " differs from the untraced solve");
      }
    }
  }
  layers.trace_overhead_frac =
      ratio(traced_ms / static_cast<double>(traced_solves),
            busy_ms / static_cast<double>(solve_ms.size())) -
      1.0;
  emit_layers(layers, result.metrics);
  if (!config.spans_out.empty() && !span_log.write_csv(config.spans_out)) {
    result.problems.push_back("cannot write " + config.spans_out);
  }
  return result;
}

// ---------------------------------------------------------------------------
// modechange / churn
// ---------------------------------------------------------------------------

Time draw_gap(Rng& rng, double mean_gap) {
  return static_cast<Time>(
      std::llround(-mean_gap * std::log(1.0 - rng.uniform01())));
}

Time draw_wcet(Rng& rng, Time period) {
  const auto ceiling =
      static_cast<Time>(static_cast<double>(period) * kWcetCeiling);
  return rng.uniform(1, std::max<Time>(1, ceiling));
}

/// WCET re-estimates only: kHotShare of them on a small hot set, skewed
/// towards its first members (weight 1/(r+1)), the rest uniform.
EventTrace modechange_trace(const TaskGraph& graph, std::uint64_t seed,
                            Time horizon) {
  Rng rng(seed);
  const auto n = static_cast<std::int64_t>(graph.task_count());
  std::vector<TaskId> order(static_cast<std::size_t>(n));
  for (std::int64_t t = 0; t < n; ++t) {
    order[static_cast<std::size_t>(t)] = static_cast<TaskId>(t);
  }
  rng.shuffle(order);
  const std::vector<TaskId> hot(order.begin(), order.begin() + kHotTasks);
  std::vector<double> hot_weight;
  for (int r = 0; r < kHotTasks; ++r) hot_weight.push_back(1.0 / (r + 1));

  EventTrace trace;
  const double mean_gap = 1000.0 * kTenants / kModechangeRate / kTickMs;
  for (Time now = draw_gap(rng, mean_gap); now < horizon;
       now += draw_gap(rng, mean_gap)) {
    const TaskId t = rng.chance(kHotShare)
                         ? hot[rng.pick_weighted(hot_weight)]
                         : static_cast<TaskId>(rng.uniform(0, n - 1));
    const Task& task = graph.task(t);
    Event event;
    event.at = now;
    event.payload = WcetChange{task.name, draw_wcet(rng, task.period)};
    trace.push_back(std::move(event));
  }
  return trace;
}

/// Mostly arrivals and removals and some re-estimates; with \p fail, one
/// processor failure at the middle of the trace.
EventTrace churn_trace(const TaskGraph& graph, std::uint64_t seed,
                       Time horizon, bool fail) {
  Rng rng(seed);
  struct Alive {
    std::string name;
    Time period;
  };
  std::vector<Alive> alive;
  std::vector<Time> periods;
  for (const Task& task : graph.tasks()) {
    alive.push_back(Alive{task.name, task.period});
    periods.push_back(task.period);
  }
  std::sort(periods.begin(), periods.end());
  periods.erase(std::unique(periods.begin(), periods.end()), periods.end());
  const std::vector<double> weights = {kArrivalWeight, kRemovalWeight,
                                       kWcetWeight};
  const auto pick_alive = [&]() -> std::size_t {
    return static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(alive.size()) - 1));
  };

  EventTrace trace;
  bool failed = !fail;
  int next_dyn = 0;
  const double mean_gap = 1000.0 * kTenants / kChurnRate / kTickMs;
  for (Time now = draw_gap(rng, mean_gap); now < horizon;
       now += draw_gap(rng, mean_gap)) {
    if (!failed && now >= horizon / 2) {
      failed = true;
      Event event;
      event.at = now;
      event.payload =
          ProcessorFailure{static_cast<ProcId>(rng.uniform(0, kProcs - 1))};
      trace.push_back(std::move(event));
      continue;
    }
    std::size_t kind = rng.pick_weighted(weights);
    if (kind == 1 && alive.size() <= 1) kind = 2;
    Event event;
    event.at = now;
    if (kind == 0) {
      NewTaskSpec spec;
      spec.name = "dyn" + std::to_string(next_dyn++);
      spec.period = periods[static_cast<std::size_t>(rng.uniform(
          0, static_cast<std::int64_t>(periods.size()) - 1))];
      spec.wcet = draw_wcet(rng, spec.period);
      spec.memory = rng.uniform(1, 12);
      const int wanted = static_cast<int>(rng.uniform(0, 2));
      for (int tries = 0;
           static_cast<int>(spec.producers.size()) < wanted && tries < 16;
           ++tries) {
        const Alive& producer = alive[pick_alive()];
        const bool harmonic = producer.period % spec.period == 0 ||
                              spec.period % producer.period == 0;
        const bool duplicate = std::any_of(
            spec.producers.begin(), spec.producers.end(),
            [&](const NewTaskSpec::Producer& p) {
              return p.task == producer.name;
            });
        if (harmonic && !duplicate) {
          spec.producers.push_back(
              NewTaskSpec::Producer{producer.name, rng.uniform(1, 6)});
        }
      }
      alive.push_back(Alive{spec.name, spec.period});
      event.payload = TaskArrival{std::move(spec)};
    } else if (kind == 1) {
      const std::size_t victim = pick_alive();
      event.payload = TaskRemoval{alive[victim].name};
      alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const Alive& task = alive[pick_alive()];
      event.payload = WcetChange{task.name, draw_wcet(rng, task.period)};
    }
    trace.push_back(std::move(event));
  }
  return trace;
}

/// One tenant: a balanced running system and the trace it will serve.
struct Tenant {
  std::unique_ptr<TaskGraph> graph;
  std::optional<Schedule> balanced;
  std::optional<Rebalancer> engine;
  EventTrace trace;
};

/// Tenant \p k of the run: its graph comes from the first schedulable
/// seed of its stream, its trace from a stream of its own.
Tenant setup_tenant(Kind kind, const RunConfig& config, int k,
                    SpanLog* log) {
  Tenant tenant;
  const RandomGraphParams params = graph_params(kOnlineTasks);
  const auto stream = static_cast<std::uint64_t>(k) * 1000;
  std::optional<Schedule> initial;
  for (int attempt = 0; attempt < kMaxSeedAttempts && !initial; ++attempt) {
    {
      ScopedSpan span(log, "model.build");
      tenant.graph = std::make_unique<TaskGraph>(random_task_graph(
          params,
          derive(config.seed, stream + static_cast<std::uint64_t>(attempt))));
    }
    try {
      ScopedSpan span(log, "setup.schedule");
      initial.emplace(build_initial_schedule(*tenant.graph,
                                             Architecture(kProcs),
                                             CommModel::flat(kCommCost)));
    } catch (const ScheduleError&) {
      // unschedulable seed: not part of the workload
    }
  }
  if (!initial) throw std::runtime_error("no schedulable online system");
  {
    ScopedSpan span(log, "setup.balance");
    tenant.balanced.emplace(LoadBalancer().balance(*initial).schedule);
  }
  {
    ScopedSpan span(log, "setup.trace");
    const auto horizon =
        static_cast<Time>(std::llround(config.seconds * 1000.0 / kTickMs));
    const std::uint64_t trace_seed = derive(config.seed, stream + 999);
    tenant.trace = kind == Kind::Modechange
                       ? modechange_trace(*tenant.graph, trace_seed, horizon)
                       : churn_trace(*tenant.graph, trace_seed, horizon,
                                     /*fail=*/k == 0);
  }
  {
    ScopedSpan span(log, "setup.adopt");
    tenant.engine.emplace(
        Rebalancer::adopt(*tenant.graph, *tenant.balanced));
  }
  return tenant;
}

/// One admission window of one tenant: its events and when it is due (its
/// close), in ms after the open loop starts.
struct Window {
  double due_ms = 0.0;
  int tenant = 0;
  EventTrace events;
};

/// Every tenant's windows, in the order they come due.
std::vector<Window> make_windows(const std::vector<Tenant>& tenants) {
  std::vector<Window> windows;
  for (int k = 0; k < static_cast<int>(tenants.size()); ++k) {
    const double offset_ms = static_cast<double>(kCycleTicks) * kTickMs *
                             k / static_cast<double>(tenants.size());
    Time current = -1;
    for (const Event& event : tenants[static_cast<std::size_t>(k)].trace) {
      const Time index = event.at / kCycleTicks;
      if (index != current) {
        current = index;
        windows.push_back(Window{
            static_cast<double>((index + 1) * kCycleTicks) * kTickMs +
                offset_ms,
            k,
            {}});
      }
      windows.back().events.push_back(event);
    }
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.due_ms < b.due_ms;
                   });
  return windows;
}

/// What serving one window produced.
struct WindowOutcome {
  std::int64_t applied = 0;
  std::int64_t rejected = 0;
  std::int64_t deferred = 0;
  std::int64_t coalesced = 0;
  std::int64_t shed = 0;
  int violations = 0;
};

/// Everything the open loop measured.
struct LoopResult {
  std::vector<double> serve_ms;    ///< per window
  std::vector<double> latency_ms;  ///< per admitted event
  std::vector<double> wait_ms;     ///< per window: due -> start of serving
  std::vector<double> late_ms;     ///< per idle handover
  std::vector<double> batch_events;
  std::int64_t backlog_max = 0;
  double busy_ms = 0.0;
  std::int64_t admitted = 0;
  std::int64_t applied = 0;
  std::int64_t rejected = 0;
  std::int64_t deferred = 0;
  std::int64_t coalesced = 0;
  std::int64_t shed = 0;
  std::int64_t failed = 0;  ///< events in windows that ended invalid
};

/// The open loop: window i is handed to \p serve at its due time, or as
/// soon as the engine is free if it is busy then; due windows wait in
/// order. The generator never slows down for the engine.
template <class ServeFn>
LoopResult open_loop(const std::vector<Window>& windows, ServeFn&& serve) {
  LoopResult r;
  const Clock::time_point start = Clock::now();
  const auto due_at = [&](const Window& w) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(w.due_ms));
  };
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Window& window = windows[i];
    const Clock::time_point due = due_at(window);
    Clock::time_point begin = Clock::now();
    if (begin < due) {
      // Spin instead of sleeping: a sleeping thread's core drops into idle
      // states and its caches cool, which slows the next window by an
      // amount that depends on whatever else the host runs meanwhile.
      while (Clock::now() < due) {
      }
      begin = Clock::now();
      r.late_ms.push_back(ms_between(due, begin));
    }
    std::int64_t backlog = 0;
    for (std::size_t j = i; j < windows.size() && due_at(windows[j]) <= begin;
         ++j) {
      backlog += static_cast<std::int64_t>(windows[j].events.size());
    }
    r.backlog_max = std::max(r.backlog_max, backlog);
    r.wait_ms.push_back(ms_between(due, begin));

    const WindowOutcome out = serve(window, static_cast<std::int64_t>(i));
    const Clock::time_point end = Clock::now();
    const double serve_ms = ms_between(begin, end);
    r.serve_ms.push_back(serve_ms);
    r.busy_ms += serve_ms;
    const double latency = ms_between(due, end);
    for (std::size_t e = 0; e < window.events.size(); ++e) {
      r.latency_ms.push_back(latency);
    }
    const auto n = static_cast<std::int64_t>(window.events.size());
    r.admitted += n - out.shed;
    r.applied += out.applied;
    r.rejected += out.rejected;
    r.deferred += out.deferred;
    r.coalesced += out.coalesced;
    r.shed += out.shed;
    r.batch_events.push_back(
        static_cast<double>(out.applied + out.rejected + out.deferred));
    if (out.violations != 0) r.failed += n;
  }
  return r;
}

StreamOptions stream_options() {
  StreamOptions options;
  options.cycle_ticks = kCycleTicks;
  options.queue_capacity = 0;  // unbounded: a window is never shed
  options.batch_max = 1 << 30;
  options.budget_us = 0;  // drain the whole window in its one cycle
  options.coalesce = true;
  options.validate_final = true;
  return options;
}

/// serve()'s steps called one by one, with a span around each.
WindowOutcome serve_traced(Rebalancer& engine, const Window& window,
                           std::int64_t request, SpanLog& log,
                           Layers& layers) {
  WindowOutcome out;
  ScopedSpan whole(&log, "stream.serve", request);
  EventTrace survivors;
  if (window.events.size() > 1) {
    ScopedSpan span(&log, "stream.coalesce", request);
    CoalesceStats stats;
    survivors = coalesce_events(window.events, &stats);
    layers.coalesce_ms.push_back(span.close());
    out.coalesced = stats.dropped();
  } else {
    survivors = window.events;
  }
  for (const Event& event : survivors) {
    ScopedSpan span(&log, "online.apply", request);
    const EventOutcome outcome = engine.apply(event);
    const double ms = span.close();
    if (outcome.applied) {
      ++out.applied;
    } else if (outcome.deferred) {
      ++out.deferred;
    } else {
      ++out.rejected;
    }
    layers.apply_ms[to_string(event.kind()) +
                    (outcome.applied ? ".applied" : ".rejected")]
        .push_back(ms);
    layers.repaired_tasks += outcome.repaired_tasks;
    layers.migrated_instances += outcome.migrated_instances;
    layers.graph_rebuilds += outcome.graph_rebuilt ? 1 : 0;
    layers.full_replaces += outcome.full_replace ? 1 : 0;
    layers.lb_dirty_blocks += outcome.dirty_blocks;
    layers.lb_balance_moves += outcome.balance_moves;
  }
  ScopedSpan span(&log, "validate", request);
  out.violations = engine_violations(engine);
  layers.validate_ms.push_back(span.close());
  layers.validate_violations += out.violations;
  return out;
}

/// Sum of \p f(tenant) over the tenants.
template <class F>
double tenant_sum(const std::vector<Tenant>& tenants, F&& f) {
  double sum = 0.0;
  for (const Tenant& t : tenants) sum += static_cast<double>(f(t));
  return sum;
}

RunResult run_online(Kind kind, const RunConfig& config) {
  RunResult result;
  SpanLog span_log;
  SpanLog* log = config.trace ? &span_log : nullptr;

  // ---- set-up, timing each tenant ----------------------------------------
  std::vector<double> setup_s;
  std::vector<Tenant> tenants;
  for (int k = 0; k < kTenants; ++k) {
    const Clock::time_point t0 = Clock::now();
    tenants.push_back(setup_tenant(kind, config, k, log));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  const double makespan_before = tenant_sum(
      tenants, [](const Tenant& t) { return t.balanced->makespan(); });
  const double memory_before = tenant_sum(
      tenants, [](const Tenant& t) { return t.balanced->max_memory(); });
  const std::vector<Window> windows = make_windows(tenants);

  // ---- untraced run: every window goes through StreamService::serve -----
  const StreamService service(stream_options());
  const LoopResult run =
      open_loop(windows, [&](const Window& window, std::int64_t) {
        Rebalancer& engine =
            *tenants[static_cast<std::size_t>(window.tenant)].engine;
        const StreamReport report = service.serve(engine, window.events);
        WindowOutcome out;
        out.applied = report.applied;
        out.rejected = report.rejected;
        out.deferred = report.deferred;
        out.coalesced = report.coalesced;
        out.shed = report.shed_overflow;
        out.violations = report.final_violations;
        return out;
      });

  for (const Window& window : windows) {
    result.attempted += static_cast<std::int64_t>(window.events.size());
  }
  result.failed = run.shed + run.failed;
  if (run.shed != 0) {
    result.problems.push_back(std::to_string(run.shed) +
                              " events shed at admission");
  }
  if (run.failed != 0) {
    result.problems.push_back("serve() reported violations");
  }
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    const int violations = engine_violations(*tenants[k].engine);
    if (violations != 0) {
      ++result.failed;
      result.problems.push_back("tenant " + std::to_string(k) +
                                " final schedule: " +
                                std::to_string(violations) + " violations");
    }
  }

  if (!config.trace) {
    MetricSheet& m = result.metrics;
    m.add("setup_s", median(setup_s), "s");
    m.add("solve_ms_p50", percentile(run.serve_ms, 50.0), "ms");
    m.add("solve_ms_p90", percentile(run.serve_ms, 90.0), "ms");
    m.add("latency_ms_p50", percentile(run.latency_ms, 50.0), "ms");
    m.add("latency_ms_p90", percentile(run.latency_ms, 90.0), "ms");
    m.add("capacity_eps",
          static_cast<double>(run.applied + run.rejected + run.deferred) /
              (run.busy_ms / 1000.0),
          "1/s");
    m.add("reject_frac",
          ratio(static_cast<double>(run.rejected),
                static_cast<double>(run.admitted)),
          "ratio");
    m.add("mem_peak_ratio",
          ratio(tenant_sum(tenants,
                           [](const Tenant& t) {
                             return t.engine->schedule().max_memory();
                           }),
                memory_before),
          "ratio");
    m.add("makespan_ratio",
          ratio(tenant_sum(tenants,
                           [](const Tenant& t) {
                             return t.engine->schedule().makespan();
                           }),
                makespan_before),
          "ratio");
    return result;
  }

  // ---- traced run: the same windows, serve()'s steps one by one ----------
  Layers layers;
  layers.model_build_ms = span_log.durations_ms("model.build");
  std::vector<Rebalancer> traced;
  for (const Tenant& t : tenants) {
    traced.push_back(Rebalancer::adopt(*t.graph, *t.balanced));
  }
  const LoopResult trun =
      open_loop(windows, [&](const Window& window, std::int64_t request) {
        return serve_traced(traced[static_cast<std::size_t>(window.tenant)],
                            window, request, span_log, layers);
      });
  layers.coalesced = trun.coalesced;
  layers.admitted = trun.admitted;
  layers.batch_events = trun.batch_events;
  layers.wait_ms = trun.wait_ms;
  layers.late_ms = trun.late_ms;
  layers.backlog_max = trun.backlog_max;
  layers.trace_overhead_frac = ratio(trun.busy_ms, run.busy_ms) - 1.0;

  // Fidelity: the traced run must be the same program run.
  const auto expect_same = [&](const std::string& what, std::int64_t want,
                               std::int64_t got) {
    if (want != got) {
      result.problems.push_back("traced run differs in " + what + ": " +
                                std::to_string(got) + " vs " +
                                std::to_string(want));
    }
  };
  expect_same("applied", run.applied, trun.applied);
  expect_same("rejected", run.rejected, trun.rejected);
  expect_same("coalesced", run.coalesced, trun.coalesced);
  for (std::size_t k = 0; k < tenants.size(); ++k) {
    const Schedule& want = tenants[k].engine->schedule();
    const Schedule& got = traced[k].schedule();
    const std::string tenant = "tenant " + std::to_string(k);
    expect_same(tenant + " final makespan", want.makespan(), got.makespan());
    expect_same(tenant + " final max memory", want.max_memory(),
                got.max_memory());
    if (engine_violations(traced[k]) != 0) {
      result.problems.push_back("traced run left violations in " + tenant);
    }
  }
  if (trun.failed != 0) {
    result.problems.push_back("traced run: a window ended invalid");
  }

  emit_layers(layers, result.metrics);
  if (!config.spans_out.empty() && !span_log.write_csv(config.spans_out)) {
    result.problems.push_back("cannot write " + config.spans_out);
  }
  return result;
}

}  // namespace

RunResult run_workload(const RunConfig& config) {
  const Kind kind = parse_kind(config.workload);
  if (!(config.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return kind == Kind::Offline ? run_offline(config)
                               : run_online(kind, config);
}

}  // namespace perfbench

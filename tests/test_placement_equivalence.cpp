/// Equivalence tests for the one-pass placement bounds and the ordered
/// placement scan (DESIGN.md F35).
///
/// The library fills a task's precedence bound for every processor in one
/// pass and visits processors in ascending (bound, index) order, stopping
/// at the first bound above the best start. These tests keep the
/// straightforward versions as references: a per-processor brute-force
/// bound (one data_ready sweep per processor) and an exhaustive ascending
/// scan with the historic tie-breaks. The library must agree with them
/// exactly — bound for bound, pick for pick, schedule for schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lbmem/gen/event_trace.hpp"
#include "lbmem/gen/random_graph.hpp"
#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/rebalancer.hpp"
#include "lbmem/sched/scheduler.hpp"

namespace lbmem {
namespace {

/// Brute force: max over instances k of data_ready(t_k, p) - k*T, >= 0.
Time reference_bound(const Schedule& sched, TaskId t, ProcId p) {
  const Time period = sched.graph().task(t).period;
  Time lb = 0;
  for (InstanceIdx k = 0; k < sched.graph().instance_count(t); ++k) {
    lb = std::max(lb, sched.data_ready(TaskInstance{t, k}, p) -
                          period * static_cast<Time>(k));
  }
  return lb;
}

/// Exhaustive ascending scan with the historic tie-breaks: earliest
/// start, then the preferred processor, then strictly lower memory (the
/// \p memory view when given, else the live one); the first processor
/// wins a full tie.
std::optional<Placement> reference_place(
    const Schedule& sched, const std::vector<ProcTimeline>& occ, TaskId t,
    ProcId preferred, const std::vector<Mem>* memory,
    const std::vector<std::uint8_t>* excluded) {
  const Task& task = sched.graph().task(t);
  const auto mem = [&](ProcId p) {
    return memory != nullptr ? (*memory)[static_cast<std::size_t>(p)]
                             : sched.memory_on(p);
  };
  std::optional<Placement> best;
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    if (excluded != nullptr && (*excluded)[static_cast<std::size_t>(p)]) {
      continue;
    }
    const auto start = occ[static_cast<std::size_t>(p)].earliest_fit(
        reference_bound(sched, t, p), task.period, task.wcet,
        sched.graph().instance_count(t));
    if (!start) continue;
    bool better = !best.has_value();
    if (best && *start != best->start) {
      better = *start < best->start;
    } else if (best && (p == preferred) != (best->proc == preferred)) {
      better = (p == preferred);
    } else if (best) {
      better = mem(p) < mem(best->proc);
    }
    if (better) best = Placement{p, *start};
  }
  return best;
}

/// build_initial_schedule as it was written before F35, on the reference
/// bound and scan. Returns nullopt where it would throw.
std::optional<Schedule> reference_build(const TaskGraph& graph,
                                        const Architecture& arch,
                                        const CommModel& comm,
                                        const SchedulerOptions& options) {
  Schedule sched(graph, arch, comm);
  std::vector<ProcTimeline> occ(
      static_cast<std::size_t>(arch.processor_count()),
      ProcTimeline(graph.hyperperiod()));
  // Round-robin over the distinct periods in increasing order.
  std::vector<Time> periods;
  for (const Task& task : graph.tasks()) periods.push_back(task.period);
  std::sort(periods.begin(), periods.end());
  periods.erase(std::unique(periods.begin(), periods.end()), periods.end());
  for (const TaskId t : graph.topological_order()) {
    const Task& task = graph.task(t);
    std::optional<Placement> chosen;
    if (options.policy == PlacementPolicy::PeriodCluster) {
      const auto rank = std::lower_bound(periods.begin(), periods.end(),
                                         task.period) -
                        periods.begin();
      const auto home = static_cast<ProcId>(rank % arch.processor_count());
      if (const auto s = occ[static_cast<std::size_t>(home)].earliest_fit(
              reference_bound(sched, t, home), task.period, task.wcet,
              graph.instance_count(t))) {
        chosen = Placement{home, *s};
      } else if (!options.cluster_fallback) {
        return std::nullopt;
      }
    }
    if (!chosen) chosen = reference_place(sched, occ, t, kNoProc, nullptr,
                                          nullptr);
    if (!chosen) return std::nullopt;
    commit_whole_task(sched, occ, t, chosen->proc, chosen->start);
  }
  return sched;
}

std::vector<ProcTimeline> occupancy_of(const Schedule& sched) {
  std::vector<ProcTimeline> occ(
      static_cast<std::size_t>(sched.architecture().processor_count()),
      ProcTimeline(sched.graph().hyperperiod()));
  for (const TaskInstance inst : sched.all_instances()) {
    occ[static_cast<std::size_t>(sched.proc(inst))].add(
        sched.start(inst), sched.graph().task(inst.task).wcet, inst);
  }
  return occ;
}

void expect_same_schedule(const Schedule& a, const Schedule& b) {
  for (const TaskInstance inst : a.all_instances()) {
    ASSERT_EQ(a.proc(inst), b.proc(inst))
        << "task " << inst.task << " k=" << inst.k;
    ASSERT_EQ(a.start(inst), b.start(inst))
        << "task " << inst.task << " k=" << inst.k;
  }
}

RandomGraphParams params(int tasks, int procs) {
  RandomGraphParams p;
  p.tasks = tasks;
  p.period_levels = 3;
  p.edge_probability = 0.25;
  p.intended_processors = procs;
  return p;
}

const CommModel kComms[] = {CommModel::flat(2), CommModel::affine(1, 2)};

void expect_bounds_match(const Schedule& sched) {
  std::vector<Time> bounds;
  for (TaskId t = 0; t < static_cast<TaskId>(sched.graph().task_count());
       ++t) {
    precedence_bounds(sched, t, bounds);
    ASSERT_EQ(bounds.size(), static_cast<std::size_t>(
                                 sched.architecture().processor_count()));
    for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
      ASSERT_EQ(bounds[static_cast<std::size_t>(p)],
                reference_bound(sched, t, p))
          << "task " << t << " proc " << p;
    }
  }
}

TEST(PrecedenceBounds, MatchPerProcessorBruteForce) {
  int checked = 0;
  int split_tasks = 0;
  for (const CommModel& comm : kComms) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const int procs = 3 + static_cast<int>(seed % 4);
      const TaskGraph graph = random_task_graph(params(60, procs), seed);
      SchedulerOptions options;
      options.policy = seed % 2 ? PlacementPolicy::PeriodCluster
                                : PlacementPolicy::MinStartTime;
      Schedule sched = [&] {
        try {
          return std::optional<Schedule>(build_initial_schedule(
              graph, Architecture(procs), comm, options));
        } catch (const ScheduleError&) {
          return std::optional<Schedule>();
        }
      }().value_or(Schedule(graph, Architecture(procs), comm));
      if (!sched.complete()) continue;
      expect_bounds_match(sched);
      // After a balance, a task's instances may sit on different
      // processors: the producers of one consumer are then split.
      const BalanceResult balanced = LoadBalancer().balance(sched);
      expect_bounds_match(balanced.schedule);
      for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
        for (InstanceIdx k = 1; k < graph.instance_count(t); ++k) {
          if (balanced.schedule.proc(TaskInstance{t, k}) !=
              balanced.schedule.proc(TaskInstance{t, 0})) {
            ++split_tasks;
            break;
          }
        }
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 8);
  EXPECT_GE(split_tasks, 10);  // balances did split instances of a task
}

TEST(PrecedenceBounds, SplitProducersHandCase) {
  // a (T=2, E=1) feeds b (T=4) over H=8: b0 reads a0, a1 and b1 reads
  // a2, a3. a's even instances run on P1, the odd ones on P2.
  TaskGraph g;
  const TaskId a = g.add_task("a", 2, 1, 1);
  const TaskId b = g.add_task("b", 4, 1, 1);
  g.add_task("c", 8, 1, 1);
  g.add_dependence(a, b, 1);
  g.freeze();
  Schedule s(g, Architecture(3), CommModel::flat(2));
  s.set_first_start(a, 0);
  s.assign(TaskInstance{a, 0}, 0);
  s.assign(TaskInstance{a, 1}, 1);
  s.assign(TaskInstance{a, 2}, 0);
  s.assign(TaskInstance{a, 3}, 1);
  std::vector<Time> bounds;
  precedence_bounds(s, b, bounds);
  // Shifted by k*T_b, a0/a2 end at 1 and a1/a3 at 3; C = 2. P2 hosts the
  // later producers, so only P1's early ends arrive remotely (at 3); every
  // other processor waits for P2's remote arrival at 5.
  EXPECT_EQ(bounds, (std::vector<Time>{5, 3, 5}));
  expect_bounds_match(s);
}

TEST(PlacementEquivalence, InitialScheduleMatchesAscendingScan) {
  int compared = 0;
  for (const CommModel& comm : kComms) {
    for (const PlacementPolicy policy :
         {PlacementPolicy::PeriodCluster, PlacementPolicy::MinStartTime}) {
      for (const bool fallback : {true, false}) {
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
          const int procs = 2 + static_cast<int>(seed % 6);
          const TaskGraph graph =
              random_task_graph(params(80, procs), seed * 7 + 3);
          SchedulerOptions options;
          options.policy = policy;
          options.cluster_fallback = fallback;
          const Architecture arch(procs);
          const auto expected = reference_build(graph, arch, comm, options);
          if (!expected) {
            EXPECT_THROW(build_initial_schedule(graph, arch, comm, options),
                         ScheduleError);
            continue;
          }
          expect_same_schedule(
              build_initial_schedule(graph, arch, comm, options), *expected);
          ++compared;
        }
      }
    }
  }
  EXPECT_GE(compared, 24);
}

/// One repair-style query per task on the engine's current state: the
/// task detached from the occupancy, failed and over-capacity processors
/// excluded, its instance-0 processor preferred, and (optionally) a stale
/// memory view for the tie-break — exactly what the online repair asks.
int compare_repair_queries(const Rebalancer& engine,
                           const std::vector<Mem>* stale) {
  const Schedule& sched = engine.schedule();
  const Architecture& arch = sched.architecture();
  const TaskGraph& graph = sched.graph();
  std::vector<ProcTimeline> occ = occupancy_of(sched);
  PlacementScratch scratch;
  int compared = 0;
  for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
    const Task& task = graph.task(t);
    const InstanceIdx n = graph.instance_count(t);
    std::vector<Mem> resident(static_cast<std::size_t>(arch.processor_count()),
                              0);
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance inst{t, k};
      occ[static_cast<std::size_t>(sched.proc(inst))].remove(inst);
      resident[static_cast<std::size_t>(sched.proc(inst))] += task.memory;
    }
    std::vector<std::uint8_t> excluded = engine.failed_procs();
    for (ProcId p = 0; p < arch.processor_count(); ++p) {
      if (arch.has_memory_limit() &&
          sched.memory_on(p) - resident[static_cast<std::size_t>(p)] +
                  task.memory * static_cast<Mem>(n) >
              arch.memory_capacity()) {
        excluded[static_cast<std::size_t>(p)] = 1;
      }
    }
    PlacementPrefs prefs;
    prefs.preferred = sched.proc(TaskInstance{t, 0});
    prefs.memory = stale;
    prefs.excluded = &excluded;
    const auto got = earliest_placement(sched, occ, t, prefs, scratch);
    const auto want =
        reference_place(sched, occ, t, prefs.preferred, stale, &excluded);
    EXPECT_EQ(got.has_value(), want.has_value()) << "task " << t;
    if (got && want) {
      EXPECT_EQ(got->proc, want->proc) << "task " << t;
      EXPECT_EQ(got->start, want->start) << "task " << t;
    }
    for (InstanceIdx k = 0; k < n; ++k) {
      const TaskInstance inst{t, k};
      occ[static_cast<std::size_t>(sched.proc(inst))].add(
          sched.start(inst), task.wcet, inst);
    }
    ++compared;
  }
  return compared;
}

TEST(PlacementEquivalence, RebalancerTraceQueriesMatchAscendingScan) {
  int queries = 0;
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const int procs = 3 + static_cast<int>(seed % 3);
    const TaskGraph graph = random_task_graph(params(50, procs), seed + 40);
    // Every other system runs against a memory capacity with some slack.
    Mem capacity = kUnlimitedMemory;
    Schedule initial = [&] {
      try {
        return std::optional<Schedule>(build_initial_schedule(
            graph, Architecture(procs), CommModel::flat(2), {}));
      } catch (const ScheduleError&) {
        return std::optional<Schedule>();
      }
    }().value_or(Schedule(graph, Architecture(procs), CommModel::flat(2)));
    if (!initial.complete()) continue;
    if (seed % 2 == 0) {
      capacity = initial.max_memory() + initial.max_memory() / 4;
      Schedule capped(graph, Architecture(procs, capacity), initial.comm());
      for (TaskId t = 0; t < static_cast<TaskId>(graph.task_count()); ++t) {
        capped.set_first_start(t, initial.first_start(t));
        for (InstanceIdx k = 0; k < graph.instance_count(t); ++k) {
          capped.assign(TaskInstance{t, k}, initial.proc(TaskInstance{t, k}));
        }
      }
      initial = capped;
    }
    const BalanceResult balanced = LoadBalancer().balance(initial);
    RebalancerOptions options;
    options.staleness_events = (seed % 2 == 1) ? 3 : 0;
    Rebalancer engine =
        Rebalancer::adopt(graph, balanced.schedule, std::move(options));
    EventTraceParams trace_params;
    trace_params.events = 24;
    trace_params.failure_weight = 0.2;
    trace_params.max_failures = 2;
    const EventTrace trace = random_event_trace(
        graph, balanced.schedule.architecture(), trace_params, seed);
    // A genuinely stale view: the memory per processor a few events back.
    std::vector<Mem> stale;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (i % 3 == 0) {
        stale.clear();
        for (ProcId p = 0; p < procs; ++p) {
          stale.push_back(engine.schedule().memory_on(p));
        }
      }
      engine.apply(trace[i]);
      queries += compare_repair_queries(engine, nullptr);
      queries += compare_repair_queries(engine, &stale);
    }
    failures += static_cast<int>(std::count(
        engine.failed_procs().begin(), engine.failed_procs().end(), 1));
  }
  EXPECT_GE(queries, 1000);
  EXPECT_GE(failures, 1);  // the traces did exclude failed processors
}

/// The event mix of the pinned traces: arrivals, removals, re-estimates
/// and up to two processor failures.
EventTraceParams mixed_trace() {
  EventTraceParams tp;
  tp.events = 40;
  tp.failure_weight = 0.15;
  tp.max_failures = 2;
  return tp;
}

/// FNV-1a digest of a Rebalancer run: every outcome's verdict and work
/// counts, then the final schedule's starts and processors.
std::uint64_t trace_digest(std::uint64_t seed,
                           const EventTraceParams& tp = mixed_trace()) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const int procs = 3 + static_cast<int>(seed % 4);
  RandomGraphParams gp;
  gp.tasks = 60;
  gp.period_levels = 3;
  gp.edge_probability = 0.25;
  gp.intended_processors = procs;
  const TaskGraph graph = random_task_graph(gp, seed + 90);
  const Schedule probe = build_initial_schedule(graph, Architecture(procs),
                                                CommModel::flat(2), {});
  // Odd seeds run against a memory capacity with a quarter of slack.
  const Mem capacity = (seed % 2 == 1)
                           ? probe.max_memory() + probe.max_memory() / 4
                           : kUnlimitedMemory;
  SchedulerOptions sopts;
  sopts.policy = (seed % 3 == 0) ? PlacementPolicy::MinStartTime
                                 : PlacementPolicy::PeriodCluster;
  const Schedule initial = build_initial_schedule(
      graph, Architecture(procs, capacity), CommModel::flat(2), sopts);
  const BalanceResult balanced = LoadBalancer().balance(initial);
  RebalancerOptions options;
  options.staleness_events = static_cast<int>(seed % 3);
  options.degraded.enabled = (seed % 4 == 0);
  Rebalancer engine =
      Rebalancer::adopt(graph, balanced.schedule, std::move(options));
  for (const Event& event : random_event_trace(
           graph, initial.architecture(), tp, seed)) {
    const EventOutcome out = engine.apply(event);
    mix(out.applied);
    mix(out.full_replace);
    mix(out.repaired_tasks);
    mix(out.migrated_instances);
    mix(out.dirty_blocks);
  }
  for (const TaskInstance inst : engine.schedule().all_instances()) {
    mix(engine.schedule().start(inst));
    mix(engine.schedule().proc(inst));
  }
  return h;
}

TEST(PlacementEquivalence, RebalancerTraceDigestsArePinned) {
  // Recorded with the per-processor bound and the exhaustive ascending
  // scan. The traces mix arrivals, removals, re-estimates and up to two
  // processor failures, under capacity limits (odd seeds), stale memory
  // views (staleness 1 or 2) and the degraded ladder (seeds 4 and 8);
  // each has rejected events and full re-places.
  const std::uint64_t expected[] = {
      0x2346ff3819432e69ULL, 0x9a95b2c19910625bULL, 0x8274eac45e0b0165ULL,
      0xaf733238e8305fd8ULL, 0x8ba94745ae413a5cULL, 0x6ad1a6de536732d0ULL,
      0x95b635ccf64d45ceULL, 0xbbbd91f1850431f1ULL};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    EXPECT_EQ(trace_digest(seed), expected[seed - 1]) << "seed " << seed;
  }
}

TEST(PlacementEquivalence, ChurnTraceDigestIsPinned) {
  // Arrival- and removal-heavy: the graph is edited on most events (the
  // TaskGraph deltas and the occupancy renumbering of DESIGN.md F10/F13),
  // including hyper-period changes and full re-places. Seed 4 runs the
  // degraded ladder, so shed rungs compose their id maps with the edit's.
  // Recorded with the rebuild-per-edit engine: 18 arrivals and 24
  // removals applied, 30 rejects, 11 full re-places, 17 tasks shed.
  EventTraceParams tp;
  tp.events = 80;
  tp.arrival_weight = 0.45;
  tp.removal_weight = 0.35;
  tp.wcet_weight = 0.15;
  tp.failure_weight = 0.05;
  EXPECT_EQ(trace_digest(4, tp), 0x9afffe27f6624be2ULL);
}

}  // namespace
}  // namespace lbmem

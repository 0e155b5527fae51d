#include "lbmem/sched/scheduler.hpp"

#include <algorithm>
#include <map>

#include "lbmem/util/check.hpp"

namespace lbmem {

void precedence_bounds(const Schedule& sched, TaskId t,
                       std::vector<Time>& bounds) {
  const TaskGraph& graph = sched.graph();
  const Time period = graph.task(t).period;
  const InstanceIdx n = graph.instance_count(t);
  // Instance k's readiness counts against the first start shifted by k*T,
  // so every producer end is offset before it is folded in. bounds holds
  // the colocated side (largest plain end per producer processor) until
  // the remote side is merged in at the end.
  bounds.assign(
      static_cast<std::size_t>(sched.architecture().processor_count()), 0);
  RemoteArrivals remote;
  for (const std::int32_t e : graph.deps_in(t)) {
    const Dependence& dep = graph.dependences()[static_cast<std::size_t>(e)];
    const Time comm = sched.comm().transfer_time(dep.data_size);
    for (InstanceIdx k = 0; k < n; ++k) {
      const Time offset = period * static_cast<Time>(k);
      const ConsumedRange range = graph.consumed_range(e, k);
      for (InstanceIdx i = 0; i < range.count; ++i) {
        const TaskInstance producer{dep.producer, range.first + i};
        const ProcId pp = sched.proc(producer);
        LBMEM_REQUIRE(pp != kNoProc, "producer instance not yet placed");
        const Time end = sched.end(producer) - offset;
        remote.add(pp, end + comm);
        Time& colocated = bounds[static_cast<std::size_t>(pp)];
        colocated = std::max(colocated, end);
      }
    }
  }
  for (std::size_t p = 0; p < bounds.size(); ++p) {
    bounds[p] = std::max(bounds[p], remote.at(static_cast<ProcId>(p)));
  }
}

std::optional<Placement> earliest_placement(
    const Schedule& sched, const std::vector<ProcTimeline>& timelines,
    TaskId t, const PlacementPrefs& prefs, PlacementScratch& scratch) {
  const TaskGraph& graph = sched.graph();
  const Task& task = graph.task(t);
  const InstanceIdx n = graph.instance_count(t);
  std::vector<Time>& bounds = scratch.bounds;
  precedence_bounds(sched, t, bounds);
  const auto bound = [&](ProcId p) {
    return bounds[static_cast<std::size_t>(p)];
  };

  std::vector<ProcId>& order = scratch.order;
  order.clear();
  for (ProcId p = 0; p < sched.architecture().processor_count(); ++p) {
    if (prefs.excluded == nullptr ||
        (*prefs.excluded)[static_cast<std::size_t>(p)] == 0) {
      order.push_back(p);
    }
  }
  std::sort(order.begin(), order.end(), [&](ProcId a, ProcId b) {
    return bound(a) != bound(b) ? bound(a) < bound(b) : a < b;
  });

  const auto memory = [&](ProcId p) {
    return prefs.memory != nullptr
               ? (*prefs.memory)[static_cast<std::size_t>(p)]
               : sched.memory_on(p);
  };
  // The tie-break key (start, not preferred, memory, index) is a strict
  // total order, so its minimum does not depend on the visit order.
  const auto precedes = [&](const Placement& a, const Placement& b) {
    if (a.start != b.start) return a.start < b.start;
    const bool a_pref = a.proc == prefs.preferred;
    const bool b_pref = b.proc == prefs.preferred;
    if (a_pref != b_pref) return a_pref;
    const Mem ma = memory(a.proc);
    const Mem mb = memory(b.proc);
    if (ma != mb) return ma < mb;
    return a.proc < b.proc;
  };

  std::optional<Placement> best;
  for (const ProcId p : order) {
    // A start is never below its bound and the bounds ascend, so once one
    // exceeds the best start no remaining processor can win. The fit
    // search itself stops at the best start (inclusive: a tie may still
    // win on the rest of the key).
    if (best && bound(p) > best->start) break;
    const auto start = timelines[static_cast<std::size_t>(p)].earliest_fit(
        bound(p), task.period, task.wcet, n,
        best ? best->start : ProcTimeline::kNoLatest);
    if (!start) continue;
    const Placement candidate{p, *start};
    if (!best || precedes(candidate, *best)) best = candidate;
  }
  return best;
}

void commit_whole_task(Schedule& sched, std::vector<ProcTimeline>& timelines,
                       TaskId t, ProcId p, Time start) {
  const TaskGraph& graph = sched.graph();
  const Task& task = graph.task(t);
  sched.set_first_start(t, start);
  sched.assign_all(t, p);
  const InstanceIdx n = graph.instance_count(t);
  // Every caller commits a start that earliest_fit() just proved free, so
  // the conflict re-query inside a checked add would be pure overhead on
  // the scheduler and online-repair hot paths; debug builds still verify.
  for (InstanceIdx k = 0; k < n; ++k) {
    timelines[static_cast<std::size_t>(p)].add_unchecked(
        start + task.period * static_cast<Time>(k), task.wcet,
        TaskInstance{t, k});
  }
}

namespace {

/// Earliest feasible start of whole task \p t on processor \p p alone.
std::optional<Time> earliest_on(const Schedule& sched,
                                const ProcTimeline& timeline, TaskId t,
                                ProcId p, std::vector<Time>& bounds) {
  const TaskGraph& graph = sched.graph();
  const Task& task = graph.task(t);
  precedence_bounds(sched, t, bounds);
  return timeline.earliest_fit(bounds[static_cast<std::size_t>(p)],
                               task.period, task.wcet,
                               graph.instance_count(t));
}

/// Round-robin processor per period class, in increasing period order
/// (reproduces the paper's Figure 3 grouping: {a}->P1, {b,c}->P2,
/// {d,e}->P3).
std::map<Time, ProcId> cluster_assignment(const TaskGraph& graph,
                                          const Architecture& arch) {
  std::map<Time, ProcId> cluster_of_period;
  for (const auto& task : graph.tasks()) {
    cluster_of_period.emplace(task.period, kNoProc);
  }
  ProcId next = 0;
  for (auto& [period, proc] : cluster_of_period) {
    proc = next;
    next = static_cast<ProcId>((next + 1) % arch.processor_count());
  }
  return cluster_of_period;
}

}  // namespace

Schedule build_initial_schedule(const TaskGraph& graph,
                                const Architecture& arch,
                                const CommModel& comm,
                                const SchedulerOptions& options) {
  LBMEM_REQUIRE(graph.frozen(), "graph must be frozen");
  Schedule sched(graph, arch, comm);
  std::vector<ProcTimeline> timelines(
      static_cast<std::size_t>(arch.processor_count()),
      ProcTimeline(graph.hyperperiod()));

  const std::map<Time, ProcId> clusters =
      options.policy == PlacementPolicy::PeriodCluster
          ? cluster_assignment(graph, arch)
          : std::map<Time, ProcId>{};

  PlacementScratch scratch;
  for (const TaskId t : graph.topological_order()) {
    std::optional<Placement> chosen;

    if (options.policy == PlacementPolicy::PeriodCluster) {
      const ProcId home = clusters.at(graph.task(t).period);
      if (const auto s =
              earliest_on(sched, timelines[static_cast<std::size_t>(home)], t,
                          home, scratch.bounds)) {
        chosen = Placement{home, *s};
      } else if (!options.cluster_fallback) {
        throw ScheduleError("task " + graph.task(t).name +
                            " does not fit on its period-cluster processor");
      }
    }

    if (!chosen) {
      // MinStartTime policy, or cluster fallback: earliest over all
      // processors; ties broken by lower memory load, then index.
      chosen = earliest_placement(sched, timelines, t, PlacementPrefs{},
                                  scratch);
    }

    if (!chosen) {
      throw ScheduleError(
          "unschedulable: no feasible strict-periodic start for task " +
          graph.task(t).name);
    }
    commit_whole_task(sched, timelines, t, chosen->proc, chosen->start);
  }
  return sched;
}

Schedule build_forced_schedule(const TaskGraph& graph,
                               const Architecture& arch, const CommModel& comm,
                               const std::vector<ProcId>& assignment) {
  LBMEM_REQUIRE(graph.frozen(), "graph must be frozen");
  LBMEM_REQUIRE(assignment.size() == graph.task_count(),
                "assignment must cover every task");
  Schedule sched(graph, arch, comm);
  std::vector<ProcTimeline> timelines(
      static_cast<std::size_t>(arch.processor_count()),
      ProcTimeline(graph.hyperperiod()));
  std::vector<Time> bounds;
  for (const TaskId t : graph.topological_order()) {
    const ProcId p = assignment[static_cast<std::size_t>(t)];
    LBMEM_REQUIRE(p >= 0 && p < arch.processor_count(),
                  "assignment references an unknown processor");
    const auto s = earliest_on(sched, timelines[static_cast<std::size_t>(p)],
                               t, p, bounds);
    if (!s) {
      throw ScheduleError("forced assignment unschedulable at task " +
                          graph.task(t).name);
    }
    commit_whole_task(sched, timelines, t, p, *s);
  }
  return sched;
}

}  // namespace lbmem

#pragma once
/// \file scheduler.hpp
/// \brief The initial distributed scheduling heuristic (substitute for the
/// paper's ref [4], Kermia & Sorel PDCS'07).
///
/// The paper's load balancer runs on the output of a separate scheduler
/// that "seeks only to satisfy the dependence and strict periodicity
/// constraints". Since that scheduler is not public, we implement a
/// non-preemptive strict-periodic multiprocessor scheduler with two
/// placement policies:
///
///  * PeriodCluster — tasks are grouped by period ("the dependent tasks
///    which are at the same or multiple periods are scheduled onto the same
///    processor", paper Section 4); period groups are assigned round-robin
///    to processors in increasing period order. This policy reproduces the
///    paper's Figure 3 input schedule exactly.
///  * MinStartTime — each task (whole, all instances) is placed on the
///    processor giving its earliest feasible first start.
///
/// Both policies process tasks in topological order, compute the
/// precedence/communication lower bound for the first-instance start on
/// every processor in one pass, and find the earliest strict-periodically
/// feasible start on the candidate processor's hyper-period circle.

#include <cstdint>
#include <optional>
#include <vector>

#include "lbmem/sched/schedule.hpp"
#include "lbmem/sched/timeline.hpp"

namespace lbmem {

/// Initial placement policy.
enum class PlacementPolicy {
  PeriodCluster,
  MinStartTime,
};

/// Scheduler configuration.
struct SchedulerOptions {
  PlacementPolicy policy = PlacementPolicy::PeriodCluster;
  /// When a PeriodCluster task does not fit on its cluster's processor,
  /// fall back to the earliest feasible processor instead of failing.
  bool cluster_fallback = true;
};

/// Build a complete initial schedule. Throws ScheduleError when no feasible
/// placement exists for some task under the policy.
Schedule build_initial_schedule(const TaskGraph& graph,
                                const Architecture& arch,
                                const CommModel& comm,
                                const SchedulerOptions& options = {});

/// Lower bound on the first-instance start of \p t on every processor,
/// given producers already placed in \p sched: bounds[p] = max over
/// instances k of (data_ready(t_k, p) - k*T), and at least 0. One pass over
/// t's producer instances fills all M entries (RemoteArrivals plus a
/// per-processor colocated maximum). \p bounds is resized to M.
void precedence_bounds(const Schedule& sched, TaskId t,
                       std::vector<Time>& bounds);

/// A whole-task placement: every instance on \p proc, first start \p start.
struct Placement {
  ProcId proc = kNoProc;
  Time start = 0;
};

/// Tie-break inputs and admission filter of earliest_placement().
struct PlacementPrefs {
  /// Wins a tie on the start (kNoProc: no processor is preferred).
  ProcId preferred = kNoProc;
  /// Memory view for the next tie-break; null reads the live memory_on().
  const std::vector<Mem>* memory = nullptr;
  /// Processors that may not host the task (nonzero entries); null: none.
  const std::vector<std::uint8_t>* excluded = nullptr;
};

/// Reusable buffers of earliest_placement(), so a loop of placements
/// allocates once.
struct PlacementScratch {
  std::vector<Time> bounds;
  std::vector<ProcId> order;
};

/// The earliest feasible placement of whole task \p t on \p timelines
/// (DESIGN.md F35): the admitted processor minimising the key (start, not
/// preferred, memory, index), or nullopt when no admitted processor fits.
/// Processors are visited in ascending (precedence bound, index) order and
/// the scan stops at the first bound above the best start found so far,
/// since a start is never below its bound. The key makes the pick
/// independent of the visit order.
std::optional<Placement> earliest_placement(
    const Schedule& sched, const std::vector<ProcTimeline>& timelines,
    TaskId t, const PlacementPrefs& prefs, PlacementScratch& scratch);

/// Place whole task \p t on \p p with first start \p start: set the start,
/// assign every instance, and occupy the strict-periodic slots on the
/// processor's timeline. The single definition of the whole-task commit
/// sequence, shared by the initial schedulers and the online engine's
/// dirty-set repair.
void commit_whole_task(Schedule& sched, std::vector<ProcTimeline>& timelines,
                       TaskId t, ProcId p, Time start);

/// Build a schedule with a fixed whole-task processor assignment
/// (assignment[t] = processor of every instance of t); start times are the
/// earliest feasible under dependences and strict periodicity. Used by the
/// GA/round-robin baselines, which operate at task granularity.
/// Throws ScheduleError when the forced assignment is unschedulable.
Schedule build_forced_schedule(const TaskGraph& graph,
                               const Architecture& arch, const CommModel& comm,
                               const std::vector<ProcId>& assignment);

}  // namespace lbmem

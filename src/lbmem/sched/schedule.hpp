#pragma once
/// \file schedule.hpp
/// \brief A distributed strict-periodic schedule: first-instance start time
/// per task plus a processor assignment per instance.
///
/// Strict periodicity is global (DESIGN.md Section 6): instance k of task t
/// starts at first_start(t) + k*T(t) no matter which processor executes it —
/// the paper's worked example moves instance a2 to P2 while keeping its
/// start time 3. The load balancer therefore mutates two things only:
/// per-instance processor assignments, and (when a first-category block
/// gains time) a task's first-instance start.

#include <algorithm>
#include <span>
#include <vector>

#include "lbmem/arch/architecture.hpp"
#include "lbmem/arch/comm_model.hpp"
#include "lbmem/model/task_graph.hpp"
#include "lbmem/model/types.hpp"
#include "lbmem/util/check.hpp"

namespace lbmem {

/// Destination-invariant split of a data-readiness maximum (paper Eq. 1;
/// DESIGN.md F15, F35). A producer on processor q delivers to every other
/// processor at end + C and to q itself at its plain end, so the readiness
/// on destination d is the larger of the remote arrivals from processors
/// other than d and the colocated ends on d. The remote side needs only its
/// two largest per-processor maxima on distinct processors; callers keep
/// the colocated side per processor. Both sides start at 0, the floor
/// Schedule::data_ready applies.
struct RemoteArrivals {
  Time top1 = 0;
  ProcId top1_proc = kNoProc;
  Time top2 = 0;  ///< largest arrival from a processor other than top1_proc

  /// Fold in one remote arrival from a producer on \p q.
  void add(ProcId q, Time arrival) {
    if (q == top1_proc) {
      top1 = std::max(top1, arrival);
    } else if (arrival > top1) {
      top2 = top1;
      top1 = arrival;
      top1_proc = q;
    } else {
      top2 = std::max(top2, arrival);
    }
  }

  /// Largest remote arrival at destination \p d: producers on d count as
  /// colocated, not remote.
  Time at(ProcId d) const { return d == top1_proc ? top2 : top1; }
};

/// Placement and timing of every task instance over one hyper-period.
///
/// The referenced TaskGraph must outlive the Schedule. Schedules are
/// value types (copyable) so the load balancer can work on a copy and fall
/// back to the original.
class Schedule {
 public:
  /// Create an empty schedule (no starts, no assignments).
  Schedule(const TaskGraph& graph, Architecture arch, CommModel comm);

  const TaskGraph& graph() const { return *graph_; }
  const Architecture& architecture() const { return arch_; }
  const CommModel& comm() const { return comm_; }

  // ---- mutation -----------------------------------------------------------

  /// Set the start time of the first instance of \p t (>= 0).
  void set_first_start(TaskId t, Time start);

  /// Assign instance (t, k) to processor \p p.
  void assign(TaskInstance inst, ProcId p);

  /// Assign every instance of \p t to \p p (initial whole-task placement).
  void assign_all(TaskId t, ProcId p);

  /// Recompute the per-processor memory/busy aggregates from the stored
  /// placements. assign() accumulates them with the task shapes current at
  /// assignment time, so a post-freeze TaskGraph::set_wcet leaves busy_on
  /// stale; the online engine calls this once per WcetChange event. O(I).
  void refresh_aggregates();

  // ---- timing queries (inline: the balancer's innermost reads) -----------

  /// True once every task has a start and every instance a processor. O(1).
  bool complete() const {
    return unset_starts_ == 0 && unassigned_instances_ == 0;
  }

  Time first_start(TaskId t) const {
    LBMEM_REQUIRE(t >= 0 && t < static_cast<TaskId>(graph_->task_count()),
                  "task id out of range");
    const Time s = first_start_[static_cast<std::size_t>(t)];
    LBMEM_REQUIRE(s >= 0, "task has no start time yet");
    return s;
  }
  Time start(TaskInstance inst) const {
    return first_start(inst.task) +
           graph_->task(inst.task).period * static_cast<Time>(inst.k);
  }
  Time end(TaskInstance inst) const {
    return start(inst) + graph_->task(inst.task).wcet;
  }
  ProcId proc(TaskInstance inst) const { return instance_proc_[slot(inst)]; }

  /// Completion time of the last instance — the paper's "total execution
  /// time" (makespan). Requires a complete schedule.
  Time makespan() const;

  /// Earliest time instance \p inst could begin on processor \p p given the
  /// current placement of its producers: max over dependences and consumed
  /// producer instances of end(producer) + C (C = 0 when the producer runs
  /// on \p p, else CommModel::transfer_time of the edge's data size).
  Time data_ready(TaskInstance inst, ProcId p) const;

  // ---- memory & distribution queries --------------------------------------

  /// Sum of required memory of instances assigned to \p p (paper counts
  /// each resident instance: P1 holding four instances of a costs 4*m_a).
  /// O(1): maintained incrementally by assign().
  Mem memory_on(ProcId p) const {
    LBMEM_REQUIRE(p >= 0 && p < arch_.processor_count(),
                  "processor id out of range");
    return mem_on_[static_cast<std::size_t>(p)];
  }

  /// Instances currently assigned to \p p, sorted by start time.
  std::vector<TaskInstance> instances_on(ProcId p) const;

  /// All instances of all tasks (every k of every task).
  std::vector<TaskInstance> all_instances() const;

  /// Busy time on \p p within one hyper-period (sum of instance WCETs).
  /// O(1): maintained incrementally by assign().
  Time busy_on(ProcId p) const {
    LBMEM_REQUIRE(p >= 0 && p < arch_.processor_count(),
                  "processor id out of range");
    return busy_time_on_[static_cast<std::size_t>(p)];
  }

  /// Fraction of [0, H) processor \p p is idle in steady state.
  double idle_fraction(ProcId p) const;

  /// Largest per-processor memory (the paper's ω for Theorem 2). O(M).
  Mem max_memory() const;

 private:
  /// Dense index of (t, k) into instance_proc_, with bounds checks.
  std::size_t slot(TaskInstance inst) const {
    return graph_->dense_index(inst);
  }

  const TaskGraph* graph_;
  Architecture arch_;
  CommModel comm_;
  std::vector<Time> first_start_;  // per task; -1 = unset
  // CSR-style flat placement: instance (t, k) lives at
  // instance_proc_[graph_->dense_index({t, k})].
  std::vector<ProcId> instance_proc_;
  // Per-processor aggregates, kept in sync by assign(); unassigned
  // instances (kNoProc) contribute nowhere.
  std::vector<Mem> mem_on_;
  std::vector<Time> busy_time_on_;
  std::size_t unassigned_instances_ = 0;
  std::size_t unset_starts_ = 0;
};

}  // namespace lbmem

#pragma once
/// \file rebalancer.hpp
/// \brief Event-driven schedule repair with warm-start incremental
/// balancing — the online subsystem's core engine.
///
/// The Rebalancer owns a running system (task graph + valid schedule +
/// failed-processor set) and applies runtime events to it:
///
///  1. **Patch** — the event is turned into a *dirty task set* and the
///     schedule is repaired constructively: dirty tasks are re-placed
///     whole (earliest feasible strict-periodic start over the alive
///     processors, preferring their previous processor), in topological
///     order, cascading to consumers whose data-readiness the re-placement
///     broke (DESIGN.md F11). Task arrivals/removals derive a new frozen
///     TaskGraph by delta (TaskGraph::with_task / without_tasks) and
///     migrate the surviving placements (DESIGN.md F10/F13).
///  2. **Warm-start incremental balance** — only the blocks around the
///     dirtied tasks are re-decomposed (build_blocks_around) and re-run
///     through the paper's heuristic (LoadBalancer::rebalance), reusing
///     the engine's persistently maintained all-instances occupancy
///     instead of rebuilding it, and pricing migrations through
///     BalanceOptions::migration_penalty (DESIGN.md F9/F12).
///
/// Every applied event leaves a schedule that passes validate/ — events
/// whose repair is infeasible are *rejected*: the pre-event state is kept
/// untouched (including un-marking a failed processor, DESIGN.md F14) and
/// the outcome reports the reason.
///
/// With DegradedOptions::enabled the engine instead escalates through the
/// degraded-mode repair ladder (DESIGN.md F28) before giving up: widened-
/// scope retries (optionally after a backoff of K events), a constructive
/// re-place of every task, a Solver-backed full resolve, and finally
/// explicit load shedding — dropping the lowest-priority tasks into a
/// reported `shed` set instead of failing hard. Each rung preserves the
/// F14 contract: a rung that does not produce a valid schedule leaves the
/// system exactly as before.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lbmem/lb/load_balancer.hpp"
#include "lbmem/online/event.hpp"
#include "lbmem/sched/timeline.hpp"

namespace lbmem {

class Solver;  // api/solver.hpp

/// Degraded-mode repair ladder configuration (DESIGN.md F28). Disabled by
/// default, in which case a rejected dirty-set repair escalates once to a
/// full re-place (the historic F11 behavior) and then rejects.
struct DegradedOptions {
  /// Run the ladder when the dirty-set repair (and the historic full
  /// re-place escalation) would otherwise reject the event.
  bool enabled = false;
  /// Rung 1 bound: widened-scope repair retries. Each retry grows the
  /// dirty set by one dependency ring (producers and consumers of every
  /// dirty task); retries stop early once widening reaches a fixpoint.
  int max_retries = 2;
  /// Retry backoff: when > 0, a repair whose first attempt is rejected is
  /// *parked* instead of escalated — the event defers (state untouched,
  /// EventOutcome::deferred) and is re-attempted, ladder and all, after
  /// this many subsequent apply() calls. 0 runs the ladder inline.
  int backoff_events = 0;
  /// Rung 4 bound: the most tasks the shed rung may drop for one event.
  int max_shed = 4;
  /// Rung 3 solver (full resolve of the running system). Falls back to
  /// RebalancerOptions::full_resolver when null; the rung is skipped when
  /// neither is set or when the event replaced the task graph.
  std::shared_ptr<const Solver> resolver;
};

/// Online-engine configuration.
struct RebalancerOptions {
  /// Policy of the balance stage (including migration_penalty and memory-
  /// capacity enforcement). closed_procs is managed by the engine.
  BalanceOptions balance;
  /// Warm-start incremental balance over the dirty neighborhood (true) or
  /// a from-scratch full resolve after every patch (false; the baseline
  /// the bench compares against).
  bool incremental = true;
  /// Skip the balance stage entirely (repair-only mode).
  bool rebalance = true;
  /// Solver-backed full-resolve mode (DESIGN.md F18): when set and
  /// incremental == false, the balance stage hands the whole post-repair
  /// schedule to this facade solver (via Problem::adopt) instead of
  /// running LoadBalancer::balance. The solver's valid outcome is adopted
  /// as-is — the caller picked its authority; an infeasible outcome keeps
  /// the repaired schedule (reported as balance_fell_back). The Problem
  /// spec carries no failed-processor set, so the engine guards the
  /// invariant itself: an outcome that places anything on a failed
  /// processor is discarded (EventOutcome::resolver_discarded, counted by
  /// OnlineReport) and the repaired schedule stands — from-scratch
  /// whole-task resolvers re-place everything and therefore degrade to
  /// repair-only once a processor has failed; instance-granular refiners
  /// (the heuristic adapters) are the intended resolvers on lossy
  /// architectures. The configured solver, not `balance`, decides policy
  /// and capacity handling in this mode.
  std::shared_ptr<const Solver> full_resolver;
  /// Observability sink (DESIGN.md F25): when set, every apply() folds
  /// its outcome into this registry — applied/rejected counters, the
  /// repaired-tasks / migration totals, the dirty-set-size histogram
  /// (Deterministic class) and the per-event repair-latency histogram
  /// (Timing class). The balance stage inherits the pointer through
  /// BalanceOptions::metrics unless `balance.metrics` was already set.
  /// The registry must outlive the engine.
  obs::Registry* metrics = nullptr;
  /// Degraded-mode repair ladder (DESIGN.md F28).
  DegradedOptions degraded;
  /// Stale-load decisions (DESIGN.md F29): when > 0, the per-processor
  /// memory aggregate the repair's placement tie-break consults is frozen
  /// at event entry and only refreshed every K apply() calls — the
  /// stale-information failure mode of distributed load balancers.
  /// Staleness degrades placement *quality* only: capacity projections
  /// and occupancy timelines stay live, so feasibility is never decided
  /// on stale data. 0 consults the live aggregates.
  int staleness_events = 0;
};

/// What one event did to the system.
struct EventOutcome {
  Event event;
  /// False: the event was infeasible; the state was rolled back untouched.
  bool applied = false;
  std::string reject_reason;
  /// The event replaced the task graph (arrival/removal epoch, or a shed).
  bool graph_rebuilt = false;
  /// The hyper-period changed and every task was re-placed (DESIGN.md F13).
  bool full_replace = false;
  /// Tasks re-placed by the dirty-set repair (cascade included).
  int repaired_tasks = 0;
  /// Blocks re-evaluated by the balance stage.
  int dirty_blocks = 0;
  /// Surviving instances whose processor changed across the event.
  int migrated_instances = 0;
  /// Balance-stage movement and gain (0 when the stage is off/fell back).
  int balance_moves = 0;
  Time balance_gain = 0;
  bool balance_fell_back = false;
  /// Full-resolve mode only: the configured solver produced a valid
  /// schedule, but it re-populated a failed processor and was discarded
  /// (the repaired schedule stands). Distinct from balance_fell_back's
  /// ordinary infeasibility so a from-scratch resolver that degrades to
  /// repair-only after a ProcessorFailure is visible, not silent.
  bool resolver_discarded = false;
  /// Degraded-mode ladder (DESIGN.md F28): the rung that produced the
  /// committed schedule. 0 = the plain dirty-set repair (or the historic
  /// full re-place escalation) sufficed; 1 = widened-scope retry;
  /// 2 = constructive re-place of every task; 3 = Solver-backed full
  /// resolve; 4 = load shedding.
  int degraded_rung = 0;
  /// Widened-scope retry attempts consumed (rung 1), whether or not one
  /// of them succeeded.
  int degraded_retries = 0;
  /// The event was parked for backoff (DegradedOptions::backoff_events):
  /// the system is untouched (like a reject — applied stays false,
  /// reject_reason carries the first attempt's failure) and the event
  /// will be re-attempted after the backoff expires.
  bool deferred = false;
  /// Tasks dropped by the shed rung (names, in shed order). The tasks are
  /// gone from the running graph; Rebalancer::shed_tasks() accumulates
  /// them across events.
  std::vector<std::string> shed;
  /// Outcomes of previously deferred events whose backoff expired during
  /// this apply() (re-attempted ladder-first, oldest first).
  std::vector<EventOutcome> resolved_pending;
  /// Post-event system state.
  Time makespan = 0;
  Mem max_memory = 0;
  int alive_tasks = 0;
  int alive_procs = 0;
  /// Patch + balance latency.
  double wall_seconds = 0.0;
};

/// The online engine. Construction takes ownership of the graph the
/// schedule references (arrival/removal events replace it).
class Rebalancer {
 public:
  /// \p schedule must be complete, valid, and reference \p graph.
  Rebalancer(std::unique_ptr<TaskGraph> graph, Schedule schedule,
             RebalancerOptions options = {});

  /// Convenience: deep-copies \p graph and rebinds a copy of \p schedule
  /// to the copy (callers keep their originals).
  static Rebalancer adopt(const TaskGraph& graph, const Schedule& schedule,
                          RebalancerOptions options = {});

  /// Apply one event: patch, repair, incrementally rebalance. Returns the
  /// outcome; on rejection the system is exactly as before the call.
  EventOutcome apply(const Event& event);

  /// Convenience for the robustness harness and failover tests: a
  /// ProcessorFailure observed at simulated tick \p at. Equivalent to
  /// apply(Event{at, ProcessorFailure{proc}}).
  EventOutcome fail_processor(ProcId proc, Time at = 0);

  const TaskGraph& graph() const { return *graph_; }
  const Schedule& schedule() const { return *sched_; }
  const RebalancerOptions& options() const { return options_; }

  /// Per-processor failed flags (size M).
  const std::vector<std::uint8_t>& failed_procs() const { return failed_; }
  int alive_processor_count() const;

  /// Tasks dropped by the shed rung so far (names, in shed order).
  const std::vector<std::string>& shed_tasks() const { return shed_; }
  /// Swap the rung-3 resolver between events — the adaptive harness's
  /// miss-rate-driven selection hook (DESIGN.md F30).
  void set_degraded_resolver(std::shared_ptr<const Solver> resolver) {
    options_.degraded.resolver = std::move(resolver);
  }
  /// Arm or disarm the degraded-mode repair ladder between events — the
  /// stream service's overload-escalation hook (DESIGN.md F33): under
  /// backlog pressure a hard reject is worse than a shed, so the service
  /// flips the ladder on past its high-water mark and restores the
  /// configured state once the backlog drains.
  void set_degraded_enabled(bool enabled) {
    options_.degraded.enabled = enabled;
  }
  bool degraded_enabled() const { return options_.degraded.enabled; }
  /// Events currently parked for retry backoff.
  int pending_retries() const { return static_cast<int>(pending_.size()); }

 private:
  struct Patched;  // candidate post-patch state (rebalancer.cpp)

  /// An event parked by the backoff rung, re-attempted when its countdown
  /// of apply() calls reaches zero.
  struct PendingRetry {
    Event event;
    int countdown = 0;
  };

  static Patched full_replace_candidate(const TaskGraph& graph,
                                        const Schedule& pre,
                                        std::span<const TaskId> old_of_new);
  EventOutcome apply_one(const Event& event, bool allow_defer);
  void commit(Patched&& candidate, std::unique_ptr<TaskGraph> new_graph);
  void run_balance_stage(const std::vector<TaskId>& seeds,
                         EventOutcome& out);
  void run_full_resolver(EventOutcome& out);
  /// The frozen per-processor memory view (F29), or nullptr for live.
  const std::vector<Mem>* stale_memory() const;

  RebalancerOptions options_;
  std::unique_ptr<TaskGraph> graph_;
  std::optional<Schedule> sched_;
  std::vector<std::uint8_t> failed_;
  /// Warm all-instances occupancy, always mirroring *sched_.
  std::vector<ProcTimeline> occ_;
  /// Shed-rung victims accumulated across events (DESIGN.md F28).
  std::vector<std::string> shed_;
  /// Backoff queue, oldest first.
  std::vector<PendingRetry> pending_;
  /// Stale-load snapshot (F29): per-processor memory, refreshed every
  /// staleness_events apply() calls.
  std::vector<Mem> stale_memory_;
  int staleness_tick_ = 0;
};

}  // namespace lbmem

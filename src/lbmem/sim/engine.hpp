#pragma once
/// \file engine.hpp
/// \brief Discrete-event execution of a distributed strict-periodic
/// schedule over several hyper-periods, optionally under perturbation.
///
/// The executor dispatches every instance at its static start time across
/// \p hyperperiods repetitions of the schedule and checks, independently of
/// the validator, that
///   * no two instances overlap on a processor, and
///   * every instance's input data has arrived when it starts
/// (violations are collected, not thrown, so tests can assert on them).
///
/// It also measures what the static analysis cannot: the evolution of
/// communication-buffer occupancy over time. Per Figure 1 of the paper, a
/// datum crossing processors occupies the consumer's memory from its
/// arrival until the consuming instance completes; slow consumers of fast
/// producers therefore hold n data at once, and memory reuse is impossible.
/// Locally produced data is held from production to consumption likewise.
///
/// simulate_perturbed() executes the same time-triggered dispatch under a
/// seeded PerturbSpec (WCET overruns, stalls, message-delay inflation, FIFO
/// bus contention, a processor failure) and additionally reports deadline
/// misses, lost instances, and span inflation vs. the static prediction.
/// simulate() is the inert-spec special case and performs no random draws.

#include "lbmem/sched/schedule.hpp"
#include "lbmem/sim/metrics.hpp"
#include "lbmem/sim/perturb.hpp"

namespace lbmem::obs {
class Registry;
}

namespace lbmem {

/// Simulation options.
struct SimOptions {
  /// Number of hyper-period repetitions to execute (>= 1).
  int hyperperiods = 2;
  /// Include same-processor producer->consumer data in buffer occupancy.
  bool count_local_buffers = true;
  /// Observability sink (DESIGN.md F25): when set, each run folds its
  /// SimMetrics into this registry once on return — dispatch/violation/
  /// miss counters (Deterministic class). The registry must outlive the
  /// call; it is shared-safe, so parallel replications may point here.
  obs::Registry* metrics = nullptr;
};

/// Execute \p sched and return the collected metrics.
SimMetrics simulate(const Schedule& sched, const SimOptions& options = {});

/// Execute \p sched under \p perturb. \p first_hyperperiod shifts the
/// window: repetition w runs at absolute time offset
/// (first_hyperperiod + w) * H, draws its noise from the absolute
/// repetition index, and compares dispatches against the absolute
/// fail times — so a run stitched from consecutive windows (the
/// robustness harness swaps in a repaired schedule mid-run) perturbs each
/// instance exactly as one continuous run would.
SimMetrics simulate_perturbed(const Schedule& sched, const SimOptions& options,
                              const PerturbSpec& perturb,
                              int first_hyperperiod = 0);

}  // namespace lbmem

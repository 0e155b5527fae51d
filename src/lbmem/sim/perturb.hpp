#pragma once
/// \file perturb.hpp
/// \brief Seeded, deterministic perturbation model for the discrete-event
/// executor (DESIGN.md Section 11, Section 13).
///
/// A PerturbSpec describes how reality is allowed to deviate from the
/// static schedule: bounded multiplicative WCET overruns, message-delay
/// inflation and FIFO bus contention, transient processor stalls,
/// correlated noise bursts (a per-channel Gilbert–Elliott process), and
/// any number of permanent ProcessorFailures. Dispatch stays time-triggered
/// (the strict-periodic starts are fixed by the schedule table), so every
/// deviation surfaces as a measured effect — overlap violations, late data,
/// deadline misses, span inflation — rather than a shifted timeline.
///
/// Determinism contract: every random draw is a *pure hash* of
/// (seed, channel, draw coordinates) — there is no stateful generator to
/// advance, so the value a given instance (or transfer) draws is
/// independent of evaluation order, thread count, and which other draws
/// happen at all. Replication r of a spec derives its seed the same way
/// (replication()), which makes perturbed sweeps bit-identical across
/// thread counts and replication order (the property
/// test_parallel_equivalence enforces for solving, extended to simulation
/// by test_perturb).
///
/// The burst process keeps that contract: the chain state in absolute
/// hyper-period window w is a pure function of (seed, channel, w) — each
/// transition is drawn by value from perturb_hash over the window index,
/// so a run stitched from consecutive windows (the robustness harness's
/// table-swap discipline) sees exactly the storms an unsplit run sees.

#include <cstdint>
#include <vector>

#include "lbmem/model/types.hpp"

namespace lbmem {

/// Independent draw channels: the same coordinates must yield unrelated
/// values for unrelated decisions (WCET overrun vs. stall trial).
enum : std::uint64_t {
  kPerturbWcet = 0x11,
  kPerturbStall = 0x22,
  kPerturbComm = 0x33,
  kPerturbReplication = 0x44,
  kPerturbScenario = 0x55,
  kPerturbBurst = 0x66,
};

/// Stateless mix of a seed, a channel, and up to three draw coordinates
/// into 64 uniform bits (SplitMix64 finalizer chain).
std::uint64_t perturb_hash(std::uint64_t seed, std::uint64_t channel,
                           std::uint64_t a, std::uint64_t b = 0,
                           std::uint64_t c = 0);

/// The same mix mapped to a uniform double in [0, 1).
double perturb_unit(std::uint64_t seed, std::uint64_t channel, std::uint64_t a,
                    std::uint64_t b = 0, std::uint64_t c = 0);

/// Two-state Gilbert–Elliott burst chain for one noise channel: the
/// channel is *quiet* or in a *storm*, transitioning once per hyper-period
/// window with probability p (quiet -> storm) and q (storm -> quiet).
/// While a storm lasts, the channel's noise intensity is multiplied by
/// `factor` (probabilities clamp at 1). The stationary storm fraction is
/// p / (p + q), and storm lengths are geometric with mean 1/q windows —
/// the classic bursty-error model, replacing the i.i.d.-only draws.
struct GilbertElliott {
  double p = 0.0;      ///< quiet -> storm transition probability per window
  double q = 0.5;      ///< storm -> quiet transition probability per window
  double factor = 4.0; ///< noise-intensity multiplier while in a storm
  /// The chain does anything at all (p == 0 never leaves quiet).
  bool active() const { return p > 0.0 && factor != 1.0; }
};

/// The chain's state ("in a storm?") in absolute window \p window. Chains
/// start quiet in window 0 and each transition is drawn by value from
/// perturb_hash(seed, kPerturbBurst, channel, w) — a pure function of the
/// window coordinates, so stitched runs agree with unsplit ones per
/// channel, and distinct channels evolve independently.
bool burst_storm(std::uint64_t seed, std::uint64_t channel,
                 std::uint64_t window, const GilbertElliott& chain);

/// One injected permanent processor failure: dispatches placed on `proc`
/// at or after tick `at` are lost (no execution, no data).
struct ProcessorFault {
  ProcId proc = kNoProc;
  Time at = 0;
};

/// How to perturb a simulated execution. The default spec is inert:
/// simulate() uses it and performs zero random draws.
struct PerturbSpec {
  /// Root seed of every draw; equal seeds give equal executions.
  std::uint64_t seed = 1;
  /// Max multiplicative WCET overrun: an executed instance runs for
  /// wcet * (1 + jitter * u), u ~ U[0,1). WCETs are worst-case *declared*
  /// bounds, so only overruns (mis-declared bounds — the robustness
  /// question) are modeled; early completion can never add a violation.
  double wcet_jitter = 0.0;
  /// Max multiplicative message-delay inflation per remote transfer.
  double comm_jitter = 0.0;
  /// Per-instance probability of a transient stall of stall_ticks.
  double stall_prob = 0.0;
  Time stall_ticks = 0;
  /// Serialize remote transfers through one FIFO bus (sim/bus.hpp) instead
  /// of the contention-free fixed-delay model.
  bool bus_fifo = false;
  /// Correlated bursts (DESIGN.md F27): independent Gilbert–Elliott
  /// chains per noise channel scale that channel's base intensity while a
  /// storm lasts. A chain with p == 0 leaves its channel i.i.d.; a burst
  /// on a channel whose base intensity is zero still does nothing.
  GilbertElliott wcet_burst;
  GilbertElliott comm_burst;
  GilbertElliott stall_burst;
  /// Concurrent permanent failures with independent fail times.
  std::vector<ProcessorFault> failures;

  /// Any timing noise configured (jitter, stalls, or bus contention).
  bool any_noise() const {
    return wcet_jitter > 0.0 || comm_jitter > 0.0 ||
           (stall_prob > 0.0 && stall_ticks > 0) || bus_fifo;
  }
  /// Any correlated-burst chain configured on an active channel.
  bool any_burst() const {
    return (wcet_jitter > 0.0 && wcet_burst.active()) ||
           (comm_jitter > 0.0 && comm_burst.active()) ||
           (stall_prob > 0.0 && stall_ticks > 0 && stall_burst.active());
  }
  /// Any permanent processor failure configured.
  bool any_failure() const { return !failures.empty(); }
  /// Anything at all to inject (noise or a failure).
  bool active() const { return any_noise() || any_failure(); }

  /// `failures` sorted by (at, proc) and deduplicated per processor (the
  /// earliest fail time wins; a processor only dies once).
  std::vector<ProcessorFault> all_failures() const;

  /// The spec for replication \p rep: same knobs, a seed derived by value
  /// (not by advancing a stream), so replications are order-free.
  PerturbSpec replication(int rep) const;
};

}  // namespace lbmem

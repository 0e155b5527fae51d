#pragma once
/// \file validator.hpp
/// \brief Ground-truth checker for distributed strict-periodic schedules.
///
/// The load-balancing heuristic, the baselines and the scheduler all claim
/// to produce valid schedules; this module is the independent referee. It
/// checks, from first principles:
///
///  V1. completeness — every task has a start, every instance a processor;
///  V2. strict periodicity — implied by construction (starts derive from
///      the first instance), but re-checked via the instance timing API;
///  V3. processor exclusivity — occupation intervals of instances sharing a
///      processor are pairwise disjoint on the hyper-period circle (this is
///      exactly non-overlap of the infinitely repeated schedule and
///      subsumes the paper's Block Condition, Eq. 4);
///  V4. precedence + communication — every consumer instance starts at or
///      after the arrival of all consumed data (paper Eqs. 1-2 semantics);
///  V5. memory capacity — per-processor resident memory within capacity
///      (only when the architecture declares a finite capacity).

#include <span>
#include <string>
#include <vector>

#include "lbmem/sched/schedule.hpp"

namespace lbmem {

/// One rule violation, suitable for diffing in tests.
struct Violation {
  enum class Kind {
    Incomplete,
    Overlap,
    Precedence,
    MemoryCapacity,
    NegativeStart,
  };
  Kind kind;
  std::string detail;
};

/// Result of validating one schedule.
struct ValidationReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }

  /// All violation details joined by newlines (empty when ok()).
  std::string to_string() const;
};

/// Validate \p sched against V1-V5. Never throws on rule violations; they
/// are collected in the report.
ValidationReport validate(const Schedule& sched);

/// validate(sched).ok() without the diagnostics: stops at the first
/// violation and builds no report strings. The balancer's attempt gate sits
/// on the hot path and only needs the verdict; tests assert agreement with
/// validate() so the two can never drift silently.
bool is_valid(const Schedule& sched);

/// is_valid(sched) for a schedule derived from a valid one by changing the
/// start or the processor of the \p touched instances only, when processor
/// exclusivity (V3) is already known to hold — e.g. every changed
/// footprint was admitted by an occupancy that mirrors the schedule.
/// Checks V1, V4 for the touched instances and their consumers (no other
/// instance's inputs changed), and V5; cost O(touched + M), not O(I). The
/// caller owns both preconditions (DESIGN.md F35).
bool is_valid_touched(const Schedule& sched,
                      std::span<const TaskInstance> touched);

/// Convenience: throw ScheduleError with the full report when invalid.
void validate_or_throw(const Schedule& sched);

}  // namespace lbmem

#pragma once
/// \file load_balancer.hpp
/// \brief The paper's load-balancing / memory-usage heuristic
/// (Section 3.2, Algorithm "Load Balancing heuristic").
///
/// Given a valid distributed strict-periodic schedule, the balancer:
///  1. groups instances into blocks (block_builder.hpp);
///  2. visits blocks in increasing start-time order;
///  3. for each block evaluates every processor: eligibility (end of the
///     last block moved there <= block start), achievable gain G
///     (category-1 blocks may shift earlier; category-2 blocks are pinned),
///     data-readiness of every member, overlap against already-moved
///     instances, the Block Condition (Eq. 4) and — optionally — the
///     memory capacity;
///  4. commits the block to the destination chosen by the CostPolicy;
///     a positive gain shifts the first starts of the block's tasks, which
///     by strict periodicity also shifts their later instances (the paper's
///     step-3 start-time update);
///  5. validates the result; because the paper's gain propagation is
///     optimistic (DESIGN.md F5), a failed validation triggers a bounded
///     retry with gains disabled, and ultimately falls back to the input
///     schedule — so the returned schedule is always valid and the total
///     gain is never negative (Theorem 1's lower bound by construction).

#include <cstdint>
#include <vector>

#include "lbmem/lb/block_builder.hpp"
#include "lbmem/lb/cost_policy.hpp"
#include "lbmem/sched/schedule.hpp"
#include "lbmem/sched/timeline.hpp"

namespace lbmem::obs {
class Registry;
}

namespace lbmem {

/// Which instances constrain a move's placement (DESIGN.md F8).
enum class OverlapRule {
  /// A move must avoid every instance at its current position (robust
  /// default; reproduces the paper example's decisions and keeps the
  /// working schedule conflict-free at every step).
  AllInstances,
  /// The paper's literal reading: only already-moved blocks constrain a
  /// move; unmoved blocks are expected to vacate later. Collapses to the
  /// fallback schedule on most non-trivial workloads — kept for
  /// paper-literal exploration and the ablation bench.
  MovedOnly,
};

/// Balancer configuration.
struct BalanceOptions {
  /// Destination selection rule (DESIGN.md F1). Lexicographic reproduces
  /// the paper's worked example.
  CostPolicy policy = CostPolicy::Lexicographic;
  /// Overlap semantics (DESIGN.md F8).
  OverlapRule overlap_rule = OverlapRule::AllInstances;
  /// Enforce the paper's Block Condition (Eq. 4). On by default.
  bool enforce_block_condition = true;
  /// Reject moves that would exceed the architecture's finite memory
  /// capacity (no effect when the capacity is unlimited).
  bool enforce_memory_capacity = false;
  /// Cap on any single block's gain; -1 means unlimited. 0 disables
  /// start-time gains entirely (pure memory spreading).
  Time max_gain = -1;
  /// Validation-failure retries before falling back to the input schedule.
  int max_attempts = 3;
  /// Record a per-block decision trace (costs memory; used by tests and
  /// the example bench). A trace is the *full* decision record — one
  /// candidate entry per processor — so tracing runs evaluate every
  /// destination exhaustively instead of using bound-and-prune selection.
  /// Decisions are identical either way (the pruning is exact; enforced by
  /// tests/test_prune_equivalence.cpp), tracing just pays for the evidence.
  bool record_trace = false;
  /// Price of moving a block off its current processor (DESIGN.md F9).
  /// When positive, the policy first picks its preferred destination as
  /// usual; if that pick is a migration while staying home is feasible,
  /// the migration only stands when its gain beats the home's gain by
  /// more than this penalty — otherwise the block stays home. The gain
  /// committed for the winner is still the full achievable one. The
  /// online engine sets this to damp migration churn; 0 (the default)
  /// preserves the paper's offline behavior exactly.
  Time migration_penalty = 0;
  /// Per-processor "closed" flags, size M (empty = all open). Closed
  /// processors are never evaluated as destinations; the online engine
  /// closes failed processors. Blocks homed on a closed processor must be
  /// evacuated by the caller before balancing.
  std::vector<std::uint8_t> closed_procs;
  /// Observability sink (DESIGN.md F25): when set, each balance() /
  /// rebalance() run folds its BalanceStats into this registry once at
  /// the end of the run — the candidate-evaluation hot loop records
  /// nothing, so the zero-allocation and determinism guarantees are
  /// untouched. Every figure lands in the registry's Deterministic class
  /// except the wall-clock histogram, which lands in Timing. The registry
  /// must outlive the balancer.
  obs::Registry* metrics = nullptr;
};

/// Scope of an incremental warm-start rebalance (DESIGN.md F12). Scoped
/// rebalancing is defined for OverlapRule::AllInstances only: under
/// MovedOnly the unscoped instances would be invisible to overlap checks,
/// the opposite of this contract.
struct RebalanceScope {
  /// Blocks to re-evaluate — typically build_blocks_around() of the tasks
  /// an event dirtied. Instances outside the decomposition are never moved
  /// but still constrain every placement through the occupancy. Required.
  const BlockDecomposition* blocks = nullptr;
  /// Warm per-processor all-instances occupancy mirroring the input
  /// schedule, copied instead of being rebuilt from scratch. Optional.
  const std::vector<ProcTimeline>* occupancy = nullptr;
  /// Return the final all-instances occupancy in BalanceResult::occupancy
  /// (empty on fallback) so the caller can keep its warm state in sync.
  bool return_occupancy = false;
};

/// Per-block decision record (mirrors the paper's step-by-step example).
struct StepRecord {
  BlockId block = -1;
  /// Block start when the decision was taken (after earlier shifts).
  Time start_before = 0;
  /// One entry per processor, in processor order.
  std::vector<DestinationScore> candidates;
  /// Chosen destination (kNoProc for a forced stay).
  ProcId chosen = kNoProc;
  /// True when no destination was feasible and the block stayed home
  /// without the usual checks.
  bool forced_stay = false;
  /// Gain actually applied (0 for category-2 blocks).
  Time applied_gain = 0;
};

/// Outcome metrics of one balancing run.
struct BalanceStats {
  Time makespan_before = 0;
  Time makespan_after = 0;
  /// Gtotal = makespan_before - makespan_after (>= 0; Theorem 1).
  Time gain_total = 0;
  Mem max_memory_before = 0;
  Mem max_memory_after = 0;
  std::vector<Mem> memory_before;  ///< per processor
  std::vector<Mem> memory_after;   ///< per processor
  int blocks_total = 0;
  int blocks_category1 = 0;
  int moves_off_home = 0;   ///< blocks that changed processor
  int gains_applied = 0;    ///< category-1 blocks with positive gain
  int forced_stays = 0;
  int attempts_used = 0;
  bool fell_back = false;   ///< returned the input schedule unchanged
  // Bound-and-prune observability (DESIGN.md F15). Destination selection
  // screens every candidate with an admissible O(1) upper bound before
  // paying for the exact evaluation; per open destination per block exactly
  // one of the first two counters increments, so their sum equals
  // blocks * open processors. Trace-recording runs evaluate exhaustively
  // (the trace is the full decision record), leaving both prune counters 0.
  // Like every field here but wall_seconds, the counters are a pure
  // function of the input.
  std::int64_t dest_evaluated = 0;        ///< exact evaluations started
  std::int64_t dest_skipped_by_bound = 0; ///< skipped: bound cannot win
  std::int64_t dest_cut_by_incumbent = 0; ///< evaluations aborted mid-scan
  double wall_seconds = 0.0;
};

/// Balancing result: a valid schedule plus metrics and optional trace.
struct BalanceResult {
  Schedule schedule;
  BalanceStats stats;
  std::vector<StepRecord> trace;
  /// All-instances occupancy of `schedule`, filled only when a
  /// RebalanceScope asked for it (warm-state handover; empty otherwise).
  std::vector<ProcTimeline> occupancy;
};

/// The load-balancing heuristic.
class LoadBalancer {
 public:
  explicit LoadBalancer(BalanceOptions options = {});

  /// Balance \p input (which must be complete and valid).
  /// The returned schedule is always valid; on unrecoverable conflicts it
  /// equals the input (stats.fell_back).
  BalanceResult balance(const Schedule& input) const;

  /// Incremental warm-start balance: identical decision machinery, but only
  /// the blocks of \p scope are popped — everything else stays put and acts
  /// as committed occupancy. Eligibility and the Block Condition anchor are
  /// local to this run, mirroring one balancing "round" over the scoped
  /// blocks. Same validity contract as balance(): on validation failure the
  /// gain-disabled retry runs, and ultimately the input is returned.
  BalanceResult rebalance(const Schedule& input,
                          const RebalanceScope& scope) const;

  const BalanceOptions& options() const { return options_; }

 private:
  BalanceResult run_attempts(const Schedule& input,
                             const BlockDecomposition& dec,
                             const std::vector<ProcTimeline>* warm_occupancy,
                             bool return_occupancy) const;

  BalanceOptions options_;
};

}  // namespace lbmem

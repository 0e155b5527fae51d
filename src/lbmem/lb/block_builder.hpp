#pragma once
/// \file block_builder.hpp
/// \brief Builds the block decomposition of a schedule (paper Section 3.1).

#include <span>
#include <vector>

#include "lbmem/lb/block.hpp"

namespace lbmem {

/// The block decomposition plus an instance -> block index.
struct BlockDecomposition {
  std::vector<Block> blocks;
  /// block_of[graph->dense_index(inst)] = BlockId of instance inst (-1
  /// for an instance a partial decomposition did not discover).
  std::vector<BlockId> block_of;
  /// The graph whose dense instance enumeration block_of follows; it must
  /// outlive the decomposition (as it outlives the schedule).
  const TaskGraph* graph = nullptr;

  /// Block holding \p inst.
  const Block& block_containing(TaskInstance inst) const;
};

/// Group the instances of \p sched into blocks.
///
/// Rule (from Eqs. 1-2 of the paper): two instances u -> v connected by a
/// direct dependence, placed on the same processor, belong to the same
/// block whenever the timing slack start(v) - end(u) is smaller than the
/// communication time of the edge — separating them would create a
/// communication the schedule cannot absorb. The relation is closed
/// transitively (union-find), so a consumer tight against producers in two
/// distinct groups merges them into one block.
///
/// Requires a complete schedule.
BlockDecomposition build_blocks(const Schedule& sched);

/// Partial decomposition for the online engine (DESIGN.md F12): only the
/// blocks reachable from any instance of a seed task through chains of
/// tight same-processor dependences (the same merge rule as build_blocks)
/// are materialized, by BFS from the seeds instead of a global edge sweep.
/// block_of entries of undiscovered instances stay -1; blocks are numbered
/// in the same global start order build_blocks uses, so a pass over the
/// result behaves like the corresponding slice of the full decomposition.
/// Cost is proportional to the discovered neighborhood, not the system.
BlockDecomposition build_blocks_around(const Schedule& sched,
                                       std::span<const TaskId> seed_tasks);

}  // namespace lbmem

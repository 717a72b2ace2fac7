// Sub-schedule merging (paper §5.2).
//
// Solved sub-schedules are stitched into one global schedule: ops are issued
// stage by stage and, inside a stage, epoch by epoch across all groups.
// Stages are NOT barriers — the simulator lets a GPU forward a piece the
// moment it arrives (Fig. 12(b)); the issue order only fixes per-port FIFO
// order.
//
// Reduce collectives (Reduce / Gather / ReduceScatter) reuse forward
// synthesis: reverse_schedule flips every op (src↔dst) of the tuned forward
// schedule and reverses the global order, turning broadcast trees into
// reduction trees of identical cost, and rewrites the pieces.
#pragma once

#include <string>
#include <vector>

#include "core/subdemand.h"
#include "sim/schedule.h"
#include "solver/epoch_model.h"

namespace syccl::core {

/// Merges solved sub-schedules (parallel array to `plan.demands`) into a
/// global forward schedule. Throws std::invalid_argument on size mismatch.
sim::Schedule merge_schedule(const DemandPlan& plan,
                             const std::vector<solver::SubSchedule>& solved,
                             const topo::TopologyGroups& groups, std::string name);

/// Reorders `s.ops` by contention-free estimated start time within each
/// phase, ties kept in issue order (used by merge_schedule; exposed for
/// tests). Ops with dim = -1 are priced on the fastest common dimension. An
/// op whose endpoints share no group of its dimension, or whose piece or
/// ranks are out of range, gets estimated start 0 and delivers nothing.
void reorder_by_estimated_start(sim::Schedule& s, const topo::TopologyGroups& groups);

/// Reverses a complete forward schedule into its inverse collective's
/// schedule: ops flipped and played backwards; pieces become reduce pieces
/// over every rank, each identified by its forward origin (`reduce` = true,
/// Broadcast→Reduce), or keep their identity with the origin moved to the
/// forward destination (Scatter→Gather). Works on any valid forward
/// schedule, including ones whose issue order was tuned.
sim::Schedule reverse_schedule(const sim::Schedule& forward, bool reduce, int num_ranks,
                               std::string name);

}  // namespace syccl::core

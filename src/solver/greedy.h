// Greedy list scheduler for sub-demands.
//
// Fast feasible scheduling over the epoch model: epoch by epoch, issue the
// most critical sends that fit the free port capacity. For one-to-all
// sub-demands this reproduces binomial-tree broadcasts; for merged AllGather
// stages it reproduces shifted direct exchanges. The result seeds the MILP
// scheduler as its incumbent (§5.3) and is the fallback under solver limits.
#pragma once

#include "solver/epoch_model.h"

namespace syccl::solver {

/// Schedules `demand` greedily under `params`. Always returns a feasible
/// schedule (validated by check_sub_schedule) or throws std::logic_error if
/// the demand cannot make progress (disconnected demand — impossible for
/// well-formed groups). Throws std::invalid_argument if params.lat_epochs
/// < 1 (derive_epoch_params never produces that).
///
/// Each epoch visits the pieces with the most unserved destinations first
/// (ties by index), serves each piece's destinations in index order, and
/// takes as source the holder that received the piece earliest (ties by
/// index) whose up port is free. DESIGN.md §4j explains the flat state and
/// the skipping of idle epochs.
SubSchedule solve_greedy(const SubDemand& demand, const EpochParams& params);

}  // namespace syccl::solver

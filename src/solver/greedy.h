// Greedy list scheduler for sub-demands (paper §5.1).
//
// Fast feasible scheduling over the epoch model: epoch by epoch, issue the
// most critical sends that fit the free port capacity. For one-to-all
// sub-demands this reproduces binomial-tree broadcasts; for merged AllGather
// stages it reproduces shifted direct exchanges. The paper hands each
// sub-demand to a time-limited MILP; here greedy is the whole solver, because
// on every sub-demand shape the sketches produce an exact branch-and-bound
// matched it (EXPERIMENTS.md, "Greedy-only sub-demand solving").
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

/// Per-pass solver settings.
struct SolveOptions {
  /// Epoch knob (Appendix A.3): coarse step E₁ = 3.0, fine step E₂ = 0.5.
  double E = 1.0;
};

struct SolveStats {
  /// Served from the process-wide SubScheduleCache without solving.
  bool cache_hit = false;
  double solve_seconds = 0.0;
};

/// Solves `demand`: derives the epoch parameters from the group and
/// `options.E`, then schedules greedily. Counts the solve as
/// `solver.solves` and traces it as a `solve_sub_demand` span.
SubSchedule solve_sub_demand(const SubDemand& demand, const SolveOptions& options = {},
                             SolveStats* stats = nullptr);

}  // namespace syccl::solver

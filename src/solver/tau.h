// Automatic epoch-duration selection (paper Appendix A.3).
//
// τ must simultaneously satisfy the bandwidth constraint (τ = r·β·s with r or
// 1/r integer, Fig. 18(a)) and come close to the latency constraint
// (⌈(α+βs)/τ⌉ epochs should waste little time, Fig. 18(b)). The knob E sets
// the target number of epochs per transmission: larger E → larger τ → fewer
// epochs to schedule but coarser schedules.
#pragma once

#include "solver/epoch_model.h"

namespace syccl::solver {

/// Derives epoch parameters for a link class (α, β) and piece size `bytes`
/// from the accuracy knob E (paper uses E₁=3.0 coarse, E₂=0.5 fine).
/// Guarantees τ > 0, L ≥ 1, and exactly one of C > 1 / O > 1.
EpochParams derive_epoch_params(double alpha, double beta, double bytes, double E);

/// Convenience: derive from the worst-case pair parameters of a group.
EpochParams derive_epoch_params(const topo::GroupTopology& group, double bytes, double E);

}  // namespace syccl::solver

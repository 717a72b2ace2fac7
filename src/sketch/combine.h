// Cross-dimension chunk allocation (paper §4.2 step 2).
//
// Given up to |D| candidate combinations with different per-dimension
// workload profiles, find fractions t_i ≥ 0 (Σt_i = 1) such that the
// weighted workload share of every dimension matches its bandwidth share
// u_d — i.e., every dimension's links are saturated simultaneously. Solved
// exactly as a small LP; candidates without a non-negative solution are
// rejected (paper: "the candidate is deemed invalid").
#pragma once

#include <vector>

#include "sketch/sketch.h"

namespace syccl::sketch {

struct CombineConfig {
  /// Accept allocations whose worst per-dimension share deviation is below
  /// this (exact solutions preferred; small slack tolerates rounding).
  double max_share_error = 0.05;
  /// Cap on the number of emitted combinations.
  int max_outputs = 24;
  /// Drop combination members whose allocated fraction falls below this.
  double min_fraction = 1e-6;
};

/// Generates the full set of sketch combinations for a rooted collective
/// (§4.2): every input combination alone (small-size candidates, t=1), plus
/// every ≤|D|-subset integrated across dimensions by the allocation LP
/// (large-size candidates); a subset without a valid allocation is skipped.
std::vector<SketchCombination> generate_combinations(
    const std::vector<SketchCombination>& balanced, const topo::TopologyGroups& groups,
    const CombineConfig& config = {});

}  // namespace syccl::sketch

// MILP-based sub-demand scheduler (paper §5.1, Appendix A.1).
//
// Encodes a sub-demand into the epoch model as a MILP (binary send variables
// x[p][i][j][t], availability variables, per-epoch port capacities) and
// minimises the number of completion epochs. The greedy schedule seeds the
// search as an incumbent, so the result is never worse than greedy; under
// node/time limits the incumbent survives — exactly how the paper operates
// its commercial solver.
//
// Transfers are restricted to the members of each piece's demand (its source
// and destinations): in the star group abstraction, relaying through an
// uninvolved GPU cannot reduce the bottleneck port load.
#pragma once

#include <vector>

#include "lp/flow_relax.h"
#include "milp/branch_and_bound.h"
#include "solver/epoch_model.h"

namespace syccl::solver {

/// ε objective weight on every send variable: keeps the MILP schedule
/// traffic-minimal among equally fast solutions. Shared with the flow
/// relaxation, whose bound lives on the same objective scale.
inline constexpr double kMilpSendCost = 1e-3;

struct MilpSchedulerOptions {
  /// Epoch knob (Appendix A.3). Coarse step E₁ ≈ 3.0, fine step E₂ ≈ 0.5.
  double E = 1.0;
  double time_limit_s = 2.0;
  long node_limit = 4000;
  /// Skip the MILP (greedy only) when the encoding would exceed this many
  /// binary variables; keeps the dense-simplex B&B inside its practical size
  /// range (worst-case synthesis time stays bounded).
  int max_binaries = 500;
  /// Force greedy-only solving (used by fast/coarse passes and ablations).
  bool greedy_only = false;
  /// Multi-commodity flow dual bounds (lp::FlowRelaxation): a root bound
  /// that can prove the greedy incumbent optimal before any branching, plus
  /// depth/frequency-gated per-node bound refreshes. Changes speed, never
  /// answers (the winning schedule is byte-identical either way).
  bool use_flow_bounds = true;
};

struct SolveStats {
  bool used_milp = false;
  bool milp_improved = false;
  /// Served from the process-wide SubScheduleCache without solving.
  bool cache_hit = false;
  double solve_seconds = 0.0;
  long nodes_explored = 0;
  int binaries = 0;
  /// Nodes closed by the multi-commodity flow bound (LP call skipped).
  long flow_prunes = 0;
  /// Simplex pivots spent inside the flow relaxation.
  long flow_lp_iterations = 0;
};

/// Solves `demand`: derives epoch parameters from the group and `options.E`,
/// runs the greedy scheduler, then (size permitting) the MILP with the
/// greedy incumbent. Returns the best feasible schedule found.
SubSchedule solve_sub_demand(const SubDemand& demand, const MilpSchedulerOptions& options = {},
                             SolveStats* stats = nullptr);

/// Builds the epoch-model MILP encoding of `demand` over `horizon` epochs
/// (E controls τ) and returns its binary-variable count. Exposed so
/// bench_micro can track the encode step in isolation; solving goes through
/// solve_sub_demand.
int encode_sub_demand_binaries(const SubDemand& demand, double E, int horizon);

/// A fully-built MILP encoding of one sub-demand, with the greedy schedule
/// translated into an integer-feasible incumbent vector. Exposed so
/// bench_milp can exercise the branch-and-bound / warm-started-LP stack on
/// representative encodings without going through the synthesis pipeline.
struct SubDemandEncoding {
  milp::MilpProblem problem;
  std::vector<double> incumbent;  ///< greedy schedule as a MILP warm start
  int binaries = 0;
  int horizon = 0;  ///< epochs encoded (greedy completion when derived)
  /// Flow projection of the variable layout + the epoch discretisation it
  /// was encoded under, so callers can stand up an lp::FlowRelaxation.
  lp::FlowVarMap flow_map;
  EpochParams params;
};

/// Encodes `demand` over `horizon` epochs (`horizon` ≤ 0 uses the greedy
/// schedule's completion epoch, the same horizon solve_sub_demand uses).
SubDemandEncoding encode_sub_demand_milp(const SubDemand& demand, double E, int horizon = 0);

}  // namespace syccl::solver

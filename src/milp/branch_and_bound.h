// Mixed-integer linear programming by LP-based branch and bound.
//
// This module plays the role of the commercial MILP solver (Gurobi) in the
// paper's pipeline. Best-first search over LP relaxations. A warm-start
// incumbent (from the greedy scheduler, §5.3) both bounds the search and
// guarantees a feasible answer under node/time limits — mirroring how the
// paper runs Gurobi with a timeout and keeps the best incumbent.
//
// Node LPs are re-solved warm: one lp::SimplexSolver is built per MILP
// instance and each node re-enters from the previous basis via dual simplex
// (bound changes leave the basis dual feasible). Nodes store only their
// branching delta plus the parent's basis snapshot; bounds are materialized
// on pop. A cheap per-node presolve propagates the branched bound through
// the rows that contain it and can prune the node without an LP call.
// Branching uses pseudocosts (seeded from objective coefficients, updated
// from observed per-branch degradation).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "lp/simplex.h"

namespace syccl::milp {

struct MilpProblem {
  lp::Problem lp;
  /// is_integer[v] — variable v must take an integer value.
  std::vector<bool> is_integer;
};

/// External dual-bound oracle consulted by the branch and bound in addition
/// to the node LP relaxation (implemented by lp::FlowRelaxation, which
/// relaxes the epoch encoding to a multi-commodity flow LP). Both methods
/// receive the full per-variable bound box of the (root or current) node and
/// must return a bound that never exceeds the best integer objective
/// attainable inside that box; `infeasible` asserts the box contains no
/// integer-feasible point at all.
class DualBoundProvider {
 public:
  struct Result {
    bool infeasible = false;
    double bound = -lp::kInf;  ///< lower bound on the MILP objective in the box
    long lp_iterations = 0;    ///< pivots spent producing it
  };

  virtual ~DualBoundProvider() = default;
  /// Bound for the root box. May use strengthenings that are only valid
  /// against optimal solutions (e.g. no-duplicate-send caps).
  virtual Result root_bound(const std::vector<double>& lower,
                            const std::vector<double>& upper) = 0;
  /// Bound for an interior node box. Must stay sound under arbitrary forced
  /// variable fixings (branching can force redundant work).
  virtual Result node_bound(const std::vector<double>& lower,
                            const std::vector<double>& upper) = 0;
};

struct MilpOptions {
  double time_limit_s = 5.0;
  long node_limit = 20000;
  /// Pivot budget of one node LP.
  long lp_iteration_limit = 20000;
  /// External dual-bound provider (non-owning; e.g. lp::FlowRelaxation).
  /// Consulted once at the root — where it can prove optimality or
  /// infeasibility before any branching — and per node at shallow depth or
  /// periodically deeper, *before* the node LP so a flow prune skips the LP
  /// entirely. Node bounds are max-combined with the LP relaxation bound for
  /// pruning and for the children's bounds, and the combined degradation
  /// feeds the pseudocosts.
  DualBoundProvider* flow = nullptr;
};

enum class MilpStatus {
  Optimal,     ///< proven within a relative gap of 1e-6
  Feasible,    ///< incumbent found, limits hit before proof
  Infeasible,  ///< no integer-feasible point exists
  Unbounded,
  Limit,       ///< limits hit with no incumbent
};

struct MilpSolution {
  MilpStatus status = MilpStatus::Limit;
  double objective = 0.0;
  std::vector<double> x;
  long nodes_explored = 0;
  /// Best LP lower bound at termination (for gap reporting).
  double best_bound = -lp::kInf;
  /// Simplex pivots across all node LPs (warm re-solves + fallbacks).
  long lp_iterations = 0;
  /// Node LPs served by warm dual-simplex re-entry.
  long warm_hits = 0;
  /// Node LPs that fell back to the cold two-phase primal path.
  long warm_fallbacks = 0;
  /// Nodes pruned by per-node bound propagation before any LP call.
  long presolve_prunes = 0;
  /// Nodes pruned by their inherited (parent / propagated) bound against the
  /// incumbent, before any LP call. Split from lp_prunes so benches can
  /// attribute wins to the bound that actually closed the node.
  long bound_prunes = 0;
  /// Nodes pruned by their own LP relaxation bound, after the LP solve.
  long lp_prunes = 0;
  /// Nodes pruned by the external flow bound (infeasible box or bound ≥
  /// incumbent), LP call skipped.
  long flow_prunes = 0;
  /// Root bound reported by MilpOptions::flow (−inf when absent).
  double flow_root_bound = -lp::kInf;
  /// Simplex pivots spent inside the flow relaxation (root + node refreshes).
  long flow_lp_iterations = 0;
  /// Nodes whose LP hit the iteration/time limit. Their subtrees were never
  /// bounded, so Optimal/Infeasible claims are downgraded when > 0.
  long dropped_nodes = 0;
};

/// Solves the MILP. `incumbent`, if given, must be integer-feasible; it
/// seeds the upper bound.
MilpSolution solve(const MilpProblem& problem, const MilpOptions& options = {},
                   const std::optional<std::vector<double>>& incumbent = std::nullopt);

}  // namespace syccl::milp

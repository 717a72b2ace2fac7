// Dense two-phase primal simplex LP solver.
//
// The one LP engine of the repository: it solves the sketch-combination
// allocation LP (sketch/combine) and the multi-commodity-flow lower bound
// (baselines/flow_bound). Both are small, so a dense tableau is adequate; we
// favour simplicity and numerical robustness (Bland's rule fallback) over
// speed.
//
// Problem form:  minimize cᵀx  subject to per-row relations and variable
// bounds l ≤ x ≤ u (u may be +inf). Internally variables are shifted to
// x' = x − l ≥ 0 and finite upper bounds become explicit rows.
#pragma once

#include <limits>
#include <utility>
#include <vector>

namespace syccl::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Relation { LessEq, Eq, GreaterEq };

struct Constraint {
  std::vector<std::pair<int, double>> terms;  ///< (variable, coefficient)
  Relation rel = Relation::LessEq;
  double rhs = 0.0;
};

struct Problem {
  int num_vars = 0;
  std::vector<double> objective;  ///< minimize objectiveᵀ x
  std::vector<double> lower;      ///< defaults to 0 if empty
  std::vector<double> upper;      ///< defaults to +inf if empty
  std::vector<Constraint> constraints;

  int add_var(double lo = 0.0, double hi = kInf, double cost = 0.0);
  void add_constraint(Constraint c) { constraints.push_back(std::move(c)); }
};

enum class Status { Optimal, Infeasible, Unbounded, IterationLimit };

struct Solution {
  Status status = Status::Infeasible;
  double objective = 0.0;
  std::vector<double> x;
  /// Simplex pivots spent producing this solution (all phases; the
  /// clean-up pivots that drive leftover artificials out of the basis
  /// between the phases are not counted).
  long iterations = 0;
};

/// Solves the LP with the two-phase primal simplex. `max_iters` bounds the
/// total pivot count across both phases; exceeding it returns
/// Status::IterationLimit.
Solution solve(const Problem& problem, long max_iters = 200000);

}  // namespace syccl::lp

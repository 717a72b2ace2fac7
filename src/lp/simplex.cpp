#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace syccl::lp {

namespace {

constexpr double kEps = 1e-9;

/// Dense tableau simplex in standard form: minimize cᵀx, Ax = b, x ≥ 0,
/// b ≥ 0, starting from a basis of artificials/slacks.
class Tableau {
 public:
  Tableau(int rows, int cols) : rows_(rows), cols_(cols), a_(static_cast<std::size_t>(rows) * cols, 0.0), b_(rows, 0.0), basis_(rows, -1) {}

  double& at(int r, int c) { return a_[static_cast<std::size_t>(r) * cols_ + c]; }
  double at(int r, int c) const { return a_[static_cast<std::size_t>(r) * cols_ + c]; }
  double& rhs(int r) { return b_[static_cast<std::size_t>(r)]; }
  double rhs(int r) const { return b_[static_cast<std::size_t>(r)]; }
  int& basis(int r) { return basis_[static_cast<std::size_t>(r)]; }
  int basis(int r) const { return basis_[static_cast<std::size_t>(r)]; }
  int rows() const { return rows_; }
  int cols() const { return cols_; }

  void pivot(int pr, int pc) {
    const double pv = at(pr, pc);
    for (int c = 0; c < cols_; ++c) at(pr, c) /= pv;
    rhs(pr) /= pv;
    at(pr, pc) = 1.0;
    for (int r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double f = at(r, pc);
      if (std::fabs(f) < kEps) continue;
      for (int c = 0; c < cols_; ++c) at(r, c) -= f * at(pr, c);
      rhs(r) -= f * rhs(pr);
      at(r, pc) = 0.0;
    }
    basis(pr) = pc;
  }

 private:
  int rows_, cols_;
  std::vector<double> a_;
  std::vector<double> b_;
  std::vector<int> basis_;
};

/// Runs the simplex on `t` minimizing the reduced-cost row `z` (length cols,
/// plus scalar value). Only columns with allowed[c] == true may enter. Each
/// pivot spends one unit of `iters_left`; IterationLimit means a pivot was
/// due with none left. Returns Optimal / Unbounded / IterationLimit.
Status run_simplex(Tableau& t, std::vector<double>& z, double& zval,
                   const std::vector<bool>& allowed, long& iters_left) {
  const int rows = t.rows();
  const int cols = t.cols();
  long stall = 0;
  for (;;) {
    // Entering column: Dantzig rule, Bland's rule when stalling.
    int pc = -1;
    if (stall < 2000) {
      double best = -kEps;
      for (int c = 0; c < cols; ++c) {
        if (!allowed[static_cast<std::size_t>(c)]) continue;
        if (z[static_cast<std::size_t>(c)] < best) {
          best = z[static_cast<std::size_t>(c)];
          pc = c;
        }
      }
    } else {
      for (int c = 0; c < cols; ++c) {
        if (allowed[static_cast<std::size_t>(c)] && z[static_cast<std::size_t>(c)] < -kEps) {
          pc = c;
          break;
        }
      }
    }
    if (pc < 0) return Status::Optimal;

    // Ratio test (Bland tie-break on basis index for anti-cycling).
    int pr = -1;
    double best_ratio = kInf;
    for (int r = 0; r < rows; ++r) {
      const double a = t.at(r, pc);
      if (a > kEps) {
        const double ratio = t.rhs(r) / a;
        if (ratio < best_ratio - kEps ||
            (ratio < best_ratio + kEps && (pr < 0 || t.basis(r) < t.basis(pr)))) {
          best_ratio = ratio;
          pr = r;
        }
      }
    }
    if (pr < 0) return Status::Unbounded;
    if (iters_left <= 0) return Status::IterationLimit;
    --iters_left;
    if (best_ratio < kEps) {
      ++stall;
    } else {
      stall = 0;
    }

    // Pivot and update the objective row.
    t.pivot(pr, pc);
    const double f = z[static_cast<std::size_t>(pc)];
    if (std::fabs(f) > 0) {
      for (int c = 0; c < cols; ++c) z[static_cast<std::size_t>(c)] -= f * t.at(pr, c);
      zval -= f * t.rhs(pr);
      z[static_cast<std::size_t>(pc)] = 0.0;
    }
  }
}

}  // namespace

int Problem::add_var(double lo, double hi, double cost) {
  const int id = num_vars++;
  objective.resize(static_cast<std::size_t>(num_vars), 0.0);
  lower.resize(static_cast<std::size_t>(num_vars), 0.0);
  upper.resize(static_cast<std::size_t>(num_vars), kInf);
  objective[static_cast<std::size_t>(id)] = cost;
  lower[static_cast<std::size_t>(id)] = lo;
  upper[static_cast<std::size_t>(id)] = hi;
  return id;
}

Solution solve(const Problem& problem, long max_iters) {
  const long initial_iters = max_iters;
  const int n = problem.num_vars;
  std::vector<double> lower = problem.lower;
  std::vector<double> upper = problem.upper;
  std::vector<double> cost = problem.objective;
  lower.resize(static_cast<std::size_t>(n), 0.0);
  upper.resize(static_cast<std::size_t>(n), kInf);
  cost.resize(static_cast<std::size_t>(n), 0.0);

  for (int v = 0; v < n; ++v) {
    if (lower[static_cast<std::size_t>(v)] > upper[static_cast<std::size_t>(v)] + kEps) {
      return Solution{Status::Infeasible, 0.0, {}};
    }
  }

  // Shift x = l + x'. Collect all rows: user constraints plus finite upper
  // bounds (x' ≤ u − l).
  struct Row {
    std::vector<std::pair<int, double>> terms;
    Relation rel;
    double rhs;
  };
  std::vector<Row> rows;
  rows.reserve(problem.constraints.size());
  double shift_cost = 0.0;
  for (int v = 0; v < n; ++v) {
    shift_cost += cost[static_cast<std::size_t>(v)] * lower[static_cast<std::size_t>(v)];
    if (upper[static_cast<std::size_t>(v)] < kInf) {
      rows.push_back(Row{{{v, 1.0}},
                         Relation::LessEq,
                         upper[static_cast<std::size_t>(v)] - lower[static_cast<std::size_t>(v)]});
    }
  }
  for (const Constraint& c : problem.constraints) {
    Row row{c.terms, c.rel, c.rhs};
    for (auto& [v, coef] : row.terms) {
      if (v < 0 || v >= n) throw std::invalid_argument("constraint references unknown variable");
      row.rhs -= coef * lower[static_cast<std::size_t>(v)];
    }
    rows.push_back(std::move(row));
  }

  const int m = static_cast<int>(rows.size());
  // Column layout: [x' (n)] [slack/surplus (≤/≥ rows)] [artificials].
  int num_slack = 0;
  for (const Row& r : rows) {
    if (r.rel != Relation::Eq) ++num_slack;
  }
  // Artificials: for ≥ rows and = rows always; for ≤ rows only when rhs < 0
  // after normalisation (we normalise rhs ≥ 0 by flipping, so a flipped ≤
  // becomes ≥ and needs one anyway). Simplest: normalise first.
  std::vector<Row> norm = rows;
  for (Row& r : norm) {
    if (r.rhs < 0) {
      r.rhs = -r.rhs;
      for (auto& [v, coef] : r.terms) coef = -coef;
      if (r.rel == Relation::LessEq) {
        r.rel = Relation::GreaterEq;
      } else if (r.rel == Relation::GreaterEq) {
        r.rel = Relation::LessEq;
      }
    }
  }
  num_slack = 0;
  int num_art = 0;
  for (const Row& r : norm) {
    if (r.rel != Relation::Eq) ++num_slack;
    if (r.rel != Relation::LessEq) ++num_art;
  }

  const int cols = n + num_slack + num_art;
  Tableau t(m, cols);
  int slack_cursor = n;
  int art_cursor = n + num_slack;
  std::vector<int> art_cols;
  for (int r = 0; r < m; ++r) {
    const Row& row = norm[static_cast<std::size_t>(r)];
    for (const auto& [v, coef] : row.terms) t.at(r, v) += coef;
    t.rhs(r) = row.rhs;
    if (row.rel == Relation::LessEq) {
      t.at(r, slack_cursor) = 1.0;
      t.basis(r) = slack_cursor++;
    } else if (row.rel == Relation::GreaterEq) {
      t.at(r, slack_cursor++) = -1.0;
      t.at(r, art_cursor) = 1.0;
      t.basis(r) = art_cursor;
      art_cols.push_back(art_cursor++);
    } else {
      t.at(r, art_cursor) = 1.0;
      t.basis(r) = art_cursor;
      art_cols.push_back(art_cursor++);
    }
  }

  long iters_left = max_iters;
  std::vector<bool> allowed(static_cast<std::size_t>(cols), true);

  // Phase 1: minimize Σ artificials.
  if (num_art > 0) {
    std::vector<double> z(static_cast<std::size_t>(cols), 0.0);
    double zval = 0.0;
    for (int c : art_cols) z[static_cast<std::size_t>(c)] = 1.0;
    // Price out the artificial basis.
    for (int r = 0; r < m; ++r) {
      const int b = t.basis(r);
      if (z[static_cast<std::size_t>(b)] != 0.0) {
        const double f = z[static_cast<std::size_t>(b)];
        for (int c = 0; c < cols; ++c) z[static_cast<std::size_t>(c)] -= f * t.at(r, c);
        zval -= f * t.rhs(r);
      }
    }
    const Status s1 = run_simplex(t, z, zval, allowed, iters_left);
    if (s1 == Status::IterationLimit) {
      return Solution{Status::IterationLimit, 0.0, {}, initial_iters - iters_left};
    }
    if (-zval > 1e-6) return Solution{Status::Infeasible, 0.0, {}, initial_iters - iters_left};
    // Drive remaining artificials out of the basis where possible; then ban
    // artificial columns from re-entering.
    for (int r = 0; r < m; ++r) {
      const int b = t.basis(r);
      if (b >= n + num_slack) {
        for (int c = 0; c < n + num_slack; ++c) {
          if (std::fabs(t.at(r, c)) > 1e-7) {
            t.pivot(r, c);
            break;
          }
        }
      }
    }
    for (int c : art_cols) allowed[static_cast<std::size_t>(c)] = false;
  }

  // Phase 2: original objective.
  std::vector<double> z(static_cast<std::size_t>(cols), 0.0);
  double zval = 0.0;
  for (int v = 0; v < n; ++v) z[static_cast<std::size_t>(v)] = cost[static_cast<std::size_t>(v)];
  for (int r = 0; r < m; ++r) {
    const int b = t.basis(r);
    if (b < cols && z[static_cast<std::size_t>(b)] != 0.0) {
      const double f = z[static_cast<std::size_t>(b)];
      for (int c = 0; c < cols; ++c) z[static_cast<std::size_t>(c)] -= f * t.at(r, c);
      zval -= f * t.rhs(r);
    }
  }
  const Status s2 = run_simplex(t, z, zval, allowed, iters_left);
  if (s2 == Status::Unbounded) return Solution{Status::Unbounded, 0.0, {}, initial_iters - iters_left};
  if (s2 == Status::IterationLimit) {
    return Solution{Status::IterationLimit, 0.0, {}, initial_iters - iters_left};
  }

  Solution sol;
  sol.status = Status::Optimal;
  sol.iterations = initial_iters - iters_left;
  sol.x.assign(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < m; ++r) {
    const int b = t.basis(r);
    if (b >= 0 && b < n) sol.x[static_cast<std::size_t>(b)] = t.rhs(r);
  }
  for (int v = 0; v < n; ++v) sol.x[static_cast<std::size_t>(v)] += lower[static_cast<std::size_t>(v)];
  sol.objective = 0.0;
  for (int v = 0; v < n; ++v) {
    sol.objective += cost[static_cast<std::size_t>(v)] * sol.x[static_cast<std::size_t>(v)];
  }
  (void)shift_cost;
  return sol;
}

}  // namespace syccl::lp

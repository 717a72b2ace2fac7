// Tests for the simplex LP solver against hand-solved problems.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "lp/simplex.h"
#include "util/rng.h"

namespace syccl::lp {
namespace {

TEST(Simplex, SimpleTwoVarMax) {
  // maximize 3x + 2y s.t. x + y <= 4, x + 3y <= 6  → x=4, y=0, obj=12.
  Problem p;
  const int x = p.add_var(0, kInf, -3.0);
  const int y = p.add_var(0, kInf, -2.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.0});
  p.add_constraint({{{x, 1.0}, {y, 3.0}}, Relation::LessEq, 6.0});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -12.0, 1e-7);
  EXPECT_NEAR(s.x[0], 4.0, 1e-7);
  EXPECT_NEAR(s.x[1], 0.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // minimize x + y s.t. x + 2y = 4, x >= 0, y >= 0 → y=2, x=0, obj=2.
  Problem p;
  const int x = p.add_var(0, kInf, 1.0);
  const int y = p.add_var(0, kInf, 1.0);
  p.add_constraint({{{x, 1.0}, {y, 2.0}}, Relation::Eq, 4.0});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 2.0, 1e-7);
}

TEST(Simplex, GreaterEqAndInfeasible) {
  Problem p;
  const int x = p.add_var(0, 1.0, 1.0);
  p.add_constraint({{{x, 1.0}}, Relation::GreaterEq, 2.0});  // x <= 1 but x >= 2
  EXPECT_EQ(solve(p).status, Status::Infeasible);
}

TEST(Simplex, Unbounded) {
  Problem p;
  const int x = p.add_var(0, kInf, -1.0);  // maximize x, no constraint
  (void)x;
  EXPECT_EQ(solve(p).status, Status::Unbounded);
}

TEST(Simplex, VariableBoundsRespected) {
  // minimize -x - y with 1 <= x <= 3, 0 <= y <= 2, x + y <= 4 → x=3,y=1? or x=2,y=2.
  Problem p;
  const int x = p.add_var(1.0, 3.0, -1.0);
  const int y = p.add_var(0.0, 2.0, -1.0);
  p.add_constraint({{{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.0});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-7);
  EXPECT_GE(s.x[0], 1.0 - 1e-7);
  EXPECT_LE(s.x[0], 3.0 + 1e-7);
}

TEST(Simplex, NegativeLowerBounds) {
  // minimize x with -5 <= x <= 5, x >= -3 → x = -3.
  Problem p;
  const int x = p.add_var(-5.0, 5.0, 1.0);
  p.add_constraint({{{x, 1.0}}, Relation::GreaterEq, -3.0});
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-7);
}

TEST(Simplex, DegenerateDoesNotCycle) {
  // Classic degenerate LP; must terminate.
  Problem p;
  const int x1 = p.add_var(0, kInf, -0.75);
  const int x2 = p.add_var(0, kInf, 150.0);
  const int x3 = p.add_var(0, kInf, -0.02);
  const int x4 = p.add_var(0, kInf, 6.0);
  p.add_constraint({{{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}}, Relation::LessEq, 0.0});
  p.add_constraint({{{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}}, Relation::LessEq, 0.0});
  p.add_constraint({{{x3, 1.0}}, Relation::LessEq, 1.0});
  const Solution s = solve(p);
  EXPECT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-6);
}

TEST(Simplex, TransportationProblem) {
  // 2 sources (supply 20, 30), 3 sinks (demand 10, 25, 15), costs:
  //   s0: 2 4 5 ; s1: 3 1 7.
  // Optimal: x11=25 (25), x02=15 (75), x00=5 (10), x10=5 (15) → 125.
  Problem p;
  std::vector<std::vector<int>> x(2, std::vector<int>(3));
  const double cost[2][3] = {{2, 4, 5}, {3, 1, 7}};
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) x[i][j] = p.add_var(0, kInf, cost[i][j]);
  }
  const double supply[2] = {20, 30};
  const double demand[3] = {10, 25, 15};
  for (int i = 0; i < 2; ++i) {
    Constraint c;
    for (int j = 0; j < 3; ++j) c.terms.push_back({x[i][j], 1.0});
    c.rel = Relation::LessEq;
    c.rhs = supply[i];
    p.add_constraint(c);
  }
  for (int j = 0; j < 3; ++j) {
    Constraint c;
    for (int i = 0; i < 2; ++i) c.terms.push_back({x[i][j], 1.0});
    c.rel = Relation::Eq;
    c.rhs = demand[j];
    p.add_constraint(c);
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 125.0, 1e-6);
}

TEST(Simplex, AssignmentRelaxationIsIntegral) {
  // 3x3 assignment: the constraint matrix is totally unimodular, so the
  // simplex lands on a vertex that is a permutation. Two assignments tie at
  // 12: r0→c1, r1→c0, r2→c2 and r0→c0, r1→c2, r2→c1.
  const double cost[3][3] = {{4, 2, 8}, {4, 3, 7}, {3, 1, 6}};
  Problem p;
  int v[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) v[i][j] = p.add_var(0, 1, cost[i][j]);
  }
  for (int i = 0; i < 3; ++i) {
    Constraint row, col;
    for (int j = 0; j < 3; ++j) {
      row.terms.push_back({v[i][j], 1.0});
      col.terms.push_back({v[j][i], 1.0});
    }
    row.rel = col.rel = Relation::Eq;
    row.rhs = col.rhs = 1.0;
    p.add_constraint(row);
    p.add_constraint(col);
  }
  const Solution s = solve(p);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-7);
  for (double x : s.x) EXPECT_NEAR(x, std::round(x), 1e-7);
}

TEST(Simplex, InvertedBoundsAreInfeasibleWithoutPivoting) {
  Problem p;
  const int x = p.add_var(0.0, 4.0, 1.0);
  p.add_var(2.0, 1.0, 1.0);  // lo > hi: no point, whatever the rows say
  p.add_constraint({{{x, 1.0}}, Relation::GreaterEq, 1.0});
  const Solution s = solve(p);
  EXPECT_EQ(s.status, Status::Infeasible);
  EXPECT_EQ(s.iterations, 0);
  EXPECT_TRUE(s.x.empty());
}

// An exhausted pivot budget is reported as such: never as a false Optimal
// or Infeasible verdict, and never with a point.
TEST(Simplex, ExhaustedPivotBudgetIsNotAVerdict) {
  Problem p;
  std::vector<int> x;
  for (int i = 0; i < 6; ++i) x.push_back(p.add_var(0, 1, -(1.0 + 0.1 * i)));
  Constraint cap;
  for (int i = 0; i < 6; ++i) cap.terms.push_back({x[static_cast<std::size_t>(i)], 1.0 + 0.05 * i});
  cap.rel = Relation::LessEq;
  cap.rhs = 3.0;
  p.add_constraint(cap);
  p.add_constraint({{{x[0], 1.0}, {x[5], 1.0}}, Relation::GreaterEq, 1.0});

  const Solution full = solve(p);
  ASSERT_EQ(full.status, Status::Optimal);
  ASSERT_GT(full.iterations, 2);
  const Solution starved = solve(p, 1);
  EXPECT_EQ(starved.status, Status::IterationLimit);
  EXPECT_TRUE(starved.x.empty());
}

// The budget bounds pivots, not pricing passes: an LP that one pivot solves
// is solved under a budget of one and reports that one pivot.
TEST(Simplex, OnePivotLpSolvesUnderABudgetOfOne) {
  Problem p;
  const int x = p.add_var(0.0, kInf, -1.0);
  p.add_constraint({{{x, 1.0}}, Relation::LessEq, 1.0});
  const Solution s = solve(p, 1);
  ASSERT_EQ(s.status, Status::Optimal);
  EXPECT_EQ(s.iterations, 1);
  ASSERT_EQ(s.x.size(), 1u);
  EXPECT_DOUBLE_EQ(s.x[0], 1.0);
  const Solution starved = solve(p, 0);
  EXPECT_EQ(starved.status, Status::IterationLimit);
  EXPECT_EQ(starved.iterations, 0);
}

// Random bounded LPs built around a known feasible point x0: every solve is
// optimal, returns a point inside every bound and constraint whose cost is
// the reported objective and no worse than x0's, and repeats bit for bit
// (nothing in the solver reads the clock).
TEST(Simplex, RandomBoundedLpsSolveFeasiblyAndRepeatably) {
  util::Rng rng(42);
  const auto uniform = [&rng](double lo, double hi) { return lo + (hi - lo) * rng.next_double(); };
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE(trial);
    Problem p;
    const int n = 2 + static_cast<int>(rng.next_below(6));
    std::vector<double> x0(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      const double lo = uniform(-2.0, 1.0);
      const double hi = lo + uniform(0.5, 3.0);
      p.add_var(lo, hi, uniform(-2.0, 2.0));
      x0[static_cast<std::size_t>(v)] = uniform(lo, hi);
    }
    const int m = 1 + static_cast<int>(rng.next_below(6));
    for (int r = 0; r < m; ++r) {
      Constraint c;
      double at_x0 = 0.0;
      for (int v = 0; v < n; ++v) {
        const double a = uniform(-1.0, 1.0);
        c.terms.push_back({v, a});
        at_x0 += a * x0[static_cast<std::size_t>(v)];
      }
      const auto kind = rng.next_below(3);
      c.rel = kind == 0 ? Relation::LessEq : kind == 1 ? Relation::GreaterEq : Relation::Eq;
      c.rhs = kind == 0 ? at_x0 + uniform(0.0, 1.0) : kind == 1 ? at_x0 - uniform(0.0, 1.0) : at_x0;
      p.add_constraint(std::move(c));
    }

    const Solution s = solve(p);
    ASSERT_EQ(s.status, Status::Optimal);
    double cost = 0.0, cost_x0 = 0.0;
    for (int v = 0; v < n; ++v) {
      const std::size_t i = static_cast<std::size_t>(v);
      EXPECT_GE(s.x[i], p.lower[i] - 1e-7);
      EXPECT_LE(s.x[i], p.upper[i] + 1e-7);
      cost += p.objective[i] * s.x[i];
      cost_x0 += p.objective[i] * x0[i];
    }
    for (const Constraint& c : p.constraints) {
      double lhs = 0.0;
      for (const auto& [v, a] : c.terms) lhs += a * s.x[static_cast<std::size_t>(v)];
      if (c.rel != Relation::GreaterEq) {
        EXPECT_LE(lhs, c.rhs + 1e-6);
      }
      if (c.rel != Relation::LessEq) {
        EXPECT_GE(lhs, c.rhs - 1e-6);
      }
    }
    EXPECT_NEAR(cost, s.objective, 1e-6);
    EXPECT_LE(s.objective, cost_x0 + 1e-6);

    const Solution again = solve(p);
    ASSERT_EQ(again.x.size(), s.x.size());
    EXPECT_EQ(std::memcmp(again.x.data(), s.x.data(), s.x.size() * sizeof(double)), 0);
    EXPECT_EQ(again.iterations, s.iterations);
  }
}

TEST(Simplex, RejectsUnknownVariable) {
  Problem p;
  p.add_var();
  p.add_constraint({{{5, 1.0}}, Relation::LessEq, 1.0});
  EXPECT_THROW(solve(p), std::invalid_argument);
}

}  // namespace
}  // namespace syccl::lp

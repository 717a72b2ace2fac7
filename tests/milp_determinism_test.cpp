// Determinism tests for the MILP branch and bound.
//
// Scheduling must be reproducible run to run: the same MilpProblem solved
// twice yields a byte-identical incumbent, and flow dual bounds change how
// fast the sub-demand solver proves its answer, not the answer.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "milp/branch_and_bound.h"
#include "solver/milp_scheduler.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace syccl::milp {
namespace {

using lp::Constraint;
using lp::Relation;

// Knapsack with distinct costs and weights chosen so the optimum is unique:
// maximize Σ c_i x_i, Σ w_i x_i ≤ 11, binary. Unique best is {b, d} = 31.
MilpProblem unique_knapsack() {
  MilpProblem m;
  m.lp.add_var(0, 1, -10);  // a, w 5
  m.lp.add_var(0, 1, -14);  // b, w 6
  m.lp.add_var(0, 1, -7);   // c, w 4
  m.lp.add_var(0, 1, -17);  // d, w 5
  m.lp.add_constraint(
      {{{0, 5.0}, {1, 6.0}, {2, 4.0}, {3, 5.0}}, Relation::LessEq, 11.0});
  m.is_integer.assign(4, true);
  return m;
}

void expect_bytes_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

TEST(MilpDeterminism, RepeatedSolvesAreByteIdentical) {
  const MilpProblem m = unique_knapsack();
  const MilpSolution first = solve(m);
  const MilpSolution second = solve(m);
  ASSERT_EQ(first.status, MilpStatus::Optimal);
  ASSERT_EQ(second.status, MilpStatus::Optimal);
  EXPECT_NEAR(first.objective, -31.0, 1e-9);
  expect_bytes_equal(first.x, second.x);
  EXPECT_EQ(first.objective, second.objective);
  EXPECT_EQ(first.nodes_explored, second.nodes_explored);
}

TEST(MilpDeterminism, IncumbentSeededSolveIsByteIdentical) {
  const MilpProblem m = unique_knapsack();
  std::vector<double> weak = {1.0, 0.0, 1.0, 0.0};  // obj -17, feasible (w 9)
  const MilpSolution a = solve(m, {}, weak);
  const MilpSolution b = solve(m, {}, weak);
  ASSERT_EQ(a.status, MilpStatus::Optimal);
  EXPECT_NEAR(a.objective, -31.0, 1e-9);
  expect_bytes_equal(a.x, b.x);
}

// Flow dual bounds must change how fast the sub-demand solver proves its
// answer, never which schedule it returns: winning schedules are
// byte-identical with flow bounds on and off across a randomized corpus.
TEST(MilpDeterminism, FlowBoundsChangeSpeedNotSchedules) {
  std::mt19937 rng(42);
  for (int seed = 0; seed < 40; ++seed) {
    const int n = 3 + static_cast<int>(rng() % 4);  // 3..6 members
    const topo::Topology topo = topo::build_single_server(n);
    const topo::TopologyGroups groups = topo::extract_groups(topo);
    const topo::GroupTopology& g = groups.dims[0].groups[0];

    solver::SubDemand d;
    d.group = &g;
    d.piece_bytes = 1 << 20;
    const int np = 1 + static_cast<int>(rng() % 3);
    for (int p = 0; p < np; ++p) {
      solver::DemandPiece piece;
      piece.id = p;
      const int src = static_cast<int>(rng() % n);
      piece.srcs = {src};
      if (rng() % 4 == 0) piece.srcs.push_back((src + 1) % n);  // merged piece
      for (int m = 0; m < n; ++m) {
        bool is_src = false;
        for (int s : piece.srcs) is_src = is_src || s == m;
        if (!is_src && rng() % 2 == 0) piece.dsts.push_back(m);
      }
      if (piece.dsts.empty()) {
        for (int m = 0; m < n; ++m) {
          bool is_src = false;
          for (int s : piece.srcs) is_src = is_src || s == m;
          if (!is_src) {
            piece.dsts.push_back(m);
            break;
          }
        }
      }
      if (piece.dsts.empty()) continue;
      d.pieces.push_back(std::move(piece));
    }
    if (d.pieces.empty()) continue;

    solver::MilpSchedulerOptions on;
    on.max_binaries = 2000;
    solver::MilpSchedulerOptions off = on;
    off.use_flow_bounds = false;

    solver::SolveStats stats_on, stats_off;
    const solver::SubSchedule a = solver::solve_sub_demand(d, on, &stats_on);
    const solver::SubSchedule b = solver::solve_sub_demand(d, off, &stats_off);

    ASSERT_EQ(a.num_epochs, b.num_epochs) << "seed " << seed;
    ASSERT_EQ(a.ops.size(), b.ops.size()) << "seed " << seed;
    EXPECT_EQ(std::memcmp(a.ops.data(), b.ops.data(), a.ops.size() * sizeof(solver::SubOp)), 0)
        << "seed " << seed;
    EXPECT_EQ(stats_off.flow_prunes, 0) << "seed " << seed;
    EXPECT_EQ(stats_off.flow_lp_iterations, 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace syccl::milp

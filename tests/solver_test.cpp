// Tests for the epoch model, τ derivation, the greedy scheduler and the
// solve_sub_demand entry point on hand-checkable sub-demands.
#include <gtest/gtest.h>

#include "solver/epoch_model.h"
#include "solver/greedy.h"
#include "solver/tau.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace syccl::solver {
namespace {

struct GroupFixture {
  topo::Topology topo;
  topo::TopologyGroups groups;
  explicit GroupFixture(int n, topo::LinkParams lp = {1e-6, 1e9})
      : topo(topo::build_single_server(n, lp)), groups(topo::extract_groups(topo)) {}
  const topo::GroupTopology& group() const { return groups.dims[0].groups[0]; }
};

SubDemand broadcast_demand(const topo::GroupTopology& g, double bytes) {
  SubDemand d;
  d.group = &g;
  d.piece_bytes = bytes;
  DemandPiece p;
  p.id = 0;
  p.srcs = {0};
  for (int i = 1; i < g.size(); ++i) p.dsts.push_back(i);
  d.pieces.push_back(std::move(p));
  return d;
}

SubDemand allgather_demand(const topo::GroupTopology& g, double bytes) {
  SubDemand d;
  d.group = &g;
  d.piece_bytes = bytes;
  for (int r = 0; r < g.size(); ++r) {
    DemandPiece p;
    p.id = r;
    p.srcs = {r};
    for (int i = 0; i < g.size(); ++i) {
      if (i != r) p.dsts.push_back(i);
    }
    d.pieces.push_back(std::move(p));
  }
  return d;
}

TEST(Tau, LargeEGivesLargeTau) {
  const double alpha = 1e-6, beta = 1e-9, bytes = 1e6;  // βs = 1 ms >> α
  const EpochParams coarse = derive_epoch_params(alpha, beta, bytes, 3.0);
  const EpochParams fine = derive_epoch_params(alpha, beta, bytes, 0.5);
  EXPECT_GT(coarse.tau, fine.tau);
  EXPECT_EQ(coarse.capacity, 3);
  EXPECT_EQ(coarse.occupancy, 1);
  EXPECT_EQ(fine.capacity, 1);
  EXPECT_EQ(fine.occupancy, 2);
  // τ is a multiple (or unit fraction) of βs — bandwidth constraint.
  EXPECT_NEAR(coarse.tau, 3.0 * beta * bytes, 1e-12);
  EXPECT_NEAR(fine.tau, 0.5 * beta * bytes, 1e-12);
}

TEST(Tau, LatencyEpochsCoverAlphaPlusBetaS) {
  const EpochParams p = derive_epoch_params(5e-6, 1e-9, 1000.0, 1.0);
  // α + βs = 6 µs, τ = r·βs (r integer): L·τ ≥ α+βs.
  EXPECT_GE(p.lat_epochs * p.tau, 5e-6 + 1e-6 - 1e-12);
}

TEST(Tau, RejectsBadInput) {
  EXPECT_THROW(derive_epoch_params(-1.0, 1e-9, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(derive_epoch_params(0.0, 0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(derive_epoch_params(0.0, 1e-9, 1.0, 0.0), std::invalid_argument);
}

TEST(EpochModel, IsomorphismKeyIgnoresPieceOrder) {
  GroupFixture f(4);
  SubDemand a = allgather_demand(f.group(), 100.0);
  SubDemand b = a;
  std::swap(b.pieces[0], b.pieces[3]);
  EXPECT_EQ(a.canonical().key, b.canonical().key);
  SubDemand c = broadcast_demand(f.group(), 100.0);
  EXPECT_NE(a.canonical().key, c.canonical().key);
}

TEST(EpochModel, ValidateRejectsBadDemands) {
  GroupFixture f(4);
  SubDemand d = broadcast_demand(f.group(), 100.0);
  d.pieces[0].dsts.push_back(99);
  EXPECT_THROW(d.validate(), std::invalid_argument);
  EXPECT_THROW(d.canonical(), std::invalid_argument);
  EXPECT_THROW(solve_sub_demand(d), std::invalid_argument);
  SubDemand e = broadcast_demand(f.group(), 0.0);
  EXPECT_THROW(e.validate(), std::invalid_argument);
}

TEST(EpochModel, CheckerCatchesViolations) {
  GroupFixture f(4);
  const SubDemand d = broadcast_demand(f.group(), 1000.0);
  const EpochParams ep = derive_epoch_params(f.group(), 1000.0, 1.0);

  SubSchedule missing;
  missing.params = ep;
  missing.ops.push_back(SubOp{0, 0, 1, 0});
  missing.num_epochs = ep.lat_epochs;
  EXPECT_THROW(check_sub_schedule(d, missing), std::logic_error);  // 2,3 unserved

  SubSchedule early;
  early.params = ep;
  early.ops.push_back(SubOp{0, 1, 2, 0});  // 1 does not have the piece yet
  EXPECT_THROW(check_sub_schedule(d, early), std::logic_error);

  SubSchedule over;
  over.params = ep;
  // Capacity of a port is ep.capacity; saturate it with duplicates.
  for (int k = 0; k < ep.capacity + 1; ++k) over.ops.push_back(SubOp{0, 0, 1, 0});
  EXPECT_THROW(check_sub_schedule(d, over), std::logic_error);
}

TEST(Greedy, BroadcastStreamsInAlphaDominatedRegime) {
  // α ≫ βs: the port is only busy βs per send, so streaming direct sends
  // from the root (one per epoch) beats a binomial tree — last arrival at
  // (n−2) + L epochs instead of ⌈log₂n⌉·L.
  GroupFixture f(8, {1e-6, 1e9});
  SubDemand d = broadcast_demand(f.group(), 100.0);  // βs = 0.1 µs << α
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  EXPECT_EQ(s.ops.size(), 7u);  // tree: n-1 sends
  EXPECT_EQ(s.num_epochs, (8 - 2) + ep.lat_epochs);
}

TEST(Greedy, BroadcastRelaysInBandwidthDominatedRegime) {
  // βs ≫ α with occupancy 2: relaying through early receivers beats pure
  // streaming. Greedy must at least stay within the streaming bound.
  GroupFixture f(4, {1e-6, 1e9});
  SubDemand d = broadcast_demand(f.group(), 1e6);  // βs = 1 ms >> α
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 0.5);
  ASSERT_EQ(ep.occupancy, 2);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  EXPECT_LE(s.num_epochs, (4 - 2) * ep.occupancy + ep.lat_epochs);
}

TEST(Greedy, AllGatherUsesAllPorts) {
  GroupFixture f(4);
  SubDemand d = allgather_demand(f.group(), 1e6);  // bandwidth regime
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  EXPECT_EQ(s.ops.size(), 12u);  // n(n-1) sends minimum
  // Bandwidth-optimal: each GPU sends 3 pieces on its port with capacity 1
  // per epoch ⇒ ≥ 3 epochs + latency; greedy should land near that.
  EXPECT_LE(s.num_epochs, 3 + ep.lat_epochs + 1);
}

TEST(Greedy, ScatterSerializesOnRootPort) {
  GroupFixture f(5);
  SubDemand d;
  d.group = &f.group();
  d.piece_bytes = 1e6;
  for (int i = 1; i < 5; ++i) {
    DemandPiece p;
    p.id = i - 1;
    p.srcs = {0};
    p.dsts = {i};
    d.pieces.push_back(p);
  }
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  EXPECT_EQ(s.ops.size(), 4u);
  // Root's up-port is the bottleneck: 4 sends with capacity C.
  const int expected = (4 + ep.capacity - 1) / ep.capacity - 1 + ep.lat_epochs;
  EXPECT_GE(s.num_epochs, expected);
}

TEST(Greedy, RespectsCapacityGreaterThanOne) {
  GroupFixture f(5, {1e-9, 1e9});  // negligible α
  SubDemand d = broadcast_demand(f.group(), 1000.0);
  EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 2.0);
  ASSERT_EQ(ep.capacity, 2);
  const SubSchedule s = solve_greedy(d, ep);
  check_sub_schedule(d, s);
  // Root can send 2 per epoch: epoch 0 → 2 dsts; epoch 1 ≥ covers rest.
  EXPECT_LE(s.num_epochs, 2 * ep.lat_epochs);
}

void expect_same_schedule(const SubSchedule& a, const SubSchedule& b) {
  EXPECT_EQ(a.num_epochs, b.num_epochs);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].piece, b.ops[i].piece);
    EXPECT_EQ(a.ops[i].src, b.ops[i].src);
    EXPECT_EQ(a.ops[i].dst, b.ops[i].dst);
    EXPECT_EQ(a.ops[i].start_epoch, b.ops[i].start_epoch);
  }
}

TEST(SolveSubDemand, BroadcastReachesStreamingOptimum) {
  GroupFixture f(4);
  SubDemand d = broadcast_demand(f.group(), 100.0);
  SolveStats stats;
  const SubSchedule s = solve_sub_demand(d, {}, &stats);
  check_sub_schedule(d, s);
  // α-dominated streaming optimum: last send leaves the root at epoch n−2
  // and arrives L epochs later.
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  EXPECT_EQ(s.num_epochs, (4 - 2) + ep.lat_epochs);
}

TEST(SolveSubDemand, IsGreedyAtTheDerivedEpochParams) {
  for (const int n : {4, 8}) {
    for (const double E : {0.5, 1.0, 3.0}) {
      SCOPED_TRACE(std::to_string(n) + " members, E = " + std::to_string(E));
      GroupFixture f(n);
      SubDemand d = allgather_demand(f.group(), n == 4 ? 1e5 : 1e6);
      const SubSchedule s = solve_sub_demand(d, SolveOptions{E});
      check_sub_schedule(d, s);
      expect_same_schedule(s, solve_greedy(d, derive_epoch_params(f.group(), d.piece_bytes, E)));
    }
  }
}

TEST(SolveSubDemand, CrossingPiecesOnAThreeMemberStar) {
  // The one shape where an exact MILP is known to beat greedy: a homogeneous
  // 3-member star (α = 2 µs, 100 GB/s, distinct port ids), two crossing
  // pieces 1 → {0, 2} and 0 → {1, 2}. Greedy finishes in 28 epochs, the
  // optimum is 25. No sketch produces this sub-demand; the test pins what
  // the solver returns on it.
  topo::GroupTopology star;
  for (int i = 0; i < 3; ++i) {
    star.ranks.push_back(i);
    star.up.push_back(topo::GroupPort{2e-6, 1.0 / 100e9, i});
    star.down.push_back(topo::GroupPort{2e-6, 1.0 / 100e9, 3 + i});
  }
  SubDemand d;
  d.group = &star;
  d.piece_bytes = 64 << 10;
  d.pieces.push_back(DemandPiece{0, {1}, {0, 2}});
  d.pieces.push_back(DemandPiece{1, {0}, {1, 2}});
  const EpochParams ep = derive_epoch_params(star, d.piece_bytes, 0.5);
  ASSERT_EQ(ep.lat_epochs, 22);
  ASSERT_EQ(ep.capacity, 1);
  ASSERT_EQ(ep.occupancy, 3);
  const SubSchedule s = solve_sub_demand(d, SolveOptions{0.5});
  check_sub_schedule(d, s);
  EXPECT_EQ(s.num_epochs, 28);
  expect_same_schedule(s, solve_greedy(d, ep));
}

TEST(SolveSubDemand, StatsReportAFreshSolve) {
  GroupFixture f(6);
  SubDemand d = broadcast_demand(f.group(), 1000.0);
  SolveStats stats;
  stats.cache_hit = true;
  stats.solve_seconds = -1.0;
  const SubSchedule s = solve_sub_demand(d, {}, &stats);
  check_sub_schedule(d, s);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_GE(stats.solve_seconds, 0.0);
}

TEST(EpochModel, RemapSubSchedule) {
  GroupFixture f(4);
  SubDemand d = allgather_demand(f.group(), 1000.0);
  const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, 1.0);
  const SubSchedule s = solve_greedy(d, ep);
  const std::vector<int> rot = {1, 2, 3, 0};
  const SubSchedule r = remap_sub_schedule(s, rot);
  ASSERT_EQ(r.ops.size(), s.ops.size());
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    EXPECT_EQ(r.ops[i].piece, rot[static_cast<std::size_t>(s.ops[i].piece)]);
    EXPECT_EQ(r.ops[i].src, s.ops[i].src);
    EXPECT_EQ(r.ops[i].dst, s.ops[i].dst);
    EXPECT_EQ(r.ops[i].start_epoch, s.ops[i].start_epoch);
  }
  // The empty map is the identity.
  const SubSchedule same = remap_sub_schedule(s, {});
  ASSERT_EQ(same.ops.size(), s.ops.size());
  for (std::size_t i = 0; i < s.ops.size(); ++i) EXPECT_EQ(same.ops[i].piece, s.ops[i].piece);
  EXPECT_THROW(remap_sub_schedule(s, {0, 1}), std::invalid_argument);
}

// Parameterized sweep: greedy feasibility across sizes, E values and group
// widths — property: check_sub_schedule never throws and epochs are bounded
// by the trivial sequential schedule.
struct SweepParam {
  int n;
  double bytes;
  double E;
};

class GreedySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GreedySweep, BroadcastAndAllGatherFeasible) {
  const auto [n, bytes, E] = GetParam();
  GroupFixture f(n);
  for (const bool ag : {false, true}) {
    SubDemand d = ag ? allgather_demand(f.group(), bytes) : broadcast_demand(f.group(), bytes);
    const EpochParams ep = derive_epoch_params(f.group(), d.piece_bytes, E);
    const SubSchedule s = solve_greedy(d, ep);
    ASSERT_NO_THROW(check_sub_schedule(d, s));
    // Trivial upper bound: all sends sequential on one port.
    const long sends = static_cast<long>(s.ops.size());
    EXPECT_LE(s.num_epochs, sends * std::max(ep.occupancy, ep.lat_epochs) + ep.lat_epochs);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GreedySweep,
                         ::testing::Values(SweepParam{2, 1e3, 1.0}, SweepParam{3, 1e6, 0.5},
                                           SweepParam{4, 1e4, 2.0}, SweepParam{5, 1e7, 3.0},
                                           SweepParam{8, 1e3, 0.5}, SweepParam{8, 1e8, 3.0},
                                           SweepParam{16, 1e6, 1.0}));

}  // namespace
}  // namespace syccl::solver

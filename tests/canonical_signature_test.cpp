// Regression tests for the position-canonical group signature and the
// canonical solve-cache keys (the heterogeneous-group cache-key fix).
//
// The historical GroupTopology::signature() encoded per-rank port α/β as a
// *multiset*, so a group with member 0's uplink degraded and a group with
// member 2's uplink degraded shared one signature — and because schedules
// were transferred by the identity mapping, the solve cache could serve a
// schedule optimised (or merely valid) for the wrong degraded position.
// These tests fail against that encoding and pin the positional behaviour:
// keys match only when local member i of one group maps onto local member i
// of the other, and cached schedules come back with the requesting demand's
// piece ids.
#include <gtest/gtest.h>

#include "solver/epoch_model.h"
#include "solver/greedy.h"
#include "solver/solve_cache.h"
#include "topo/groups.h"

namespace syccl::solver {
namespace {

/// Hand-built star group: per-member up β (seconds/byte) and optional shared
/// up port ids. Down links are uniform with distinct ports.
topo::GroupTopology make_group(const std::vector<double>& up_beta,
                               std::vector<int> up_port = {}) {
  const std::size_t n = up_beta.size();
  topo::GroupTopology gt;
  gt.dim = 0;
  gt.group_index = 0;
  if (up_port.empty()) {
    for (std::size_t i = 0; i < n; ++i) up_port.push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < n; ++i) {
    gt.ranks.push_back(static_cast<int>(i));
    gt.up.push_back(topo::GroupPort{1e-6, up_beta[i], up_port[i]});
    gt.down.push_back(topo::GroupPort{1e-6, 1e-9, 1000 + static_cast<int>(i)});
    gt.up_hops.push_back({});
    gt.down_hops.push_back({});
  }
  return gt;
}

SubDemand demand_of(const topo::GroupTopology& g,
                    const std::vector<std::pair<std::vector<int>, std::vector<int>>>& pieces,
                    double bytes = 1000.0) {
  SubDemand d;
  d.group = &g;
  d.piece_bytes = bytes;
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    DemandPiece p;
    p.id = static_cast<int>(i);
    p.srcs = pieces[i].first;
    p.dsts = pieces[i].second;
    d.pieces.push_back(std::move(p));
  }
  return d;
}

// The headline regression: same β multiset, degradation at different
// positions, demand anchored differently relative to the slow link. The
// multiset signature keyed these identically, so the cache would serve the
// first demand's schedule for the second with the slow link misplaced.
TEST(CanonicalSignature, DegradedPositionChangesDemandKey) {
  const topo::GroupTopology slow_at_src = make_group({1e-8, 1e-9, 1e-9});
  const topo::GroupTopology slow_at_leaf = make_group({1e-9, 1e-9, 1e-8});
  // Broadcast from member 0 in both groups: in the first, the source sits on
  // the degraded uplink; in the second the degraded member is a leaf.
  const SubDemand a = demand_of(slow_at_src, {{{0}, {1, 2}}});
  const SubDemand b = demand_of(slow_at_leaf, {{{0}, {1, 2}}});
  EXPECT_NE(a.canonical().key, b.canonical().key);
}

// Keys are positional: the same slow link at two member positions makes two
// classes, isomorphic only under a member reordering. Each demand is solved
// on its own group, so each schedule has the slow link where its group has
// it.
TEST(CanonicalSignature, DegradedPositionsKeyApartAndSolveSeparately) {
  const topo::GroupTopology slow_at_0 = make_group({1e-8, 1e-9, 1e-9, 1e-9});
  const topo::GroupTopology slow_at_2 = make_group({1e-9, 1e-9, 1e-8, 1e-9});
  // Broadcast from the slow member in both groups.
  const SubDemand a = demand_of(slow_at_0, {{{0}, {1, 2, 3}}});
  const SubDemand b = demand_of(slow_at_2, {{{2}, {0, 1, 3}}});
  EXPECT_NE(slow_at_0.signature(), slow_at_2.signature());
  EXPECT_NE(a.canonical().key, b.canonical().key);

  SubScheduleCache cache(1 << 20);
  SolveStats stats;
  const SubSchedule sa = cache.get_or_solve(a, a.canonical(), SolveOptions{}, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_NO_THROW(check_sub_schedule(a, sa));

  const SubSchedule sb = cache.get_or_solve(b, b.canonical(), SolveOptions{}, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_NO_THROW(check_sub_schedule(b, sb));
  EXPECT_EQ(cache.stats().entries, 2u);
}

// Port-sharing variant of the bug: groups whose shared-NIC pair sits at
// different positions shared a signature (same share-count multiset), and
// the identity transfer produced a schedule that oversubscribes the target
// group's shared port — check_sub_schedule throws on the pre-fix behaviour.
TEST(CanonicalSignature, SharedPortScheduleTransferRespectsCapacity) {
  // A: members 0,1 share an up port; 2,3 have private ports.
  const topo::GroupTopology shared_front =
      make_group({1e-9, 1e-9, 1e-9, 1e-9}, {7, 7, 8, 9});
  // B: members 2,3 share; 0,1 private.
  const topo::GroupTopology shared_back =
      make_group({1e-9, 1e-9, 1e-9, 1e-9}, {7, 8, 9, 9});

  // Two pieces sent from the members with *private* ports in A (parallel in
  // one epoch) — the same member indices share a port in B.
  const SubDemand a = demand_of(shared_front, {{{2}, {0}}, {{3}, {1}}});
  const SubDemand b = demand_of(shared_back, {{{2}, {0}}, {{3}, {1}}});

  SubScheduleCache cache(1 << 20);
  SolveStats stats;
  const SubSchedule sa = cache.get_or_solve(a, a.canonical(), SolveOptions{}, &stats);
  EXPECT_NO_THROW(check_sub_schedule(a, sa));

  const SubSchedule sb = cache.get_or_solve(b, b.canonical(), SolveOptions{}, &stats);
  EXPECT_NO_THROW(check_sub_schedule(b, sb));
  const SubSchedule direct = solve_sub_demand(b);
  EXPECT_EQ(sb.num_epochs, direct.num_epochs);
}

// Piece ids permuted relative to list order still canonicalise: a hit
// returns ops whose piece ids are valid for the requesting demand.
TEST(CanonicalSignature, PermutedPieceIdsRemapOnHit) {
  const topo::GroupTopology g = make_group({1e-9, 1e-9, 1e-9, 1e-9});
  SubDemand a = demand_of(g, {{{0}, {1, 2, 3}}, {{1}, {0, 2, 3}}});
  SubDemand b = a;
  std::swap(b.pieces[0], b.pieces[1]);  // ids travel with the pieces
  ASSERT_EQ(a.canonical().key, b.canonical().key);

  SubScheduleCache cache(1 << 20);
  SolveStats stats;
  const SubSchedule sa = cache.get_or_solve(a, a.canonical(), SolveOptions{}, &stats);
  EXPECT_NO_THROW(check_sub_schedule(a, sa));
  const SubSchedule sb = cache.get_or_solve(b, b.canonical(), SolveOptions{}, &stats);
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_NO_THROW(check_sub_schedule(b, sb));
  EXPECT_EQ(sb.num_epochs, sa.num_epochs);
}

// Signature sanity on the group level.
TEST(CanonicalSignature, GroupSignatureProperties) {
  const topo::GroupTopology uniform_a = make_group({1e-9, 1e-9, 1e-9});
  const topo::GroupTopology uniform_b = make_group({1e-9, 1e-9, 1e-9});
  const topo::GroupTopology degraded_0 = make_group({1e-8, 1e-9, 1e-9});
  const topo::GroupTopology degraded_1 = make_group({1e-9, 1e-8, 1e-9});

  EXPECT_EQ(uniform_a.signature(), uniform_b.signature());
  // Global ranks are not part of the signature: the groups of one dimension
  // sign alike.
  topo::GroupTopology shifted = degraded_0;
  for (int& r : shifted.ranks) r += 8;
  EXPECT_EQ(shifted.signature(), degraded_0.signature());
  // Member positions are: the slow member at another local position is
  // another class...
  EXPECT_NE(degraded_0.signature(), degraded_1.signature());
  // ...and either differs from the homogeneous one.
  EXPECT_NE(uniform_a.signature(), degraded_0.signature());
  // Port-sharing blocks are numbered by first appearance, so which members
  // share a port counts, not the physical port ids.
  EXPECT_EQ(make_group({1e-9, 1e-9, 1e-9}, {7, 7, 8}).signature(),
            make_group({1e-9, 1e-9, 1e-9}, {3, 3, 5}).signature());
  EXPECT_NE(make_group({1e-9, 1e-9, 1e-9}, {7, 7, 8}).signature(),
            make_group({1e-9, 1e-9, 1e-9}, {7, 8, 8}).signature());
  // A frozen signature is the computed one.
  topo::GroupTopology frozen = degraded_1;
  frozen.freeze_signature();
  EXPECT_EQ(frozen.signature_, degraded_1.signature());
}

}  // namespace
}  // namespace syccl::solver

// Regression tests for the position-canonical group signature and the
// canonical solve-cache keys (the heterogeneous-group cache-key fix).
//
// The historical GroupTopology::signature() encoded per-rank port α/β as a
// *multiset*, so a group with member 0's uplink degraded and a group with
// member 2's uplink degraded shared one signature — and because schedules
// were transferred by the identity mapping, the solve cache could serve a
// schedule optimised (or merely valid) for the wrong degraded position.
// These tests fail against that encoding and pin the canonical behaviour:
// keys match exactly when a positional isomorphism exists, and cached
// schedules are remapped onto the requesting group's labelling.
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

// The dual guarantee: when a positional isomorphism *does* exist, the
// canonical key still collapses the two demands to one class (dedup is
// preserved, not just disabled) and the cached schedule comes back remapped
// onto the requesting group's labelling.
TEST(CanonicalSignature, IsomorphicDegradedDemandsShareOneRemappedEntry) {
  const topo::GroupTopology slow_at_0 = make_group({1e-8, 1e-9, 1e-9, 1e-9});
  const topo::GroupTopology slow_at_2 = make_group({1e-9, 1e-9, 1e-8, 1e-9});
  // Broadcast from the slow member in both groups — positionally isomorphic.
  const SubDemand a = demand_of(slow_at_0, {{{0}, {1, 2, 3}}});
  const SubDemand b = demand_of(slow_at_2, {{{2}, {0, 1, 3}}});
  ASSERT_EQ(a.canonical().key, b.canonical().key);
  EXPECT_EQ(slow_at_0.signature(), slow_at_2.signature());

  SubScheduleCache cache(1 << 20);
  SolveStats stats;
  const SubSchedule sa = cache.get_or_solve(a, SolveOptions{}, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_NO_THROW(check_sub_schedule(a, sa));

  const SubSchedule sb = cache.get_or_solve(b, SolveOptions{}, &stats);
  EXPECT_TRUE(stats.cache_hit);
  // The remapped schedule must be valid *for b's labelling* — under the
  // pre-fix identity transfer it would broadcast from member 0, never
  // satisfying b at all.
  EXPECT_NO_THROW(check_sub_schedule(b, sb));
  EXPECT_EQ(sb.num_epochs, sa.num_epochs);
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
  const SubSchedule sa = cache.get_or_solve(a, SolveOptions{}, &stats);
  EXPECT_NO_THROW(check_sub_schedule(a, sa));

  const SubSchedule sb = cache.get_or_solve(b, SolveOptions{}, &stats);
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
  const SubSchedule sa = cache.get_or_solve(a, SolveOptions{}, &stats);
  EXPECT_NO_THROW(check_sub_schedule(a, sa));
  const SubSchedule sb = cache.get_or_solve(b, SolveOptions{}, &stats);
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
  // Isomorphic heterogeneous groups canonicalise to one signature...
  EXPECT_EQ(degraded_0.signature(), degraded_1.signature());
  // ...which differs from the homogeneous one.
  EXPECT_NE(uniform_a.signature(), degraded_0.signature());
  // canonical_form() really is positional: the degraded member lands on the
  // same canonical position in both groups.
  const auto f0 = degraded_0.canonical_form();
  const auto f1 = degraded_1.canonical_form();
  EXPECT_EQ(f0.perm[0], f1.perm[1]);
}

}  // namespace
}  // namespace syccl::solver

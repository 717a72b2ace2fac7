// Tests for the multi-commodity flow lower bound (baselines/flow_bound.h):
// exact where the optimum is known, an error rather than a finite bound for
// an undeliverable demand, one commodity per demand unit, the combinatorial
// floors standing alone when the LP is skipped or runs out of pivots, and
// soundness: no synthesized schedule on a pinned or a generated fabric
// finishes before the bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/flow_bound.h"
#include "core/synthesizer.h"
#include "fuzz/generators.h"
#include "sim/simulator.h"
#include "topo/builders.h"
#include "topo/groups.h"
#include "util/rng.h"

namespace syccl::baselines {
namespace {

/// Two GPUs joined by one duplex link.
topo::Topology two_gpus(double alpha, double beta) {
  topo::Topology t;
  const topo::NodeId a = t.add_node(topo::NodeKind::Gpu, 0, 0, "gpu0");
  const topo::NodeId b = t.add_node(topo::NodeKind::Gpu, 0, 1, "gpu1");
  t.add_duplex_link(a, b, alpha, beta, "nvlink");
  return t;
}

std::vector<coll::Collective> every_kind(int n, std::uint64_t bytes) {
  return {coll::make_allgather(n, bytes),      coll::make_reduce_scatter(n, bytes),
          coll::make_allreduce(n, bytes),      coll::make_alltoall(n, bytes),
          coll::make_broadcast(n, bytes),      coll::make_reduce(n, bytes, n - 1),
          coll::make_scatter(n, bytes),        coll::make_gather(n, bytes, n / 2),
          coll::make_sendrecv(n, 0, n - 1, bytes)};
}

TEST(FlowBound, SingleLinkBoundIsTheSendTime) {
  const double alpha = 1e-6, beta = 1e-9;  // 1 µs, 1 GB/s
  const double bytes = 1 << 20;
  const coll::Collective coll = coll::make_sendrecv(2, 0, 1, 1 << 20);

  // One send over one cut-through hop takes α + β·bytes: nothing is relaxed
  // away, so the bound is the time of the only schedule there is.
  const FlowBoundResult direct = flow_lower_bound(coll, two_gpus(alpha, beta));
  EXPECT_EQ(direct.commodities, 1);
  EXPECT_TRUE(direct.used_lp);
  EXPECT_EQ(direct.lp_cols, 3);  // one flow per link, plus the busy time z
  EXPECT_DOUBLE_EQ(direct.load_bound, alpha + beta * bytes);
  EXPECT_DOUBLE_EQ(direct.path_bound, alpha);
  EXPECT_DOUBLE_EQ(direct.seconds, alpha + beta * bytes);

  // Through a switch the wire time is paid once, not per hop: the simulated
  // send takes α + β·bytes and the bound, which sees only the GPU's own
  // link, α/2 + β·bytes.
  const topo::LinkParams nvlink = topo::params::nvlink_a100();
  const topo::Topology topo = topo::build_single_server(2, nvlink);
  const FlowBoundResult switched = flow_lower_bound(coll, topo);
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  const sim::Simulator simulator(groups);
  sim::Schedule schedule;
  schedule.pieces = sim::pieces_for(coll);
  schedule.add_op(0, 0, 1);
  const double simulated = simulator.time_collective(schedule, coll);
  EXPECT_DOUBLE_EQ(simulated, nvlink.alpha_s + nvlink.beta() * bytes);
  EXPECT_DOUBLE_EQ(switched.seconds, nvlink.alpha_s / 2 + nvlink.beta() * bytes);
}

TEST(FlowBound, UnreachableLeafThrowsInsteadOfAFiniteBound) {
  // gpu2 can send to gpu0 but nothing reaches gpu2.
  topo::Topology topo = two_gpus(1e-6, 1e-9);
  const topo::NodeId gpu2 = topo.add_node(topo::NodeKind::Gpu, 0, 2, "gpu2");
  topo.add_link(gpu2, topo.gpus()[0], 1e-6, 1e-9, "nvlink");

  EXPECT_THROW(flow_lower_bound(coll::make_broadcast(3, 1 << 20, 0), topo),
               std::invalid_argument);
  EXPECT_THROW(flow_lower_bound(coll::make_allgather(3, 3 << 20), topo), std::invalid_argument);
  // Aggregation runs against the links: partials can leave gpu2 but never
  // arrive there.
  EXPECT_THROW(flow_lower_bound(coll::make_reduce(3, 3 << 20, 2), topo), std::invalid_argument);
  const FlowBoundResult into_gpu0 = flow_lower_bound(coll::make_reduce(3, 3 << 20, 0), topo);
  EXPECT_GT(into_gpu0.seconds, 0.0);
  EXPECT_TRUE(into_gpu0.used_lp);
}

TEST(FlowBound, RejectsFabricsWithoutEnoughGpus) {
  const topo::Topology empty;
  EXPECT_THROW(flow_lower_bound(coll::make_allgather(2, 1 << 20), empty), std::invalid_argument);
  EXPECT_THROW(flow_lower_bound(coll::make_allgather(3, 1 << 20), two_gpus(1e-6, 1e-9)),
               std::invalid_argument);
}

TEST(FlowBound, OneCommodityPerDemandUnit) {
  const topo::Topology topo = topo::build_single_server(4);
  const int n = 4;
  // Forward kinds: one per chunk. Reduce kinds: one aggregation per
  // destination block. AllReduce: a ReduceScatter and an AllGather set.
  const std::vector<int> expected = {n, n, 2 * n, n * (n - 1), 1, 1, n - 1, n - 1, 1};
  const std::vector<coll::Collective> colls = every_kind(n, 1 << 20);
  ASSERT_EQ(colls.size(), expected.size());
  for (std::size_t i = 0; i < colls.size(); ++i) {
    SCOPED_TRACE(coll::kind_name(colls[i].kind()));
    EXPECT_EQ(flow_lower_bound(colls[i], topo).commodities, expected[i]);
  }

  // A chunk nobody demands adds no commodity and does not move the bound.
  const coll::Collective one_send(coll::CollKind::Scatter, n, 4 << 20, 1 << 20, false,
                                  {coll::Chunk{0, {1}}});
  const coll::Collective with_idle(coll::CollKind::Scatter, n, 4 << 20, 1 << 20, false,
                                   {coll::Chunk{0, {1}}, coll::Chunk{2, {}}});
  const FlowBoundResult a = flow_lower_bound(one_send, topo);
  const FlowBoundResult b = flow_lower_bound(with_idle, topo);
  EXPECT_EQ(a.commodities, 1);
  EXPECT_EQ(b.commodities, 1);
  EXPECT_EQ(b.lp_cols, a.lp_cols);
  EXPECT_DOUBLE_EQ(b.seconds, a.seconds);
}

// The LP only ever raises the bound above the two combinatorial floors; when
// it is skipped for size or stops on its pivot budget the floors are the
// whole answer, never a partial LP value.
TEST(FlowBound, FloorsStandWhenTheLpIsSkippedOrStarved) {
  const topo::Topology topo = topo::build_single_server(8);
  const coll::Collective coll = coll::make_allgather(8, 1 << 20);

  const FlowBoundResult full = flow_lower_bound(coll, topo);
  ASSERT_TRUE(full.used_lp);
  EXPECT_GT(full.lp_iterations, 0);
  EXPECT_GT(full.lp_cols, 0);
  const double floors = std::max(full.load_bound, full.path_bound);
  EXPECT_GE(full.seconds, floors);

  FlowBoundOptions too_small;
  too_small.max_lp_cols = 1;
  const FlowBoundResult skipped = flow_lower_bound(coll, topo, too_small);
  EXPECT_FALSE(skipped.used_lp);
  EXPECT_EQ(skipped.lp_cols, 0);
  EXPECT_EQ(skipped.lp_iterations, 0);
  EXPECT_DOUBLE_EQ(skipped.load_bound, full.load_bound);
  EXPECT_DOUBLE_EQ(skipped.path_bound, full.path_bound);
  EXPECT_DOUBLE_EQ(skipped.seconds, floors);

  FlowBoundOptions starved;
  starved.max_lp_iters = 1;
  const FlowBoundResult stopped = flow_lower_bound(coll, topo, starved);
  EXPECT_FALSE(stopped.used_lp);
  EXPECT_EQ(stopped.lp_cols, 0);
  EXPECT_GT(stopped.lp_iterations, 0);
  EXPECT_DOUBLE_EQ(stopped.seconds, floors);
}

/// Checks bound ≤ predicted time for every kind on `topo`; synthesis errors
/// are the synthesizer's to report and are skipped here.
void expect_bound_holds(const topo::Topology& topo, std::uint64_t bytes,
                        const FlowBoundOptions& options = {}) {
  const int n = static_cast<int>(topo.num_gpus());
  core::Synthesizer synthesizer(topo, core::SynthesisConfig{});
  for (const coll::Collective& coll : every_kind(n, bytes)) {
    SCOPED_TRACE(coll.describe());
    const FlowBoundResult bound = flow_lower_bound(coll, topo, options);
    EXPECT_GT(bound.seconds, 0.0);
    double predicted = 0.0;
    try {
      predicted = synthesizer.synthesize(coll).predicted_time;
    } catch (const std::exception&) {
      continue;
    }
    EXPECT_LE(bound.seconds, predicted * (1 + 1e-9));
  }
}

TEST(FlowBound, NoSynthesizedScheduleBeatsItOnPinnedFabrics) {
  topo::MultiRailSpec rails;
  rails.num_servers = 2;
  rails.gpus_per_server = 2;
  for (const std::uint64_t bytes : {std::uint64_t{64} << 10, std::uint64_t{16} << 20}) {
    SCOPED_TRACE(bytes);
    expect_bound_holds(topo::build_single_server(4), bytes);
    expect_bound_holds(topo::build_multi_rail(rails), bytes);
  }
}

// Up to 24 GPUs: the dense-tableau LP is capped at 300 columns (one of 2,433
// columns takes about 19 s), so the bigger shapes check the floors alone.
TEST(FlowBound, NoSynthesizedScheduleBeatsItOnGeneratedFabrics) {
  FlowBoundOptions options;
  options.max_lp_cols = 300;
  for (int seed = 0; seed < 8; ++seed) {
    util::Rng rng(0xf10b0000u + static_cast<std::uint64_t>(seed));
    fuzz::RandomTopology fabric = fuzz::random_topology(rng);
    if (seed % 3 == 2) fuzz::degrade_random(fabric, rng);
    SCOPED_TRACE(fabric.desc);
    expect_bound_holds(fabric.topo, std::uint64_t{1} << 20, options);
  }
}

}  // namespace
}  // namespace syccl::baselines

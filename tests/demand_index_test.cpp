// The one demand index (sim::build_demand_index) and its three readers: the
// simulator's demand check, the structural validator and the payload
// executor. Each served kind is synthesized on a pinned fabric; all three
// readers accept the schedule, and all three reject it once the last
// delivery of one demanded (chunk, rank) is dropped.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/synthesizer.h"
#include "obs/scenario.h"
#include "runtime/executor.h"
#include "runtime/validate.h"
#include "serve/broker.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "topo/groups.h"

namespace syccl {
namespace {

/// Index of the op to drop: the last delivery of a piece of demanded chunk
/// id `id` to rank `dst`, where `dst` never forwards that piece (so only the
/// demand goes unmet, no later op loses its source) and, for a forward
/// piece, no other op delivers it to `dst` again. nullopt when no piece of
/// the demand qualifies.
std::optional<std::size_t> droppable_delivery(const sim::Schedule& schedule,
                                              const sim::DemandIndex& index, int id, int dst) {
  std::optional<std::size_t> last;
  for (const int pi : index.pieces_of(id)) {
    const sim::Piece& p = schedule.pieces[static_cast<std::size_t>(pi)];
    int deliveries = 0;
    bool forwards = false;
    std::optional<std::size_t> at;
    for (std::size_t oi = 0; oi < schedule.ops.size(); ++oi) {
      const sim::TransferOp& op = schedule.ops[oi];
      if (op.piece != pi) continue;
      if (op.src == dst) forwards = true;
      if (op.dst == dst) {
        ++deliveries;
        at = oi;
      }
    }
    if (!at || forwards || (!p.reduce && deliveries != 1)) continue;
    if (!last || *at > *last) last = at;
  }
  return last;
}

class DemandIndexReaders : public ::testing::TestWithParam<coll::CollKind> {};

TEST_P(DemandIndexReaders, AcceptSynthesizedAndRejectDroppedDelivery) {
  const coll::CollKind kind = GetParam();
  const topo::Topology topo = obs::build_scenario_topology("dgx16");
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  const int n = static_cast<int>(topo.num_gpus());
  const coll::Collective coll = serve::make_serve_collective(kind, n, 1 << 20, 3);
  core::Synthesizer synthesizer(topo, core::SynthesisConfig{});
  const sim::Schedule schedule = synthesizer.synthesize(coll).schedule;
  const sim::Simulator simulator(groups);

  EXPECT_NO_THROW(simulator.time_collective(schedule, coll));
  const runtime::ValidationReport valid = runtime::validate_schedule(schedule, coll, groups);
  EXPECT_TRUE(valid.ok) << (valid.errors.empty() ? "" : valid.errors.front());
  const runtime::ExecutionReport executed = runtime::execute_and_verify(schedule, coll);
  EXPECT_TRUE(executed.ok) << (executed.errors.empty() ? "" : executed.errors.front());

  // Every piece of a demanded id is indexed once, in ascending order.
  const sim::DemandIndex index = sim::build_demand_index(schedule, coll);
  const int num_ids = coll.reduce() ? n : coll.num_chunks();
  ASSERT_EQ(index.first.size(), static_cast<std::size_t>(num_ids) + 1);
  for (int id = 0; id < num_ids; ++id) {
    const auto pieces = index.pieces_of(id);
    EXPECT_EQ(std::adjacent_find(pieces.begin(), pieces.end(), std::greater_equal<>()),
              pieces.end());
    for (const int pi : pieces) EXPECT_EQ(schedule.pieces[static_cast<std::size_t>(pi)].chunk, id);
  }
  EXPECT_EQ(index.pieces.size(),
            static_cast<std::size_t>(std::count_if(
                schedule.pieces.begin(), schedule.pieces.end(),
                [&](const sim::Piece& p) { return p.chunk >= 0 && p.chunk < num_ids; })));
  EXPECT_EQ(index.reduce_demands.empty(), !coll.reduce());

  // The demanded (chunk id, rank) pairs, in the order the readers check
  // them. An AllReduce is checked only at its ReduceScatter phase: its
  // reduce demands name each block at its own rank, and the AllGather-phase
  // deliveries of that block to the other ranks stay unchecked (the
  // AllReduce demand hole of ROADMAP item 9, left as it is here).
  std::vector<std::pair<int, int>> demands;
  if (coll.reduce()) {
    for (const auto& [dst, contributors] : index.reduce_demands) demands.emplace_back(dst, dst);
  } else {
    for (int c = 0; c < coll.num_chunks(); ++c) {
      for (const int d : coll.chunks()[static_cast<std::size_t>(c)].dsts) {
        demands.emplace_back(c, d);
      }
    }
  }
  std::optional<std::size_t> drop;
  std::string dropped;
  for (const auto& [id, dst] : demands) {
    drop = droppable_delivery(schedule, index, id, dst);
    if (drop) {
      dropped = "chunk " + std::to_string(id) + " at rank " + std::to_string(dst);
      break;
    }
  }
  ASSERT_TRUE(drop.has_value());
  SCOPED_TRACE("dropped the last delivery of " + dropped);
  if (kind == coll::CollKind::AllReduce) {
    const auto by_phase = [](const sim::TransferOp& a, const sim::TransferOp& b) {
      return a.phase < b.phase;
    };
    const int last_phase =
        std::max_element(schedule.ops.begin(), schedule.ops.end(), by_phase)->phase;
    EXPECT_LT(schedule.ops[*drop].phase, last_phase);  // a ReduceScatter-phase delivery
  }
  sim::Schedule broken = schedule;
  broken.ops.erase(broken.ops.begin() + static_cast<std::ptrdiff_t>(*drop));

  try {
    simulator.time_collective(broken, coll);
    ADD_FAILURE() << "the simulator priced a schedule with an unmet demand";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("demand unmet"), std::string::npos) << e.what();
  }
  const runtime::ValidationReport invalid = runtime::validate_schedule(broken, coll, groups);
  EXPECT_FALSE(invalid.ok);
  EXPECT_TRUE(std::any_of(invalid.errors.begin(), invalid.errors.end(), [](const std::string& e) {
    return e.find("demand unmet") != std::string::npos;
  }));
  EXPECT_FALSE(runtime::execute_and_verify(broken, coll).ok);
}

INSTANTIATE_TEST_SUITE_P(
    DemandIndex, DemandIndexReaders,
    ::testing::Values(coll::CollKind::Broadcast, coll::CollKind::Scatter, coll::CollKind::Gather,
                      coll::CollKind::Reduce, coll::CollKind::AllGather,
                      coll::CollKind::AllToAll, coll::CollKind::ReduceScatter,
                      coll::CollKind::AllReduce),
    [](const ::testing::TestParamInfo<coll::CollKind>& info) {
      return std::string(coll::kind_name(info.param));
    });

}  // namespace
}  // namespace syccl

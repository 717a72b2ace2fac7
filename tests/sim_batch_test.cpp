// Tests for the simulator's batched multi-candidate API: run_batch /
// time_collectives / tune_issue_orders must produce byte-identical results to
// the equivalent serial loop regardless of thread-pool size, capture
// per-candidate failures without masking the others, and mutate schedules
// exactly like their serial counterparts.
#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>
#include <vector>

#include "coll/collective.h"
#include "fuzz/generators.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "topo/builders.h"
#include "topo/groups.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace syccl::sim {
namespace {

struct BatchFixture {
  topo::Topology topo;
  topo::TopologyGroups groups;
  coll::Collective coll;
  std::vector<Schedule> schedules;

  explicit BatchFixture(std::uint64_t seed, int num_candidates = 8)
      : topo(topo::build_multi_rail(topo::MultiRailSpec{2, 4})),
        groups(topo::extract_groups(topo)),
        coll(coll::make_allgather(8, 1 << 16)) {
    util::Rng rng(seed);
    for (int i = 0; i < num_candidates; ++i) {
      Schedule s = fuzz::random_direct_schedule(coll, groups, rng);
      if (i % 2 == 1) fuzz::mutate_schedule(s, groups, rng, 3);
      schedules.push_back(std::move(s));
    }
  }

  std::vector<const Schedule*> pointers() const {
    std::vector<const Schedule*> out;
    for (const auto& s : schedules) out.push_back(&s);
    return out;
  }
};

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.num_events, b.num_events);
  ASSERT_EQ(a.op_start.size(), b.op_start.size());
  ASSERT_EQ(a.op_finish.size(), b.op_finish.size());
  for (std::size_t i = 0; i < a.op_start.size(); ++i) {
    EXPECT_EQ(a.op_start[i], b.op_start[i]) << "op " << i;
    EXPECT_EQ(a.op_finish[i], b.op_finish[i]) << "op " << i;
  }
}

TEST(SimBatch, RunBatchMatchesSerialRuns) {
  const BatchFixture fx(101);
  const Simulator sim(fx.groups);
  util::ThreadPool pool(4);

  const auto batch = sim.run_batch(fx.pointers(), &pool);
  ASSERT_EQ(batch.size(), fx.schedules.size());
  for (std::size_t i = 0; i < fx.schedules.size(); ++i) {
    const SimResult serial = sim.run(fx.schedules[i]);
    expect_identical(batch[i], serial);
  }
}

TEST(SimBatch, TimeCollectivesIsPoolInvariant) {
  const BatchFixture fx(202);
  const Simulator sim(fx.groups);
  util::ThreadPool pool(7);  // deliberately odd vs. candidate count

  const auto serial = sim.time_collectives(fx.pointers(), fx.coll, nullptr);
  const auto pooled = sim.time_collectives(fx.pointers(), fx.coll, &pool);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok()) << serial[i].error;
    ASSERT_TRUE(pooled[i].ok()) << pooled[i].error;
    EXPECT_EQ(serial[i].time, pooled[i].time) << "candidate " << i;
    EXPECT_EQ(serial[i].time, sim.time_collective(fx.schedules[i], fx.coll));
  }
}

TEST(SimBatch, ErrorsAreCapturedPerCandidate) {
  BatchFixture fx(303, 4);
  // Break candidate 1: an op whose source never receives the piece.
  fx.schedules[1].ops.front().src = (fx.schedules[1].ops.front().src + 1) % 8;
  fx.schedules[1].ops.front().dst = (fx.schedules[1].ops.front().src + 1) % 8;

  const Simulator sim(fx.groups);
  util::ThreadPool pool(4);
  const auto timings = sim.time_collectives(fx.pointers(), fx.coll, &pool);
  ASSERT_EQ(timings.size(), 4u);
  EXPECT_FALSE(timings[1].ok());
  EXPECT_FALSE(timings[1].error.empty());
  for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    ASSERT_TRUE(timings[i].ok()) << timings[i].error;
    EXPECT_EQ(timings[i].time, sim.time_collective(fx.schedules[i], fx.coll));
  }
}

TEST(SimBatch, RunBatchRethrowsFirstFailingCandidate) {
  BatchFixture fx(404, 3);
  fx.schedules[2].ops.front().src = (fx.schedules[2].ops.front().src + 1) % 8;
  fx.schedules[2].ops.front().dst = (fx.schedules[2].ops.front().src + 1) % 8;

  const Simulator sim(fx.groups);
  util::ThreadPool pool(3);
  EXPECT_THROW(sim.run_batch(fx.pointers(), &pool), std::invalid_argument);
}

TEST(SimBatch, TuneIssueOrdersIsPoolInvariant) {
  const BatchFixture fx(505);
  const Simulator sim(fx.groups);
  util::ThreadPool pool(5);

  // Three independent copies: tuned serially one-by-one, batched without a
  // pool, and batched across the pool. All three must agree on the final op
  // order and the reported time.
  std::vector<Schedule> one_by_one = fx.schedules;
  std::vector<Schedule> batch_serial = fx.schedules;
  std::vector<Schedule> batch_pooled = fx.schedules;

  std::vector<double> expect_times;
  for (auto& s : one_by_one) expect_times.push_back(sim.tune_issue_order(s, fx.coll));

  const auto as_ptrs = [](std::vector<Schedule>& v) {
    std::vector<Schedule*> out;
    for (auto& s : v) out.push_back(&s);
    return out;
  };
  const auto ts = sim.tune_issue_orders(as_ptrs(batch_serial), fx.coll, 2, nullptr);
  const auto tp = sim.tune_issue_orders(as_ptrs(batch_pooled), fx.coll, 2, &pool);

  ASSERT_EQ(ts.size(), fx.schedules.size());
  ASSERT_EQ(tp.size(), fx.schedules.size());
  for (std::size_t i = 0; i < fx.schedules.size(); ++i) {
    ASSERT_TRUE(ts[i].ok()) << ts[i].error;
    ASSERT_TRUE(tp[i].ok()) << tp[i].error;
    EXPECT_EQ(ts[i].time, expect_times[i]);
    EXPECT_EQ(tp[i].time, expect_times[i]);
    ASSERT_EQ(batch_serial[i].ops.size(), one_by_one[i].ops.size());
    for (std::size_t o = 0; o < one_by_one[i].ops.size(); ++o) {
      const TransferOp& want = one_by_one[i].ops[o];
      const TransferOp& got_s = batch_serial[i].ops[o];
      const TransferOp& got_p = batch_pooled[i].ops[o];
      EXPECT_TRUE(got_s.piece == want.piece && got_s.src == want.src &&
                  got_s.dst == want.dst && got_s.phase == want.phase)
          << "candidate " << i << " op " << o;
      EXPECT_TRUE(got_p.piece == want.piece && got_p.src == want.src &&
                  got_p.dst == want.dst && got_p.phase == want.phase)
          << "candidate " << i << " op " << o;
    }
  }
}

bool same_ops(const Schedule& a, const Schedule& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (std::size_t o = 0; o < a.ops.size(); ++o) {
    const TransferOp& x = a.ops[o];
    const TransferOp& y = b.ops[o];
    if (x.piece != y.piece || x.src != y.src || x.dst != y.dst || x.dim != y.dim ||
        x.phase != y.phase) {
      return false;
    }
  }
  return true;
}

TEST(SimBatch, WorkspaceReuseMatchesFreshRuns) {
  // Without a pool one workspace serves every run of a batch, so each run
  // must start from a cleared state whatever ran before it: a reduce
  // schedule (contributor bitsets), a forward schedule with another piece
  // count, and a malformed schedule that throws halfway through its ops.
  const topo::Topology topo = topo::build_multi_rail(topo::MultiRailSpec{2, 4});
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  const coll::Collective ag = coll::make_allgather(8, 1 << 18);
  util::Rng rng(707);
  const Schedule reduce =
      fuzz::random_direct_schedule(coll::make_reduce_scatter(8, 1 << 16), groups, rng);
  // Draw until some chunk is split, so the piece counts differ.
  Schedule forward;
  do {
    forward = fuzz::random_direct_schedule(ag, groups, rng);
  } while (forward.pieces.size() == reduce.pieces.size());
  Schedule malformed = forward;
  malformed.ops[malformed.ops.size() / 2].piece = static_cast<int>(malformed.pieces.size());
  const std::vector<Schedule> schedules = {reduce, forward, malformed, reduce, forward};
  const auto pointers = [](auto& v) {
    std::vector<std::remove_reference_t<decltype(v[0])>*> out;
    for (auto& s : v) out.push_back(&s);
    return out;
  };
  const Simulator sim(groups);

  const auto timings = sim.time_collectives(pointers(schedules), ag, nullptr);
  std::vector<Schedule> tuned = schedules;
  const auto tunings = sim.tune_issue_orders(pointers(tuned), ag, 2, nullptr);
  ASSERT_EQ(timings.size(), schedules.size());
  ASSERT_EQ(tunings.size(), schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    SCOPED_TRACE(i);
    BatchTiming fresh;
    Schedule fresh_tuned = schedules[i];
    BatchTiming fresh_tuning;
    try {
      fresh.time = sim.time_collective(schedules[i], ag);
    } catch (const std::exception& e) {
      fresh.error = e.what();
    }
    try {
      fresh_tuning.time = sim.tune_issue_order(fresh_tuned, ag);
    } catch (const std::exception& e) {
      fresh_tuning.error = e.what();
    }
    EXPECT_EQ(timings[i].time, fresh.time);
    EXPECT_EQ(timings[i].error, fresh.error);
    EXPECT_EQ(tunings[i].time, fresh_tuning.time);
    EXPECT_EQ(tunings[i].error, fresh_tuning.error);
    EXPECT_TRUE(same_ops(tuned[i], fresh_tuned));
  }
  EXPECT_TRUE(timings[1].ok()) << timings[1].error;
  EXPECT_FALSE(timings[2].ok());

  // run_batch rethrows a malformed schedule, so it reuses its workspace
  // across the well-formed ones, op times included.
  const std::vector<Schedule> runnable = {reduce, forward, reduce, forward};
  const auto results = sim.run_batch(pointers(runnable), nullptr);
  ASSERT_EQ(results.size(), runnable.size());
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(results[i], sim.run(runnable[i]));
  }
}

TEST(SimBatch, EmptyBatchIsFine) {
  const BatchFixture fx(606, 1);
  const Simulator sim(fx.groups);
  EXPECT_TRUE(sim.run_batch({}, nullptr).empty());
  EXPECT_TRUE(sim.time_collectives({}, fx.coll, nullptr).empty());
}

}  // namespace
}  // namespace syccl::sim

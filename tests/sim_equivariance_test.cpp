// Simulator label-equivariance: relabelling a fabric's GPU ranks
// (topo::permute_gpu_ranks) together with a schedule on it (the chunk-aware
// serve::apply_rank_map) must leave every timing bit-equal. Checked:
// time_collective, run_batch (makespan and every op's start and finish), and
// tune_issue_orders (its time, and a reordering that is the relabelled image
// of the original's). A library hit relies on this when it serves a stored
// schedule to a caller who labels the same fabric differently.
//
// SimEquivariance.* runs a small sample in the default suite;
// SimEquivarianceSweep.* runs every digest fabric at the default synthesis
// config and hundreds of generated fabrics (`ctest -C fuzz`).
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/synthesizer.h"
#include "fuzz/generators.h"
#include "obs/scenario.h"
#include "serve/broker.h"
#include "serve/canonical.h"
#include "sim/simulator.h"
#include "topo/groups.h"
#include "topo/mutate.h"
#include "util/rng.h"

namespace syccl {
namespace {

constexpr coll::CollKind kServedKinds[] = {
    coll::CollKind::Broadcast,     coll::CollKind::Scatter,  coll::CollKind::Gather,
    coll::CollKind::Reduce,        coll::CollKind::AllGather, coll::CollKind::AllToAll,
    coll::CollKind::ReduceScatter, coll::CollKind::AllReduce,
};

std::vector<int> random_permutation(int n, util::Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  return perm;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_ops(const sim::Schedule& a, const sim::Schedule& b) {
  if (a.ops.size() != b.ops.size()) return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const sim::TransferOp& x = a.ops[i];
    const sim::TransferOp& y = b.ops[i];
    if (x.piece != y.piece || x.src != y.src || x.dst != y.dst || x.dim != y.dim ||
        x.phase != y.phase) {
      return false;
    }
  }
  return true;
}

/// Every timing of one schedule: time_collective, a run_batch run, and the
/// tuned schedule with its time.
struct Timings {
  double time = 0.0;
  sim::SimResult run;
  sim::Schedule tuned;
  sim::BatchTiming tuned_time;
};

Timings time_all(const topo::TopologyGroups& groups, const sim::Schedule& schedule,
                 const coll::Collective& coll) {
  const sim::Simulator simulator(groups);
  Timings out;
  out.time = simulator.time_collective(schedule, coll);
  const sim::Schedule* const batch[] = {&schedule};
  out.run = simulator.run_batch(batch).front();
  out.tuned = schedule;
  sim::Schedule* const tune[] = {&out.tuned};
  out.tuned_time = simulator.tune_issue_orders(tune, coll).front();
  return out;
}

/// Relabels `schedule` (a valid schedule for `coll`, rooted at `root` if
/// rooted) together with `fabric` under `perms` random permutations, and
/// checks every timing against the original's bit for bit. Returns the
/// number of relabellings checked.
int expect_equivariant(const topo::Topology& fabric, const coll::Collective& coll, int root,
                       const sim::Schedule& schedule, int perms, util::Rng& rng,
                       const std::string& what) {
  const topo::TopologyGroups groups = topo::extract_groups(fabric);
  const Timings want = time_all(groups, schedule, coll);
  EXPECT_TRUE(want.tuned_time.ok()) << what << ": " << want.tuned_time.error;
  for (int p = 0; p < perms; ++p) {
    SCOPED_TRACE(what + ", permutation " + std::to_string(p));
    const int n = coll.num_ranks();
    const std::vector<int> map = random_permutation(n, rng);
    const topo::Topology relabelled_fabric = topo::permute_gpu_ranks(fabric, map);
    const coll::Collective to = serve::make_serve_collective(
        coll.kind(), n, coll.total_bytes(), map[static_cast<std::size_t>(root)]);
    sim::Schedule relabelled = schedule;
    serve::apply_rank_map(relabelled, map, coll, to);
    const Timings got = time_all(topo::extract_groups(relabelled_fabric), relabelled, to);

    EXPECT_TRUE(same_bits(got.time, want.time)) << got.time << " vs " << want.time;
    EXPECT_TRUE(same_bits(got.run.makespan, want.run.makespan))
        << got.run.makespan << " vs " << want.run.makespan;
    EXPECT_EQ(got.run.num_events, want.run.num_events);
    EXPECT_TRUE(same_bits(got.run.op_start, want.run.op_start));
    EXPECT_TRUE(same_bits(got.run.op_finish, want.run.op_finish));
    EXPECT_TRUE(same_bits(got.tuned_time.time, want.tuned_time.time))
        << got.tuned_time.time << " vs " << want.tuned_time.time;
    EXPECT_EQ(got.tuned_time.error, want.tuned_time.error);
    sim::Schedule tuned_image = want.tuned;
    serve::apply_rank_map(tuned_image, map, coll, to);
    EXPECT_TRUE(same_ops(got.tuned, tuned_image)) << "tuning reordered differently";
  }
  return perms;
}

/// Synthesizes every served kind on each digest fabric in `fabrics` and
/// checks each schedule under `perms` relabellings. Kinds a fabric cannot
/// synthesize (the failed-NIC fabrics' typed errors) are skipped.
int check_synthesized(const std::vector<const char*>& fabrics, const core::SynthesisConfig& config,
                      int perms, util::Rng& rng) {
  int checked = 0;
  for (const char* name : fabrics) {
    const topo::Topology fabric = obs::build_scenario_topology(name);
    const int n = static_cast<int>(fabric.num_gpus());
    core::Synthesizer synth(fabric, config);
    for (const coll::CollKind kind : kServedKinds) {
      const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const coll::Collective coll = serve::make_serve_collective(kind, n, 1 << 20, root);
      sim::Schedule schedule;
      try {
        schedule = synth.synthesize(coll).schedule;
      } catch (const std::exception&) {
        continue;
      }
      checked += expect_equivariant(fabric, coll, root, schedule, perms, rng,
                                    std::string(name) + " " + coll::kind_name(kind));
    }
  }
  return checked;
}

/// Draws `count` generated fabrics (every third one faulty) and checks a
/// random direct schedule of every served kind, mutated so that tuning has
/// something to reorder, under `perms` relabellings each.
int check_generated(int count, int perms, util::Rng& rng) {
  int checked = 0;
  for (int f = 0; f < count; ++f) {
    fuzz::RandomTopology t = fuzz::random_topology(rng);
    if (f % 3 == 2) fuzz::degrade_random(t, rng);
    const topo::TopologyGroups groups = topo::extract_groups(t.topo);
    const int n = static_cast<int>(t.topo.num_gpus());
    for (const coll::CollKind kind : kServedKinds) {
      const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const coll::Collective coll = serve::make_serve_collective(kind, n, 1 << 20, root);
      sim::Schedule schedule;
      try {
        schedule = fuzz::random_direct_schedule(coll, groups, rng);
      } catch (const std::exception&) {
        continue;  // a failed NIC disconnected the rank graph
      }
      fuzz::mutate_schedule(schedule, groups, rng);
      checked += expect_equivariant(t.topo, coll, root, schedule, perms, rng,
                                    t.desc + " " + coll::kind_name(kind));
    }
  }
  return checked;
}

core::SynthesisConfig small_config() {
  core::SynthesisConfig config;
  config.sketch.search.max_sketches = 16;
  config.sketch.max_prototypes = 2;
  config.sketch.combine.max_outputs = 4;
  return config;
}

// dgx16@degraded synthesizes all eight kinds and h800x4@failnic the four
// rooted ones: 12 schedules, two relabellings each.
TEST(SimEquivariance, SynthesizedSchedulesOfEveryKind) {
  util::Rng rng(71);
  EXPECT_EQ(check_synthesized({"dgx16@degraded", "h800x4@failnic"}, small_config(), 2, rng), 24);
}

TEST(SimEquivariance, RandomSchedulesOnGeneratedFabrics) {
  util::Rng rng(72);
  EXPECT_EQ(check_generated(6, 2, rng), 96);
}

// 96 schedules: the two failed-NIC fabrics synthesize no unrooted kind.
TEST(SimEquivarianceSweep, SynthesizedSchedulesOnDigestFabrics) {
  util::Rng rng(73);
  const std::vector<const char*> fabrics = {
      "dgx16",          "a100x16",         "a100x32",          "h800x4",
      "h800x8",         "h800x16",         "flat8",            "micro",
      "dgx16@degraded", "flat8@degraded",  "a100x32@degraded", "a100x16@failnic",
      "h800x4@failnic",
  };
  EXPECT_EQ(check_synthesized(fabrics, core::SynthesisConfig{}, 5, rng), 480);
}

TEST(SimEquivarianceSweep, RandomSchedulesOnGeneratedFabrics) {
  util::Rng rng(74);
  EXPECT_EQ(check_generated(300, 3, rng), 7200);
}

}  // namespace
}  // namespace syccl

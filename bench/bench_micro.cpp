// Microbenchmarks (google-benchmark): throughput of the substrates under the
// synthesizer — simulator, group extraction, sketch search, demand planning,
// the greedy sub-demand solver, the sub-schedule checker, LP simplex,
// schedule merging and candidate simulation — and of the library-hit stages:
// canonicalisation, relabelling and validation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "coll/collective.h"
#include "core/merge.h"
#include "core/subdemand.h"
#include "core/synthesizer.h"
#include "lp/simplex.h"
#include "runtime/validate.h"
#include "serve/canonical.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "sketch/alltoall.h"
#include "sketch/search.h"
#include "solver/greedy.h"
#include "solver/solve_cache.h"
#include "solver/tau.h"
#include "topo/builders.h"
#include "topo/groups.h"
#include "topo/mutate.h"

namespace {

using namespace syccl;

sim::Schedule make_ring_schedule(const coll::Collective& ag) {
  const int n = ag.num_ranks();
  sim::Schedule s;
  s.pieces = sim::pieces_for(ag);
  for (int step = 0; step < n - 1; ++step) {
    for (int r = 0; r < n; ++r) {
      const int piece = ((r - step) % n + n) % n;
      s.add_op(piece, r, (r + 1) % n);
    }
  }
  return s;
}

void BM_SimulatorRingAllGather(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  const auto topo = topo::build_h800_cluster(servers);
  const auto groups = topo::extract_groups(topo);
  const auto ag = coll::make_allgather(servers * 8, 1ull << 30);
  const auto sched = make_ring_schedule(ag);
  const sim::Simulator sim(groups);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(sched).makespan);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sched.ops.size()));
}
BENCHMARK(BM_SimulatorRingAllGather)->Arg(2)->Arg(8)->Arg(16);

void BM_GroupExtraction(benchmark::State& state) {
  const auto topo = topo::build_h800_cluster(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::extract_groups(topo).num_dims());
  }
}
BENCHMARK(BM_GroupExtraction)->Arg(2)->Arg(8)->Arg(16)->Arg(64);

/// serve::canonicalize on an h800 fabric of state.range(0) servers (16, 128
/// and 512 ranks), rank-permuted so ties break against a shuffled labelling.
void BM_Canonicalize(benchmark::State& state) {
  const int servers = static_cast<int>(state.range(0));
  std::vector<int> perm(static_cast<std::size_t>(servers * 8));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<int>((i * 37 + 5) % perm.size());
  }
  const auto groups =
      topo::extract_groups(topo::permute_gpu_ranks(topo::build_h800_cluster(servers), perm));
  for (auto _ : state) {
    benchmark::DoNotOptimize(serve::canonicalize(groups).hash.size());
  }
}
BENCHMARK(BM_Canonicalize)->Arg(2)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

/// The h800x16 AllGather 1 MiB library hit (128 ranks, 16,256 ops): the
/// synthesized schedule, and the collective under a rank permutation.
struct HitShape {
  topo::Topology topo = topo::build_h800_cluster(16);
  topo::TopologyGroups groups = topo::extract_groups(topo);
  coll::Collective coll = coll::make_allgather(128, 1 << 20);
  sim::Schedule schedule = core::Synthesizer(topo).synthesize(coll).schedule;
  std::vector<int> map;

  HitShape() {
    for (int r = 0; r < 128; ++r) map.push_back((r * 45 + 7) % 128);
  }
  std::int64_t num_ops() const { return static_cast<std::int64_t>(schedule.ops.size()); }
};

const HitShape& hit_shape() {
  static const HitShape shape;
  return shape;
}

void BM_RelabelHit(benchmark::State& state) {
  const HitShape& shape = hit_shape();
  for (auto _ : state) {
    sim::Schedule s = shape.schedule;
    serve::apply_rank_map(s, shape.map, shape.coll, shape.coll);
    benchmark::DoNotOptimize(s.ops.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * shape.num_ops());
}
BENCHMARK(BM_RelabelHit)->Unit(benchmark::kMillisecond);

void BM_ValidateHit(benchmark::State& state) {
  const HitShape& shape = hit_shape();
  for (auto _ : state) {
    const auto report = runtime::validate_schedule(shape.schedule, shape.coll, shape.groups);
    benchmark::DoNotOptimize(report.ok);
  }
  state.SetItemsProcessed(state.iterations() * shape.num_ops());
}
BENCHMARK(BM_ValidateHit)->Unit(benchmark::kMillisecond);

void BM_SketchSearch(benchmark::State& state) {
  const auto topo = topo::build_h800_cluster(static_cast<int>(state.range(0)));
  const auto groups = topo::extract_groups(topo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sketch::search_sketches(groups, 0, sketch::RootedPattern::Broadcast).size());
  }
}
BENCHMARK(BM_SketchSearch)->Arg(2)->Arg(8)->Arg(32)->Arg(64);

void BM_AllToAllReplication(benchmark::State& state) {
  const auto topo = topo::build_h800_cluster(static_cast<int>(state.range(0)));
  const auto groups = topo::extract_groups(topo);
  const sketch::AllToAllConfig config;
  for (auto _ : state) {
    const auto sketches =
        sketch::search_sketches(groups, 0, sketch::RootedPattern::Broadcast, config.search);
    benchmark::DoNotOptimize(
        sketch::combine_prototypes(
            sketch::select_prototypes(sketches, groups, config.max_prototypes), sketches, groups,
            /*all_roots=*/true, config.combine)
            .size());
  }
}
BENCHMARK(BM_AllToAllReplication)->Arg(2)->Arg(8)->Arg(64)->Unit(benchmark::kMillisecond);

/// The 512-GPU AllGather point (h800x64, 1 MiB) after sketch search and
/// combination, as the synthesizer runs them: its distinct combinations.
struct PrefixShape {
  topo::Topology topo = topo::build_h800_cluster(64);
  topo::TopologyGroups groups = topo::extract_groups(topo);
  coll::Collective coll = coll::make_allgather(512, 1 << 20);
  std::vector<sketch::SketchCombination> combos;

  PrefixShape() {
    const sketch::AllToAllConfig config;
    const auto sketches =
        sketch::search_sketches(groups, 0, sketch::RootedPattern::Broadcast, config.search);
    for (auto& c : sketch::combine_prototypes(
             sketch::select_prototypes(sketches, groups, config.max_prototypes), sketches, groups,
             /*all_roots=*/true, config.combine)) {
      if (std::find(combos.begin(), combos.end(), c) == combos.end()) combos.push_back(std::move(c));
    }
  }
};

/// Built once: the search and combination take about a second.
const PrefixShape& prefix_shape() {
  static const PrefixShape shape;
  return shape;
}

/// Demand planning as the synthesizer runs it per distinct candidate:
/// build_demand_plan, then canonical() of every demand (items = pieces).
void BM_DemandPlan(benchmark::State& state) {
  const PrefixShape& shape = prefix_shape();
  std::int64_t pieces = 0;
  for (auto _ : state) {
    for (const auto& combo : shape.combos) {
      const core::DemandPlan plan = core::build_demand_plan(combo, shape.coll, shape.groups);
      for (const auto& md : plan.demands) {
        benchmark::DoNotOptimize(md.demand.canonical().key.size());
        pieces += static_cast<std::int64_t>(md.demand.pieces.size());
      }
    }
  }
  state.SetItemsProcessed(pieces);
}
BENCHMARK(BM_DemandPlan)->Unit(benchmark::kMillisecond);

/// One candidate of the 512-GPU AllGather point: a sketch combination's
/// demand plan, every demand solved greedily at epoch step E.
struct MergeShape {
  const topo::TopologyGroups& groups = prefix_shape().groups;
  const coll::Collective& coll = prefix_shape().coll;
  core::DemandPlan plan;
  std::vector<solver::SubSchedule> solved;

  MergeShape(std::size_t candidate, double E)
      : plan(core::build_demand_plan(prefix_shape().combos.at(candidate), coll, groups)) {
    solver::SubScheduleCache cache;
    const solver::SolveOptions options{E};
    for (const auto& md : plan.demands) {
      solved.push_back(cache.get_or_solve(md.demand, md.demand.canonical(), options));
    }
  }
};

/// Built once per (candidate, E × 10): the solves take seconds.
const MergeShape& merge_shape(std::int64_t candidate = 0, std::int64_t e10 = 30) {
  static std::map<std::pair<std::int64_t, std::int64_t>, MergeShape> shapes;
  return shapes
      .try_emplace({candidate, e10}, static_cast<std::size_t>(candidate),
                   static_cast<double>(e10) / 10.0)
      .first->second;
}

/// merge_schedule of one candidate. Arguments: the combination's index and
/// E × 10. Combination 0 at E₁ is the first candidate the coarse pass
/// merges (261,632 ops); combination 12 at E₂ is the largest survivor the
/// fine pass merges (523,264 ops), whose merge and three simulations set
/// that pass's wall.
void BM_MergeSchedule(benchmark::State& state) {
  const MergeShape& shape = merge_shape(state.range(0), state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::merge_schedule(shape.plan, shape.solved, shape.groups, "m").ops.size());
  }
  std::size_t ops = 0;
  for (const auto& s : shape.solved) ops += s.ops.size();
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_MergeSchedule)
    ->Args({0, 30})  // E₁
    ->Args({12, 5})  // E₂
    ->Unit(benchmark::kMillisecond);

/// Candidate ranking on its own: time_collective of the first merged
/// candidate (items = simulated events).
void BM_SimulateCandidate(benchmark::State& state) {
  const MergeShape& shape = merge_shape();
  const sim::Schedule schedule = core::merge_schedule(shape.plan, shape.solved, shape.groups, "m");
  const sim::Simulator simulator(shape.groups);
  const auto events = static_cast<std::int64_t>(simulator.run(schedule).num_events);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.time_collective(schedule, shape.coll));
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulateCandidate)->Unit(benchmark::kMillisecond);

/// An AllGather-shaped sub-demand (every member sources one piece all others
/// need) on one group. Arguments: group size and E × 10. Sizes up to 64 use a
/// single server of that many GPUs and 1 MiB pieces; 512 is the shape that
/// dominates the 512-GPU synthesis: build_h800_cluster(64)'s 512-member group
/// with a 1 MiB AllGather's 2 KiB pieces (α-dominated, L in the thousands).
struct GreedyShape {
  topo::Topology topo;
  topo::TopologyGroups groups;
  solver::SubDemand demand;
  solver::EpochParams params;

  explicit GreedyShape(const benchmark::State& state)
      : topo(state.range(0) == 512 ? topo::build_h800_cluster(64)
                                   : topo::build_single_server(static_cast<int>(state.range(0)))),
        groups(topo::extract_groups(topo)) {
    const int n = static_cast<int>(state.range(0));
    for (const auto& dim : groups.dims) {
      for (const auto& g : dim.groups) {
        if (g.size() == n && demand.group == nullptr) demand.group = &g;
      }
    }
    if (demand.group == nullptr) throw std::invalid_argument("no group of the requested size");
    demand.piece_bytes = n == 512 ? (1 << 20) / 512 : 1 << 20;
    for (int r = 0; r < n; ++r) {
      solver::DemandPiece p;
      p.id = r;
      p.srcs = {r};
      for (int d = 0; d < n; ++d) {
        if (d != r) p.dsts.push_back(d);
      }
      demand.pieces.push_back(std::move(p));
    }
    params = solver::derive_epoch_params(*demand.group, demand.piece_bytes,
                                         static_cast<double>(state.range(1)) / 10.0);
  }
};

void BM_GreedySubDemand(benchmark::State& state) {
  const GreedyShape shape(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver::solve_greedy(shape.demand, shape.params).num_epochs);
  }
  state.counters["epochs"] = solver::solve_greedy(shape.demand, shape.params).num_epochs;
}
BENCHMARK(BM_GreedySubDemand)
    ->Args({4, 10})
    ->Args({8, 10})
    ->Args({16, 10})
    ->Args({64, 10})
    ->Args({512, 30})  // E₁
    ->Args({512, 5})   // E₂
    ->Unit(benchmark::kMicrosecond);

void BM_CheckSubSchedule(benchmark::State& state) {
  const GreedyShape shape(state);
  const solver::SubSchedule sched = solver::solve_greedy(shape.demand, shape.params);
  for (auto _ : state) {
    solver::check_sub_schedule(shape.demand, sched);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(sched.ops.size()));
}
BENCHMARK(BM_CheckSubSchedule)
    ->Args({64, 10})
    ->Args({512, 30})
    ->Args({512, 5})
    ->Unit(benchmark::kMicrosecond);

core::SynthesisConfig synth_bench_config() {
  core::SynthesisConfig cfg;
  cfg.sketch.search.max_sketches = 32;
  cfg.sketch.max_prototypes = 4;
  cfg.sketch.combine.max_outputs = 10;
  return cfg;
}

void BM_SynthesizeAllGatherColdCache(benchmark::State& state) {
  // End-to-end Synthesizer::synthesize with the solve cache cleared every
  // iteration — the cost of a first-ever synthesis.
  const auto topo = topo::build_h800_cluster(2);
  const auto coll = coll::make_allgather(16, 16 << 20);
  for (auto _ : state) {
    solver::SubScheduleCache::instance().clear();
    core::Synthesizer synth(topo, synth_bench_config());
    benchmark::DoNotOptimize(synth.synthesize(coll).predicted_time);
  }
}
BENCHMARK(BM_SynthesizeAllGatherColdCache)->Unit(benchmark::kMillisecond);

void BM_SynthesizeAllGatherWarmCache(benchmark::State& state) {
  // Same synthesis with a warm process-wide cache — the steady-state cost
  // inside a size sweep or repeated schedule-library misses.
  const auto topo = topo::build_h800_cluster(2);
  const auto coll = coll::make_allgather(16, 16 << 20);
  solver::SubScheduleCache::instance().clear();
  {
    core::Synthesizer warmup(topo, synth_bench_config());
    warmup.synthesize(coll);
  }
  for (auto _ : state) {
    core::Synthesizer synth(topo, synth_bench_config());
    benchmark::DoNotOptimize(synth.synthesize(coll).predicted_time);
  }
}
BENCHMARK(BM_SynthesizeAllGatherWarmCache)->Unit(benchmark::kMillisecond);

void BM_SimplexLp(benchmark::State& state) {
  // A transportation LP scaled by the argument.
  const int m = static_cast<int>(state.range(0));
  lp::Problem p;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(m),
                                  std::vector<int>(static_cast<std::size_t>(m)));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          p.add_var(0, lp::kInf, 1.0 + ((i * 7 + j * 3) % 5));
    }
  }
  for (int i = 0; i < m; ++i) {
    lp::Constraint supply, demand;
    for (int j = 0; j < m; ++j) {
      supply.terms.push_back({x[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)], 1.0});
      demand.terms.push_back({x[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)], 1.0});
    }
    supply.rel = lp::Relation::LessEq;
    supply.rhs = 10.0 + i;
    demand.rel = lp::Relation::GreaterEq;
    demand.rhs = 5.0 + i % 3;
    p.add_constraint(supply);
    p.add_constraint(demand);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(p).objective);
  }
}
BENCHMARK(BM_SimplexLp)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();

// Figure 17 reproduction: impact of the synthesis policy, on the scaled-down
// microbenchmark cluster (§7.4: H800 links, 6 servers × 4 GPUs).
//   (a) pruning #1 (isomorphism) and #2 (consistency) on/off
//   (b) AlltoAll stage limit 3/5/10
//   (c) epoch knob E2 ∈ {0.1, 0.2, 1.0}: max per-demand solve time + busbw
#include <cstdio>

#include "bench_util.h"
#include "core/synthesizer.h"
#include "topo/builders.h"
#include "util/stopwatch.h"

using namespace syccl;

namespace {

const std::vector<std::uint64_t>& sweep() {
  static const std::vector<std::uint64_t> sizes =
      benchutil::size_sweep(64 << 10, benchutil::fast_mode() ? (64ull << 20) : (1ull << 30));
  return sizes;
}

void panel_a() {
  benchutil::header("Fig 17(a): pruning #1/#2 ablation (24-GPU microbench, AllGather)");
  const topo::Topology topo = topo::build_microbench_cluster();
  std::printf("%-8s", "size");
  const char* labels[] = {"w/o1,w/o2", "w/o1,w/2", "w/1,w/o2", "w/1,w/2"};
  for (const char* l : labels) std::printf("  %9s tot(s)/GBps", l);
  std::printf("\n");

  for (const auto size : sweep()) {
    std::printf("%-8s", benchutil::human_size(size).c_str());
    for (int mode = 0; mode < 4; ++mode) {
      core::SynthesisConfig cfg;
      cfg.sketch.search.prune_isomorphic = (mode & 2) != 0;
      cfg.sketch.search.prune_consistency = (mode & 1) != 0;
      // With pruning off the enumeration is exhaustive (the paper's "one may
      // disable pruning… at the cost of higher synthesis overhead").
      cfg.sketch.search.exhaustive_counts = !cfg.sketch.search.prune_consistency;
      cfg.sketch.search.max_sketches = cfg.sketch.search.prune_isomorphic ? 64 : 4096;
      cfg.sketch.search.node_budget = 3000000;
      core::Synthesizer synth(topo, cfg);
      const coll::Collective ag = coll::make_allgather(24, size);
      util::Stopwatch sw;
      const auto r = synth.synthesize(ag);
      std::printf("  %10.2f/%-10.1f", sw.elapsed_seconds(),
                  benchutil::gbps(ag, r.predicted_time));
    }
    std::printf("\n");
  }
  std::printf("(note: §5.3 isomorphism-class dedup at the solver layer subsumes most of "
              "pruning #1's benefit in this implementation — see EXPERIMENTS.md)\n");
}

void panel_b() {
  benchutil::header("Fig 17(b): AlltoAll stage-limit ablation (3/5/10 stages)");
  const topo::Topology topo = topo::build_microbench_cluster();
  std::printf("%-8s %14s %14s %14s %12s %12s %12s\n", "size", "3-stage(s)", "5-stage(s)",
              "10-stage(s)", "3 GBps", "5 GBps", "10 GBps");
  for (const auto size : sweep()) {
    double times[3], bw[3];
    int i = 0;
    for (const int stages : {3, 5, 10}) {
      core::SynthesisConfig cfg;
      cfg.sketch.search.max_stages = stages;
      // Give the search room so the stage limit is what binds.
      cfg.sketch.search.max_sketches = 128;
      cfg.sketch.search.node_budget = 2000000;
      core::Synthesizer synth(topo, cfg);
      const coll::Collective a2a = coll::make_alltoall(24, size);
      util::Stopwatch sw;
      const auto r = synth.synthesize(a2a);
      times[i] = sw.elapsed_seconds();
      bw[i] = benchutil::gbps(a2a, r.predicted_time);
      ++i;
    }
    std::printf("%-8s %14.3f %14.3f %14.3f %12.1f %12.1f %12.1f\n",
                benchutil::human_size(size).c_str(), times[0], times[1], times[2], bw[0], bw[1],
                bw[2]);
  }
}

void panel_c() {
  benchutil::header("Fig 17(c): epoch knob E2 ablation (0.1 / 0.2 / 1.0)");
  const topo::Topology topo = topo::build_microbench_cluster();
  std::printf("%-8s %16s %16s %16s %10s %10s %10s\n", "size", "maxsolve@0.1(s)",
              "maxsolve@0.2(s)", "maxsolve@1.0(s)", "GBps@0.1", "GBps@0.2", "GBps@1.0");
  for (const auto size : sweep()) {
    double solve[3], bw[3];
    int i = 0;
    for (const double e2 : {0.1, 0.2, 1.0}) {
      core::SynthesisConfig cfg;
      cfg.fine_solver.E = e2;
      core::Synthesizer synth(topo, cfg);
      const coll::Collective ag = coll::make_allgather(24, size);
      const auto r = synth.synthesize(ag);
      solve[i] = r.breakdown.max_solve_s;
      bw[i] = benchutil::gbps(ag, r.predicted_time);
      ++i;
    }
    std::printf("%-8s %16.4f %16.4f %16.4f %10.1f %10.1f %10.1f\n",
                benchutil::human_size(size).c_str(), solve[0], solve[1], solve[2], bw[0], bw[1],
                bw[2]);
  }
}

}  // namespace

int main() {
  panel_a();
  panel_b();
  panel_c();
  return 0;
}

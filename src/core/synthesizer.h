// SyCCL's end-to-end schedule synthesizer (paper §3.3, Fig. 6).
//
// Phase 1 — sketch exploration: search rooted sketches (§4.1), balance and
// replicate them (§4.2/§4.3), and integrate sketch combinations across
// dimensions. Phase 2 — schedule synthesis: solve every merged sub-demand
// (coarse E₁ pass over all combinations, then fine E₂ pass over the top
// candidates within R₁ of the best, at most R₂ of them), merge the
// sub-schedules, rank the complete schedules with the α–β simulator, and
// return the best (§5). Equal sketch combinations are evaluated once, and
// sub-demand solves are deduplicated by isomorphism class (§5.3).
//
// Reduce kinds reuse their forward twin's synthesis and flip the winner
// (§4.1). One prefix — search, combine, demand plan, class registry and
// coarse solve — serves every target of a pattern: AllReduce ranks the
// AllGather prefix twice, once flipped into ReduceScatter and once forward
// as AllGather (§4.3), and concatenates the two winners. Solving, merging
// and simulation run on a thread pool; selection stays deterministic —
// candidates are ranked by predicted time with a stable index tie-break,
// independent of task completion order.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "coll/collective.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "sketch/alltoall.h"
#include "solver/greedy.h"
#include "topo/topology.h"
#include "util/thread_pool.h"

namespace syccl::core {

struct SynthesisConfig {
  /// Candidate filter: keep schedules within R1 of the best, at most R2.
  double R1 = 0.20;
  int R2 = 8;
  /// Disable the fine pass (single coarse pass only).
  bool two_step = true;

  /// Sketch search/combination settings (pruning toggles for §7.4 live in
  /// sketch.search).
  sketch::AllToAllConfig sketch;

  /// Per-sub-demand solver settings of the two passes; E is the epoch knob
  /// (§5.3 paper defaults: E₁ = 3.0 coarse, E₂ = 0.5 fine).
  solver::SolveOptions coarse_solver{3.0};
  solver::SolveOptions fine_solver{0.5};

  /// Simulator options used for candidate ranking.
  sim::SimOptions sim;

  /// Worker threads for parallel sub-demand solving and candidate
  /// evaluation (0 = hardware).
  int num_threads = 0;
};

/// Wall-clock breakdown of one synthesis call (Fig. 16(b)).
struct SynthesisBreakdown {
  double search_s = 0.0;
  double combine_s = 0.0;
  double solve1_s = 0.0;
  double solve2_s = 0.0;
  double total_s = 0.0;
  int num_combinations = 0;
  int num_subdemands = 0;
  /// Solver invocations after isomorphism-class deduplication *and* solve
  /// caching — i.e. solves that actually ran, the solve-cache misses.
  int num_solver_calls = 0;
  /// Longest single sub-demand solve (Fig. 17(c) metric).
  double max_solve_s = 0.0;
  /// Deduplicated classes the SubScheduleCache already held. cache_hits +
  /// num_solver_calls = deduplicated classes that were needed.
  int cache_hits = 0;
};

struct SynthesisResult {
  sim::Schedule schedule;
  /// Simulator-predicted completion time of the chosen schedule (seconds).
  double predicted_time = 0.0;
  SynthesisBreakdown breakdown;
  /// Human-readable description of the winning sketch combination.
  std::string chosen;
};

class Synthesizer {
 public:
  /// Extracts dimensions/groups from `topo` (kept by reference: the topology
  /// must outlive the synthesizer).
  explicit Synthesizer(const topo::Topology& topo, SynthesisConfig config = {});

  /// Synthesizes a schedule for `coll`. Supports every collective of §2.1;
  /// AllReduce is synthesised as ReduceScatter + AllGather (§4.3) from one
  /// prefix.
  SynthesisResult synthesize(const coll::Collective& coll);

  const topo::TopologyGroups& groups() const { return groups_; }
  const SynthesisConfig& config() const { return config_; }

 private:
  /// What a pattern's candidates are ranked for: the pattern's forward
  /// collective itself, or (`reverse`) a reduce collective that the flipped
  /// forward schedule must satisfy (§4.1).
  struct Target {
    const coll::Collective* coll;
    bool reverse;
  };
  /// Runs the prefix for the forward collective `coll` once and ranks its
  /// candidates for every target. Returns the targets' winners in sequence.
  /// If targets fail, the lowest-index one's error is thrown.
  SynthesisResult synthesize_pattern(const coll::Collective& coll, bool all_to_all, int root,
                                     sketch::RootedPattern pattern,
                                     const std::vector<Target>& targets);
  SynthesisResult synthesize_sendrecv(const coll::Collective& coll);

  const topo::Topology& topo_;
  topo::TopologyGroups groups_;
  SynthesisConfig config_;
  util::ThreadPool pool_;
};

}  // namespace syccl::core

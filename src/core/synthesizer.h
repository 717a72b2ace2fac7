// SyCCL's end-to-end schedule synthesizer (paper §3.3, Fig. 6).
//
// Phase 1 — sketch exploration: search rooted sketches (§4.1), balance and
// replicate them (§4.2/§4.3), and integrate sketch combinations across
// dimensions. Phase 2 — schedule synthesis: solve every merged sub-demand
// (coarse E₁ pass over all combinations, then fine E₂ pass over the top
// candidates within R₁ of the best, at most R₂ of them), merge the
// sub-schedules, rank the complete schedules with the α–β simulator, and
// return the best (§5). Equal sketch combinations are evaluated once.
// Sub-demand solves are deduplicated by isomorphism class, memoised
// process-wide (solver::SubScheduleCache) and run on a thread pool alongside
// parallel candidate evaluation (§5.3); selection stays deterministic —
// candidates are ranked by predicted time with a stable index tie-break,
// independent of task completion order.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "coll/collective.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "sketch/alltoall.h"
#include "solver/milp_scheduler.h"
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
  /// (§5.3 paper defaults: E₁ = 3.0 coarse, E₂ = 0.5 fine). The
  /// binary-count gates keep the dense-simplex B&B inside its practical
  /// size range; larger merged demands fall back to the greedy incumbent.
  solver::MilpSchedulerOptions coarse_solver{3.0, 0.25, 500, 250, false};
  solver::MilpSchedulerOptions fine_solver{0.5, 1.0, 2000, 550, false};

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
  /// Resident bytes of the process-wide solve cache after this synthesis.
  std::size_t cache_bytes = 0;
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
  /// AllReduce is synthesised as ReduceScatter + AllGather (§4.3).
  SynthesisResult synthesize(const coll::Collective& coll);

  const topo::TopologyGroups& groups() const { return groups_; }
  const SynthesisConfig& config() const { return config_; }

 private:
  /// `coll` is the forward collective that drives the demand plan; for
  /// reversed (reduce) synthesis, `eval_coll` is the real collective the
  /// merged schedule must satisfy.
  SynthesisResult synthesize_pattern(const coll::Collective& coll,
                                     const coll::Collective& eval_coll, bool all_to_all,
                                     int root, sketch::RootedPattern pattern, bool reverse);
  SynthesisResult synthesize_sendrecv(const coll::Collective& coll);

  const topo::Topology& topo_;
  topo::TopologyGroups groups_;
  SynthesisConfig config_;
  util::ThreadPool pool_;
};

}  // namespace syccl::core

// α–β schedule simulator (paper §5.2), modelled on ASTRA-sim's analytical
// network backend.
//
// The simulator processes transfer ops in issue order. Each op is expanded
// into pipeline blocks; a block over a group link takes α + β·b seconds to
// arrive and occupies the source's up-port and the destination's down-port
// for β·b seconds (Hockney model, identical to the solver's §5.1 model).
// Every event is processed exactly once, so a run costs O(#events) with
// array indexing only on the per-event path: piece state lives in a dense
// per-piece-row arena (struct-of-arrays, no hashing), link busy intervals in
// a dense per-link-id vector of compact timelines, and the (dim, rank) →
// physical hop path resolution is cached once per Simulator.
//
// Ordering contract: ops execute per port in issue order (like MSCCL channel
// programs). A piece must have arrived at an op's source via an earlier op
// (or start there); otherwise the run throws — schedules with dependency
// inversions are rejected rather than silently mistimed.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "coll/collective.h"
#include "sim/schedule.h"
#include "topo/groups.h"

namespace syccl::util {
class ThreadPool;
}

namespace syccl::sim {

struct SimOptions {
  /// Pipeline granularity: a piece is cut into ceil(bytes/block_bytes)
  /// blocks, capped at max_blocks.
  double block_bytes = 1 << 20;
  int max_blocks = 16;
  /// Record the final per-(piece, rank) state in SimResult::final_state.
  /// Off by default: candidate ranking runs millions of simulations and
  /// never looks at the state; the differential harness (sim/oracle.h)
  /// turns it on to compare against the reference simulator.
  bool record_final_state = false;
  /// Record every (block, hop) link occupancy in SimResult::link_events.
  /// Off by default for the same reason; the Chrome-trace timeline export
  /// (obs/timeline.h) turns it on to render per-link Gantt tracks.
  bool record_link_events = false;
};

/// One block occupying one directed physical link (record_link_events only).
struct LinkEvent {
  int op = -1;     ///< index into Schedule::ops
  int block = -1;  ///< pipeline block index within the op
  int link = -1;   ///< directed physical link id (topo::LinkId)
  double start = 0.0;  ///< wire claimed (seconds)
  double end = 0.0;    ///< wire released (start + β·bytes)
};

/// Final availability of one piece at one rank (record_final_state only;
/// ranks where the piece never became present are omitted).
struct PieceRankState {
  int piece = -1;
  int rank = -1;
  /// Per-block arrival times.
  std::vector<double> block_arrival;
  /// Merged contributor ranks, ascending (reduce pieces only).
  std::vector<int> contributors;
};

struct SimResult {
  /// Time at which the last op finished (seconds).
  double makespan = 0.0;
  /// Start time of each op's first block, indexed like Schedule::ops.
  std::vector<double> op_start;
  /// Finish time of each op's last block, indexed like Schedule::ops.
  std::vector<double> op_finish;
  /// Total number of simulated block events.
  std::size_t num_events = 0;
  /// Present (piece, rank) pairs, sorted, when record_final_state is set.
  std::vector<PieceRankState> final_state;
  /// Per-link occupancy intervals when record_link_events is set.
  std::vector<LinkEvent> link_events;
};

/// Outcome of one schedule in a batched timing call. `error` is empty iff
/// the schedule simulated cleanly and met every demand; otherwise it holds
/// the exception text the serial API would have thrown.
struct BatchTiming {
  double time = std::numeric_limits<double>::infinity();
  std::string error;
  bool ok() const { return error.empty(); }
};

/// Immutable after construction: run/time_collective/tune_issue_order are
/// const and keep all working state in a per-call workspace, so one
/// Simulator may rank many candidate schedules concurrently
/// (core::Synthesizer's parallel evaluation relies on this). Construction
/// resolves every (dimension, rank) to its physical hop path once; all runs
/// share that cache.
class Simulator {
 public:
  explicit Simulator(const topo::TopologyGroups& groups, SimOptions opts = {});

  /// Simulates a schedule and returns the timing result. Throws
  /// std::invalid_argument on malformed schedules (unknown dims, piece not
  /// present at an op's source, cross-group transfers, reduce contributions
  /// delivered to a rank after it already forwarded its partial).
  SimResult run(const Schedule& schedule) const;

  /// Simulates and additionally verifies that every demand of `coll` is
  /// satisfied (each chunk fully present at each destination; reduce blocks
  /// carry all contributors). Returns the completion time of the *demands*
  /// (max arrival over demanded pairs). Throws if a demand is unmet.
  double time_collective(const Schedule& schedule, const coll::Collective& coll) const;

  /// Iteratively reorders `schedule`'s ops by their simulated start times
  /// (fixed-point of order ↔ timing) and returns the final demand completion
  /// time. Removes head-of-line blocking that a static issue order causes
  /// under per-port FIFO execution. Mutates the schedule's op order only.
  /// Runs exactly one simulation per pass (plus one up front): the engine
  /// result supplies both the sort keys and the timing.
  double tune_issue_order(Schedule& schedule, const coll::Collective& coll,
                          int passes = 2) const;

  // ---- Batched multi-candidate simulation. All batch calls reuse this
  // Simulator's topology/path caches and, when `pool` is non-null, fan the
  // candidates across it. Each running task keeps one workspace (state
  // arenas and link timelines) for every candidate it claims. Results are
  // byte-identical to the equivalent serial loop regardless of pool size
  // (each candidate's simulation is deterministic, independent and starts
  // from a cleared workspace); outputs are written by candidate index.

  /// run() over every schedule. On error the first failing index's exception
  /// is rethrown (after all candidates finished), like a serial loop would.
  std::vector<SimResult> run_batch(std::span<const Schedule* const> schedules,
                                   util::ThreadPool* pool = nullptr) const;

  /// time_collective() over every schedule against one collective.
  /// Per-candidate failures are captured in BatchTiming::error instead of
  /// thrown, so one malformed candidate cannot mask the others' timings.
  std::vector<BatchTiming> time_collectives(std::span<const Schedule* const> schedules,
                                            const coll::Collective& coll,
                                            util::ThreadPool* pool = nullptr) const;

  /// tune_issue_order() over every schedule (mutating each in place).
  /// Failures are captured per candidate like time_collectives().
  std::vector<BatchTiming> tune_issue_orders(std::span<Schedule* const> schedules,
                                             const coll::Collective& coll, int passes = 2,
                                             util::ThreadPool* pool = nullptr) const;

  const topo::TopologyGroups& groups() const { return groups_; }
  const SimOptions& options() const { return opts_; }

  /// Resolved physical-path cache, shared by every engine run. Internal to
  /// src/sim (definition in simulator.cpp); exposed only as an opaque type.
  struct PathCache;

 private:
  const topo::TopologyGroups& groups_;
  SimOptions opts_;
  /// shared_ptr keeps Simulator cheaply copyable; the cache is immutable.
  std::shared_ptr<const PathCache> paths_;
};

}  // namespace syccl::sim

// Multi-commodity flow lower bound on collective finish time.
//
// The near-optimal yardstick EXPERIMENTS.md measures synthesized schedules
// against (the role TECCL's LP bound plays in the paper's evaluation):
// relax the whole collective over the whole physical topology to a static
// flow problem and ask how fast the demanded bytes can cross the links,
// ignoring scheduling order entirely. Every feasible schedule — synthesized,
// crafted, or baseline — finishes no earlier than this bound.
//
// Formulation. One commodity per demand unit with fractional per-link flow
// f ∈ [0,1] (a multicast send crosses a link once however many leaves it
// serves): forward collectives get one commodity per chunk (source →
// demanding ranks); reduce collectives are handled by time reversal — an
// aggregation in-tree toward destination d is a broadcast from d in the
// transposed graph, so ReduceScatter/Reduce commodities root at the
// destination and flow over reversed links while charging the real ones.
// AllReduce carries the ReduceScatter and AllGather commodity sets in one
// LP with shared link rows (valid for RS+AG-structured schedules, which is
// how the synthesizer and the baselines build AllReduce). Rows: indegree
// ≥ 1 per (commodity, leaf), relay gating (a non-root node forwards at most
// what it receives), and per-link serialization z ≥ Σ_k bytes_k·β_ℓ·f_{k,ℓ};
// minimize z. The LP bound is maxed with two combinatorial floors that also
// serve as the fallback when the LP would exceed `max_lp_cols` columns:
// per-GPU injection/delivery load over the harmonic capacity of its attached
// links plus their least α, and the least Σα path latency of the farthest
// (commodity, leaf) pair (β·bytes is no per-hop floor: messages stream
// through a path cut-through and chunks may be split across paths).
#pragma once

#include "coll/collective.h"
#include "topo/topology.h"

namespace syccl::baselines {

struct FlowBoundOptions {
  /// Columns (commodities × links) above which the LP is skipped and only
  /// the combinatorial floors are reported. Keeps the dense simplex in its
  /// practical size range.
  int max_lp_cols = 2600;
  /// Pivot budget for the LP solve; on exhaustion the combinatorial floors
  /// still stand.
  long max_lp_iters = 200000;
};

struct FlowBoundResult {
  /// Lower bound on any schedule's finish time, seconds.
  double seconds = 0.0;
  /// The flow LP was built and solved to optimality (false: combinatorial
  /// floors only — too large, or the pivot budget ran out).
  bool used_lp = false;
  long lp_iterations = 0;
  int commodities = 0;
  /// LP columns (commodity-link flow variables), 0 when the LP was skipped.
  int lp_cols = 0;
  /// The two combinatorial floors, for gap reporting: port-load bound and
  /// shortest-path latency (Σα) bound.
  double load_bound = 0.0;
  double path_bound = 0.0;
};

/// Computes the flow lower bound for `coll` on `topo`. Supports every
/// CollKind; throws std::invalid_argument if the topology has no GPUs or the
/// collective's rank count exceeds it.
FlowBoundResult flow_lower_bound(const coll::Collective& coll, const topo::Topology& topo,
                                 const FlowBoundOptions& options = {});

}  // namespace syccl::baselines

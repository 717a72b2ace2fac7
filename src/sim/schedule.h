// Schedule representation shared by the synthesizer, the baselines, the
// simulator and the XML runtime.
//
// A schedule moves *pieces*. A piece is an independently routable unit of
// data: a whole chunk, or a fraction of one when a sketch combination splits
// chunks across paths (§4.2). Gather/reduce flows use reduce pieces, where
// every contributor rank starts with a partial value and transfers merge
// partials toward the demanding ranks.
//
// Ops are executed per *port* in the order given (like MSCCL channel
// programs); ops on different ports proceed concurrently. `phase` introduces
// a global barrier between sequentially composed schedules (AllReduce =
// ReduceScatter then AllGather, §4.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "coll/collective.h"

namespace syccl::sim {

struct Piece {
  /// Chunk index in the originating collective; -1 for synthetic pieces.
  int chunk = -1;
  double bytes = 0.0;
  /// Rank initially holding the piece; -1 for reduce pieces (every
  /// contributor holds its own partial).
  int origin = -1;
  bool reduce = false;
  /// Ranks whose partials must be merged (reduce pieces only), ascending:
  /// the simulator binary-searches them.
  std::vector<int> contributors;
};

struct TransferOp {
  int piece = -1;
  int src = -1;
  int dst = -1;
  /// Dimension whose group carries the transfer; -1 lets the simulator pick
  /// the fastest dimension containing both endpoints.
  int dim = -1;
  /// Barrier phase (see header comment).
  int phase = 0;
};

struct Schedule {
  std::string name;
  std::vector<Piece> pieces;
  /// Ops in issue order. Per-port execution follows this order.
  std::vector<TransferOp> ops;

  int add_piece(Piece piece);
  void add_op(int piece, int src, int dst, int dim = -1, int phase = 0);

  /// Appends `tail` after this schedule with a phase barrier between them.
  /// Piece ids of `tail` are re-based.
  void append_sequential(const Schedule& tail);

  /// Total bytes crossing links (Σ op piece bytes) — the traffic volume.
  double total_traffic() const;
};

/// Builds the piece set for a collective: one piece per chunk (forward
/// collectives) or one reduce piece per destination block (Reduce/
/// ReduceScatter). Chunk→piece mapping is positional.
std::vector<Piece> pieces_for(const coll::Collective& coll);

/// The reduce demands of a collective, derived from its chunks (no schedule
/// needed): ascending (destination, sorted deduplicated contributor ranks —
/// the chunk sources plus the destination's own partial). Also the piece
/// layout for Reduce/ReduceScatter (block index == destination rank).
std::vector<std::pair<int, std::vector<int>>> reduce_demands(const coll::Collective& coll);

/// Demand-side index of a (schedule, collective) pair, shared by every
/// consumer that checks demand coverage: the simulator's timing check, the
/// runtime validator and the payload executor.
struct DemandIndex {
  /// The pieces carrying each demanded chunk id (a chunk, or for reduce
  /// collectives a destination rank), in ascending piece order:
  /// pieces[first[id] .. first[id + 1]). Pieces with any other chunk id are
  /// left out.
  std::vector<std::size_t> first;
  std::vector<int> pieces;
  /// Reduce collectives only: reduce_demands(coll). Empty for forward
  /// collectives.
  std::vector<std::pair<int, std::vector<int>>> reduce_demands;

  /// The pieces carrying demanded chunk id `id`; empty when none does.
  std::span<const int> pieces_of(int id) const {
    return {pieces.data() + first[static_cast<std::size_t>(id)],
            pieces.data() + first[static_cast<std::size_t>(id) + 1]};
  }
};

/// Builds the index. Demanded chunk ids are 0 .. num_chunks - 1 for forward
/// collectives and 0 .. num_ranks - 1 for reduce collectives.
DemandIndex build_demand_index(const Schedule& schedule, const coll::Collective& coll);

/// The issue-order rule shared by the merge's estimated-start reorder and
/// issue-order tuning: `ops` stably ordered by (phase, start[i]), so ties
/// keep their current order. `start` is parallel to `ops`.
std::vector<TransferOp> ordered_by_start(std::span<const TransferOp> ops,
                                         std::span<const double> start);

}  // namespace syccl::sim

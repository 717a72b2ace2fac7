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

#include <cstdint>
#include <string>
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

}  // namespace syccl::sim

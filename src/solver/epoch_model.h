// Epoch-based sub-demand scheduling model (paper §5.1 and Appendix A).
//
// A *sub-demand* is a set of equally sized pieces to move inside one GPU
// group (the star abstraction of src/topo/groups.h): each piece starts at a
// local source and is demanded by a set of local destinations. Time is
// discretised into epochs of duration τ; each transmission occupies an
// integer number of epochs (bandwidth constraint) and arrives after
// ⌈(α+βs)/τ⌉ epochs (latency constraint).
//
// The greedy list scheduler (solver/greedy.h) solves sub-demands on this
// model.
#pragma once

#include <vector>

#include "topo/groups.h"

namespace syccl::solver {

/// One piece of a sub-demand, in group-local member indices. A piece may
/// start on several members (merged sub-demands whose sources all hold it).
struct DemandPiece {
  int id = -1;
  std::vector<int> srcs;
  std::vector<int> dsts;
};

/// A sub-demand keyed for isomorphism-class deduplication (§5.3): `key`
/// holds the group's positional signature, the piece size and the pieces'
/// (sources : destinations) encodings in sorted order, so it is invariant
/// under any relabelling of piece ids. Demands with equal keys are identical
/// once their pieces are put in canonical order — members keep their local
/// order (topo/groups.h) — so a schedule stored with canonical piece ids
/// transfers to any demand with the same key through `from_canonical()`.
/// This is what lets the rotated groups of one dimension share a class.
struct CanonicalDemand {
  std::string key;
  std::vector<int> piece_perm;  ///< piece id -> canonical piece id
  bool identity = false;        ///< piece_perm is the identity

  /// Piece maps for remap_sub_schedule; empty (the identity) when
  /// `identity` holds.
  std::vector<int> to_canonical() const;    ///< local -> canonical piece ids
  std::vector<int> from_canonical() const;  ///< canonical -> local piece ids
};

/// A merged sub-demand inside one group at one sketch stage (§5.1).
struct SubDemand {
  const topo::GroupTopology* group = nullptr;  ///< non-owning
  std::vector<DemandPiece> pieces;
  double piece_bytes = 0.0;

  /// The demand's class key and canonical piece order. Requires piece ids to
  /// be a permutation of [0, pieces.size()) — build_demand_plan guarantees
  /// id == index — and every piece member inside the group; throws
  /// std::invalid_argument otherwise.
  CanonicalDemand canonical() const;

  /// Throws std::invalid_argument on malformed demands (bad locals, empty).
  void validate() const;
};

/// Epoch discretisation derived from the E knob (Appendix A.3).
struct EpochParams {
  double tau = 0.0;     ///< epoch duration, seconds
  double r = 1.0;       ///< τ = r·β·s with r or 1/r integer
  int lat_epochs = 1;   ///< L = ⌈(α+βs)/τ⌉ epochs until the piece is usable
  int capacity = 1;     ///< C = sends a port can start per epoch (r ≥ 1)
  int occupancy = 1;    ///< O = epochs one send occupies a port (r < 1)
};

/// One scheduled transmission, in group-local indices.
struct SubOp {
  int piece = -1;
  int src = -1;
  int dst = -1;
  int start_epoch = 0;
};

/// The solved sub-schedule for a sub-demand.
struct SubSchedule {
  std::vector<SubOp> ops;   ///< sorted by start_epoch
  EpochParams params;
  int num_epochs = 0;       ///< completion epoch of the demand
  /// Model-estimated completion time = num_epochs · τ. The global simulator
  /// (§5.2) recomputes real timing after merging.
  double est_time() const { return num_epochs * params.tau; }
};

/// Verifies that `sched` satisfies `demand` under the epoch model: every
/// destination receives every demanded piece, sources hold pieces before
/// sending (L-epoch latency respected), port capacities never exceeded.
/// Throws std::logic_error with a description on violation.
void check_sub_schedule(const SubDemand& demand, const SubSchedule& sched);

/// Relabels op piece ids through `piece` (source piece id -> target piece
/// id), carrying a schedule between demands with equal canonical keys. An
/// empty map is the identity and returns `sched` unchanged. Throws
/// std::invalid_argument on an op piece id outside a non-empty map.
SubSchedule remap_sub_schedule(const SubSchedule& sched, const std::vector<int>& piece);

}  // namespace syccl::solver

// Automatic dimension/group extraction (paper §3.1, Table 2).
//
// SyCCL organises GPUs into *dimensions* — one per type of inter-GPU
// connection — and within each dimension into *groups* of directly connected
// GPUs. We recover this structure from the raw graph:
//
//   1. Every switch gets a *tier* = its minimum hop distance from any GPU
//      (NVSwitch = 1, rail/ToR leaf = 2, spine = 3, core = 4, ...).
//   2. A switch's *span* is the set of GPUs that reach it by a monotonically
//      up-going path (strictly increasing distance-from-GPU).
//   3. Switches at the same tier with identical spans collapse into one
//      group (e.g. eight spine switches above the same leaves are one
//      logical group with 8× fabric capacity).
//   4. Tiers, sorted ascending, become dimensions 0, 1, 2, ...
//
// For each group we also precompute the *star abstraction* used by the
// sub-demand solver and the simulator: every member GPU has an uplink and a
// downlink to the group's (virtual, non-blocking) switch, each with an
// aggregate α/β and a *port id* identifying the physical serialisation
// resource (GPUs sharing a NIC share a port — the A100 testbed has 2 GPUs
// per 200G NIC).
//
// Each group's *signature* names its isomorphism class for sub-demand
// deduplication (§5.3) and sketch pruning. It lists the members in local
// order: the builders label symmetric groups alike, so that is where the
// symmetry the synthesizer exploits comes from. Groups that are isomorphic
// only under a member reordering key apart, which costs a solve, never a
// wrong schedule.
#pragma once

#include <string>
#include <vector>

#include "topo/topology.h"

namespace syccl::topo {

/// One direction of a GPU's attachment to a group's virtual switch.
struct GroupPort {
  double alpha = 0.0;  ///< summed latency of the physical path, seconds
  double beta = 0.0;   ///< bottleneck reciprocal bandwidth, s/byte
  /// Identifier of the physical serialisation resource (bottleneck link id).
  /// Transfers sharing a port id in the same direction serialise.
  int port_id = -1;
};

/// One physical link on a path, used by the simulator for per-link
/// contention (fabric uplinks are shared by many GPUs).
struct PathHop {
  int link_id = -1;
  double alpha = 0.0;
  double beta = 0.0;
};

/// The star abstraction of one (dimension, group): member GPUs around a
/// non-blocking virtual switch.
struct GroupTopology {
  int dim = -1;
  int group_index = -1;
  std::vector<int> ranks;       ///< global GPU ranks, ascending
  std::vector<GroupPort> up;    ///< indexed like `ranks`
  std::vector<GroupPort> down;  ///< indexed like `ranks`
  /// Full physical paths member → switch and switch → member (for the
  /// simulator's per-link contention model).
  std::vector<std::vector<PathHop>> up_hops;
  std::vector<std::vector<PathHop>> down_hops;

  int size() const { return static_cast<int>(ranks.size()); }

  /// Local index of a global rank, or -1.
  int local_of(int rank) const;

  /// Effective α for a transfer between local members i → j.
  double pair_alpha(int i, int j) const { return up[static_cast<std::size_t>(i)].alpha + down[static_cast<std::size_t>(j)].alpha; }
  /// Effective bottleneck β for a transfer between local members i → j.
  double pair_beta(int i, int j) const;

  /// Positional structural signature: the member count, then per member in
  /// local (ascending-rank) order its quantised up/down port α/β and its
  /// up/down port-sharing block ids, renumbered by first appearance.
  ///
  /// Equal signatures ⇒ local member i of one group maps onto local member i
  /// of the other preserving everything the sub-demand solver and checker
  /// consume (per-member α/β and which members serialise on a shared port),
  /// so a schedule solved on one group is valid on the other unchanged.
  /// Groups isomorphic only under a member reordering (one slow link at two
  /// positions) sign apart and merely miss a dedup; the builders label
  /// symmetric groups alike, so healthy fabrics lose none. A per-member
  /// multiset encoding would be position-blind instead: groups with rank 0's
  /// and rank 3's link degraded would share a signature, and cached
  /// sub-schedules would put the slow link in the wrong place.
  std::string signature() const;

  /// Caches signature() (extract_groups freezes every group, so hot paths
  /// never recompute; hand-built groups that skip freezing pay the
  /// recomputation).
  void freeze_signature();

  /// Cached signature (empty = not yet computed). Treat as private; use
  /// signature().
  std::string signature_;
};

/// One dimension: a tier of isomorphic (or categorised) groups.
struct DimensionInfo {
  int tier = 0;                       ///< hop distance of the backing switches
  std::string link_kind;              ///< kind of the bottleneck links
  std::vector<GroupTopology> groups;
  /// Aggregate capacity share of this dimension (distinct up-port count at
  /// the dimension's modal port bandwidth — robust to a minority of degraded
  /// links), normalised across dimensions by extract_groups: used as u_d in
  /// §4.2.
  double bandwidth_share = 0.0;
  /// The dimension whose physical ports this one consumes. A spine tier
  /// whose bottleneck is the rail NICs has capacity_dim = the rail
  /// dimension; dimensions with their own ports point at themselves. The
  /// §4.2 chunk allocator aggregates workloads by capacity_dim.
  int capacity_dim = -1;
};

/// The full dimension/group decomposition of a topology.
struct TopologyGroups {
  std::vector<DimensionInfo> dims;
  /// group_of[d][rank] = group index of `rank` in dimension d, or -1 if the
  /// rank is not covered by dimension d.
  std::vector<std::vector<int>> group_of;

  int num_dims() const { return static_cast<int>(dims.size()); }

  /// Smallest (fastest) dimension whose group contains both ranks, or -1.
  int best_common_dim(int rank_a, int rank_b) const;

  const GroupTopology& group(int dim, int g) const {
    return dims.at(static_cast<std::size_t>(dim)).groups.at(static_cast<std::size_t>(g));
  }
};

/// Extracts dimensions and groups from a topology. Throws if the topology has
/// no GPUs or a GPU is unreachable from the switch fabric.
TopologyGroups extract_groups(const Topology& topo);

}  // namespace syccl::topo

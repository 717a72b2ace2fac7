// Topology mutation: link degradation, link failure, NIC failure.
//
// Production fabrics are not static — links degrade (flapping optics, ECN
// storms), NICs die, cables get pulled. These helpers derive a *new*
// Topology from an existing one plus a fault.
//
// Topology stores links in an append-only vector (link id == index), so
// removals rebuild the graph: node ids are preserved verbatim and surviving
// links are renumbered densely, in their original order.
#pragma once

#include <string>
#include <vector>

#include "topo/topology.h"

namespace syccl::topo {

/// Scales α and β of the directed link `src -> dst` (scale > 1 = slower).
/// Throws std::invalid_argument if the link does not exist or a scale is
/// not positive.
Topology degrade_link(const Topology& topo, NodeId src, NodeId dst, double alpha_scale,
                      double beta_scale);

/// Degrades both directions of the duplex pair between `a` and `b`.
Topology degrade_duplex(const Topology& topo, NodeId a, NodeId b, double alpha_scale,
                        double beta_scale);

/// Removes the duplex link pair between `a` and `b` (group extraction
/// requires duplex paths, so failing one direction fails both). Throws
/// std::invalid_argument if no such link exists and std::runtime_error if
/// the removal disconnects a GPU or strands a switch (see
/// check_reachability).
Topology fail_link(const Topology& topo, NodeId a, NodeId b);

/// Removes every link touching `nic` (a NodeKind::Nic node), modelling a
/// dead NIC: the attached GPUs keep their other planes (e.g. NVLink) but
/// lose this uplink. The NIC node itself remains, isolated. Throws
/// std::invalid_argument if `nic` is not a NIC and std::runtime_error if the
/// failure disconnects a GPU or strands a switch.
Topology fail_nic(const Topology& topo, NodeId nic);

/// Verifies the preconditions group extraction needs: every GPU and every
/// switch mutually reachable over the (undirected) link graph. Throws
/// std::runtime_error naming the first unreachable node. NIC nodes may be
/// isolated (a failed NIC is exactly that).
void check_reachability(const Topology& topo);

/// Node id by exact name. Throws std::invalid_argument if absent. The
/// builders name nodes deterministically ("gpu0.3", "nvswitch0", "leaf2",
/// "nic1.0", ...), so scenario specs and CLI flags address nodes by name.
NodeId node_by_name(const Topology& topo, const std::string& name);

/// Rebuilds `topo` with its GPU *ranks* relabelled: the GPU that was rank r
/// becomes rank `perm[r]` in the result. Non-GPU nodes, link parameters and
/// the physical shape are untouched — the result is exactly isomorphic to
/// the input, which makes this the reference generator for "a different
/// consumer labelled the same cluster differently" in the serve tests and
/// bench. Throws std::invalid_argument if `perm` is not a permutation of
/// 0..num_gpus-1.
Topology permute_gpu_ranks(const Topology& topo, const std::vector<int>& perm);

}  // namespace syccl::topo

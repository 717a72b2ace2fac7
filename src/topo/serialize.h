// Plain-text topology serialisation.
//
// Real deployments describe clusters in files produced by inventory tooling,
// with each link's α/β as measured on that fabric. The format is
// line-oriented and diff-friendly:
//
//   # comment
//   node <kind:gpu|nic|switch> <server> <local_index> <name>
//   link <src_name> <dst_name> <alpha_seconds> <bandwidth_Bps> <kind>
//   duplex <a_name> <b_name> <alpha_seconds> <bandwidth_Bps> <kind>
//
// Node ids are assigned in file order; links reference nodes by name.
#pragma once

#include <string>

#include "topo/topology.h"

namespace syccl::topo {

/// Serialises a topology to the text format above.
std::string to_text(const Topology& topo);

/// Parses the text format. Throws std::invalid_argument with a line number
/// on malformed input (unknown node names, bad kinds, non-positive
/// bandwidth).
Topology from_text(const std::string& text);

}  // namespace syccl::topo

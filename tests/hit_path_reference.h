// Test-only references for the library-hit path: the std::map/ostringstream
// versions of group extraction, topology canonicalisation, chunk-aware
// relabelling, schedule validation and topology text parsing, kept verbatim
// so the flat production versions (topo/groups.cpp, serve/canonical.cpp,
// runtime/validate.cpp, topo/serialize.cpp) can be pinned byte for byte and
// message for message against them (tests/hit_path_equivalence_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "coll/collective.h"
#include "runtime/validate.h"
#include "serve/canonical.h"
#include "sim/schedule.h"
#include "topo/groups.h"
#include "topo/topology.h"

namespace syccl::topo::reference {

/// The original extract_groups: one up-path BFS per (switch, rank) to find
/// each switch's span. Its groups are not frozen, so their signature() is
/// computed on demand.
TopologyGroups extract_groups(const Topology& topo);

/// The original istringstream-per-line parser.
Topology from_text(const std::string& text);

}  // namespace syccl::topo::reference

namespace syccl::serve::reference {

/// The original individualise-and-refine canonicaliser: ostringstream rank
/// strings, std::map colour compression.
CanonicalTopology canonicalize(const topo::TopologyGroups& groups);

/// The original chunk-aware relabelling: string chunk keys in a std::map.
void apply_rank_map(sim::Schedule& schedule, const std::vector<int>& map,
                    const coll::Collective& from, const coll::Collective& to);

}  // namespace syccl::serve::reference

namespace syccl::runtime::reference {

/// The original validator: availability in a std::set of (piece, rank),
/// reduce contributors in a std::map of std::sets.
ValidationReport validate_schedule(const sim::Schedule& schedule, const coll::Collective& coll,
                                   const topo::TopologyGroups& groups);

}  // namespace syccl::runtime::reference

#include "core/resynthesize.h"

#include <set>
#include <sstream>

#include "topo/groups.h"
#include "util/stopwatch.h"

namespace syccl::core {

namespace {

/// Identity key of one group: tier, member ranks, canonical signature.
/// Two groups with equal keys present exactly the same star abstraction on
/// exactly the same GPUs, so their sub-demands (and cached sub-schedules)
/// are interchangeable.
std::string group_key(int tier, const topo::GroupTopology& g) {
  std::ostringstream os;
  os << tier << "|";
  for (int r : g.ranks) os << r << ",";
  os << "|" << g.signature();
  return os.str();
}

}  // namespace

ResynthesisReport resynthesize(const topo::Topology& base, const topo::MutationResult& mutation,
                               const coll::Collective& coll, const SynthesisConfig& config,
                               const SynthesisResult* previous) {
  ResynthesisReport report;
  if (mutation.delta.empty() && previous != nullptr) {
    report.result = *previous;
    report.reused_previous = true;
    const topo::TopologyGroups groups = topo::extract_groups(base);
    for (const auto& dim : groups.dims) {
      report.total_groups += static_cast<int>(dim.groups.size());
    }
    return report;
  }

  util::Stopwatch clock;
  Synthesizer synth(mutation.topo, config);

  // Diff the group decompositions: a group of the mutated topology is
  // affected iff no base group matches its (tier, ranks, signature). Keyed
  // by content rather than (dim, index) so the count stays meaningful when a
  // failure removes or reshapes whole dimensions.
  std::multiset<std::string> base_keys;
  const topo::TopologyGroups base_groups = topo::extract_groups(base);
  for (const auto& dim : base_groups.dims) {
    for (const auto& g : dim.groups) base_keys.insert(group_key(dim.tier, g));
  }
  for (const auto& dim : synth.groups().dims) {
    for (const auto& g : dim.groups) {
      ++report.total_groups;
      const auto it = base_keys.find(group_key(dim.tier, g));
      if (it == base_keys.end()) {
        ++report.affected_groups;
      } else {
        base_keys.erase(it);
      }
    }
  }

  report.result = synth.synthesize(coll);
  report.elapsed_s = clock.elapsed_seconds();
  report.classes_reused = report.result.breakdown.cache_hits;
  report.classes_resolved = report.result.breakdown.cache_misses;
  return report;
}

}  // namespace syccl::core

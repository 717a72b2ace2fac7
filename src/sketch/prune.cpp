#include "sketch/prune.h"

#include <map>
#include <set>
#include <string>

namespace syccl::sketch {

std::vector<Sketch> dedup_isomorphic(std::vector<Sketch> sketches,
                                     const topo::TopologyGroups& groups) {
  std::set<std::string> seen;
  std::vector<Sketch> out;
  for (auto& s : sketches) {
    if (seen.insert(s.canonical_key(groups)).second) out.push_back(std::move(s));
  }
  return out;
}

bool stage_is_consistent(const Stage& stage, const topo::TopologyGroups& groups,
                         bool is_final_stage) {
  if (is_final_stage) return true;
  // Group the stage's demands by (dim, isomorphism class) and compare ratios.
  // Groups with equal signatures are isomorphic (member i onto member i), so
  // the signature names the class.
  std::map<std::pair<int, std::string>, std::set<long long>> ratios;
  for (const SubDemandSpec& r : stage.demands) {
    if (r.srcs.empty()) return false;
    // Fixed-point ratio to avoid float-equality issues.
    const long long ratio =
        static_cast<long long>(1000.0 * static_cast<double>(r.dsts.size()) /
                               static_cast<double>(r.srcs.size()));
    ratios[{r.dim, groups.group(r.dim, r.group).signature()}].insert(ratio);
  }
  for (const auto& [key, set] : ratios) {
    (void)key;
    if (set.size() > 1) return false;
  }
  return true;
}

int max_relay_hops(const Sketch& sketch) {
  int longest = 0;
  for (std::size_t v = 0; v < sketch.parent.size(); ++v) {
    int hops = 0;
    int cur = sketch.parent[v];
    while (cur >= 0) {
      ++hops;
      cur = sketch.parent[static_cast<std::size_t>(cur)];
    }
    longest = std::max(longest, hops);
  }
  return longest;
}

}  // namespace syccl::sketch

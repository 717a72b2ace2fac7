#include "sketch/alltoall.h"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>

#include "obs/trace.h"
#include "sketch/replicate.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace syccl::sketch {

std::vector<Sketch> select_prototypes(std::vector<Sketch> sketches,
                                      const topo::TopologyGroups& groups, int max_count) {
  // Rank by β-weighted traffic: the workload each dimension carries times
  // its (relative) per-byte cost — a cheap proxy for bandwidth efficiency.
  // Ties favour fewer stages (lower latency).
  std::vector<double> dim_beta;
  double beta_min = 1e300;
  for (const auto& d : groups.dims) {
    const double b = d.groups.front().up.front().beta;
    dim_beta.push_back(b);
    beta_min = std::min(beta_min, b);
  }
  auto score = [&](const Sketch& s) {
    double total = 0.0;
    const auto w = s.dim_workload(groups);
    for (std::size_t d = 0; d < w.size(); ++d) total += w[d] * dim_beta[d] / beta_min;
    return total;
  };
  std::stable_sort(sketches.begin(), sketches.end(), [&](const Sketch& a, const Sketch& b) {
    const double sa = score(a);
    const double sb = score(b);
    if (sa != sb) return sa < sb;
    return a.num_stages() < b.num_stages();
  });
  std::set<std::string> profiles;
  std::vector<Sketch> out;
  for (auto& s : sketches) {
    std::string profile;
    for (double w : s.dim_workload(groups)) {
      profile += std::to_string(static_cast<long long>(w * 1000)) + ",";
    }
    if (!profiles.insert(profile).second) continue;
    out.push_back(std::move(s));
    if (static_cast<int>(out.size()) >= max_count) break;
  }
  return out;
}

std::vector<SketchCombination> combine_prototypes(const std::vector<Sketch>& prototypes,
                                                  const std::vector<Sketch>& sketches,
                                                  const topo::TopologyGroups& groups,
                                                  bool all_roots, const CombineConfig& config,
                                                  util::ThreadPool* pool) {
  auto try_family = [&](const Sketch& proto) -> std::optional<SketchCombination> {
    SYCCL_TRACE_SPAN(span, "replicate_family", "core");
    try {
      SketchCombination combo = balance_across_groups(proto, groups);
      if (all_roots) combo = replicate_for_all_roots(combo, groups);
      return combo;
    } catch (const std::runtime_error& e) {
      // Some sketch families cannot be replicated consistently onto every
      // root (their mapping corners itself); drop the family.
      SYCCL_DEBUG << "dropping sketch family: " << e.what();
      return std::nullopt;
    }
  };
  // Families are independent: replicate them on the pool, each result
  // written by prototype index so the order below matches a serial pass.
  std::vector<std::optional<SketchCombination>> family(prototypes.size());
  const auto run = [&](std::size_t i) { family[i] = try_family(prototypes[i]); };
  if (pool != nullptr) {
    pool->parallel_for(prototypes.size(), run);
  } else {
    for (std::size_t i = 0; i < prototypes.size(); ++i) run(i);
  }
  std::vector<SketchCombination> balanced;
  for (auto& combo : family) {
    if (combo.has_value()) balanced.push_back(std::move(*combo));
  }
  // Fallback for degraded/failed fabrics: every selected prototype can be
  // structurally impossible to root everywhere (e.g. the root's image
  // cannot cross any fabric dim), and select_prototypes' workload-profile
  // dedup may have discarded a replicable sketch in favour of such an
  // impossible one. Walk the raw search output until one family works.
  for (std::size_t si = 0; si < sketches.size() && balanced.empty(); ++si) {
    if (auto combo = try_family(sketches[si])) balanced.push_back(std::move(*combo));
  }
  if (balanced.empty()) throw std::runtime_error("no replicable sketch family found");
  std::vector<SketchCombination> combos = generate_combinations(balanced, groups, config);
  if (combos.empty()) throw std::runtime_error("no sketch combinations generated");
  return combos;
}

}  // namespace syccl::sketch

#include "sketch/combine.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "lp/simplex.h"
#include "util/log.h"

namespace syccl::sketch {

namespace {

/// Solves for t: Σ_i t_i·(W_{i,d} − u_d·W_{i,·}) minimal deviation, Σt = 1,
/// t ≥ 0. Returns (t, worst share error) or nullopt on LP failure.
std::optional<std::pair<std::vector<double>, double>> solve_allocation(
    const std::vector<std::vector<double>>& W, const std::vector<double>& u) {
  const int k = static_cast<int>(W.size());
  const int nd = static_cast<int>(u.size());

  lp::Problem p;
  std::vector<int> t_vars;
  for (int i = 0; i < k; ++i) t_vars.push_back(p.add_var(0.0, 1.0, 0.0));
  // Deviation variables per dimension: e_d ≥ |Σ_i t_i (W_id − u_d W_i·)|.
  std::vector<int> e_vars;
  for (int d = 0; d < nd; ++d) e_vars.push_back(p.add_var(0.0, lp::kInf, 1.0));

  lp::Constraint norm;
  for (int i = 0; i < k; ++i) norm.terms.push_back({t_vars[static_cast<std::size_t>(i)], 1.0});
  norm.rel = lp::Relation::Eq;
  norm.rhs = 1.0;
  p.add_constraint(norm);

  for (int d = 0; d < nd; ++d) {
    lp::Constraint up, down;
    for (int i = 0; i < k; ++i) {
      double wi_total = 0.0;
      for (double w : W[static_cast<std::size_t>(i)]) wi_total += w;
      const double coef = W[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] -
                          u[static_cast<std::size_t>(d)] * wi_total;
      up.terms.push_back({t_vars[static_cast<std::size_t>(i)], coef});
      down.terms.push_back({t_vars[static_cast<std::size_t>(i)], -coef});
    }
    up.terms.push_back({e_vars[static_cast<std::size_t>(d)], -1.0});
    down.terms.push_back({e_vars[static_cast<std::size_t>(d)], -1.0});
    up.rel = down.rel = lp::Relation::LessEq;
    up.rhs = down.rhs = 0.0;
    p.add_constraint(up);
    p.add_constraint(down);
  }

  const lp::Solution sol = lp::solve(p);
  if (sol.status != lp::Status::Optimal) return std::nullopt;

  std::vector<double> t(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) t[static_cast<std::size_t>(i)] = sol.x[static_cast<std::size_t>(i)];

  // Worst relative share error given the solution.
  double total = 0.0;
  std::vector<double> share(static_cast<std::size_t>(nd), 0.0);
  for (int i = 0; i < k; ++i) {
    for (int d = 0; d < nd; ++d) {
      share[static_cast<std::size_t>(d)] +=
          t[static_cast<std::size_t>(i)] * W[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
    }
  }
  for (double s : share) total += s;
  double worst = 0.0;
  if (total > 0) {
    for (int d = 0; d < nd; ++d) {
      worst = std::max(worst,
                       std::fabs(share[static_cast<std::size_t>(d)] / total -
                                 u[static_cast<std::size_t>(d)]));
    }
  }
  return std::make_pair(std::move(t), worst);
}

/// Allocates chunk fractions across the combinations `candidates` points at
/// (per-dimension workloads in the parallel array `raw_workload`) to match
/// the dimension bandwidth shares. Returns the merged combination (each
/// member sketch's fraction scaled by its combination's t_i), or nullopt if
/// invalid.
std::optional<SketchCombination> allocate_across_dims(
    const std::vector<const SketchCombination*>& candidates,
    const std::vector<const std::vector<double>*>& raw_workload,
    const topo::TopologyGroups& groups, const CombineConfig& config) {
  if (candidates.empty()) return std::nullopt;

  // Aggregate workloads and shares by capacity dimension: tiers that ride
  // on another tier's physical ports (e.g. the spine over the rail NICs)
  // compete for the same capacity.
  const int nd = groups.num_dims();
  std::vector<std::vector<double>> W;
  for (const std::vector<double>* raw : raw_workload) {
    std::vector<double> agg(static_cast<std::size_t>(nd), 0.0);
    for (int d = 0; d < nd; ++d) {
      agg[static_cast<std::size_t>(groups.dims[static_cast<std::size_t>(d)].capacity_dim)] +=
          (*raw)[static_cast<std::size_t>(d)];
    }
    W.push_back(std::move(agg));
  }
  std::vector<double> u(static_cast<std::size_t>(nd), 0.0);
  for (int d = 0; d < nd; ++d) {
    u[static_cast<std::size_t>(groups.dims[static_cast<std::size_t>(d)].capacity_dim)] +=
        groups.dims[static_cast<std::size_t>(d)].bandwidth_share;
  }

  // Restrict the share targets to dimensions any candidate actually uses;
  // unused dimensions cannot be saturated by these sketches at all.
  double used_share = 0.0;
  std::vector<bool> used(u.size(), false);
  for (std::size_t d = 0; d < u.size(); ++d) {
    for (const auto& w : W) {
      if (w[d] > 1e-12) used[d] = true;
    }
    if (used[d]) used_share += u[d];
  }
  if (used_share <= 0) return std::nullopt;
  for (std::size_t d = 0; d < u.size(); ++d) u[d] = used[d] ? u[d] / used_share : 0.0;

  const auto alloc = solve_allocation(W, u);
  if (!alloc.has_value()) return std::nullopt;
  const auto& [t, err] = *alloc;
  if (err > config.max_share_error) return std::nullopt;

  SketchCombination out;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (t[i] < config.min_fraction) continue;
    for (const auto& ws : candidates[i]->sketches) {
      out.sketches.push_back(WeightedSketch{ws.sketch, ws.fraction * t[i]});
    }
  }
  if (out.sketches.empty()) return std::nullopt;
  return out;
}

}  // namespace

std::vector<SketchCombination> generate_combinations(
    const std::vector<SketchCombination>& balanced, const topo::TopologyGroups& groups,
    const CombineConfig& config) {
  std::vector<SketchCombination> out;

  // Small-size candidates: each balanced combination on its own (§4.2: "for
  // small chunk sizes, a single sketch suffices").
  for (const auto& c : balanced) {
    out.push_back(c);
    if (static_cast<int>(out.size()) >= config.max_outputs) return out;
  }

  // Large-size candidates: integrate subsets (size 2..|D|) across dimensions.
  // Each family's workload is computed once; subsets refer to their members
  // in place.
  const int nd = groups.num_dims();
  const int n = std::min(static_cast<int>(balanced.size()), 16);
  std::vector<std::vector<double>> workload;
  workload.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workload.push_back(balanced[static_cast<std::size_t>(i)].dim_workload(groups));
  }
  for (int mask = 1; mask < (1 << n); ++mask) {
    const int bits = __builtin_popcount(static_cast<unsigned>(mask));
    if (bits < 2 || bits > nd) continue;
    std::vector<const SketchCombination*> subset;
    std::vector<const std::vector<double>*> subset_workload;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        subset.push_back(&balanced[static_cast<std::size_t>(i)]);
        subset_workload.push_back(&workload[static_cast<std::size_t>(i)]);
      }
    }
    auto merged = allocate_across_dims(subset, subset_workload, groups, config);
    if (merged.has_value()) {
      out.push_back(std::move(*merged));
      if (static_cast<int>(out.size()) >= config.max_outputs) break;
    }
  }
  return out;
}

}  // namespace syccl::sketch

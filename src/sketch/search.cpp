#include "sketch/search.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sketch/prune.h"
#include "util/log.h"

namespace syccl::sketch {

namespace {

struct SearchState {
  std::vector<bool> covered;      ///< rank has the data
  std::vector<unsigned> path;     ///< bitmask of dimensions on the root path
  std::vector<int> hops;          ///< root-path length
  std::vector<int> parent;        ///< relay tree
  std::vector<Stage> stages;
  std::vector<bool> fresh;        ///< became a holder in the latest stage
};

struct Searcher {
  const topo::TopologyGroups& groups;
  const SearchConfig& cfg;
  RootedPattern pattern;
  int root;
  int num_ranks;
  int max_hops;

  std::vector<Sketch> results;
  std::set<std::string> result_keys;
  std::set<std::string> visited;
  long nodes = 0;

  Searcher(const topo::TopologyGroups& g, const SearchConfig& c, RootedPattern p, int r)
      : groups(g), cfg(c), pattern(p), root(r) {
    num_ranks = static_cast<int>(g.group_of.front().size());
    max_hops = cfg.max_hops;
    if (max_hops < 0) {
      max_hops = pattern == RootedPattern::Scatter ? std::max(1, g.num_dims() - 1)
                                                   : g.num_dims();
    }
  }

  bool all_covered(const SearchState& s) const {
    for (bool c : s.covered) {
      if (!c) return false;
    }
    return true;
  }

  std::string state_key(const SearchState& s) const {
    std::ostringstream os;
    for (int r = 0; r < num_ranks; ++r) {
      os << (s.covered[static_cast<std::size_t>(r)] ? 1 + static_cast<int>(s.path[static_cast<std::size_t>(r)]) : 0)
         << ",";
    }
    os << "#" << s.stages.size();
    return os.str();
  }

  /// Destination-count options for dimension d at the current state.
  /// kAll fills each group completely; kUnits places one destination in each
  /// still-unreached server (dim-0 group) inside the group — the structurally
  /// minimal hierarchical fill (1 crossing per pod on a Clos, 1 per server on
  /// a rail); the geometric ladder covers the in-between splits. kUnits and
  /// c=1 come right after kAll so tight search budgets still reach the
  /// low-traffic sketches.
  static constexpr int kAll = -1;
  static constexpr int kUnits = -2;
  std::vector<int> count_options(const SearchState& s, int d) const {
    int max_remaining = 0;
    const auto& dim = groups.dims[static_cast<std::size_t>(d)];
    for (const auto& g : dim.groups) {
      int rem = 0;
      for (int r : g.ranks) {
        if (!s.covered[static_cast<std::size_t>(r)]) ++rem;
      }
      max_remaining = std::max(max_remaining, rem);
    }
    std::vector<int> out;
    if (max_remaining == 0) return out;
    out.push_back(kAll);
    if (d > 0) out.push_back(kUnits);
    if (max_remaining > 1) out.push_back(1);
    if (cfg.exhaustive_counts) {
      for (int c = max_remaining - 1; c >= 2; --c) out.push_back(c);
    } else {
      std::vector<int> ladder;
      for (int c = 2; c < max_remaining; c *= 2) ladder.push_back(c);
      out.insert(out.end(), ladder.rbegin(), ladder.rend());
    }
    return out;
  }

  /// Builds the sub-demands of one dimension under count option `c`.
  /// `claimed` marks ranks already taken as destinations in this stage.
  /// Returns false if no group of the dimension can act.
  bool build_dim(const SearchState& s, int d, int c, std::vector<bool>& claimed,
                 std::vector<SubDemandSpec>& out) const {
    const auto& dim = groups.dims[static_cast<std::size_t>(d)];
    bool any = false;
    for (std::size_t gi = 0; gi < dim.groups.size(); ++gi) {
      const auto& g = dim.groups[gi];
      SubDemandSpec spec;
      spec.dim = d;
      spec.group = static_cast<int>(gi);
      for (int r : g.ranks) {
        if (!s.covered[static_cast<std::size_t>(r)]) continue;
        if (s.path[static_cast<std::size_t>(r)] & (1u << d)) continue;  // dim already crossed
        if (s.hops[static_cast<std::size_t>(r)] >= max_hops) continue;
        spec.srcs.push_back(r);
      }
      if (spec.srcs.empty()) continue;
      // kUnits: one destination per dim-0 group (server) of this group that
      // has no holder yet — the minimal set of crossings that lets NVLink
      // finish the job.
      std::vector<bool> unit_blocked;
      if (c == kUnits) {
        unit_blocked.assign(groups.dims.front().groups.size(), false);
        for (int r : g.ranks) {
          if (s.covered[static_cast<std::size_t>(r)] || claimed[static_cast<std::size_t>(r)]) {
            unit_blocked[static_cast<std::size_t>(
                groups.group_of[0][static_cast<std::size_t>(r)])] = true;
          }
        }
      }
      const int want = (c == kAll || c == kUnits) ? num_ranks : c;
      // Candidate destinations, cheapest-common-dim == d first: a slow-tier
      // sub-demand should serve the ranks only that tier can reach, not
      // ranks a faster tier covers anyway. Sources and candidates share
      // group g, so a candidate needs d unless a faster dimension groups it
      // with some source: mark the sources' groups there once.
      std::vector<int> cands;
      for (int r : g.ranks) {
        if (s.covered[static_cast<std::size_t>(r)] || claimed[static_cast<std::size_t>(r)]) continue;
        cands.push_back(r);
      }
      std::vector<std::vector<bool>> src_group(static_cast<std::size_t>(d));
      for (int d2 = 0; d2 < d; ++d2) {
        const auto& gd = groups.group_of[static_cast<std::size_t>(d2)];
        auto& marks = src_group[static_cast<std::size_t>(d2)];
        marks.assign(groups.dims[static_cast<std::size_t>(d2)].groups.size(), false);
        for (int src : spec.srcs) {
          const int g2 = gd[static_cast<std::size_t>(src)];
          if (g2 >= 0) marks[static_cast<std::size_t>(g2)] = true;
        }
      }
      std::stable_partition(cands.begin(), cands.end(), [&](int r) {
        for (int d2 = 0; d2 < d; ++d2) {
          const int g2 = groups.group_of[static_cast<std::size_t>(d2)][static_cast<std::size_t>(r)];
          if (g2 >= 0 && src_group[static_cast<std::size_t>(d2)][static_cast<std::size_t>(g2)]) {
            return false;
          }
        }
        return true;
      });
      for (int r : cands) {
        if (static_cast<int>(spec.dsts.size()) >= want) break;
        if (c == kUnits) {
          const int u = groups.group_of[0][static_cast<std::size_t>(r)];
          if (unit_blocked[static_cast<std::size_t>(u)]) continue;
          unit_blocked[static_cast<std::size_t>(u)] = true;
        }
        spec.dsts.push_back(r);
      }
      if (spec.dsts.empty()) continue;
      for (int r : spec.dsts) claimed[static_cast<std::size_t>(r)] = true;
      any = true;
      out.push_back(std::move(spec));
    }
    return any;
  }

  void apply_stage(SearchState& s, const Stage& stage) const {
    std::fill(s.fresh.begin(), s.fresh.end(), false);
    for (const SubDemandSpec& r : stage.demands) {
      for (int v : r.dsts) s.fresh[static_cast<std::size_t>(v)] = true;
    }
    for (const SubDemandSpec& r : stage.demands) {
      for (std::size_t i = 0; i < r.dsts.size(); ++i) {
        const int v = r.dsts[i];
        const int p = r.srcs[i % r.srcs.size()];
        s.covered[static_cast<std::size_t>(v)] = true;
        s.path[static_cast<std::size_t>(v)] =
            s.path[static_cast<std::size_t>(p)] | (1u << r.dim);
        s.hops[static_cast<std::size_t>(v)] = s.hops[static_cast<std::size_t>(p)] + 1;
        s.parent[static_cast<std::size_t>(v)] = p;
      }
    }
    s.stages.push_back(stage);
  }

  void emit(const SearchState& s) {
    Sketch sk;
    sk.root = root;
    sk.pattern = pattern;
    sk.stages = s.stages;
    sk.parent = s.parent;
    const std::string key = sk.canonical_key(groups);
    if (cfg.prune_isomorphic && !result_keys.insert(key).second) return;
    sk.validate(groups);
    results.push_back(std::move(sk));
  }

  /// Pruning #2 gate shared by DFS and seeds: the stage must be consistent
  /// unless it completes the sketch.
  bool stage_passes_consistency(const SearchState& s, const Stage& stage) const {
    if (!cfg.prune_consistency) return true;
    int newly = 0;
    for (const auto& r : stage.demands) newly += static_cast<int>(r.dsts.size());
    int uncovered = 0;
    for (bool c : s.covered) {
      if (!c) ++uncovered;
    }
    return stage_is_consistent(stage, groups, newly == uncovered);
  }

  /// Builds the stage for (dims, counts) at state `s`, or nullopt if some
  /// chosen dimension cannot act or the stage is empty.
  std::optional<Stage> build_stage(const SearchState& s, const std::vector<int>& dims,
                                   const std::vector<int>& counts) const {
    Stage stage;
    std::vector<bool> claimed(static_cast<std::size_t>(num_ranks), false);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      std::vector<SubDemandSpec> specs;
      if (!build_dim(s, dims[i], counts[i], claimed, specs)) return std::nullopt;
      for (auto& sp : specs) stage.demands.push_back(std::move(sp));
    }
    if (stage.demands.empty()) return std::nullopt;
    return stage;
  }

  /// Constructive seeds: dimension-order hierarchical sketches (pure
  /// permutations, eager-root starts like the paper's sketch ①, and the
  /// "first send to one peer" shape of Appendix C). Guarantees the classic
  /// candidates exist regardless of DFS budget.
  void seed_canonical() {
    const int nd = groups.num_dims();
    std::vector<int> dims(static_cast<std::size_t>(nd));
    for (int d = 0; d < nd; ++d) dims[static_cast<std::size_t>(d)] = d;

    std::vector<std::vector<int>> perms;
    std::sort(dims.begin(), dims.end());
    // Permutations of every non-empty subset.
    for (int mask = 1; mask < (1 << nd); ++mask) {
      std::vector<int> subset;
      for (int d = 0; d < nd; ++d) {
        if (mask & (1 << d)) subset.push_back(d);
      }
      std::sort(subset.begin(), subset.end());
      do {
        perms.push_back(subset);
      } while (std::next_permutation(subset.begin(), subset.end()));
    }

    for (const auto& perm : perms) {
      for (int variant = 0; variant < 4; ++variant) {
        // Plans: (dim, count) per stage.
        std::vector<std::pair<int, int>> plans;
        if (variant == 2) plans.push_back({perm.front(), 1});
        for (int d : perm) {
          plans.push_back({d, variant == 3 && d != 0 ? kUnits : kAll});
        }
        if (variant == 3) {
          // Unit crossings leave the reached servers to fill locally; append
          // fill rounds in permutation order until everything is covered.
          for (int round = 0; round < 2; ++round) {
            for (int d : perm) plans.push_back({d, d == 0 ? kAll : kUnits});
          }
        }
        if (variant == 2) plans.push_back({perm.front(), kAll});

        SearchState s = initial_state();
        bool eager_done = false;
        for (std::size_t pi = 0; pi < plans.size(); ++pi) {
          std::vector<int> stage_dims{plans[pi].first};
          std::vector<int> stage_counts{plans[pi].second};
          if (variant == 1 && !eager_done && plans[pi].second == kAll) {
            // Eager-root: the first ALL stage fires every dimension of the
            // permutation at once (paper sketch ① shape).
            stage_dims.clear();
            stage_counts.clear();
            for (std::size_t pj = pi; pj < plans.size(); ++pj) {
              stage_dims.push_back(plans[pj].first);
              stage_counts.push_back(kAll);
            }
            eager_done = true;
          }
          // Drop dims that cannot act at this point.
          std::vector<int> usable_dims, usable_counts;
          for (std::size_t i = 0; i < stage_dims.size(); ++i) {
            if (!count_options(s, stage_dims[i]).empty()) {
              usable_dims.push_back(stage_dims[i]);
              usable_counts.push_back(stage_counts[i]);
            }
          }
          if (usable_dims.empty()) continue;
          const auto stage = build_stage(s, usable_dims, usable_counts);
          if (!stage.has_value()) continue;
          if (!stage_passes_consistency(s, *stage)) continue;
          apply_stage(s, *stage);
          if (all_covered(s)) break;
        }
        if (all_covered(s) && static_cast<int>(s.stages.size()) <= cfg.max_stages) {
          bool hops_ok = true;
          for (int h : s.hops) hops_ok = hops_ok && h <= max_hops;
          if (hops_ok) emit(s);
        }
      }
    }
  }

  SearchState initial_state() const {
    SearchState init;
    init.covered.assign(static_cast<std::size_t>(num_ranks), false);
    init.covered[static_cast<std::size_t>(root)] = true;
    init.path.assign(static_cast<std::size_t>(num_ranks), 0u);
    init.hops.assign(static_cast<std::size_t>(num_ranks), 0);
    init.parent.assign(static_cast<std::size_t>(num_ranks), -1);
    init.fresh.assign(static_cast<std::size_t>(num_ranks), false);
    return init;
  }

  void dfs(SearchState& s, int cap) {
    if (static_cast<int>(results.size()) >= cap) return;
    if (++nodes > cfg.node_budget) return;
    if (all_covered(s)) {
      emit(s);
      return;
    }
    if (static_cast<int>(s.stages.size()) >= cfg.max_stages) return;
    if (!visited.insert(state_key(s)).second) return;

    // Enumerate dimension subsets for this stage; within a subset, the count
    // ladder per dimension (cartesian product, built recursively).
    const int nd = groups.num_dims();
    std::vector<int> actionable;
    for (int d = 0; d < nd; ++d) {
      if (!count_options(s, d).empty()) actionable.push_back(d);
    }
    if (actionable.empty()) return;

    // Enumerate subsets largest-first: stages that drive several dimensions
    // at once (the paper's sketch ① shape) surface before narrow ones. The
    // result budget is split across subsets so late subsets still get
    // explored under tight caps.
    const int subsets = 1 << actionable.size();
    std::vector<int> masks;
    for (int mask = 1; mask < subsets; ++mask) masks.push_back(mask);
    std::stable_sort(masks.begin(), masks.end(), [](int a, int b) {
      return __builtin_popcount(static_cast<unsigned>(a)) >
             __builtin_popcount(static_cast<unsigned>(b));
    });
    for (std::size_t mi = 0; mi < masks.size(); ++mi) {
      const int have = static_cast<int>(results.size());
      if (have >= cap) return;
      const int share = (cap - have + static_cast<int>(masks.size() - mi) - 1) /
                        static_cast<int>(masks.size() - mi);
      const int child_cap = have + std::max(1, share);
      std::vector<int> dims;
      for (std::size_t i = 0; i < actionable.size(); ++i) {
        if (masks[mi] & (1 << i)) dims.push_back(actionable[i]);
      }
      enumerate_counts(s, dims, 0, {}, std::min(cap, child_cap));
    }
  }

  void enumerate_counts(SearchState& s, const std::vector<int>& dims, std::size_t idx,
                        std::vector<int> counts, int cap) {
    if (static_cast<int>(results.size()) >= cap) return;
    if (idx == dims.size()) {
      try_stage(s, dims, counts, cap);
      return;
    }
    for (int c : count_options(s, dims[idx])) {
      counts.push_back(c);
      enumerate_counts(s, dims, idx + 1, counts, cap);
      counts.pop_back();
    }
  }

  void try_stage(SearchState& s, const std::vector<int>& dims, const std::vector<int>& counts,
                 int cap) {
    const auto built = build_stage(s, dims, counts);
    if (!built.has_value()) return;
    const Stage& stage = *built;

    // Progress rule: after stage 0, at least one source must have become a
    // holder in the previous stage — otherwise the new sub-demands could
    // have been issued a stage earlier (dominated staging).
    if (!s.stages.empty()) {
      bool uses_fresh_src = false;
      for (const auto& r : stage.demands) {
        for (int src : r.srcs) {
          if (s.fresh[static_cast<std::size_t>(src)]) uses_fresh_src = true;
        }
      }
      if (!uses_fresh_src) return;
    }

    // Pruning #2.
    if (!stage_passes_consistency(s, stage)) return;

    SearchState next = s;
    apply_stage(next, stage);
    dfs(next, cap);
  }
};

}  // namespace

std::vector<Sketch> search_sketches(const topo::TopologyGroups& groups, int root,
                                    RootedPattern pattern, const SearchConfig& config) {
  if (groups.num_dims() == 0) throw std::invalid_argument("topology has no dimensions");
  if (groups.num_dims() > 16) throw std::invalid_argument("too many dimensions (>16)");
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  if (root < 0 || root >= num_ranks) throw std::invalid_argument("root out of range");

  Searcher searcher(groups, config, pattern, root);
  searcher.seed_canonical();
  SearchState init = searcher.initial_state();
  searcher.dfs(init, config.max_sketches);

  if (searcher.results.empty()) {
    // Relaxed retry: more stages and hops (disconnected-looking demands can
    // need more than |D| stages when groups overlap sparsely).
    SearchConfig relaxed = config;
    relaxed.max_stages = config.max_stages + 2;
    relaxed.max_hops = groups.num_dims() + 1;
    if (relaxed.max_stages != config.max_stages || relaxed.max_hops != config.max_hops) {
      Searcher retry(groups, relaxed, pattern, root);
      retry.seed_canonical();
      SearchState init2 = retry.initial_state();
      retry.dfs(init2, relaxed.max_sketches);
      if (!retry.results.empty()) return std::move(retry.results);
    }
    throw std::runtime_error("sketch search found no covering sketch");
  }
  SYCCL_DEBUG << "sketch search: " << searcher.results.size() << " sketches, "
              << searcher.nodes << " nodes";
  return std::move(searcher.results);
}

}  // namespace syccl::sketch

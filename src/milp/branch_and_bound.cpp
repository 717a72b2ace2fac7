#include "milp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <stdexcept>

#include "lp/simplex_solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace syccl::milp {

namespace {

/// Integrality tolerance, and the relative optimality gap at which search
/// stops.
constexpr double kIntTol = 1e-6;
constexpr double kGapTol = 1e-6;
/// Flow-bound refresh gates: branching depth, and a node-count stride.
constexpr int kFlowNodeDepth = 6;
constexpr long kFlowNodeEvery = 16;

/// Branching delta: absolute replacement bounds for one variable. A node's
/// bounds are the root bounds overwritten by the deltas on its ancestor
/// chain (deeper deltas are tighter, so root→leaf application is exact).
struct BoundDelta {
  int var = -1;
  double lo = 0.0;
  double hi = 0.0;
};

/// Pool-allocated search node. Instead of full lower/upper vectors and an
/// lp::Problem copy, a node carries only its branching delta, pseudocost
/// bookkeeping, and the parent's final basis (shared by both children) for
/// warm re-entry.
struct Node {
  int parent = -1;           ///< pool index of the parent (-1 for the root)
  BoundDelta delta;          ///< branching delta applied on top of the parent
  double bound = -lp::kInf;  ///< parent LP objective (lower bound)
  int branch_var = -1;       ///< variable `delta` branched on (-1 for root)
  bool up = false;           ///< true: lower raised to ceil; false: upper cut
  double frac = 0.0;         ///< fractional part at the parent optimum
  std::shared_ptr<const lp::Basis> warm;  ///< parent's basis snapshot
};

struct HeapEntry {
  double bound = -lp::kInf;
  int id = -1;
  /// Min-heap on bound; FIFO on ties for determinism.
  bool operator<(const HeapEntry& o) const {
    if (bound != o.bound) return bound > o.bound;
    return id > o.id;
  }
};

/// Per-variable branching history: observed objective degradation per unit
/// of fractional distance, one estimate per direction, seeded from the
/// objective coefficient magnitude.
struct PseudoCosts {
  std::vector<double> up_sum, dn_sum, init;
  std::vector<long> up_n, dn_n;

  explicit PseudoCosts(const lp::Problem& p) {
    const std::size_t n = static_cast<std::size_t>(p.num_vars);
    up_sum.assign(n, 0.0);
    dn_sum.assign(n, 0.0);
    up_n.assign(n, 0);
    dn_n.assign(n, 0);
    init.assign(n, 1e-6);
    for (std::size_t v = 0; v < n && v < p.objective.size(); ++v) {
      init[v] = std::fabs(p.objective[v]) + 1e-6;
    }
  }

  double up_est(int v) const {
    const std::size_t s = static_cast<std::size_t>(v);
    return up_n[s] > 0 ? up_sum[s] / static_cast<double>(up_n[s]) : init[s];
  }
  double dn_est(int v) const {
    const std::size_t s = static_cast<std::size_t>(v);
    return dn_n[s] > 0 ? dn_sum[s] / static_cast<double>(dn_n[s]) : init[s];
  }
  void observe(int v, bool up, double frac, double degradation) {
    const double dist = up ? 1.0 - frac : frac;
    if (dist < 1e-9) return;
    const std::size_t s = static_cast<std::size_t>(v);
    if (up) {
      up_sum[s] += degradation / dist;
      ++up_n[s];
    } else {
      dn_sum[s] += degradation / dist;
      ++dn_n[s];
    }
  }
};

/// Pseudocost product-rule selection over fractional integer variables; the
/// first maximizer (lowest index) wins, keeping the search deterministic.
/// Returns -1 when `x` is integral.
int select_pseudocost(const std::vector<double>& x, const std::vector<bool>& is_integer,
                      const PseudoCosts& pc) {
  constexpr double kMinScore = 1e-12;
  int best = -1;
  double best_score = -1.0;
  for (std::size_t v = 0; v < x.size(); ++v) {
    if (!is_integer[v]) continue;
    const double f = x[v] - std::floor(x[v]);
    if (std::min(f, 1.0 - f) <= kIntTol) continue;
    const double score = std::max(pc.dn_est(static_cast<int>(v)) * f, kMinScore) *
                         std::max(pc.up_est(static_cast<int>(v)) * (1.0 - f), kMinScore);
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(v);
    }
  }
  return best;
}

double objective_of(const lp::Problem& p, const std::vector<double>& x) {
  double obj = 0.0;
  for (int v = 0; v < p.num_vars; ++v) {
    obj += (static_cast<std::size_t>(v) < p.objective.size() ? p.objective[static_cast<std::size_t>(v)] : 0.0) *
           x[static_cast<std::size_t>(v)];
  }
  return obj;
}

std::vector<std::vector<int>> build_touching(const lp::Problem& p) {
  std::vector<std::vector<int>> touching(static_cast<std::size_t>(p.num_vars));
  for (std::size_t c = 0; c < p.constraints.size(); ++c) {
    for (const auto& [v, coef] : p.constraints[c].terms) {
      (void)coef;
      touching[static_cast<std::size_t>(v)].push_back(static_cast<int>(c));
    }
  }
  return touching;
}

/// One round of activity-based bound propagation over the rows containing
/// `v`: each row's residual activity implies a bound on every other variable
/// in it (exact for rows one variable dominates, conservative otherwise);
/// implied bounds on integer variables are rounded. Tightening never cuts
/// LP-feasible points (the bounds are implied), so the relaxation value is
/// unchanged; integer rounding only removes fractional strips. Returns
/// false when a domain empties — the node is infeasible without an LP call.
bool propagate_branch(const lp::Problem& p, const std::vector<bool>& is_integer,
                      const std::vector<std::vector<int>>& touching, int v,
                      std::vector<double>& lo, std::vector<double>& hi) {
  constexpr double kImprove = 1e-7;
  auto tighten_hi = [&](int w, double b) {
    const std::size_t s = static_cast<std::size_t>(w);
    if (is_integer[s]) b = std::floor(b + kIntTol);
    if (b < hi[s] - kImprove) hi[s] = b;
    return lo[s] <= hi[s] + 1e-9;
  };
  auto tighten_lo = [&](int w, double b) {
    const std::size_t s = static_cast<std::size_t>(w);
    if (is_integer[s]) b = std::ceil(b - kIntTol);
    if (b > lo[s] + kImprove) lo[s] = b;
    return lo[s] <= hi[s] + 1e-9;
  };

  for (const int ci : touching[static_cast<std::size_t>(v)]) {
    const lp::Constraint& c = p.constraints[static_cast<std::size_t>(ci)];
    double min_act = 0.0, max_act = 0.0;
    int min_inf = 0, max_inf = 0;
    for (const auto& [w, a] : c.terms) {
      const std::size_t s = static_cast<std::size_t>(w);
      const double cmin = a > 0 ? a * lo[s] : a * hi[s];
      const double cmax = a > 0 ? a * hi[s] : a * lo[s];
      if (cmin <= -lp::kInf) {
        ++min_inf;
      } else {
        min_act += cmin;
      }
      if (cmax >= lp::kInf) {
        ++max_inf;
      } else {
        max_act += cmax;
      }
    }
    for (const auto& [w, a] : c.terms) {
      if (a == 0.0) continue;
      const std::size_t s = static_cast<std::size_t>(w);
      const double cmin = a > 0 ? a * lo[s] : a * hi[s];
      const double cmax = a > 0 ? a * hi[s] : a * lo[s];
      if (c.rel != lp::Relation::GreaterEq) {  // a·x_w ≤ rhs − min-activity(rest)
        const bool self_inf = cmin <= -lp::kInf;
        if (min_inf - (self_inf ? 1 : 0) == 0) {
          const double rest = min_act - (self_inf ? 0.0 : cmin);
          const double b = (c.rhs - rest) / a;
          if (!(a > 0 ? tighten_hi(w, b) : tighten_lo(w, b))) return false;
        }
      }
      if (c.rel != lp::Relation::LessEq) {  // a·x_w ≥ rhs − max-activity(rest)
        const bool self_inf = cmax >= lp::kInf;
        if (max_inf - (self_inf ? 1 : 0) == 0) {
          const double rest = max_act - (self_inf ? 0.0 : cmax);
          const double b = (c.rhs - rest) / a;
          if (!(a > 0 ? tighten_lo(w, b) : tighten_hi(w, b))) return false;
        }
      }
    }
  }
  return true;
}

/// Uninstrumented search body; the public solve() below wraps it in a trace
/// span and folds the solution's search counters into the metrics registry
/// once, whichever of the many return paths produced it.
MilpSolution solve_impl(const MilpProblem& problem, const MilpOptions& options,
                        const std::optional<std::vector<double>>& incumbent) {
  const int n = problem.lp.num_vars;
  if (static_cast<int>(problem.is_integer.size()) != n) {
    throw std::invalid_argument("is_integer size must match num_vars");
  }

  util::Stopwatch clock;
  MilpSolution result;

  double best_obj = lp::kInf;
  std::vector<double> best_x;
  if (incumbent.has_value()) {
    if (static_cast<int>(incumbent->size()) != n) {
      throw std::invalid_argument("incumbent size mismatch");
    }
    best_obj = objective_of(problem.lp, *incumbent);
    best_x = *incumbent;
  }

  std::vector<double> root_lo = problem.lp.lower;
  std::vector<double> root_hi = problem.lp.upper;
  root_lo.resize(static_cast<std::size_t>(n), 0.0);
  root_hi.resize(static_cast<std::size_t>(n), lp::kInf);
  // Fractional bounds on integer variables carry no integer point in the
  // strip; round them once at the root.
  for (int v = 0; v < n; ++v) {
    const std::size_t s = static_cast<std::size_t>(v);
    if (!problem.is_integer[s]) continue;
    if (root_lo[s] > -lp::kInf) root_lo[s] = std::ceil(root_lo[s] - kIntTol);
    if (root_hi[s] < lp::kInf) root_hi[s] = std::floor(root_hi[s] + kIntTol);
    if (root_lo[s] > root_hi[s]) {
      result.status = MilpStatus::Infeasible;
      return result;
    }
  }

  // Relative-gap pruning threshold against the current incumbent.
  const auto prune_floor = [&]() {
    return best_obj - kGapTol * std::max(1.0, std::fabs(best_obj));
  };

  // Root flow bound: a global dual bound for the whole tree. It can prove
  // the incumbent optimal (or the problem infeasible) before any branching.
  double flow_floor = -lp::kInf;
  if (options.flow != nullptr) {
    const DualBoundProvider::Result fb = options.flow->root_bound(root_lo, root_hi);
    result.flow_lp_iterations += fb.lp_iterations;
    if (fb.infeasible) {
      result.status = MilpStatus::Infeasible;
      return result;
    }
    flow_floor = fb.bound;
    result.flow_root_bound = fb.bound;
    if (!best_x.empty() && flow_floor >= prune_floor()) {
      result.objective = best_obj;
      result.x = std::move(best_x);
      result.best_bound = flow_floor;
      result.status = MilpStatus::Optimal;
      return result;
    }
  }

  lp::SimplexSolver solver(problem.lp);
  const auto record_lp_stats = [&]() {
    result.lp_iterations = solver.stats().lp_iterations;
    result.warm_hits = solver.stats().warm_hits;
    result.warm_fallbacks = solver.stats().warm_fallbacks;
  };
  const std::vector<std::vector<int>> touching = build_touching(problem.lp);
  PseudoCosts pc(problem.lp);

  std::vector<Node> pool;
  pool.emplace_back();  // root: no delta, bound −inf
  std::priority_queue<HeapEntry> open;
  open.push(HeapEntry{-lp::kInf, 0});

  std::vector<double> lo, hi;  // materialized bounds of the popped node
  std::vector<int> chain;      // ancestor ids of the popped node, leaf→root
  double proven_bound = lp::kInf;   // min over bounds of pruned/unexplored parts
  double dropped_floor = lp::kInf;  // min over bounds of dropped (unbounded) nodes
  bool exhausted = false;           // stopped on node/time limits

  while (!open.empty()) {
    if (result.nodes_explored >= options.node_limit ||
        clock.elapsed_seconds() >= options.time_limit_s) {
      // Remaining open nodes: the best of their bounds is the proof floor.
      proven_bound = std::min(proven_bound, open.top().bound);
      exhausted = true;
      break;
    }
    const int id = open.top().id;
    open.pop();
    // Copy: the children pushed below may reallocate the pool.
    const Node node = pool[static_cast<std::size_t>(id)];
    ++result.nodes_explored;

    if (node.bound >= prune_floor()) {
      ++result.bound_prunes;
      proven_bound = std::min(proven_bound, node.bound);
      continue;  // cannot improve
    }

    // Materialize bounds: root bounds overwritten by the ancestor deltas in
    // root→leaf order.
    lo = root_lo;
    hi = root_hi;
    {
      chain.clear();
      for (int cur = id; cur >= 0; cur = pool[static_cast<std::size_t>(cur)].parent) {
        if (pool[static_cast<std::size_t>(cur)].delta.var >= 0) chain.push_back(cur);
      }
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        const BoundDelta& d = pool[static_cast<std::size_t>(*it)].delta;
        lo[static_cast<std::size_t>(d.var)] = d.lo;
        hi[static_cast<std::size_t>(d.var)] = d.hi;
      }
    }

    if (node.branch_var >= 0 &&
        !propagate_branch(problem.lp, problem.is_integer, touching, node.delta.var, lo, hi)) {
      ++result.presolve_prunes;
      continue;  // domain emptied — infeasible without an LP call
    }

    // Flow-bound refresh: re-bound the node box through the flow relaxation
    // before paying for the node LP. Gated by depth (shallow nodes shape the
    // most tree) and a node-count stride (periodic deep refreshes).
    double flow_node = -lp::kInf;
    if (options.flow != nullptr && (static_cast<int>(chain.size()) <= kFlowNodeDepth ||
                                    result.nodes_explored % kFlowNodeEvery == 0)) {
      const DualBoundProvider::Result fb = options.flow->node_bound(lo, hi);
      result.flow_lp_iterations += fb.lp_iterations;
      if (fb.infeasible) {
        ++result.flow_prunes;
        continue;  // box holds no integer point
      }
      flow_node = fb.bound;
      if (flow_node >= prune_floor()) {
        ++result.flow_prunes;
        proven_bound = std::min(proven_bound, flow_node);
        continue;  // flow bound closes the node — LP never solved
      }
    }

    const double remaining = options.time_limit_s - clock.elapsed_seconds();
    if (remaining <= 0.0) {
      proven_bound = std::min(proven_bound, node.bound);
      if (!open.empty()) proven_bound = std::min(proven_bound, open.top().bound);
      exhausted = true;
      break;
    }
    const lp::Solution rel =
        solver.resolve(lo, hi, options.lp_iteration_limit, remaining, node.warm.get());
    if (rel.status == lp::Status::Infeasible) continue;
    if (rel.status == lp::Status::Unbounded) {
      result.status = MilpStatus::Unbounded;
      record_lp_stats();
      return result;
    }
    if (rel.status == lp::Status::IterationLimit) {
      // The subtree was never bounded; remember its parent bound so the
      // final status/bound cannot overclaim.
      ++result.dropped_nodes;
      dropped_floor = std::min(dropped_floor, node.bound);
      continue;
    }

    // Max-combine the LP relaxation with the flow refresh: the node's true
    // optimum respects both, so the tighter one prunes and both seed the
    // pseudocosts (flow deltas count as observed degradation).
    const double node_lb = std::max(rel.objective, flow_node);
    if (node.branch_var >= 0) {
      pc.observe(node.branch_var, node.up, node.frac, std::max(0.0, node_lb - node.bound));
    }

    if (node_lb >= prune_floor()) {
      if (rel.objective >= prune_floor()) {
        ++result.lp_prunes;
      } else {
        ++result.flow_prunes;  // only the flow bound closed it
      }
      proven_bound = std::min(proven_bound, node_lb);
      continue;
    }

    const int branch_var = select_pseudocost(rel.x, problem.is_integer, pc);
    if (branch_var < 0) {
      // Integer feasible: round to kill tolerance noise. Adding 0.0
      // normalises std::round(-1e-9) = -0.0 to +0.0 so incumbents are
      // byte-identical regardless of which side of zero the LP landed on.
      std::vector<double> x = rel.x;
      for (int v = 0; v < n; ++v) {
        if (problem.is_integer[static_cast<std::size_t>(v)]) {
          x[static_cast<std::size_t>(v)] = std::round(x[static_cast<std::size_t>(v)]) + 0.0;
        }
      }
      const double obj = objective_of(problem.lp, x);
      if (obj < best_obj) {
        best_obj = obj;
        best_x = std::move(x);
        // The root flow bound is global: once the incumbent is within the
        // gap of it, everything still open is proven non-improving.
        if (flow_floor >= prune_floor()) break;
      }
      continue;
    }

    const double val = rel.x[static_cast<std::size_t>(branch_var)];
    const double frac = val - std::floor(val);
    const auto snap = std::make_shared<const lp::Basis>(solver.basis());

    Node down;
    down.parent = id;
    down.delta = BoundDelta{branch_var, lo[static_cast<std::size_t>(branch_var)], std::floor(val)};
    down.bound = node_lb;
    down.branch_var = branch_var;
    down.up = false;
    down.frac = frac;
    down.warm = snap;
    Node up;
    up.parent = id;
    up.delta = BoundDelta{branch_var, std::ceil(val), hi[static_cast<std::size_t>(branch_var)]};
    up.bound = node_lb;
    up.branch_var = branch_var;
    up.up = true;
    up.frac = frac;
    up.warm = snap;
    if (down.delta.lo <= down.delta.hi) {
      pool.push_back(std::move(down));
      open.push(HeapEntry{node_lb, static_cast<int>(pool.size()) - 1});
    }
    if (up.delta.lo <= up.delta.hi) {
      pool.push_back(std::move(up));
      open.push(HeapEntry{node_lb, static_cast<int>(pool.size()) - 1});
    }
  }

  record_lp_stats();

  const double open_floor = open.empty() ? lp::kInf : open.top().bound;
  // flow_floor holds tree-wide, so it can only raise the proof floor.
  const double floor_all =
      std::max(std::min({proven_bound, dropped_floor, open_floor}), flow_floor);
  result.best_bound = floor_all;
  if (!best_x.empty()) {
    if (open.empty() && result.dropped_nodes == 0) {
      result.best_bound = std::min(floor_all, best_obj);
    }
    result.objective = best_obj;
    result.x = std::move(best_x);
    const bool proven =
        result.best_bound >= best_obj - kGapTol * std::max(1.0, std::fabs(best_obj));
    result.status = proven ? MilpStatus::Optimal : MilpStatus::Feasible;
    return result;
  }
  // Infeasibility can only be claimed over a fully bounded tree: no early
  // stop and no dropped (never-bounded) subtrees.
  result.status = (open.empty() && !exhausted && result.dropped_nodes == 0)
                      ? MilpStatus::Infeasible
                      : MilpStatus::Limit;
  return result;
}

}  // namespace

MilpSolution solve(const MilpProblem& problem, const MilpOptions& options,
                   const std::optional<std::vector<double>>& incumbent) {
  SYCCL_TRACE_SPAN(span, "milp.solve", "milp");
  MilpSolution result = solve_impl(problem, options, incumbent);

  auto& reg = obs::MetricsRegistry::instance();
  static obs::Counter& solves = reg.counter("milp.solves");
  static obs::Counter& nodes = reg.counter("milp.nodes_explored");
  static obs::Counter& lp_iters = reg.counter("milp.lp_iterations");
  static obs::Counter& warm_hits = reg.counter("milp.warm_hits");
  static obs::Counter& warm_fallbacks = reg.counter("milp.warm_fallbacks");
  static obs::Counter& presolve_prunes = reg.counter("milp.presolve_prunes");
  static obs::Counter& bound_prunes = reg.counter("milp.bound_prunes");
  static obs::Counter& lp_prunes = reg.counter("milp.lp_prunes");
  static obs::Counter& flow_prunes = reg.counter("milp.flow_prunes");
  static obs::Counter& flow_lp_iters = reg.counter("milp.flow_lp_iterations");
  static obs::Counter& flow_root_proofs = reg.counter("milp.flow_root_proofs");
  static obs::Counter& dropped = reg.counter("milp.dropped_nodes");
  solves.add(1);
  nodes.add(result.nodes_explored);
  lp_iters.add(result.lp_iterations);
  warm_hits.add(result.warm_hits);
  warm_fallbacks.add(result.warm_fallbacks);
  presolve_prunes.add(result.presolve_prunes);
  bound_prunes.add(result.bound_prunes);
  lp_prunes.add(result.lp_prunes);
  flow_prunes.add(result.flow_prunes);
  flow_lp_iters.add(result.flow_lp_iterations);
  if (result.flow_root_bound > -lp::kInf && result.nodes_explored == 0 &&
      result.status == MilpStatus::Optimal) {
    flow_root_proofs.add(1);
  }
  dropped.add(result.dropped_nodes);

  span.annotate("vars", static_cast<double>(problem.lp.num_vars));
  span.annotate("nodes", static_cast<double>(result.nodes_explored));
  span.annotate("lp_iterations", static_cast<double>(result.lp_iterations));
  span.annotate("warm_hits", static_cast<double>(result.warm_hits));
  span.annotate("flow_prunes", static_cast<double>(result.flow_prunes));
  span.annotate("flow_lp_iterations", static_cast<double>(result.flow_lp_iterations));
  span.annotate("status", static_cast<double>(result.status));
  return result;
}

}  // namespace syccl::milp

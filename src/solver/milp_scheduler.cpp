#include "solver/milp_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "lp/flow_relax.h"

#include "milp/branch_and_bound.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/greedy.h"
#include "solver/tau.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace syccl::solver {

namespace {

/// Packed (p, i, j, t) keys for the per-solve variable tables. 16 bits per
/// field is far beyond anything the binary-count gate lets through.
inline std::uint64_t pack4(int a, int b, int c, int d) {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(a)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(b)) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(c)) << 16) |
         static_cast<std::uint64_t>(static_cast<std::uint16_t>(d));
}
// pack3 reuses the pack4 layout with j = 0, so the key_* extractors below
// read both x (p,i,j,t) and has (p,i,t) keys uniformly.
inline std::uint64_t pack3(int a, int b, int c) { return pack4(a, b, 0, c); }

/// Insertion-ordered hash table from packed key to variable id: O(1) lookups
/// on the encode hot path, while `list` preserves the deterministic emission
/// order the constraint builders (and thus B&B) rely on.
struct VarTable {
  std::unordered_map<std::uint64_t, int> id;
  std::vector<std::pair<std::uint64_t, int>> list;  ///< insertion order

  void add(std::uint64_t key, int var) {
    id.emplace(key, var);
    list.emplace_back(key, var);
  }
  int at(std::uint64_t key) const {
    const auto it = id.find(key);
    if (it == id.end()) throw std::logic_error("missing encoding variable");
    return it->second;
  }
  const int* find(std::uint64_t key) const {
    const auto it = id.find(key);
    return it == id.end() ? nullptr : &it->second;
  }
};

/// Variable bookkeeping for one encoded sub-demand.
struct Encoding {
  milp::MilpProblem problem;
  // x keyed by pack4(p, i, j, t); has keyed by pack3(p, i, t).
  VarTable x;
  VarTable has;
  std::vector<int> done;  ///< done[t-1] for t = 1..T
  int horizon = 0;
  int binaries = 0;
  /// Flow projection of the x/done layout for lp::FlowRelaxation.
  lp::FlowVarMap flow_map;
};

/// Field extractors for the packed keys.
inline int key_p(std::uint64_t k) { return static_cast<int>((k >> 48) & 0xffff); }
inline int key_i(std::uint64_t k) { return static_cast<int>((k >> 32) & 0xffff); }
inline int key_j(std::uint64_t k) { return static_cast<int>((k >> 16) & 0xffff); }
inline int key_t(std::uint64_t k) { return static_cast<int>(k & 0xffff); }

Encoding encode(const SubDemand& demand, const EpochParams& ep, int horizon) {
  const topo::GroupTopology& g = *demand.group;
  const int np = static_cast<int>(demand.pieces.size());
  const int T = horizon;
  Encoding enc;
  enc.horizon = T;
  lp::Problem& pb = enc.problem.lp;

  // Members of each piece: src + dsts.
  std::vector<std::vector<int>> members(static_cast<std::size_t>(np));
  for (int p = 0; p < np; ++p) {
    const DemandPiece& dp = demand.pieces[static_cast<std::size_t>(p)];
    std::set<int> m(dp.dsts.begin(), dp.dsts.end());
    m.insert(dp.srcs.begin(), dp.srcs.end());
    members[static_cast<std::size_t>(p)] = std::vector<int>(m.begin(), m.end());
  }

  // Variables. The ε objective weight on x (kMilpSendCost) keeps the
  // schedule traffic-minimal among equally fast solutions. Each (p, i, j)
  // family of x variables becomes one arc of the flow projection.
  for (int p = 0; p < np; ++p) {
    const DemandPiece& dp = demand.pieces[static_cast<std::size_t>(p)];
    const std::set<int> dstset(dp.dsts.begin(), dp.dsts.end());
    const std::set<int> srcset(dp.srcs.begin(), dp.srcs.end());
    for (int i : members[static_cast<std::size_t>(p)]) {
      for (int t = 0; t <= T; ++t) {
        const bool is_src = srcset.count(i) != 0;
        const bool must_end = (t == T && dstset.count(i) != 0);
        const double lo = (is_src || must_end) ? 1.0 : 0.0;
        const double hi = (is_src || t > 0) ? 1.0 : 0.0;  // has[·][·][0] = 0 unless src
        enc.has.add(pack3(p, i, t), pb.add_var(lo, hi, 0.0));
      }
      if (dstset.count(i) == 0 && srcset.count(i) == 0) continue;
      for (int j : dp.dsts) {
        if (j == i) continue;
        lp::FlowVarMap::Arc arc;
        arc.piece = p;
        arc.from = i;
        arc.to = j;
        for (int t = 0; t + ep.lat_epochs <= T; ++t) {
          const int var = pb.add_var(0.0, 1.0, kMilpSendCost);
          enc.x.add(pack4(p, i, j, t), var);
          arc.x_vars.push_back(var);
          ++enc.binaries;
        }
        enc.flow_map.arcs.push_back(std::move(arc));
      }
    }
  }
  for (int t = 1; t <= T; ++t) {
    enc.done.push_back(pb.add_var(0.0, 1.0, -1.0));  // maximize Σ done
    enc.flow_map.done_vars.push_back(enc.done.back());
    ++enc.binaries;
  }

  enc.problem.is_integer.assign(static_cast<std::size_t>(pb.num_vars), true);

  // Monotonicity: has[p][i][t] ≤ has[p][i][t+1].
  for (const auto& [key, var] : enc.has.list) {
    const int p = key_p(key), i = key_i(key), t = key_t(key);
    if (t == 0) continue;
    const int prev = enc.has.at(pack3(p, i, t - 1));
    pb.add_constraint({{{prev, 1.0}, {var, -1.0}}, lp::Relation::LessEq, 0.0});
  }
  // Sends require availability: x[p][i][j][t] ≤ has[p][i][t].
  for (const auto& [key, var] : enc.x.list) {
    const int p = key_p(key), i = key_i(key), t = key_t(key);
    pb.add_constraint(
        {{{var, 1.0}, {enc.has.at(pack3(p, i, t)), -1.0}}, lp::Relation::LessEq, 0.0});
  }
  // Arrival: has[p][j][t] ≤ has[p][j][t-1] + Σ_i x[p][i][j][t-L].
  std::unordered_map<std::uint64_t, std::vector<int>> inbound;  // pack3(p, j, ts) → x vars
  inbound.reserve(enc.x.list.size());
  for (const auto& [key, var] : enc.x.list) {
    inbound[pack3(key_p(key), key_j(key), key_t(key))].push_back(var);
  }
  for (const auto& [key, var] : enc.has.list) {
    const int p = key_p(key), j = key_i(key), t = key_t(key);
    if (t == 0) continue;
    const DemandPiece& dp = demand.pieces[static_cast<std::size_t>(p)];
    if (std::find(dp.srcs.begin(), dp.srcs.end(), j) != dp.srcs.end()) {
      continue;  // sources always have it
    }
    lp::Constraint c;
    c.terms.push_back({var, 1.0});
    c.terms.push_back({enc.has.at(pack3(p, j, t - 1)), -1.0});
    const int ts = t - ep.lat_epochs;
    if (ts >= 0) {
      const auto iit = inbound.find(pack3(p, j, ts));
      if (iit != inbound.end()) {
        for (int xvar : iit->second) c.terms.push_back({xvar, -1.0});
      }
    }
    c.rel = lp::Relation::LessEq;
    c.rhs = 0.0;
    pb.add_constraint(c);
  }
  // Port capacities: for every physical port/direction and epoch t, sends
  // started in (t-O, t] occupy it; total ≤ C.
  std::map<std::pair<int, int>, std::vector<std::pair<int, int>>> sends_by_port;
  for (const auto& [key, var] : enc.x.list) {
    const int i = key_i(key), j = key_j(key), t = key_t(key);
    sends_by_port[{g.up[static_cast<std::size_t>(i)].port_id, 0}].push_back({var, t});
    sends_by_port[{g.down[static_cast<std::size_t>(j)].port_id, 1}].push_back({var, t});
  }
  for (const auto& [port, sends] : sends_by_port) {
    (void)port;
    for (int t = 0; t <= T; ++t) {
      lp::Constraint c;
      for (const auto& [var, ts] : sends) {
        if (ts <= t && t < ts + ep.occupancy) c.terms.push_back({var, 1.0});
      }
      if (c.terms.size() <= static_cast<std::size_t>(ep.capacity)) continue;  // trivially satisfied
      c.rel = lp::Relation::LessEq;
      c.rhs = ep.capacity;
      pb.add_constraint(c);
    }
  }
  // done[t] ≤ has[p][d][t] for every demanded pair.
  for (int t = 1; t <= T; ++t) {
    const int dv = enc.done[static_cast<std::size_t>(t - 1)];
    for (int p = 0; p < np; ++p) {
      for (int d : demand.pieces[static_cast<std::size_t>(p)].dsts) {
        pb.add_constraint(
            {{{dv, 1.0}, {enc.has.at(pack3(p, d, t)), -1.0}}, lp::Relation::LessEq, 0.0});
      }
    }
  }
  return enc;
}

/// Builds the MILP warm-start vector from a feasible sub-schedule.
std::vector<double> incumbent_vector(const Encoding& enc, const SubDemand& demand,
                                     const EpochParams& ep, const SubSchedule& sched) {
  std::vector<double> x0(static_cast<std::size_t>(enc.problem.lp.num_vars), 0.0);
  // Arrival epochs per (piece, local).
  std::map<std::pair<int, int>, int> arrival;
  for (const auto& p : demand.pieces) {
    for (int s : p.srcs) arrival[{p.id, s}] = 0;
  }
  for (const auto& op : sched.ops) {
    auto [it, inserted] = arrival.try_emplace({op.piece, op.dst}, op.start_epoch + ep.lat_epochs);
    if (!inserted) it->second = std::min(it->second, op.start_epoch + ep.lat_epochs);
    const int* xvar = enc.x.find(pack4(op.piece, op.src, op.dst, op.start_epoch));
    if (xvar == nullptr) throw std::logic_error("incumbent op outside encoding");
    x0[static_cast<std::size_t>(*xvar)] = 1.0;
  }
  for (const auto& [key, var] : enc.has.list) {
    const auto it = arrival.find({key_p(key), key_i(key)});
    x0[static_cast<std::size_t>(var)] =
        (it != arrival.end() && it->second <= key_t(key)) ? 1.0 : 0.0;
  }
  for (int t = 1; t <= enc.horizon; ++t) {
    bool all = true;
    for (const auto& p : demand.pieces) {
      for (int d : p.dsts) {
        const auto it = arrival.find({p.id, d});
        if (it == arrival.end() || it->second > t) {
          all = false;
          break;
        }
      }
      if (!all) break;
    }
    x0[static_cast<std::size_t>(enc.done[static_cast<std::size_t>(t - 1)])] = all ? 1.0 : 0.0;
  }
  return x0;
}

/// Decodes a MILP solution back into a sub-schedule.
SubSchedule decode(const Encoding& enc, const EpochParams& ep, const std::vector<double>& x) {
  SubSchedule out;
  out.params = ep;
  for (const auto& [key, var] : enc.x.list) {
    if (x[static_cast<std::size_t>(var)] > 0.5) {
      out.ops.push_back(SubOp{key_p(key), key_i(key), key_j(key), key_t(key)});
    }
  }
  std::stable_sort(out.ops.begin(), out.ops.end(),
                   [](const SubOp& a, const SubOp& b) { return a.start_epoch < b.start_epoch; });
  for (const auto& op : out.ops) {
    out.num_epochs = std::max(out.num_epochs, op.start_epoch + ep.lat_epochs);
  }
  return out;
}

}  // namespace

SubSchedule solve_sub_demand(const SubDemand& demand, const MilpSchedulerOptions& options,
                             SolveStats* stats) {
  SYCCL_TRACE_SPAN(span, "solve_sub_demand", "solver");
  util::Stopwatch clock;
  demand.validate();
  const EpochParams ep = derive_epoch_params(*demand.group, demand.piece_bytes, options.E);

  SubSchedule best = solve_greedy(demand, ep);
  SolveStats local;

  // α-dominated regimes can make one transmission span hundreds of epochs;
  // the epoch encoding then degenerates (huge horizons, tiny decisions), so
  // the greedy schedule — optimal in that regime — stands.
  constexpr int kMaxHorizon = 48;
  if (!options.greedy_only && best.num_epochs > ep.lat_epochs &&
      best.num_epochs <= kMaxHorizon) {
    // Arithmetic size estimate first: building a hopeless encoding is itself
    // expensive for large merged demands. Availability variables (members ×
    // epochs) dominate the tableau for long horizons, so they count too.
    const int T = best.num_epochs;
    long estimate = T;
    for (const auto& piece : demand.pieces) {
      const long members = static_cast<long>(piece.srcs.size() + piece.dsts.size());
      estimate += members * static_cast<long>(piece.dsts.size()) *
                  std::max(1, T - ep.lat_epochs + 1);
      estimate += members * (T + 1);
    }
    local.binaries = static_cast<int>(std::min<long>(estimate, 1 << 30));
    if (estimate <= options.max_binaries) {
    Encoding enc = encode(demand, ep, T);
    local.binaries = enc.binaries;
    if (enc.binaries <= options.max_binaries) {
      local.used_milp = true;
      milp::MilpOptions mopts;
      mopts.time_limit_s = options.time_limit_s;
      mopts.node_limit = options.node_limit;
      std::optional<lp::FlowRelaxation> flow;
      if (options.use_flow_bounds) {
        flow.emplace(demand, ep, T, enc.flow_map, kMilpSendCost);
        mopts.flow = &*flow;
      }
      const auto warm = incumbent_vector(enc, demand, ep, best);
      const milp::MilpSolution sol = milp::solve(enc.problem, mopts, warm);
      local.nodes_explored = sol.nodes_explored;
      local.flow_prunes = sol.flow_prunes;
      local.flow_lp_iterations = sol.flow_lp_iterations;
      if ((sol.status == milp::MilpStatus::Optimal || sol.status == milp::MilpStatus::Feasible) &&
          !sol.x.empty()) {
        SubSchedule cand = decode(enc, ep, sol.x);
        try {
          check_sub_schedule(demand, cand);
          if (cand.num_epochs < best.num_epochs ||
              (cand.num_epochs == best.num_epochs && cand.ops.size() < best.ops.size())) {
            best = std::move(cand);
            local.milp_improved = true;
          }
        } catch (const std::logic_error& e) {
          SYCCL_WARN << "MILP schedule rejected by checker: " << e.what();
        }
      }
    }
    }
  }

  local.solve_seconds = clock.elapsed_seconds();

  // Count the solve in the metrics registry. Branch-and-bound work (nodes,
  // LP iterations, prunes) is counted once, by milp::solve, as milp.*.
  // References hoisted: solves run on the synthesis hot path, so steady-state
  // cost is a handful of relaxed atomics.
  {
    auto& reg = obs::MetricsRegistry::instance();
    static obs::Counter& solves = reg.counter("solver.solves");
    static obs::Counter& milp_used = reg.counter("solver.milp_used");
    static obs::Counter& milp_improved = reg.counter("solver.milp_improved");
    static obs::Histogram& seconds = reg.histogram("solver.solve_seconds");
    static obs::Histogram& binaries = reg.histogram("solver.binaries");
    solves.add(1);
    if (local.used_milp) milp_used.add(1);
    if (local.milp_improved) milp_improved.add(1);
    seconds.observe(local.solve_seconds);
    binaries.observe(local.binaries);
  }
  span.annotate("binaries", local.binaries);
  span.annotate("used_milp", local.used_milp ? 1.0 : 0.0);
  span.annotate("milp_improved", local.milp_improved ? 1.0 : 0.0);
  span.annotate("nodes", static_cast<double>(local.nodes_explored));
  span.annotate("flow_prunes", static_cast<double>(local.flow_prunes));
  span.annotate("epochs", best.num_epochs);

  if (stats != nullptr) *stats = local;
  return best;
}

int encode_sub_demand_binaries(const SubDemand& demand, double E, int horizon) {
  demand.validate();
  const EpochParams ep = derive_epoch_params(*demand.group, demand.piece_bytes, E);
  return encode(demand, ep, horizon).binaries;
}

SubDemandEncoding encode_sub_demand_milp(const SubDemand& demand, double E, int horizon) {
  demand.validate();
  const EpochParams ep = derive_epoch_params(*demand.group, demand.piece_bytes, E);
  const SubSchedule greedy = solve_greedy(demand, ep);
  const int T = horizon > 0 ? horizon : greedy.num_epochs;
  Encoding enc = encode(demand, ep, T);
  SubDemandEncoding out;
  out.binaries = enc.binaries;
  out.horizon = T;
  out.params = ep;
  // The greedy incumbent only fits encodings whose horizon covers it.
  if (greedy.num_epochs <= T) out.incumbent = incumbent_vector(enc, demand, ep, greedy);
  out.problem = std::move(enc.problem);
  out.flow_map = std::move(enc.flow_map);
  return out;
}

}  // namespace syccl::solver

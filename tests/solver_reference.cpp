#include "solver_reference.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace syccl::solver::reference {

namespace {

struct PieceState {
  std::vector<int> holders;       ///< locals holding the piece (usable now)
  std::vector<int> arriving_at;   ///< arrival epoch per local (-1 = never)
  std::vector<bool> needed;       ///< still-unserved destinations
  int remaining = 0;
};

}  // namespace

SubSchedule solve_greedy(const SubDemand& demand, const EpochParams& params) {
  demand.validate();
  const topo::GroupTopology& g = *demand.group;
  const int n = g.size();
  const int np = static_cast<int>(demand.pieces.size());

  std::vector<PieceState> state(static_cast<std::size_t>(np));
  int total_remaining = 0;
  for (int p = 0; p < np; ++p) {
    PieceState& ps = state[static_cast<std::size_t>(p)];
    ps.arriving_at.assign(static_cast<std::size_t>(n), -1);
    ps.needed.assign(static_cast<std::size_t>(n), false);
    const DemandPiece& dp = demand.pieces[static_cast<std::size_t>(p)];
    for (int src : dp.srcs) ps.arriving_at[static_cast<std::size_t>(src)] = 0;
    for (int d : dp.dsts) {
      if (!ps.needed[static_cast<std::size_t>(d)]) {
        ps.needed[static_cast<std::size_t>(d)] = true;
        ++ps.remaining;
        ++total_remaining;
      }
    }
  }

  // Port usage per (port, direction) per epoch, grown on demand.
  std::map<std::pair<int, int>, std::vector<int>> usage;
  auto port_free = [&](int port, int dir, int t, int occupancy, int capacity) {
    auto& u = usage[{port, dir}];
    if (static_cast<int>(u.size()) < t + occupancy) u.resize(static_cast<std::size_t>(t + occupancy), 0);
    for (int o = 0; o < occupancy; ++o) {
      if (u[static_cast<std::size_t>(t + o)] >= capacity) return false;
    }
    return true;
  };
  auto port_take = [&](int port, int dir, int t, int occupancy) {
    auto& u = usage[{port, dir}];
    for (int o = 0; o < occupancy; ++o) ++u[static_cast<std::size_t>(t + o)];
  };

  SubSchedule out;
  out.params = params;

  const long safety_epochs =
      static_cast<long>(np) * n * std::max(params.occupancy, params.lat_epochs) + n + 16;

  int completion = 0;
  for (int t = 0; total_remaining > 0; ++t) {
    if (t > safety_epochs) {
      throw std::logic_error("greedy scheduler failed to converge (demand unreachable?)");
    }
    // Candidate sends this epoch: (piece, src holder, unserved dst). Order by
    // criticality: pieces with the most unserved destinations first, then
    // destinations that are sources of nothing — plain index order suffices
    // for uniform groups, so we sort pieces by remaining demand only.
    std::vector<int> piece_order(static_cast<std::size_t>(np));
    for (int p = 0; p < np; ++p) piece_order[static_cast<std::size_t>(p)] = p;
    std::stable_sort(piece_order.begin(), piece_order.end(), [&](int a, int b) {
      return state[static_cast<std::size_t>(a)].remaining > state[static_cast<std::size_t>(b)].remaining;
    });

    bool progress = true;
    while (progress) {
      progress = false;
      for (int p : piece_order) {
        PieceState& ps = state[static_cast<std::size_t>(p)];
        if (ps.remaining == 0) continue;
        for (int d = 0; d < n && ps.remaining > 0; ++d) {
          if (!ps.needed[static_cast<std::size_t>(d)]) continue;
          const int down_port = g.down[static_cast<std::size_t>(d)].port_id;
          if (!port_free(down_port, 1, t, params.occupancy, params.capacity)) continue;
          // Pick a holder with free up-port; prefer the one that received
          // the piece earliest (balances relay load deterministically).
          int best_src = -1;
          for (int s = 0; s < n; ++s) {
            const int arr = ps.arriving_at[static_cast<std::size_t>(s)];
            if (arr < 0 || arr > t || s == d) continue;
            if (!port_free(g.up[static_cast<std::size_t>(s)].port_id, 0, t, params.occupancy,
                           params.capacity)) {
              continue;
            }
            if (best_src < 0 ||
                arr < ps.arriving_at[static_cast<std::size_t>(best_src)]) {
              best_src = s;
            }
          }
          if (best_src < 0) continue;
          port_take(g.up[static_cast<std::size_t>(best_src)].port_id, 0, t, params.occupancy);
          port_take(down_port, 1, t, params.occupancy);
          out.ops.push_back(SubOp{p, best_src, d, t});
          ps.needed[static_cast<std::size_t>(d)] = false;
          --ps.remaining;
          --total_remaining;
          const int arrival = t + params.lat_epochs;
          ps.arriving_at[static_cast<std::size_t>(d)] = arrival;
          completion = std::max(completion, arrival);
          progress = true;
        }
      }
    }
  }

  out.num_epochs = completion;
  reference::check_sub_schedule(demand, out);
  return out;
}

void check_sub_schedule(const SubDemand& demand, const SubSchedule& sched) {
  demand.validate();
  const topo::GroupTopology& g = *demand.group;
  const int n = g.size();
  const EpochParams& ep = sched.params;

  // arrival[piece][local] = epoch at which the piece becomes usable.
  std::map<std::pair<int, int>, int> arrival;
  for (const auto& p : demand.pieces) {
    for (int s : p.srcs) arrival[{p.id, s}] = 0;
  }

  // Port usage per (port id, direction, epoch).
  std::map<std::tuple<int, int, int>, int> usage;

  std::vector<SubOp> ops = sched.ops;
  std::stable_sort(ops.begin(), ops.end(),
                   [](const SubOp& a, const SubOp& b) { return a.start_epoch < b.start_epoch; });

  for (const auto& op : ops) {
    if (op.src < 0 || op.src >= n || op.dst < 0 || op.dst >= n) {
      throw std::logic_error("sub-op endpoint outside group");
    }
    const auto it = arrival.find({op.piece, op.src});
    if (it == arrival.end() || it->second > op.start_epoch) {
      std::ostringstream os;
      os << "sub-op sends piece " << op.piece << " from " << op.src << " at epoch "
         << op.start_epoch << " before it is available";
      throw std::logic_error(os.str());
    }
    const int up_port = g.up[static_cast<std::size_t>(op.src)].port_id;
    const int down_port = g.down[static_cast<std::size_t>(op.dst)].port_id;
    for (int o = 0; o < ep.occupancy; ++o) {
      for (const auto& [port, dir] : {std::pair{up_port, 0}, std::pair{down_port, 1}}) {
        int& u = usage[{port, dir, op.start_epoch + o}];
        if (++u > ep.capacity) {
          std::ostringstream os;
          os << "port " << port << (dir == 0 ? " (up)" : " (down)") << " over capacity at epoch "
             << op.start_epoch + o;
          throw std::logic_error(os.str());
        }
      }
    }
    auto [dit, inserted] = arrival.try_emplace({op.piece, op.dst}, op.start_epoch + ep.lat_epochs);
    if (!inserted) dit->second = std::min(dit->second, op.start_epoch + ep.lat_epochs);
  }

  int completion = 0;
  for (const auto& p : demand.pieces) {
    for (int d : p.dsts) {
      const auto it = arrival.find({p.id, d});
      if (it == arrival.end()) {
        std::ostringstream os;
        os << "demand unmet: piece " << p.id << " never reaches " << d;
        throw std::logic_error(os.str());
      }
      completion = std::max(completion, it->second);
    }
  }
  if (completion > sched.num_epochs) {
    std::ostringstream os;
    os << "schedule claims " << sched.num_epochs << " epochs but completes at " << completion;
    throw std::logic_error(os.str());
  }
}

}  // namespace syccl::solver::reference

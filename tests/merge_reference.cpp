#include "merge_reference.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace syccl::core::reference {

/// Reorders ops by their contention-free estimated start time. The merged
/// (stage, epoch) order assumes stages start synchronously, but pieces
/// actually arrive spread out; since per-port execution is FIFO in issue
/// order, a not-yet-ready op would head-of-line block ready ones. Estimated
/// availability propagation preserves dependency order (an op's start is
/// strictly after the delivering op's start because α > 0).
void reorder_by_estimated_start(sim::Schedule& s, const topo::TopologyGroups& groups) {
  std::map<std::pair<int, int>, double> avail;
  for (std::size_t pi = 0; pi < s.pieces.size(); ++pi) {
    const sim::Piece& p = s.pieces[pi];
    if (p.reduce) {
      for (int c : p.contributors) avail[{static_cast<int>(pi), c}] = 0.0;
    } else if (p.origin >= 0) {
      avail[{static_cast<int>(pi), p.origin}] = 0.0;
    }
  }
  std::vector<double> key(s.ops.size(), 0.0);
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    const sim::TransferOp& op = s.ops[i];
    const int dim = op.dim >= 0 ? op.dim : groups.best_common_dim(op.src, op.dst);
    if (dim < 0) continue;  // leave key 0; the simulator will reject later
    const auto& gt =
        groups.group(dim, groups.group_of[static_cast<std::size_t>(dim)]
                                         [static_cast<std::size_t>(op.src)]);
    const int ls = gt.local_of(op.src);
    const int ld = gt.local_of(op.dst);
    const auto it = avail.find({op.piece, op.src});
    const double t0 = it != avail.end() ? it->second : 0.0;
    const double arrival = t0 + gt.pair_alpha(ls, ld) +
                           gt.pair_beta(ls, ld) * s.pieces[static_cast<std::size_t>(op.piece)].bytes;
    key[i] = t0;
    auto [dit, inserted] = avail.try_emplace({op.piece, op.dst}, arrival);
    if (!inserted) {
      if (s.pieces[static_cast<std::size_t>(op.piece)].reduce) {
        dit->second = std::max(dit->second, arrival);
      } else {
        dit->second = std::min(dit->second, arrival);
      }
    }
  }
  std::vector<std::size_t> idx(s.ops.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (s.ops[a].phase != s.ops[b].phase) return s.ops[a].phase < s.ops[b].phase;
    return key[a] < key[b];
  });
  std::vector<sim::TransferOp> reordered;
  reordered.reserve(s.ops.size());
  for (std::size_t i : idx) reordered.push_back(s.ops[i]);
  s.ops = std::move(reordered);
}

sim::Schedule merge_schedule(const DemandPlan& plan,
                             const std::vector<solver::SubSchedule>& solved,
                             const topo::TopologyGroups& groups, std::string name) {
  if (solved.size() != plan.demands.size()) {
    throw std::invalid_argument("solved sub-schedule count mismatch");
  }

  struct GlobalOp {
    int stage;
    int epoch;
    int demand_index;
    int order;  // original op index, for stable tie-break
    sim::TransferOp op;
  };
  std::vector<GlobalOp> ops;

  for (std::size_t di = 0; di < plan.demands.size(); ++di) {
    const MergedSubDemand& md = plan.demands[di];
    const topo::GroupTopology& gt = groups.group(md.dim, md.group);
    const solver::SubSchedule& ss = solved[di];
    for (std::size_t oi = 0; oi < ss.ops.size(); ++oi) {
      const solver::SubOp& so = ss.ops[oi];
      if (so.piece < 0 || static_cast<std::size_t>(so.piece) >= md.global_piece.size()) {
        throw std::invalid_argument("sub-op references unknown demand piece");
      }
      sim::TransferOp top;
      top.piece = md.global_piece[static_cast<std::size_t>(so.piece)];
      top.src = gt.ranks[static_cast<std::size_t>(so.src)];
      top.dst = gt.ranks[static_cast<std::size_t>(so.dst)];
      top.dim = md.dim;
      top.phase = 0;
      ops.push_back(GlobalOp{md.stage, so.start_epoch, static_cast<int>(di),
                             static_cast<int>(oi), top});
    }
  }

  std::stable_sort(ops.begin(), ops.end(), [&](const GlobalOp& a, const GlobalOp& b) {
    if (a.stage != b.stage) return a.stage < b.stage;
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    if (a.demand_index != b.demand_index) return a.demand_index < b.demand_index;
    return a.order < b.order;
  });

  sim::Schedule out;
  out.name = std::move(name);
  out.pieces = plan.pieces;
  for (const auto& g : ops) out.ops.push_back(g.op);
  reorder_by_estimated_start(out, groups);
  return out;
}

}  // namespace syccl::core::reference

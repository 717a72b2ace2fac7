#include "core/merge.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace syccl::core {

void reorder_by_estimated_start(sim::Schedule& s, const topo::TopologyGroups& groups) {
  const std::size_t num_dims = groups.dims.size();
  const std::size_t num_ranks = groups.group_of.empty() ? 0 : groups.group_of.front().size();
  const std::size_t num_pieces = s.pieces.size();

  // The group and local index of every (dimension, rank), resolved once.
  struct Member {
    const topo::GroupTopology* group = nullptr;
    int local = -1;
  };
  std::vector<Member> members(num_dims * num_ranks);
  for (std::size_t d = 0; d < num_dims; ++d) {
    for (std::size_t r = 0; r < num_ranks; ++r) {
      const int g = groups.group_of[d][r];
      if (g < 0) continue;
      const topo::GroupTopology& gt = groups.group(static_cast<int>(d), g);
      members[d * num_ranks + r] = Member{&gt, gt.local_of(static_cast<int>(r))};
    }
  }

  // An op's estimate reads (piece, src) and writes (piece, dst), so pieces
  // are independent: a stable counting sort groups the op indices by piece,
  // in issue order. Ops naming no piece of `s` go to a last bucket that is
  // never walked.
  const auto bucket = [&](int piece) {
    return static_cast<std::size_t>(piece) < num_pieces ? static_cast<std::size_t>(piece)
                                                        : num_pieces;
  };
  std::vector<std::size_t> next(num_pieces + 2, 0);
  for (const sim::TransferOp& op : s.ops) ++next[bucket(op.piece) + 1];
  std::partial_sum(next.begin(), next.end(), next.begin());
  std::vector<std::uint32_t> by_piece(s.ops.size());
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    by_piece[next[bucket(s.ops[i].piece)]++] = static_cast<std::uint32_t>(i);
  }

  // Each piece walks its ops against one rank-indexed row of availability
  // times; holder[r] == piece + 1 marks avail[r] as the current piece's.
  std::vector<double> start(s.ops.size(), 0.0);
  std::vector<double> avail(num_ranks, 0.0);
  std::vector<std::size_t> holder(num_ranks, 0);
  std::size_t begin = 0;
  for (std::size_t pi = 0; pi < num_pieces; ++pi) {
    const sim::Piece& piece = s.pieces[pi];
    const std::size_t stamp = pi + 1;
    const auto seed = [&](int rank) {
      if (static_cast<std::size_t>(rank) >= num_ranks) return;
      holder[static_cast<std::size_t>(rank)] = stamp;
      avail[static_cast<std::size_t>(rank)] = 0.0;
    };
    if (piece.reduce) {
      for (int c : piece.contributors) seed(c);
    } else if (piece.origin >= 0) {
      seed(piece.origin);
    }
    const std::size_t end = next[pi];
    for (; begin < end; ++begin) {
      const std::uint32_t i = by_piece[begin];
      const sim::TransferOp& op = s.ops[i];
      const auto src = static_cast<std::size_t>(op.src);
      const auto dst = static_cast<std::size_t>(op.dst);
      if (src >= num_ranks || dst >= num_ranks) continue;
      const int dim = op.dim >= 0 ? op.dim : groups.best_common_dim(op.src, op.dst);
      // No estimate (start 0) without a group holding both endpoints; the
      // simulator rejects such ops later.
      if (dim < 0 || static_cast<std::size_t>(dim) >= num_dims) continue;
      const Member& from = members[static_cast<std::size_t>(dim) * num_ranks + src];
      const Member& to = members[static_cast<std::size_t>(dim) * num_ranks + dst];
      if (from.group == nullptr || to.group != from.group) continue;
      const topo::GroupTopology& gt = *from.group;
      const int ls = from.local;
      const int ld = to.local;
      const double t0 = holder[src] == stamp ? avail[src] : 0.0;
      const double arrival = t0 + gt.pair_alpha(ls, ld) + gt.pair_beta(ls, ld) * piece.bytes;
      start[i] = t0;
      if (holder[dst] != stamp) {
        holder[dst] = stamp;
        avail[dst] = arrival;
      } else {
        avail[dst] = piece.reduce ? std::max(avail[dst], arrival) : std::min(avail[dst], arrival);
      }
    }
  }
  s.ops = sim::ordered_by_start(s.ops, start);
}

sim::Schedule merge_schedule(const DemandPlan& plan,
                             const std::vector<solver::SubSchedule>& solved,
                             const topo::TopologyGroups& groups, std::string name) {
  if (solved.size() != plan.demands.size()) {
    throw std::invalid_argument("solved sub-schedule count mismatch");
  }

  // Issue order is ascending (stage, start epoch), ties in (demand, op)
  // order: a counting sort over that key. The first pass checks every
  // demand's group and sub-op and finds the key's range.
  std::size_t total = 0;
  int min_stage = std::numeric_limits<int>::max();
  int max_stage = std::numeric_limits<int>::min();
  int min_epoch = std::numeric_limits<int>::max();
  int max_epoch = std::numeric_limits<int>::min();
  for (std::size_t di = 0; di < plan.demands.size(); ++di) {
    const MergedSubDemand& md = plan.demands[di];
    groups.group(md.dim, md.group);  // throws std::out_of_range for an unknown group
    min_stage = std::min(min_stage, md.stage);
    max_stage = std::max(max_stage, md.stage);
    total += solved[di].ops.size();
    for (const solver::SubOp& so : solved[di].ops) {
      if (so.piece < 0 || static_cast<std::size_t>(so.piece) >= md.global_piece.size()) {
        throw std::invalid_argument("sub-op references unknown demand piece");
      }
      min_epoch = std::min(min_epoch, so.start_epoch);
      max_epoch = std::max(max_epoch, so.start_epoch);
    }
  }

  sim::Schedule out;
  out.name = std::move(name);
  out.pieces = plan.pieces;
  out.ops.resize(total);
  if (total > 0) {
    const auto epochs = static_cast<std::size_t>(std::int64_t{max_epoch} - min_epoch + 1);
    const auto stages = static_cast<std::size_t>(std::int64_t{max_stage} - min_stage + 1);
    const auto key = [&](int stage, int epoch) {
      return static_cast<std::size_t>(std::int64_t{stage} - min_stage) * epochs +
             static_cast<std::size_t>(std::int64_t{epoch} - min_epoch);
    };
    std::vector<std::size_t> next(stages * epochs + 1, 0);
    for (std::size_t di = 0; di < plan.demands.size(); ++di) {
      for (const solver::SubOp& so : solved[di].ops) {
        ++next[key(plan.demands[di].stage, so.start_epoch) + 1];
      }
    }
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (std::size_t di = 0; di < plan.demands.size(); ++di) {
      const MergedSubDemand& md = plan.demands[di];
      const topo::GroupTopology& gt = groups.group(md.dim, md.group);
      for (const solver::SubOp& so : solved[di].ops) {
        sim::TransferOp& top = out.ops[next[key(md.stage, so.start_epoch)]++];
        top.piece = md.global_piece[static_cast<std::size_t>(so.piece)];
        top.src = gt.ranks[static_cast<std::size_t>(so.src)];
        top.dst = gt.ranks[static_cast<std::size_t>(so.dst)];
        top.dim = md.dim;
      }
    }
  }
  reorder_by_estimated_start(out, groups);
  return out;
}

sim::Schedule reverse_schedule(const sim::Schedule& forward, bool reduce, int num_ranks,
                               std::string name) {
  sim::Schedule out;
  out.name = std::move(name);
  if (reduce) {
    std::vector<int> contributors(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) contributors[static_cast<std::size_t>(r)] = r;
    out.pieces.reserve(forward.pieces.size());
    for (const sim::Piece& p : forward.pieces) {
      sim::Piece r;
      // The reversed flow converges where the forward flow originated: the
      // forward origin rank identifies the reduced block.
      r.chunk = p.origin;
      r.bytes = p.bytes;
      r.origin = -1;
      r.reduce = true;
      r.contributors = contributors;
      out.pieces.push_back(std::move(r));
    }
  } else {
    // Gather reversal: the piece's chronologically last forward op delivers
    // it to its scatter destination — that destination becomes the origin.
    out.pieces = forward.pieces;
    std::vector<int> final_dst(forward.pieces.size(), -1);
    for (const auto& op : forward.ops) {
      final_dst[static_cast<std::size_t>(op.piece)] = op.dst;
    }
    for (std::size_t i = 0; i < out.pieces.size(); ++i) {
      if (final_dst[i] >= 0) out.pieces[i].origin = final_dst[i];
    }
  }
  for (auto it = forward.ops.rbegin(); it != forward.ops.rend(); ++it) {
    sim::TransferOp op = *it;
    std::swap(op.src, op.dst);
    out.ops.push_back(op);
  }
  return out;
}

}  // namespace syccl::core

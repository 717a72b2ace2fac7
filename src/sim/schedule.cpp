#include "sim/schedule.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

namespace syccl::sim {

int Schedule::add_piece(Piece piece) {
  pieces.push_back(std::move(piece));
  return static_cast<int>(pieces.size()) - 1;
}

void Schedule::add_op(int piece, int src, int dst, int dim, int phase) {
  if (piece < 0 || static_cast<std::size_t>(piece) >= pieces.size()) {
    throw std::out_of_range("op references unknown piece");
  }
  if (src == dst) throw std::invalid_argument("op src == dst");
  ops.push_back(TransferOp{piece, src, dst, dim, phase});
}

void Schedule::append_sequential(const Schedule& tail) {
  int max_phase = 0;
  for (const auto& op : ops) max_phase = std::max(max_phase, op.phase);
  const int base_piece = static_cast<int>(pieces.size());
  pieces.insert(pieces.end(), tail.pieces.begin(), tail.pieces.end());
  for (const auto& op : tail.ops) {
    TransferOp shifted = op;
    shifted.piece += base_piece;
    shifted.phase += max_phase + 1;
    ops.push_back(shifted);
  }
}

double Schedule::total_traffic() const {
  double sum = 0.0;
  for (const auto& op : ops) sum += pieces[static_cast<std::size_t>(op.piece)].bytes;
  return sum;
}

std::vector<std::pair<int, std::vector<int>>> reduce_demands(const coll::Collective& coll) {
  std::map<int, std::vector<int>> by_dst;
  for (const auto& c : coll.chunks()) {
    for (int d : c.dsts) by_dst[d].push_back(c.src);
  }
  std::vector<std::pair<int, std::vector<int>>> out;
  out.reserve(by_dst.size());
  for (auto& [dst, contribs] : by_dst) {
    contribs.push_back(dst);
    std::sort(contribs.begin(), contribs.end());
    contribs.erase(std::unique(contribs.begin(), contribs.end()), contribs.end());
    out.emplace_back(dst, std::move(contribs));
  }
  return out;
}

DemandIndex build_demand_index(const Schedule& schedule, const coll::Collective& coll) {
  DemandIndex index;
  const int num_ids = coll.reduce() ? coll.num_ranks() : coll.num_chunks();
  const auto demanded = [&](const Piece& p) { return p.chunk >= 0 && p.chunk < num_ids; };
  // Count the pieces of each id into first[id + 1], prefix-sum, then place
  // each piece at its id's next free slot; a pass in piece order leaves
  // every id's pieces ascending.
  index.first.assign(static_cast<std::size_t>(num_ids) + 1, 0);
  for (const Piece& p : schedule.pieces) {
    if (demanded(p)) ++index.first[static_cast<std::size_t>(p.chunk) + 1];
  }
  std::partial_sum(index.first.begin(), index.first.end(), index.first.begin());
  index.pieces.resize(index.first.back());
  std::vector<std::size_t> next(index.first.begin(), index.first.end() - 1);
  for (std::size_t pi = 0; pi < schedule.pieces.size(); ++pi) {
    const Piece& p = schedule.pieces[pi];
    if (demanded(p)) {
      index.pieces[next[static_cast<std::size_t>(p.chunk)]++] = static_cast<int>(pi);
    }
  }
  if (coll.reduce()) index.reduce_demands = reduce_demands(coll);
  return index;
}

std::vector<TransferOp> ordered_by_start(std::span<const TransferOp> ops,
                                         std::span<const double> start) {
  // Compact records: estimated starts mostly ascend in issue order already,
  // which a merging stable sort exploits.
  struct Record {
    int phase;
    std::uint32_t index;
    double start;
  };
  std::vector<Record> order(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    order[i] = Record{ops[i].phase, static_cast<std::uint32_t>(i), start[i]};
  }
  std::stable_sort(order.begin(), order.end(), [](const Record& a, const Record& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    return a.start < b.start;
  });
  std::vector<TransferOp> out;
  out.reserve(ops.size());
  for (const Record& r : order) out.push_back(ops[r.index]);
  return out;
}

std::vector<Piece> pieces_for(const coll::Collective& coll) {
  std::vector<Piece> out;
  if (!coll.reduce()) {
    out.reserve(coll.chunks().size());
    for (std::size_t i = 0; i < coll.chunks().size(); ++i) {
      const auto& c = coll.chunks()[i];
      out.push_back(Piece{static_cast<int>(i), coll.chunk_bytes(), c.src, false, {}});
    }
    return out;
  }
  // Reduce flows: one reduce piece per destination block, merging the
  // contributions of every chunk that targets it (plus the destination's own
  // partial).
  for (auto& [dst, contribs] : reduce_demands(coll)) {
    Piece p;
    p.chunk = dst;  // block index == destination rank for Reduce/ReduceScatter
    p.bytes = coll.chunk_bytes();
    p.origin = -1;
    p.reduce = true;
    p.contributors = std::move(contribs);
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace syccl::sim

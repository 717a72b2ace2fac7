#include "core/merge.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace syccl::core {

namespace {

/// Estimated availability time per (piece, rank): a flat open-addressing
/// table with linear probing (DESIGN.md §4k). It is sized once from the
/// number of entries it can ever hold — the seeds plus one per op — so it
/// never rehashes and stays at most half full.
class AvailabilityTable {
 public:
  explicit AvailabilityTable(std::size_t max_entries) {
    std::size_t capacity = 16;
    int bits = 4;
    while (capacity < 2 * max_entries) {
      capacity <<= 1;
      ++bits;
    }
    shift_ = 64 - bits;
    slots_.assign(capacity, Slot{});
  }

  /// Hints the cache to load the slot where (piece, rank) would start its
  /// probe; the reorder issues it a few ops ahead of each lookup.
  void prefetch(int piece, int rank) const {
    __builtin_prefetch(&slots_[home(pack(piece, rank))]);
  }

  /// The value stored for (piece, rank), or nullptr.
  const double* find(int piece, int rank) const {
    const std::uint64_t key = pack(piece, rank);
    for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[i];
      if (slot.key == key) return &slot.value;
      if (slot.key == kEmpty) return nullptr;
    }
  }

  /// Inserts `value` for (piece, rank) if absent. Returns the stored value's
  /// slot and whether the insertion happened (std::map::try_emplace).
  std::pair<double*, bool> try_emplace(int piece, int rank, double value) {
    const std::uint64_t key = pack(piece, rank);
    for (std::size_t i = home(key);; i = (i + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot.value, false};
      if (slot.key == kEmpty) {
        slot = Slot{key, value};
        return {&slot.value, true};
      }
    }
  }

 private:
  /// Piece indices are non-negative (they index Schedule::pieces), so no
  /// packed key has all bits set.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  struct Slot {
    std::uint64_t key = kEmpty;
    double value = 0.0;
  };

  static std::uint64_t pack(int piece, int rank) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(piece)) << 32) |
           static_cast<std::uint32_t>(rank);
  }
  /// Fibonacci hashing: the top bits of key × 2^64/φ.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::vector<Slot> slots_;
  int shift_ = 60;
};

}  // namespace

void reorder_by_estimated_start(sim::Schedule& s, const topo::TopologyGroups& groups) {
  std::size_t seeds = 0;
  for (const sim::Piece& p : s.pieces) {
    seeds += p.reduce ? p.contributors.size() : (p.origin >= 0 ? 1 : 0);
  }
  AvailabilityTable avail(seeds + s.ops.size());
  for (std::size_t pi = 0; pi < s.pieces.size(); ++pi) {
    const sim::Piece& p = s.pieces[pi];
    if (p.reduce) {
      for (int c : p.contributors) avail.try_emplace(static_cast<int>(pi), c, 0.0);
    } else if (p.origin >= 0) {
      avail.try_emplace(static_cast<int>(pi), p.origin, 0.0);
    }
  }

  // (phase, estimated start, index) sorts into the order a stable sort on
  // (phase, estimated start) gives: the index breaks every tie.
  struct Record {
    int phase;
    std::uint32_t index;
    double start;
  };
  std::vector<Record> order(s.ops.size());
  // At paper scale the table is larger than a core's cache, so each op's
  // two probes are prefetched this many ops ahead.
  constexpr std::size_t kPrefetchAhead = 16;
  for (std::size_t i = 0; i < s.ops.size(); ++i) {
    if (i + kPrefetchAhead < s.ops.size()) {
      const sim::TransferOp& ahead = s.ops[i + kPrefetchAhead];
      avail.prefetch(ahead.piece, ahead.src);
      avail.prefetch(ahead.piece, ahead.dst);
    }
    const sim::TransferOp& op = s.ops[i];
    order[i] = Record{op.phase, static_cast<std::uint32_t>(i), 0.0};
    const int dim = op.dim >= 0 ? op.dim : groups.best_common_dim(op.src, op.dst);
    if (dim < 0) continue;  // leave key 0; the simulator will reject later
    const auto& gt =
        groups.group(dim, groups.group_of[static_cast<std::size_t>(dim)]
                                         [static_cast<std::size_t>(op.src)]);
    const int ls = gt.local_of(op.src);
    const int ld = gt.local_of(op.dst);
    const double* t0p = avail.find(op.piece, op.src);
    const double t0 = t0p != nullptr ? *t0p : 0.0;
    const sim::Piece& piece = s.pieces[static_cast<std::size_t>(op.piece)];
    const double arrival = t0 + gt.pair_alpha(ls, ld) + gt.pair_beta(ls, ld) * piece.bytes;
    order[i].start = t0;
    auto [slot, inserted] = avail.try_emplace(op.piece, op.dst, arrival);
    if (!inserted) *slot = piece.reduce ? std::max(*slot, arrival) : std::min(*slot, arrival);
  }
  std::sort(order.begin(), order.end(), [](const Record& a, const Record& b) {
    if (a.phase != b.phase) return a.phase < b.phase;
    if (a.start != b.start) return a.start < b.start;
    return a.index < b.index;
  });
  std::vector<sim::TransferOp> reordered;
  reordered.reserve(s.ops.size());
  for (const Record& r : order) reordered.push_back(s.ops[r.index]);
  s.ops = std::move(reordered);
}

sim::Schedule merge_schedule(const DemandPlan& plan,
                             const std::vector<solver::SubSchedule>& solved,
                             const topo::TopologyGroups& groups, std::string name) {
  if (solved.size() != plan.demands.size()) {
    throw std::invalid_argument("solved sub-schedule count mismatch");
  }

  // One compact record per sub-op, generated in (demand, op) order: the
  // generation index breaks (stage, epoch) ties exactly as a stable sort
  // over that order would.
  struct Record {
    int stage;
    int epoch;
    std::uint32_t index;
  };
  std::vector<Record> order;
  std::vector<sim::TransferOp> generated;
  std::size_t total = 0;
  for (const solver::SubSchedule& ss : solved) total += ss.ops.size();
  order.reserve(total);
  generated.reserve(total);

  for (std::size_t di = 0; di < plan.demands.size(); ++di) {
    const MergedSubDemand& md = plan.demands[di];
    const topo::GroupTopology& gt = groups.group(md.dim, md.group);
    for (const solver::SubOp& so : solved[di].ops) {
      if (so.piece < 0 || static_cast<std::size_t>(so.piece) >= md.global_piece.size()) {
        throw std::invalid_argument("sub-op references unknown demand piece");
      }
      sim::TransferOp top;
      top.piece = md.global_piece[static_cast<std::size_t>(so.piece)];
      top.src = gt.ranks[static_cast<std::size_t>(so.src)];
      top.dst = gt.ranks[static_cast<std::size_t>(so.dst)];
      top.dim = md.dim;
      top.phase = 0;
      order.push_back(
          Record{md.stage, so.start_epoch, static_cast<std::uint32_t>(generated.size())});
      generated.push_back(top);
    }
  }

  std::sort(order.begin(), order.end(), [](const Record& a, const Record& b) {
    if (a.stage != b.stage) return a.stage < b.stage;
    if (a.epoch != b.epoch) return a.epoch < b.epoch;
    return a.index < b.index;
  });

  sim::Schedule out;
  out.name = std::move(name);
  out.ops.reserve(order.size());
  for (const Record& r : order) out.ops.push_back(generated[r.index]);
  generated = {};
  out.pieces = plan.pieces;
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

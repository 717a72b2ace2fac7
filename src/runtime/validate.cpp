#include "runtime/validate.h"

#include <cstdint>
#include <span>
#include <string>

#include "util/text.h"

namespace syccl::runtime {

namespace {

std::string fmt_op(std::size_t index, const sim::TransferOp& op) {
  std::string out;
  util::append(out, "op #", index, " (piece ", op.piece, ", ", op.src, "->", op.dst, ')');
  return out;
}

/// Rows of one bit per rank.
class BitRows {
 public:
  BitRows(std::size_t rows, int num_ranks)
      : num_ranks_(num_ranks),
        words_((static_cast<std::size_t>(num_ranks) + 63) / 64),
        bits_(rows * words_, 0) {}

  /// Out-of-range ranks are never set.
  bool test(std::size_t row, int rank) const {
    if (rank < 0 || rank >= num_ranks_) return false;
    const auto r = static_cast<std::size_t>(rank);
    return (bits_[row * words_ + r / 64] >> (r % 64) & 1) != 0;
  }
  void set(std::size_t row, int rank) {
    const auto r = static_cast<std::size_t>(rank);
    bits_[row * words_ + r / 64] |= std::uint64_t{1} << (r % 64);
  }
  /// Whether row `a` holds every bit of row `b`.
  bool includes(std::size_t a, std::size_t b) const {
    for (std::size_t w = 0; w < words_; ++w) {
      if ((bits_[b * words_ + w] & ~bits_[a * words_ + w]) != 0) return false;
    }
    return true;
  }
  /// Whether row `a` holds every rank of `ranks`.
  bool includes(std::size_t a, const std::vector<int>& ranks) const {
    for (int r : ranks) {
      if (!test(a, r)) return false;
    }
    return true;
  }
  void merge(std::size_t a, std::size_t b) {
    for (std::size_t w = 0; w < words_; ++w) bits_[a * words_ + w] |= bits_[b * words_ + w];
  }

 private:
  int num_ranks_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace

ValidationReport validate_schedule(const sim::Schedule& schedule, const coll::Collective& coll,
                                   const topo::TopologyGroups& groups) {
  ValidationReport report;
  report.traffic_per_dim.assign(static_cast<std::size_t>(groups.num_dims()), 0.0);
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  const std::size_t num_pieces = schedule.pieces.size();

  // Availability: row = piece. Reduce contributor sets: row = (reduce piece,
  // rank), numbered from contrib_base[piece]. An absent set is an empty row.
  BitRows have(num_pieces, num_ranks);
  std::vector<std::size_t> contrib_base(num_pieces, 0);
  std::size_t contrib_rows = 0;
  for (std::size_t pi = 0; pi < num_pieces; ++pi) {
    if (!schedule.pieces[pi].reduce) continue;
    contrib_base[pi] = contrib_rows;
    contrib_rows += static_cast<std::size_t>(num_ranks);
  }
  BitRows contrib(contrib_rows, num_ranks);
  const auto contrib_row = [&](int piece, int rank) {
    return contrib_base[static_cast<std::size_t>(piece)] + static_cast<std::size_t>(rank);
  };

  for (std::size_t pi = 0; pi < num_pieces; ++pi) {
    const sim::Piece& p = schedule.pieces[pi];
    if (p.reduce) {
      for (int c : p.contributors) {
        if (c < 0 || c >= num_ranks) {
          report.errors.push_back("piece contributor rank out of range");
          continue;
        }
        have.set(pi, c);
        contrib.set(contrib_row(static_cast<int>(pi), c), c);
      }
    } else {
      if (p.origin < 0 || p.origin >= num_ranks) {
        report.errors.push_back("piece origin rank out of range");
        continue;
      }
      have.set(pi, p.origin);
    }
  }

  for (std::size_t oi = 0; oi < schedule.ops.size(); ++oi) {
    const sim::TransferOp& op = schedule.ops[oi];
    if (op.piece < 0 || static_cast<std::size_t>(op.piece) >= num_pieces) {
      report.errors.push_back(fmt_op(oi, op) + ": unknown piece");
      continue;
    }
    if (op.src < 0 || op.src >= num_ranks || op.dst < 0 || op.dst >= num_ranks ||
        op.src == op.dst) {
      report.errors.push_back(fmt_op(oi, op) + ": bad endpoints");
      continue;
    }
    const int dim = op.dim >= 0 ? op.dim : groups.best_common_dim(op.src, op.dst);
    if (dim < 0 || dim >= groups.num_dims() ||
        groups.group_of[static_cast<std::size_t>(dim)][static_cast<std::size_t>(op.src)] !=
            groups.group_of[static_cast<std::size_t>(dim)][static_cast<std::size_t>(op.dst)] ||
        groups.group_of[static_cast<std::size_t>(dim)][static_cast<std::size_t>(op.src)] < 0) {
      report.errors.push_back(fmt_op(oi, op) + ": endpoints share no group in dimension " +
                              std::to_string(dim));
      continue;
    }
    const auto piece = static_cast<std::size_t>(op.piece);
    if (!have.test(piece, op.src)) {
      report.errors.push_back(fmt_op(oi, op) + ": source does not hold the piece yet");
      continue;
    }
    const sim::Piece& p = schedule.pieces[piece];
    const bool dst_has = have.test(piece, op.dst);
    if (!p.reduce && dst_has) {
      report.warnings.push_back(fmt_op(oi, op) + ": redundant delivery (bandwidth waste)");
    }
    if (p.reduce) {
      const std::size_t dst_row = contrib_row(op.piece, op.dst);
      const std::size_t src_row = contrib_row(op.piece, op.src);
      // A reduce delivery whose source set adds no contributor the
      // destination does not already hold is pure bandwidth waste (and a
      // double-count hazard for non-idempotent reductions).
      if (dst_has && contrib.includes(dst_row, src_row)) {
        report.warnings.push_back(fmt_op(oi, op) +
                                  ": redundant delivery (no new contributors)");
      }
      contrib.merge(dst_row, src_row);
    }
    have.set(piece, op.dst);
    report.traffic_per_dim[static_cast<std::size_t>(dim)] += p.bytes;
    report.total_traffic += p.bytes;
  }

  // Demand coverage: the pieces of a demanded chunk held at `dst` (with
  // every contributor in `need_contrib`, for reduce demands) must add up to
  // the chunk's bytes.
  const double chunk_bytes = coll.chunk_bytes();
  const sim::DemandIndex index = sim::build_demand_index(schedule, coll);
  const auto covered = [&](int chunk, int dst, const std::vector<int>* need_contrib) {
    const std::span<const int> pieces = index.pieces_of(chunk);
    if (pieces.empty()) return false;
    double bytes = 0.0;
    for (const int pi : pieces) {
      const sim::Piece& p = schedule.pieces[static_cast<std::size_t>(pi)];
      if (!have.test(static_cast<std::size_t>(pi), dst)) continue;
      if (need_contrib != nullptr &&
          (!p.reduce || !contrib.includes(contrib_row(pi, dst), *need_contrib))) {
        continue;
      }
      bytes += p.bytes;
    }
    return bytes + 1e-6 >= chunk_bytes;
  };

  if (!coll.reduce()) {
    for (std::size_t c = 0; c < coll.chunks().size(); ++c) {
      for (int d : coll.chunks()[c].dsts) {
        if (!covered(static_cast<int>(c), d, nullptr)) {
          report.errors.push_back("demand unmet: chunk " + std::to_string(c) + " at rank " +
                                  std::to_string(d));
        }
      }
    }
  } else {
    for (const auto& [dst, cs] : index.reduce_demands) {
      if (!covered(dst, dst, &cs)) {
        report.errors.push_back("reduce demand unmet at rank " + std::to_string(dst));
      }
    }
  }

  report.ok = report.errors.empty();
  return report;
}

}  // namespace syccl::runtime

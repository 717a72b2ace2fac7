#include "runtime/executor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace syccl::runtime {

namespace {

using Payload = std::array<double, kElementsPerPiece>;

struct Slot {
  Payload values{};
  std::set<int> contributors;  // reduce pieces only
  bool present = false;
};

std::string fmt(const char* what, int piece, int rank) {
  std::ostringstream os;
  os << what << " (piece " << piece << ", rank " << rank << ")";
  return os.str();
}

bool nearly_equal(const Payload& a, const Payload& b) {
  for (int e = 0; e < kElementsPerPiece; ++e) {
    if (std::fabs(a[static_cast<std::size_t>(e)] - b[static_cast<std::size_t>(e)]) > 1e-9) {
      return false;
    }
  }
  return true;
}

}  // namespace

double executor_pattern(int chunk, int contributor, int element) {
  // Any injective-ish deterministic pattern works; primes keep collisions
  // (e.g. swapped chunk/contributor) detectable.
  return 1.0 + 31.0 * chunk + 97.0 * contributor + 7.0 * element;
}

ExecutionReport execute_and_verify(const sim::Schedule& schedule, const coll::Collective& coll) {
  ExecutionReport report;
  const int num_ranks = coll.num_ranks();

  // State per (piece, rank).
  std::map<std::pair<int, int>, Slot> state;
  for (std::size_t pi = 0; pi < schedule.pieces.size(); ++pi) {
    const sim::Piece& p = schedule.pieces[pi];
    if (p.reduce) {
      for (int c : p.contributors) {
        if (c < 0 || c >= num_ranks) throw std::invalid_argument("contributor out of range");
        Slot& s = state[{static_cast<int>(pi), c}];
        s.present = true;
        s.contributors = {c};
        for (int e = 0; e < kElementsPerPiece; ++e) {
          s.values[static_cast<std::size_t>(e)] = executor_pattern(p.chunk, c, e);
        }
      }
    } else {
      if (p.origin < 0 || p.origin >= num_ranks) {
        throw std::invalid_argument("piece origin out of range");
      }
      Slot& s = state[{static_cast<int>(pi), p.origin}];
      s.present = true;
      for (int e = 0; e < kElementsPerPiece; ++e) {
        s.values[static_cast<std::size_t>(e)] = executor_pattern(p.chunk, p.origin, e);
      }
    }
  }

  // Execute ops in issue order.
  for (const sim::TransferOp& op : schedule.ops) {
    if (op.piece < 0 || static_cast<std::size_t>(op.piece) >= schedule.pieces.size()) {
      throw std::invalid_argument("op references unknown piece");
    }
    if (op.src < 0 || op.src >= num_ranks || op.dst < 0 || op.dst >= num_ranks) {
      throw std::invalid_argument("op rank out of range");
    }
    const sim::Piece& p = schedule.pieces[static_cast<std::size_t>(op.piece)];
    const auto sit = state.find({op.piece, op.src});
    if (sit == state.end() || !sit->second.present) {
      report.errors.push_back(fmt("send before receive", op.piece, op.src));
      continue;
    }
    const Slot src_copy = sit->second;  // the dst insert may rehash
    Slot& dst = state[{op.piece, op.dst}];
    report.bytes_moved += p.bytes;

    if (!p.reduce) {
      if (dst.present && !nearly_equal(dst.values, src_copy.values)) {
        report.errors.push_back(fmt("conflicting payload delivered", op.piece, op.dst));
        continue;
      }
      dst.values = src_copy.values;
      dst.present = true;
    } else {
      // Element-wise accumulate; contributor sets must stay disjoint or a
      // partial would be summed twice.
      for (int c : src_copy.contributors) {
        if (dst.contributors.count(c) != 0) {
          report.errors.push_back(fmt("double-counted reduce contributor", op.piece, op.dst));
        }
      }
      if (!dst.present) {
        dst.values = Payload{};
        dst.present = true;
      }
      for (int e = 0; e < kElementsPerPiece; ++e) {
        dst.values[static_cast<std::size_t>(e)] += src_copy.values[static_cast<std::size_t>(e)];
      }
      dst.contributors.insert(src_copy.contributors.begin(), src_copy.contributors.end());
      report.reductions += kElementsPerPiece;
    }
  }

  // Final verification against the collective's demands.
  const double chunk_bytes = coll.chunk_bytes();
  const sim::DemandIndex demand_index = sim::build_demand_index(schedule, coll);

  auto check_forward = [&](int chunk, int dst) {
    double covered = 0.0;
    for (int pi : demand_index.pieces_of(chunk)) {
      const auto it = state.find({pi, dst});
      if (it == state.end() || !it->second.present) continue;
      const sim::Piece& p = schedule.pieces[static_cast<std::size_t>(pi)];
      Payload expect;
      for (int e = 0; e < kElementsPerPiece; ++e) {
        expect[static_cast<std::size_t>(e)] = executor_pattern(p.chunk, p.origin, e);
      }
      if (!nearly_equal(it->second.values, expect)) {
        report.errors.push_back(fmt("corrupted payload at destination", pi, dst));
        continue;
      }
      covered += p.bytes;
    }
    if (covered + 1e-6 < chunk_bytes) {
      std::ostringstream os;
      os << "chunk " << chunk << " only " << covered << "/" << chunk_bytes << " bytes at rank "
         << dst;
      report.errors.push_back(os.str());
    }
  };

  auto check_reduce = [&](int block, int dst, const std::vector<int>& contributors) {
    double covered = 0.0;
    for (int pi : demand_index.pieces_of(block)) {
      const auto it = state.find({pi, dst});
      if (it == state.end() || !it->second.present) continue;
      // Exactly the demanded contributor set (a partial does not count).
      if (!std::equal(it->second.contributors.begin(), it->second.contributors.end(),
                      contributors.begin(), contributors.end())) {
        continue;
      }
      Payload expect{};
      for (int c : contributors) {
        for (int e = 0; e < kElementsPerPiece; ++e) {
          expect[static_cast<std::size_t>(e)] += executor_pattern(block, c, e);
        }
      }
      if (!nearly_equal(it->second.values, expect)) {
        report.errors.push_back(fmt("wrong reduction value", pi, dst));
        continue;
      }
      covered += schedule.pieces[static_cast<std::size_t>(pi)].bytes;
    }
    if (covered + 1e-6 < chunk_bytes) {
      std::ostringstream os;
      os << "reduced block " << block << " incomplete at rank " << dst;
      report.errors.push_back(os.str());
    }
  };

  if (!coll.reduce()) {
    for (std::size_t c = 0; c < coll.chunks().size(); ++c) {
      for (int d : coll.chunks()[c].dsts) check_forward(static_cast<int>(c), d);
    }
  } else {
    for (const auto& [dst, cs] : demand_index.reduce_demands) {
      check_reduce(dst, dst, cs);
    }
  }

  report.ok = report.errors.empty();
  return report;
}

}  // namespace syccl::runtime

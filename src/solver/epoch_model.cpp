#include "solver/epoch_model.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "solver/port_window.h"

namespace syccl::solver {

namespace {

std::vector<int> invert_perm(const std::vector<int>& perm) {
  std::vector<int> inv(perm.size(), -1);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<int>(i);
  }
  return inv;
}

}  // namespace

std::vector<int> CanonicalDemand::to_canonical() const {
  if (identity) return {};
  return piece_perm;
}

std::vector<int> CanonicalDemand::from_canonical() const {
  if (identity) return {};
  return invert_perm(piece_perm);
}

CanonicalDemand SubDemand::canonical() const {
  // Encode every piece by its sorted sources and destinations (local member
  // indices; the group signature is positional) and sort the pieces by that
  // encoding. Demands with equal keys are then identical up to piece ids, so
  // cached canonical schedules transfer exactly.
  if (group == nullptr) throw std::invalid_argument("sub-demand without group");
  const int n = group->size();
  const std::size_t np = pieces.size();

  // Piece encodings "s,s,:d,d,d," back to back in one buffer, `start[t]` the
  // offset of piece t's. Built with to_chars: on the 512-GPU point this runs
  // over ~11M destinations per synthesis, where a stream per piece dominated.
  std::string buf;
  std::vector<std::size_t> start(np + 1);
  std::vector<int> sorted;
  const auto append = [&](const std::vector<int>& xs) {
    const std::vector<int>* ascending = &xs;  // planned pieces come sorted
    if (!std::is_sorted(xs.begin(), xs.end())) {
      sorted.assign(xs.begin(), xs.end());
      std::sort(sorted.begin(), sorted.end());
      ascending = &sorted;
    }
    char digits[16];
    for (int x : *ascending) {
      if (x < 0 || x >= n) throw std::invalid_argument("sub-demand piece member outside group");
      buf.append(digits, std::to_chars(digits, digits + sizeof digits, x).ptr);
      buf.push_back(',');
    }
  };
  for (std::size_t t = 0; t < np; ++t) {
    start[t] = buf.size();
    append(pieces[t].srcs);
    buf.push_back(':');
    append(pieces[t].dsts);
  }
  start[np] = buf.size();
  std::vector<std::string_view> enc(np);
  for (std::size_t t = 0; t < np; ++t) {
    enc[t] = std::string_view(buf).substr(start[t], start[t + 1] - start[t]);
  }

  // Canonical piece order: by encoding, ties by list position. Tied pieces
  // have equal sources and destinations, so any consistent order is sound.
  std::vector<std::size_t> ord(np);
  for (std::size_t t = 0; t < np; ++t) ord[t] = t;
  std::sort(ord.begin(), ord.end(), [&](std::size_t a, std::size_t b) {
    if (enc[a] != enc[b]) return enc[a] < enc[b];
    return a < b;
  });

  CanonicalDemand out;
  out.piece_perm.assign(np, -1);
  for (std::size_t k = 0; k < np; ++k) {
    const int id = pieces[ord[k]].id;
    if (id < 0 || static_cast<std::size_t>(id) >= np || out.piece_perm[static_cast<std::size_t>(id)] != -1) {
      throw std::invalid_argument("sub-demand piece ids are not a permutation of [0, n)");
    }
    out.piece_perm[static_cast<std::size_t>(id)] = static_cast<int>(k);
  }

  std::ostringstream os;
  os << group->signature() << "#s=" << std::hexfloat << piece_bytes << "#";
  out.key = os.str();
  out.key.reserve(out.key.size() + buf.size() + np);
  for (std::size_t k = 0; k < np; ++k) {
    out.key += enc[ord[k]];
    out.key.push_back(';');
  }

  out.identity = true;
  for (std::size_t i = 0; i < np; ++i) {
    if (out.piece_perm[i] != static_cast<int>(i)) out.identity = false;
  }
  return out;
}

void SubDemand::validate() const {
  if (group == nullptr) throw std::invalid_argument("sub-demand without group");
  if (pieces.empty()) throw std::invalid_argument("sub-demand without pieces");
  if (piece_bytes <= 0) throw std::invalid_argument("sub-demand piece_bytes must be positive");
  const int n = group->size();
  for (const auto& p : pieces) {
    if (p.srcs.empty()) throw std::invalid_argument("piece without sources");
    for (int s : p.srcs) {
      if (s < 0 || s >= n) throw std::invalid_argument("piece src out of group");
    }
    if (p.dsts.empty()) throw std::invalid_argument("piece without destinations");
    for (int d : p.dsts) {
      if (d < 0 || d >= n) throw std::invalid_argument("piece dst out of group");
      for (int s : p.srcs) {
        if (d == s) throw std::invalid_argument("piece dst equals src");
      }
    }
  }
}

void check_sub_schedule(const SubDemand& demand, const SubSchedule& sched) {
  demand.validate();
  const topo::GroupTopology& g = *demand.group;
  const int n = g.size();
  const EpochParams& ep = sched.params;

  // Pieces are addressed by id; pieces sharing an id share one slot (and so
  // pool their sources).
  std::vector<int> ids;
  ids.reserve(demand.pieces.size());
  for (const auto& p : demand.pieces) ids.push_back(p.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto slot_of = [&](int id) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    return it != ids.end() && *it == id ? static_cast<std::size_t>(it - ids.begin()) : ids.size();
  };

  // arrival[slot · n + local] = epoch at which the piece becomes usable.
  constexpr int kNever = std::numeric_limits<int>::max();
  std::vector<int> arrival(ids.size() * static_cast<std::size_t>(n), kNever);
  const auto at = [&](std::size_t slot, int local) -> int& {
    return arrival[slot * static_cast<std::size_t>(n) + static_cast<std::size_t>(local)];
  };
  for (const auto& p : demand.pieces) {
    const std::size_t slot = slot_of(p.id);
    for (int s : p.srcs) at(slot, s) = 0;
  }

  // Ops are replayed in start order; starts then never decrease, so the
  // ring windows give exactly the per-epoch usage counts. A send overflows a
  // port first at its own start epoch, if at all.
  const DensePorts ports(g);
  PortWindows up(ports.num_up, ep.capacity, ep.occupancy);
  PortWindows down(ports.num_down, ep.capacity, ep.occupancy);
  const auto by_start = [](const SubOp& a, const SubOp& b) { return a.start_epoch < b.start_epoch; };
  std::vector<SubOp> sorted;
  const std::vector<SubOp>* ops = &sched.ops;
  if (!std::is_sorted(ops->begin(), ops->end(), by_start)) {
    sorted = sched.ops;
    std::stable_sort(sorted.begin(), sorted.end(), by_start);
    ops = &sorted;
  }

  const auto over_capacity = [](int port, const char* dir, int epoch) {
    std::ostringstream os;
    os << "port " << port << dir << " over capacity at epoch " << epoch;
    return std::logic_error(os.str());
  };
  for (const auto& op : *ops) {
    if (op.src < 0 || op.src >= n || op.dst < 0 || op.dst >= n) {
      throw std::logic_error("sub-op endpoint outside group");
    }
    const std::size_t slot = slot_of(op.piece);
    if (slot == ids.size() || at(slot, op.src) == kNever || at(slot, op.src) > op.start_epoch) {
      std::ostringstream os;
      os << "sub-op sends piece " << op.piece << " from " << op.src << " at epoch "
         << op.start_epoch << " before it is available";
      throw std::logic_error(os.str());
    }
    const int up_port = ports.up[static_cast<std::size_t>(op.src)];
    if (!up.free(up_port, op.start_epoch)) {
      throw over_capacity(g.up[static_cast<std::size_t>(op.src)].port_id, " (up)", op.start_epoch);
    }
    up.take(up_port, op.start_epoch);
    const int down_port = ports.down[static_cast<std::size_t>(op.dst)];
    if (!down.free(down_port, op.start_epoch)) {
      throw over_capacity(g.down[static_cast<std::size_t>(op.dst)].port_id, " (down)",
                          op.start_epoch);
    }
    down.take(down_port, op.start_epoch);
    int& a = at(slot, op.dst);
    a = std::min(a, op.start_epoch + ep.lat_epochs);
  }

  int completion = 0;
  for (const auto& p : demand.pieces) {
    const std::size_t slot = slot_of(p.id);
    for (int d : p.dsts) {
      if (at(slot, d) == kNever) {
        std::ostringstream os;
        os << "demand unmet: piece " << p.id << " never reaches " << d;
        throw std::logic_error(os.str());
      }
      completion = std::max(completion, at(slot, d));
    }
  }
  if (completion > sched.num_epochs) {
    std::ostringstream os;
    os << "schedule claims " << sched.num_epochs << " epochs but completes at " << completion;
    throw std::logic_error(os.str());
  }
}

SubSchedule remap_sub_schedule(const SubSchedule& sched, const std::vector<int>& piece) {
  if (piece.empty()) return sched;
  SubSchedule out = sched;
  for (auto& op : out.ops) {
    if (op.piece < 0 || static_cast<std::size_t>(op.piece) >= piece.size()) {
      throw std::invalid_argument("sub-op piece outside remap");
    }
    op.piece = piece[static_cast<std::size_t>(op.piece)];
  }
  return out;
}

}  // namespace syccl::solver

// Flat port state of the epoch model, shared by the greedy scheduler and the
// schedule checker.
//
// The model lets a port start at most C sends per epoch and keeps each send
// on the port for O epochs. When sends are recorded in non-decreasing epoch
// order, every recorded start is ≤ the current epoch t, so a port is free at
// t iff fewer than C sends started in (t−O, t]. It is enough to keep the
// last C start epochs per port in a ring: the port is free iff the oldest of
// them is ≤ t−O. No per-epoch usage table is needed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <unordered_map>
#include <vector>

#include "topo/groups.h"

namespace syccl::solver {

/// Dense per-direction port numbering of a group: members that share a
/// physical port (same port_id in the same direction, e.g. two A100 GPUs on
/// one NIC) share an index.
struct DensePorts {
  std::vector<int> up;    ///< member -> dense up-port index
  std::vector<int> down;  ///< member -> dense down-port index
  int num_up = 0;
  int num_down = 0;

  explicit DensePorts(const topo::GroupTopology& g) {
    num_up = densify(g.up, up);
    num_down = densify(g.down, down);
  }

 private:
  /// Fills `out` with the dense index of every port; returns the count.
  static int densify(const std::vector<topo::GroupPort>& ports, std::vector<int>& out) {
    std::unordered_map<int, int> index;
    out.reserve(ports.size());
    for (const topo::GroupPort& p : ports) {
      const int next = static_cast<int>(index.size());
      out.push_back(index.try_emplace(p.port_id, next).first->second);
    }
    return static_cast<int>(index.size());
  }
};

/// The last `capacity` send starts of each port. Starts must be taken in
/// non-decreasing epoch order.
class PortWindows {
 public:
  /// Release epoch of a port that can never start a send (capacity ≤ 0).
  static constexpr long kNever = std::numeric_limits<long>::max();

  PortWindows(int num_ports, int capacity, int occupancy)
      : capacity_(capacity),
        occupancy_(occupancy),
        starts_(static_cast<std::size_t>(num_ports) * static_cast<std::size_t>(std::max(capacity, 0)),
                kNoStart),
        head_(static_cast<std::size_t>(num_ports), 0) {}

  /// First epoch at which `port` is free, given the sends taken so far.
  long release(int port) const {
    if (occupancy_ <= 0) return kNoStart;  // sends never occupy the port
    if (capacity_ <= 0) return kNever;
    return static_cast<long>(oldest(port)) + occupancy_;
  }

  /// True iff fewer than C sends started on `port` in (t−O, t].
  bool free(int port, int t) const { return release(port) <= t; }

  /// Records a send starting on `port` at epoch `t`.
  void take(int port, int t) {
    if (capacity_ <= 0) return;
    int& head = head_[static_cast<std::size_t>(port)];
    starts_[slot(port) + static_cast<std::size_t>(head)] = t;
    if (++head == capacity_) head = 0;
  }

 private:
  /// Start epoch of a ring slot no send has used yet.
  static constexpr int kNoStart = std::numeric_limits<int>::min() / 2;

  std::size_t slot(int port) const {
    return static_cast<std::size_t>(port) * static_cast<std::size_t>(capacity_);
  }
  int oldest(int port) const {
    return starts_[slot(port) + static_cast<std::size_t>(head_[static_cast<std::size_t>(port)])];
  }

  int capacity_;
  int occupancy_;
  std::vector<int> starts_;  ///< per port, a ring of its last C start epochs
  std::vector<int> head_;    ///< per port, the ring slot of the oldest start
};

}  // namespace syccl::solver

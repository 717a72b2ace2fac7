#include "solver/greedy.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/port_window.h"
#include "solver/tau.h"
#include "util/stopwatch.h"

namespace syccl::solver {

namespace {

using Bits = std::uint64_t;

Bits bit_of(int member) { return Bits{1} << (member & 63); }

/// Smallest member ≥ `from` set in both bitsets, or -1.
int first_common(const Bits* a, const Bits* b, int words, int from) {
  int w = from >> 6;
  if (w >= words) return -1;
  Bits x = a[w] & b[w] & (~Bits{0} << (from & 63));
  while (x == 0) {
    if (++w == words) return -1;
    x = a[w] & b[w];
  }
  return (w << 6) + std::countr_zero(x);
}

}  // namespace

SubSchedule solve_greedy(const SubDemand& demand, const EpochParams& params) {
  demand.validate();
  if (params.lat_epochs < 1) throw std::invalid_argument("greedy scheduler needs lat_epochs >= 1");
  const topo::GroupTopology& g = *demand.group;
  const int n = g.size();
  const std::size_t np = demand.pieces.size();
  const int words = (n + 63) / 64;

  const DensePorts ports(g);
  PortWindows up(ports.num_up, params.capacity, params.occupancy);
  PortWindows down(ports.num_down, params.capacity, params.occupancy);
  const auto up_port = [&](int member) { return ports.up[static_cast<std::size_t>(member)]; };
  const auto down_port = [&](int member) { return ports.down[static_cast<std::size_t>(member)]; };

  // Per piece: its holders in (arrival, index) order — the order in which
  // the scheduler prefers sources — in a slice with room for every source
  // and destination; the end of the prefix usable now; the pending
  // destinations as a member bitset.
  std::vector<std::size_t> first(np + 1, 0);
  for (std::size_t p = 0; p < np; ++p) {
    first[p + 1] = first[p] + demand.pieces[p].srcs.size() + demand.pieces[p].dsts.size();
  }
  std::vector<int> holder(first[np]);
  std::vector<int> arrival(first[np]);
  std::vector<std::size_t> holders_end(np);
  std::vector<std::size_t> usable_end(first.begin(), first.end() - 1);
  std::vector<Bits> pending(np * static_cast<std::size_t>(words), 0);
  std::vector<int> remaining(np, 0);
  long total_remaining = 0;
  for (std::size_t p = 0; p < np; ++p) {
    std::vector<int> srcs = demand.pieces[p].srcs;
    std::sort(srcs.begin(), srcs.end());
    srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
    holders_end[p] = first[p];
    for (int s : srcs) {
      holder[holders_end[p]] = s;
      arrival[holders_end[p]++] = 0;
    }
    Bits* bits = &pending[p * static_cast<std::size_t>(words)];
    for (int d : demand.pieces[p].dsts) {
      if ((bits[d >> 6] & bit_of(d)) == 0) {
        bits[d >> 6] |= bit_of(d);
        ++remaining[p];
        ++total_remaining;
      }
    }
  }

  SubSchedule out;
  out.params = params;

  const long safety_epochs =
      static_cast<long>(np) * n * std::max(params.occupancy, params.lat_epochs) + n + 16;

  // Pieces still short of destinations, most unserved first, ties by index:
  // the order of a stable sort of all pieces by remaining demand.
  std::vector<std::size_t> order;
  for (std::size_t p = 0; p < np; ++p) {
    if (remaining[p] > 0) order.push_back(p);
  }
  bool reorder = true;
  std::vector<Bits> down_free(static_cast<std::size_t>(words));
  int completion = 0;

  // One pass per epoch: ports only fill up within an epoch and a send lands
  // L ≥ 1 epochs later, so a second pass could never send. After the pass
  // nothing can send until a busy port frees up or a sent piece lands, so
  // the loop jumps straight there.
  for (long t = 0; total_remaining > 0;) {
    if (t > safety_epochs) {
      throw std::logic_error("greedy scheduler failed to converge (demand unreachable?)");
    }
    const int now = static_cast<int>(t);
    if (reorder) {
      std::erase_if(order, [&](std::size_t p) { return remaining[p] == 0; });
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return remaining[a] != remaining[b] ? remaining[a] > remaining[b] : a < b;
      });
      reorder = false;
    }
    // Members whose down port is free at the start of the epoch. A bit goes
    // stale when its port fills (through it or a member sharing the port)
    // and is dropped when next met.
    std::fill(down_free.begin(), down_free.end(), 0);
    for (int d = 0; d < n; ++d) {
      if (down.free(down_port(d), now)) down_free[static_cast<std::size_t>(d >> 6)] |= bit_of(d);
    }
    const auto next_destination = [&](const Bits* bits, int from) {
      for (int d = first_common(bits, down_free.data(), words, from); d >= 0;
           d = first_common(bits, down_free.data(), words, d + 1)) {
        if (down.free(down_port(d), now)) return d;
        down_free[static_cast<std::size_t>(d >> 6)] &= ~bit_of(d);
      }
      return -1;
    };

    for (const std::size_t p : order) {
      std::size_t& usable = usable_end[p];
      while (usable < holders_end[p] && arrival[usable] <= now) ++usable;
      Bits* bits = &pending[p * static_cast<std::size_t>(words)];
      // The source is the first usable holder whose up port is free. Ports
      // only fill up within the epoch, so the scan never moves backwards.
      std::size_t h = first[p];
      for (int d = next_destination(bits, 0); d >= 0; d = next_destination(bits, d + 1)) {
        while (h < usable && !up.free(up_port(holder[h]), now)) ++h;
        if (h == usable) break;
        const int s = holder[h];
        up.take(up_port(s), now);
        down.take(down_port(d), now);
        out.ops.push_back(SubOp{static_cast<int>(p), s, d, now});
        bits[d >> 6] &= ~bit_of(d);
        --remaining[p];
        --total_remaining;
        holder[holders_end[p]] = d;
        arrival[holders_end[p]++] = now + params.lat_epochs;
        completion = std::max(completion, now + params.lat_epochs);
        reorder = true;
      }
    }
    if (total_remaining == 0) break;

    long next = PortWindows::kNever;
    for (int q = 0; q < ports.num_up; ++q) {
      if (up.release(q) > t) next = std::min(next, up.release(q));
    }
    for (int q = 0; q < ports.num_down; ++q) {
      if (down.release(q) > t) next = std::min(next, down.release(q));
    }
    for (const std::size_t p : order) {
      if (usable_end[p] < holders_end[p]) next = std::min<long>(next, arrival[usable_end[p]]);
    }
    t = next;
  }

  out.num_epochs = completion;
  check_sub_schedule(demand, out);
  return out;
}

SubSchedule solve_sub_demand(const SubDemand& demand, const SolveOptions& options,
                             SolveStats* stats) {
  SYCCL_TRACE_SPAN(span, "solve_sub_demand", "solver");
  util::Stopwatch clock;
  demand.validate();
  SubSchedule schedule =
      solve_greedy(demand, derive_epoch_params(*demand.group, demand.piece_bytes, options.E));
  const double seconds = clock.elapsed_seconds();

  // References hoisted: solves run on the synthesis hot path, so the
  // steady-state cost is a handful of relaxed atomics.
  {
    auto& reg = obs::MetricsRegistry::instance();
    static obs::Counter& solves = reg.counter("solver.solves");
    static obs::Histogram& solve_seconds = reg.histogram("solver.solve_seconds");
    solves.add(1);
    solve_seconds.observe(seconds);
  }
  span.annotate("epochs", schedule.num_epochs);

  if (stats != nullptr) *stats = SolveStats{false, seconds};
  return schedule;
}

}  // namespace syccl::solver

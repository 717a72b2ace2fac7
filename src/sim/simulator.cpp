#include "sim/simulator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/link_timeline.h"
#include "util/thread_pool.h"

namespace syccl::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint8_t kPresent = 1;
constexpr std::uint8_t kForwarded = 2;
}  // namespace

// Resolved once per Simulator and shared (read-only) by every engine run:
// for each (dimension, rank), the group id and the full physical hop path
// rank → group switch and group switch → rank, flattened into one array so
// an op's path is two index ranges instead of a per-op vector build.
//
// Link busy-state is keyed by the directed physical link id, shared across
// dimensions: a rail (dim 1) and a spine (dim 2) transfer from the same GPU
// contend for the same NIC uplink. `num_links` bounds those ids so engines
// can keep timelines in a dense vector.
struct Simulator::PathCache {
  struct Entry {
    std::int32_t group = -1;
    std::uint32_t up_begin = 0, up_end = 0;
    std::uint32_t down_begin = 0, down_end = 0;
  };

  int num_dims = 0;
  int num_ranks = 0;
  int num_links = 0;
  std::vector<topo::PathHop> hops;
  std::vector<Entry> entries;  ///< dim * num_ranks + rank
  /// src * num_ranks + dst → best common dimension (-1 if none). Ops usually
  /// leave `dim` unset, so this lookup runs once per op per simulation; the
  /// dims × membership scan it replaces is loop-invariant across runs.
  std::vector<std::int32_t> pair_dim;

  explicit PathCache(const topo::TopologyGroups& groups) {
    num_dims = groups.num_dims();
    num_ranks =
        groups.group_of.empty() ? 0 : static_cast<int>(groups.group_of.front().size());
    entries.assign(static_cast<std::size_t>(num_dims) * static_cast<std::size_t>(num_ranks),
                   Entry{});
    int max_link = -1;
    for (int d = 0; d < num_dims; ++d) {
      for (int r = 0; r < num_ranks; ++r) {
        const int g = groups.group_of[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)];
        if (g < 0) continue;
        const topo::GroupTopology& gt = groups.group(d, g);
        const int l = gt.local_of(r);
        Entry& e = entries[static_cast<std::size_t>(d) * static_cast<std::size_t>(num_ranks) +
                           static_cast<std::size_t>(r)];
        e.group = g;
        e.up_begin = static_cast<std::uint32_t>(hops.size());
        for (const auto& h : gt.up_hops[static_cast<std::size_t>(l)]) {
          hops.push_back(h);
          max_link = std::max(max_link, h.link_id);
        }
        e.up_end = static_cast<std::uint32_t>(hops.size());
        e.down_begin = e.up_end;
        for (const auto& h : gt.down_hops[static_cast<std::size_t>(l)]) {
          hops.push_back(h);
          max_link = std::max(max_link, h.link_id);
        }
        e.down_end = static_cast<std::uint32_t>(hops.size());
      }
    }
    num_links = max_link + 1;
    pair_dim.resize(static_cast<std::size_t>(num_ranks) * static_cast<std::size_t>(num_ranks));
    for (int a = 0; a < num_ranks; ++a) {
      for (int b = 0; b < num_ranks; ++b) {
        pair_dim[static_cast<std::size_t>(a) * static_cast<std::size_t>(num_ranks) +
                 static_cast<std::size_t>(b)] = groups.best_common_dim(a, b);
      }
    }
  }
};

namespace {

/// Which op times a run records. run() returns both; tune_issue_order sorts
/// by the starts; time_collective reads neither.
enum class OpTimes { None, Start, StartFinish };

/// One simulation's working state. All of it is flat: piece state lives in a
/// lazily-allocated dense row per piece (slot ids into struct-of-arrays
/// columns, block arrivals and reduce-contributor bitsets in arenas), link
/// timelines in a dense per-link-id vector. No per-op hashing, no per-op
/// copies — arena offsets stay valid across allocation, so the source state
/// is read in place (the old map-backed engine had to copy `block_arrival`
/// and the contributor set on every op because an insertion could rehash).
///
/// An engine is also a workspace: run() clears every arena and timeline but
/// keeps their capacity, so an engine reused across runs stops allocating
/// (and faulting in fresh pages) once it has seen its largest schedule.
struct Engine {
  const SimOptions& opts;
  const Simulator::PathCache& paths;
  int num_ranks;
  int contrib_words;
  /// The schedule of the current run.
  const Schedule* sched = nullptr;
  OpTimes op_times = OpTimes::StartFinish;

  // Per piece: block count and the base of its rank row (-1 until touched).
  std::vector<std::int32_t> nb_of;
  std::vector<std::int32_t> row_of;
  // Rank rows: row_of[piece] + rank → slot id, or -1 while untouched.
  std::vector<std::int32_t> slots;
  // Per slot (struct-of-arrays):
  std::vector<std::uint32_t> arrival_at;  ///< base into `arrivals`, nb doubles
  std::vector<std::uint32_t> contrib_at;  ///< base into `contribs` (reduce only)
  std::vector<std::uint8_t> flags;        ///< kPresent | kForwarded
  std::vector<double> arrivals;
  std::vector<std::uint64_t> contribs;

  std::vector<LinkTimeline> links;
  SimResult result;

  /// Per-op resolved hop path (timeline pointer + loop-invariant α / β·b),
  /// reused across ops to avoid a per-op allocation.
  struct ResolvedHop {
    LinkTimeline* link;
    double alpha;
    double occupy;
    int link_id;
  };
  std::vector<ResolvedHop> hop_scratch;
  /// Phase-sorted op order, built only for schedules with out-of-order phases.
  std::vector<std::size_t> order;

  Engine(const SimOptions& o, const Simulator::PathCache& p)
      : opts(o), paths(p), num_ranks(p.num_ranks), contrib_words((p.num_ranks + 63) / 64) {}

  /// Clears the state of the previous run, keeping every buffer's capacity.
  void reset(const Schedule& s, OpTimes times) {
    sched = &s;
    op_times = times;
    nb_of.resize(s.pieces.size());
    for (std::size_t i = 0; i < s.pieces.size(); ++i) nb_of[i] = blocks_for(s.pieces[i].bytes);
    row_of.assign(s.pieces.size(), -1);
    slots.clear();
    arrival_at.clear();
    contrib_at.clear();
    flags.clear();
    arrivals.clear();
    contribs.clear();
    const std::size_t reserve_slots = std::min<std::size_t>(2 * s.ops.size() + 8, 1 << 16);
    arrival_at.reserve(reserve_slots);
    contrib_at.reserve(reserve_slots);
    flags.reserve(reserve_slots);
    links.resize(static_cast<std::size_t>(paths.num_links));
    for (LinkTimeline& link : links) link.reset();
    result.makespan = 0.0;
    result.num_events = 0;
    result.final_state.clear();
    result.link_events.clear();
    const std::size_t start_ops = times == OpTimes::None ? 0 : s.ops.size();
    const std::size_t finish_ops = times == OpTimes::StartFinish ? s.ops.size() : 0;
    result.op_start.assign(start_ops, 0.0);
    result.op_finish.assign(finish_ops, 0.0);
  }

  int blocks_for(double bytes) const {
    const int nb = static_cast<int>(std::ceil(bytes / std::max(1.0, opts.block_bytes)));
    return std::clamp(nb, 1, std::max(1, opts.max_blocks));
  }

  /// Slot of (piece, rank) or -1 if never touched (lookup only).
  std::int32_t slot_of(int piece, int rank) const {
    const std::int32_t row = row_of[static_cast<std::size_t>(piece)];
    if (row < 0) return -1;
    return slots[static_cast<std::size_t>(row) + static_cast<std::size_t>(rank)];
  }

  /// Slot of (piece, rank), materialising the initial state on first touch.
  std::int32_t ensure_slot(int piece, int rank) {
    std::int32_t& row = row_of[static_cast<std::size_t>(piece)];
    if (row < 0) {
      row = static_cast<std::int32_t>(slots.size());
      slots.resize(slots.size() + static_cast<std::size_t>(num_ranks), -1);
    }
    std::int32_t& s = slots[static_cast<std::size_t>(row) + static_cast<std::size_t>(rank)];
    if (s >= 0) return s;
    s = static_cast<std::int32_t>(flags.size());
    const Piece& p = sched->pieces[static_cast<std::size_t>(piece)];
    const int nb = nb_of[static_cast<std::size_t>(piece)];
    const bool contributes =
        p.reduce && std::binary_search(p.contributors.begin(), p.contributors.end(), rank);
    const bool present = (!p.reduce && p.origin == rank) || contributes;
    arrival_at.push_back(static_cast<std::uint32_t>(arrivals.size()));
    arrivals.insert(arrivals.end(), static_cast<std::size_t>(nb), present ? 0.0 : kInf);
    flags.push_back(present ? kPresent : 0);
    if (p.reduce) {
      const std::uint32_t base = static_cast<std::uint32_t>(contribs.size());
      contrib_at.push_back(base);
      contribs.insert(contribs.end(), static_cast<std::size_t>(contrib_words), 0);
      if (contributes) {
        contribs[base + static_cast<std::size_t>(rank) / 64] |= 1ull << (rank % 64);
      }
    } else {
      contrib_at.push_back(0);
    }
    return s;
  }

  bool present(std::int32_t slot) const { return (flags[static_cast<std::size_t>(slot)] & kPresent) != 0; }

  /// True iff the slot's contributor bitset covers every rank in `ranks`.
  bool contains_all(std::int32_t slot, const std::vector<int>& ranks) const {
    const std::uint64_t* words = contribs.data() + contrib_at[static_cast<std::size_t>(slot)];
    for (int r : ranks) {
      if (r < 0 || r >= num_ranks) return false;
      if (((words[static_cast<std::size_t>(r) / 64] >> (r % 64)) & 1) == 0) return false;
    }
    return true;
  }

  void run(const Schedule& schedule, OpTimes times) {
    // Event-loop totals for the observability layer. run() is the single
    // choke point behind Simulator::run/time_collective/tune_issue_order, so
    // these two relaxed adds (per run, not per event) see every simulation.
    static obs::Counter& runs_counter = obs::MetricsRegistry::instance().counter("sim.runs");
    static obs::Counter& events_counter =
        obs::MetricsRegistry::instance().counter("sim.events");
    SYCCL_TRACE_SPAN(span, "sim.run", "sim");

    reset(schedule, times);

    // Ops are processed phase by phase with a barrier between phases; inside
    // a phase, issue order is the per-port order. Schedules almost always
    // list ops in phase order already (merge/reverse/tuning all preserve
    // it), so the sort — and its index vector — is only materialised when an
    // out-of-order phase is actually present.
    bool sorted = true;
    for (std::size_t i = 1; i < schedule.ops.size(); ++i) {
      if (schedule.ops[i].phase < schedule.ops[i - 1].phase) {
        sorted = false;
        break;
      }
    }
    if (!sorted) {
      order.resize(schedule.ops.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return schedule.ops[a].phase < schedule.ops[b].phase;
      });
    }

    double phase_floor = 0.0;
    double phase_max = 0.0;
    int current_phase = schedule.ops.empty()
                            ? 0
                            : schedule.ops[sorted ? 0 : order.front()].phase;

    for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
      const std::size_t idx = sorted ? i : order[i];
      const TransferOp& op = schedule.ops[idx];
      if (op.phase != current_phase) {
        phase_floor = phase_max;
        current_phase = op.phase;
      }
      const double finish = run_op(idx, phase_floor);
      phase_max = std::max(phase_max, finish);
      if (op_times == OpTimes::StartFinish) result.op_finish[idx] = finish;
      result.makespan = std::max(result.makespan, finish);
    }

    if (opts.record_final_state) record_final_state();

    runs_counter.add(1);
    events_counter.add(static_cast<std::int64_t>(result.num_events));
    span.annotate("ops", static_cast<double>(schedule.ops.size()));
    span.annotate("events", static_cast<double>(result.num_events));
    span.annotate("makespan_us", result.makespan * 1e6);
  }

  void record_final_state() {
    // Piece-major, rank-ascending iteration yields the sorted order the
    // result contract requires.
    const Schedule& schedule = *sched;
    for (int piece = 0; piece < static_cast<int>(schedule.pieces.size()); ++piece) {
      if (row_of[static_cast<std::size_t>(piece)] < 0) continue;
      const bool reduce = schedule.pieces[static_cast<std::size_t>(piece)].reduce;
      for (int rank = 0; rank < num_ranks; ++rank) {
        const std::int32_t s = slot_of(piece, rank);
        if (s < 0 || !present(s)) continue;
        PieceRankState out;
        out.piece = piece;
        out.rank = rank;
        const double* arr = arrivals.data() + arrival_at[static_cast<std::size_t>(s)];
        out.block_arrival.assign(arr, arr + nb_of[static_cast<std::size_t>(piece)]);
        if (reduce) {
          const std::uint64_t* words = contribs.data() + contrib_at[static_cast<std::size_t>(s)];
          for (int r = 0; r < num_ranks; ++r) {
            if ((words[static_cast<std::size_t>(r) / 64] >> (r % 64)) & 1) {
              out.contributors.push_back(r);
            }
          }
        }
        result.final_state.push_back(std::move(out));
      }
    }
  }

  double run_op(std::size_t idx, double phase_floor) {
    const Schedule& schedule = *sched;
    const TransferOp& op = schedule.ops[idx];
    if (op.piece < 0 || static_cast<std::size_t>(op.piece) >= schedule.pieces.size()) {
      throw std::invalid_argument("op references unknown piece");
    }
    if (op.src < 0 || op.src >= num_ranks || op.dst < 0 || op.dst >= num_ranks) {
      throw std::invalid_argument("op rank out of range");
    }
    const Piece& p = schedule.pieces[static_cast<std::size_t>(op.piece)];

    int dim = op.dim;
    if (dim < 0) {
      dim = paths.pair_dim[static_cast<std::size_t>(op.src) *
                               static_cast<std::size_t>(num_ranks) +
                           static_cast<std::size_t>(op.dst)];
    }
    if (dim < 0 || dim >= paths.num_dims) {
      throw std::invalid_argument("op endpoints share no dimension group");
    }
    const auto* entries =
        paths.entries.data() + static_cast<std::size_t>(dim) * static_cast<std::size_t>(num_ranks);
    const Simulator::PathCache::Entry& e_src = entries[op.src];
    const Simulator::PathCache::Entry& e_dst = entries[op.dst];
    if (e_src.group < 0 || e_src.group != e_dst.group) {
      throw std::invalid_argument("op crosses groups in dimension " + std::to_string(dim));
    }

    const std::int32_t s_slot = ensure_slot(op.piece, op.src);
    if (!present(s_slot)) {
      throw std::invalid_argument("piece " + std::to_string(op.piece) +
                                  " not available at op source rank " + std::to_string(op.src) +
                                  " (dependency inversion?)");
    }
    const std::int32_t d_slot = ensure_slot(op.piece, op.dst);

    // Arena offsets survive the dst allocation above, so the source arrival
    // times are read in place — the per-op copy is gone.
    const double* src_arrival = arrivals.data() + arrival_at[static_cast<std::size_t>(s_slot)];
    double* dst_arrival = arrivals.data() + arrival_at[static_cast<std::size_t>(d_slot)];

    if (p.reduce && (flags[static_cast<std::size_t>(d_slot)] & kForwarded) != 0) {
      // The destination already forwarded its partial; merging a new
      // contribution now means the copy in flight is stale — downstream
      // ranks would see a contributor set that silently grew after the
      // send. Reject, like the src-absent case, instead of leaving the
      // divergence for the final-destination demand check to maybe catch.
      const std::uint64_t* sc = contribs.data() + contrib_at[static_cast<std::size_t>(s_slot)];
      const std::uint64_t* dc = contribs.data() + contrib_at[static_cast<std::size_t>(d_slot)];
      for (int w = 0; w < contrib_words; ++w) {
        if ((sc[w] & ~dc[w]) != 0) {
          throw std::invalid_argument(
              "stale reduce contribution: piece " + std::to_string(op.piece) +
              " gains contributors at rank " + std::to_string(op.dst) +
              " after that rank forwarded its partial");
        }
      }
    }

    const int nb = nb_of[static_cast<std::size_t>(op.piece)];
    const double block_bytes = p.bytes / nb;
    const bool dst_present = present(d_slot);

    // Resolve the op's hops once: timeline pointer, α, and the per-block
    // occupancy β·b are loop-invariant across blocks, so the per-event inner
    // loop below is pure arithmetic plus one timeline allocation.
    hop_scratch.clear();
    for (std::uint32_t h = e_src.up_begin; h < e_src.up_end; ++h) {
      const topo::PathHop& hop = paths.hops[h];
      hop_scratch.push_back({&links[static_cast<std::size_t>(hop.link_id)], hop.alpha,
                             block_bytes * hop.beta, hop.link_id});
    }
    for (std::uint32_t h = e_dst.down_begin; h < e_dst.down_end; ++h) {
      const topo::PathHop& hop = paths.hops[h];
      hop_scratch.push_back({&links[static_cast<std::size_t>(hop.link_id)], hop.alpha,
                             block_bytes * hop.beta, hop.link_id});
    }
    const ResolvedHop* hops_begin = hop_scratch.data();
    const ResolvedHop* hops_end = hops_begin + hop_scratch.size();

    double finish = 0.0;
    double first_start = -1.0;
    double first_ready = phase_floor;
    std::size_t events = 0;
    for (int b = 0; b < nb; ++b) {
      // Cut-through per hop: the block's head advances after each hop's α,
      // its tail after the slowest upstream hop drains; each directed link
      // is occupied for β·b and serialises concurrent flows.
      const double ready = std::max(src_arrival[b], phase_floor);
      if (b == 0) first_ready = ready;
      double head = ready;
      double tail = ready;
      for (const ResolvedHop* hop = hops_begin; hop != hops_end; ++hop) {
        const double start = hop->link->allocate(head, hop->occupy);
        if (first_start < 0) first_start = start;
        head = start + hop->alpha;
        tail = std::max(start + hop->alpha + hop->occupy, tail + hop->alpha);
        ++events;
        if (opts.record_link_events) {
          result.link_events.push_back(
              {static_cast<int>(idx), b, hop->link_id, start, start + hop->occupy});
        }
      }
      const double arrival = tail;
      double& slot = dst_arrival[b];
      if (p.reduce) {
        // Reduce: the block is usable downstream only once every inbound
        // partial arrived.
        slot = dst_present ? std::max(slot, arrival) : arrival;
      } else {
        slot = std::min(slot, arrival);
      }
      finish = std::max(finish, arrival);
    }
    result.num_events += events;
    // An op whose blocks never claimed a link slot (zero-hop path) leaves
    // first_start unset; fall back to the first block's ready time instead
    // of reporting a bogus 0.0 that would corrupt tune_issue_order's
    // start-time sort.
    if (op_times != OpTimes::None) {
      result.op_start[static_cast<std::size_t>(idx)] =
          first_start >= 0.0 ? first_start : first_ready;
    }
    flags[static_cast<std::size_t>(d_slot)] |= kPresent;
    if (p.reduce) {
      std::uint64_t* dc = contribs.data() + contrib_at[static_cast<std::size_t>(d_slot)];
      const std::uint64_t* sc = contribs.data() + contrib_at[static_cast<std::size_t>(s_slot)];
      for (int w = 0; w < contrib_words; ++w) dc[w] |= sc[w];
      flags[static_cast<std::size_t>(s_slot)] |= kForwarded;
    }
    return finish;
  }
};

/// Demand check shared by time_collective and tune_issue_order: every chunk
/// must be fully present at each destination. With chunk splitting, the
/// distinct pieces of one chunk at a destination must cover the chunk's
/// bytes. Returns the completion time of the demands.
double demand_completion(const Engine& engine, const Schedule& schedule,
                         const coll::Collective& coll, const DemandIndex& index) {
  double completion = 0.0;
  const double chunk_bytes = coll.chunk_bytes();
  constexpr double kEps = 1e-6;

  const auto demand_time = [&](int chunk, int dst, bool reduce,
                               const std::vector<int>* contributors) -> double {
    const std::span<const int> pieces = index.pieces_of(chunk);
    if (pieces.empty()) {
      throw std::invalid_argument("schedule has no pieces for chunk " + std::to_string(chunk));
    }
    double covered = 0.0;
    double when = 0.0;
    for (int pid : pieces) {
      const std::int32_t slot = engine.slot_of(pid, dst);
      if (slot < 0 || !engine.present(slot)) continue;
      if (reduce && contributors != nullptr && !engine.contains_all(slot, *contributors)) {
        continue;
      }
      covered += schedule.pieces[static_cast<std::size_t>(pid)].bytes;
      const double* arr =
          engine.arrivals.data() + engine.arrival_at[static_cast<std::size_t>(slot)];
      const int nb = engine.nb_of[static_cast<std::size_t>(pid)];
      for (int b = 0; b < nb; ++b) when = std::max(when, arr[b]);
    }
    if (covered + kEps < chunk_bytes) {
      throw std::invalid_argument("demand unmet: chunk " + std::to_string(chunk) +
                                  " at rank " + std::to_string(dst) + " covered " +
                                  std::to_string(covered) + "/" + std::to_string(chunk_bytes));
    }
    return when;
  };

  if (!coll.reduce()) {
    for (std::size_t c = 0; c < coll.chunks().size(); ++c) {
      for (int d : coll.chunks()[c].dsts) {
        completion = std::max(completion, demand_time(static_cast<int>(c), d, false, nullptr));
      }
    }
    return completion;
  }

  // Reduce collectives: block index == destination rank (see pieces_for).
  for (const auto& [dst, contribs] : index.reduce_demands) {
    completion = std::max(completion, demand_time(dst, dst, true, &contribs));
  }
  return completion;
}

/// time_collective on a given engine.
double time_on(Engine& engine, const Schedule& schedule, const coll::Collective& coll) {
  engine.run(schedule, OpTimes::None);
  return demand_completion(engine, schedule, coll, build_demand_index(schedule, coll));
}

/// tune_issue_order on a given engine: every pass reuses its buffers.
double tune_on(Engine& engine, Schedule& schedule, const coll::Collective& coll, int passes) {
  // The piece set is invariant under reordering, so one demand index serves
  // every pass.
  const DemandIndex index = build_demand_index(schedule, coll);

  // One engine run supplies both the baseline timing and the first pass's
  // sort keys (the old implementation simulated the same unmodified schedule
  // twice — once for each).
  engine.run(schedule, OpTimes::Start);
  double best = demand_completion(engine, schedule, coll, index);
  std::vector<double> op_start;
  op_start.swap(engine.result.op_start);

  // Each pass swaps the reordered ops into `schedule` and swaps them back
  // out if they do not help, so no pass copies the schedule.
  std::vector<TransferOp> reordered;
  for (int p = 0; p < passes; ++p) {
    reordered = ordered_by_start(schedule.ops, op_start);
    schedule.ops.swap(reordered);
    double t;
    try {
      engine.run(schedule, OpTimes::Start);
      t = demand_completion(engine, schedule, coll, index);
    } catch (const std::exception&) {
      // Reorder broke a dependency (shouldn't happen); keep current.
      schedule.ops.swap(reordered);
      break;
    }
    if (t < best) {
      best = t;
      op_start.swap(engine.result.op_start);
      continue;
    }
    schedule.ops.swap(reordered);
    break;
  }
  return best;
}

/// Runs fn(engine, i) for every index — across `pool` when given, serially
/// otherwise. Each running task claims indices from a shared counter and
/// keeps one engine for all of them, so a batch allocates one workspace per
/// task instead of one per run. Results do not depend on which engine ran
/// an index (every run starts from a cleared state). Either way a throwing
/// fn surfaces the lowest failing index's exception, as the serial loop
/// does.
void dispatch(const SimOptions& opts, const Simulator::PathCache& paths,
              util::ThreadPool* pool, std::size_t count,
              const std::function<void(Engine&, std::size_t)>& fn) {
  if (pool == nullptr || count <= 1) {
    Engine engine(opts, paths);
    for (std::size_t i = 0; i < count; ++i) fn(engine, i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_index = count;
  pool->parallel_for(std::min(count, pool->size() + 1), [&](std::size_t) {
    Engine engine(opts, paths);
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        fn(engine, i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < error_index) {
          error = std::current_exception();
          error_index = i;
        }
      }
    }
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace

Simulator::Simulator(const topo::TopologyGroups& groups, SimOptions opts)
    : groups_(groups), opts_(opts), paths_(std::make_shared<const PathCache>(groups)) {
  if (opts_.block_bytes <= 0) throw std::invalid_argument("block_bytes must be positive");
  if (opts_.max_blocks < 1) throw std::invalid_argument("max_blocks must be >= 1");
}

SimResult Simulator::run(const Schedule& schedule) const {
  Engine engine(opts_, *paths_);
  engine.run(schedule, OpTimes::StartFinish);
  return std::move(engine.result);
}

double Simulator::tune_issue_order(Schedule& schedule, const coll::Collective& coll,
                                   int passes) const {
  Engine engine(opts_, *paths_);
  return tune_on(engine, schedule, coll, passes);
}

double Simulator::time_collective(const Schedule& schedule, const coll::Collective& coll) const {
  Engine engine(opts_, *paths_);
  return time_on(engine, schedule, coll);
}

std::vector<SimResult> Simulator::run_batch(std::span<const Schedule* const> schedules,
                                            util::ThreadPool* pool) const {
  std::vector<SimResult> results(schedules.size());
  dispatch(opts_, *paths_, pool, schedules.size(), [&](Engine& engine, std::size_t i) {
    engine.run(*schedules[i], OpTimes::StartFinish);
    results[i] = std::move(engine.result);
  });
  return results;
}

std::vector<BatchTiming> Simulator::time_collectives(std::span<const Schedule* const> schedules,
                                                     const coll::Collective& coll,
                                                     util::ThreadPool* pool) const {
  std::vector<BatchTiming> out(schedules.size());
  dispatch(opts_, *paths_, pool, schedules.size(), [&](Engine& engine, std::size_t i) {
    try {
      out[i].time = time_on(engine, *schedules[i], coll);
    } catch (const std::exception& e) {
      out[i].error = e.what()[0] != '\0' ? e.what() : "simulation failed";
    }
  });
  return out;
}

std::vector<BatchTiming> Simulator::tune_issue_orders(std::span<Schedule* const> schedules,
                                                      const coll::Collective& coll, int passes,
                                                      util::ThreadPool* pool) const {
  std::vector<BatchTiming> out(schedules.size());
  dispatch(opts_, *paths_, pool, schedules.size(), [&](Engine& engine, std::size_t i) {
    try {
      out[i].time = tune_on(engine, *schedules[i], coll, passes);
    } catch (const std::exception& e) {
      out[i].error = e.what()[0] != '\0' ? e.what() : "simulation failed";
    }
  });
  return out;
}

}  // namespace syccl::sim

// Perf-trajectory bench for the simulator core rewrite (flat state, indexed
// link timelines, cached hop paths).
//
// Workload: the pinned differential-fuzz corpus (argv[1], default
// tests/corpus/seeds.txt by the absolute path fixed at configure time; a
// missing or empty corpus exits 2) expanded exactly like the fuzz harness —
// random topology, random collective, random direct schedule plus validity-
// preserving mutants per seed — so the gate measures the same schedule
// population the correctness sweep runs.
//
// Every schedule is simulated two ways over identical inputs:
//
//   ref — a verbatim copy of the pre-rewrite engine (unordered_map piece
//         state with per-op copies, std::map busy-interval timelines keyed
//         by hashed link id, per-op path vector build), kept here as the
//         machine-independent baseline;
//   new — the production sim::Simulator (dense arena state, sorted
//         small-vector timelines, per-Simulator path cache).
//
// Both sides must agree bit-for-bit on every makespan (the rewrite is a
// layout change, not a model change). The tentpole metric is simulated
// events per second; the gate fails unless new ≥ 5× ref. Output: one JSON
// line on stdout and in BENCH_sim.json. Registered under the ctest
// configuration/label `perf` as bench_sim_perf.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "fuzz/generators.h"
#include "obs/json.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "topo/groups.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace syccl;

namespace refsim {

// ---------------------------------------------------------------------------
// Baseline: the simulator engine as it stood before the flat-state rewrite,
// copied verbatim (observability hooks elided — they are off the hot path and
// eliding them only flatters the baseline, which makes the gate stricter).

double touch_tolerance(double a, double b) {
  constexpr double kUlps = 4.0;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::max(1e-18, kUlps * std::numeric_limits<double>::epsilon() * scale);
}

bool touches(double earlier_end, double later_start) {
  return earlier_end >= later_start - touch_tolerance(earlier_end, later_start);
}

class MapTimeline {
 public:
  double allocate(double ready, double dur) {
    if (dur <= 0) return ready;
    double t = ready;
    auto it = intervals_.upper_bound(t);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > t) t = prev->second;
    }
    while (it != intervals_.end() && it->first < t + dur) {
      t = std::max(t, it->second);
      ++it;
    }
    double lo = t;
    double hi = t + dur;
    auto next = intervals_.lower_bound(lo);
    if (next != intervals_.begin()) {
      auto prev = std::prev(next);
      if (touches(prev->second, lo)) {
        lo = prev->first;
        hi = std::max(hi, prev->second);
        next = intervals_.erase(prev);
      }
    }
    while (next != intervals_.end() && touches(hi, next->first)) {
      hi = std::max(hi, next->second);
      next = intervals_.erase(next);
    }
    intervals_.emplace(lo, hi);
    return t;
  }

 private:
  std::map<double, double> intervals_;
};

class RankSet {
 public:
  explicit RankSet(int num_ranks = 0)
      : words_((static_cast<std::size_t>(num_ranks) + 63) / 64) {}
  void set(int r) { words_[static_cast<std::size_t>(r) / 64] |= 1ull << (r % 64); }
  void merge(const RankSet& o) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  }
  bool contains(const RankSet& o) const {
    for (std::size_t i = 0; i < o.words_.size(); ++i) {
      if ((o.words_[i] & ~words_[i]) != 0) return false;
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> words_;
};

struct PieceState {
  std::vector<double> block_arrival;
  RankSet contributors;
  bool present = false;
  bool forwarded = false;
};

using StateKey = std::uint64_t;

StateKey key_of(int piece, int rank) {
  return (static_cast<StateKey>(static_cast<std::uint32_t>(piece)) << 32) |
         static_cast<std::uint32_t>(rank);
}

struct Engine {
  const topo::TopologyGroups& groups;
  const sim::SimOptions& opts;
  const sim::Schedule& schedule;
  int num_ranks;

  std::unordered_map<StateKey, PieceState> state;
  std::unordered_map<StateKey, MapTimeline> port_busy;
  double makespan = 0.0;
  std::size_t num_events = 0;

  Engine(const topo::TopologyGroups& g, const sim::SimOptions& o, const sim::Schedule& s)
      : groups(g), opts(o), schedule(s) {
    num_ranks =
        groups.group_of.empty() ? 0 : static_cast<int>(groups.group_of.front().size());
  }

  int blocks_for(double bytes) const {
    const int nb = static_cast<int>(std::ceil(bytes / std::max(1.0, opts.block_bytes)));
    return std::clamp(nb, 1, std::max(1, opts.max_blocks));
  }

  PieceState& state_at(int piece, int rank) {
    auto [it, inserted] = state.try_emplace(key_of(piece, rank));
    if (inserted) {
      const sim::Piece& p = schedule.pieces[static_cast<std::size_t>(piece)];
      const int nb = blocks_for(p.bytes);
      PieceState& ps = it->second;
      ps.contributors = RankSet(num_ranks);
      if (!p.reduce && p.origin == rank) {
        ps.block_arrival.assign(static_cast<std::size_t>(nb), 0.0);
        ps.present = true;
      } else if (p.reduce &&
                 std::binary_search(p.contributors.begin(), p.contributors.end(), rank)) {
        ps.block_arrival.assign(static_cast<std::size_t>(nb), 0.0);
        ps.present = true;
        ps.contributors.set(rank);
      } else {
        ps.block_arrival.assign(static_cast<std::size_t>(nb),
                                std::numeric_limits<double>::infinity());
      }
    }
    return it->second;
  }

  void run() {
    std::vector<std::size_t> order(schedule.ops.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return schedule.ops[a].phase < schedule.ops[b].phase;
    });
    double phase_floor = 0.0;
    double phase_max = 0.0;
    int current_phase = order.empty() ? 0 : schedule.ops[order.front()].phase;
    for (std::size_t idx : order) {
      const sim::TransferOp& op = schedule.ops[idx];
      if (op.phase != current_phase) {
        phase_floor = phase_max;
        current_phase = op.phase;
      }
      const double finish = run_op(idx, phase_floor);
      phase_max = std::max(phase_max, finish);
      makespan = std::max(makespan, finish);
    }
  }

  double run_op(std::size_t idx, double phase_floor) {
    const sim::TransferOp& op = schedule.ops[idx];
    const sim::Piece& p = schedule.pieces[static_cast<std::size_t>(op.piece)];

    int dim = op.dim;
    if (dim < 0) dim = groups.best_common_dim(op.src, op.dst);
    if (dim < 0 || dim >= groups.num_dims()) {
      throw std::invalid_argument("op endpoints share no dimension group");
    }
    const int g_src =
        groups.group_of[static_cast<std::size_t>(dim)][static_cast<std::size_t>(op.src)];
    const int g_dst =
        groups.group_of[static_cast<std::size_t>(dim)][static_cast<std::size_t>(op.dst)];
    if (g_src < 0 || g_src != g_dst) {
      throw std::invalid_argument("op crosses groups in dimension " + std::to_string(dim));
    }
    const topo::GroupTopology& gt = groups.group(dim, g_src);
    const int ls = gt.local_of(op.src);
    const int ld = gt.local_of(op.dst);

    std::vector<const topo::PathHop*> path;
    for (const auto& h : gt.up_hops[static_cast<std::size_t>(ls)]) path.push_back(&h);
    for (const auto& h : gt.down_hops[static_cast<std::size_t>(ld)]) path.push_back(&h);

    PieceState& src_state = state_at(op.piece, op.src);
    if (!src_state.present) {
      throw std::invalid_argument("piece not available at op source rank");
    }
    const std::vector<double> src_arrival = src_state.block_arrival;
    const RankSet src_contrib = src_state.contributors;

    const int nb = blocks_for(p.bytes);
    const double block_bytes = p.bytes / nb;

    PieceState& dst_state = state_at(op.piece, op.dst);
    if (p.reduce && dst_state.forwarded && !dst_state.contributors.contains(src_contrib)) {
      throw std::invalid_argument("stale reduce contribution");
    }
    double finish = 0.0;
    for (int b = 0; b < nb; ++b) {
      const double ready = std::max(src_arrival[static_cast<std::size_t>(b)], phase_floor);
      double head = ready;
      double tail = ready;
      for (const topo::PathHop* hop : path) {
        MapTimeline& link =
            port_busy[static_cast<StateKey>(static_cast<std::uint32_t>(hop->link_id))];
        const double occupy = block_bytes * hop->beta;
        const double start = link.allocate(head, occupy);
        head = start + hop->alpha;
        tail = std::max(start + hop->alpha + occupy, tail + hop->alpha);
        num_events++;
      }
      const double arrival = tail;
      double& slot = dst_state.block_arrival[static_cast<std::size_t>(b)];
      if (p.reduce) {
        slot = dst_state.present ? std::max(slot, arrival) : arrival;
      } else {
        slot = std::min(slot, arrival);
      }
      finish = std::max(finish, arrival);
    }
    dst_state.present = true;
    if (p.reduce) {
      dst_state.contributors.merge(src_contrib);
      state.find(key_of(op.piece, op.src))->second.forwarded = true;
    }
    return finish;
  }
};

}  // namespace refsim

namespace {

struct Case {
  std::string desc;
  topo::Topology topo;
  topo::TopologyGroups groups;
  sim::SimOptions sim_opts;
  std::vector<sim::Schedule> schedules;
  std::unique_ptr<sim::Simulator> simulator;  ///< built once, outside timing
};

std::vector<std::uint64_t> load_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_sim: cannot open corpus file %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string token;
    if (ls >> token) seeds.push_back(std::stoull(token, nullptr, 0));
  }
  return seeds;
}

/// Expands one corpus seed exactly like fuzz::run_differential_case: same
/// rng draw order, same topology/collective/options, direct schedule plus
/// two mutants.
Case build_case(std::uint64_t seed) {
  util::Rng rng(seed);
  Case c;
  fuzz::RandomTopology rt = fuzz::random_topology(rng);
  c.desc = rt.desc;
  c.topo = std::move(rt.topo);
  c.groups = topo::extract_groups(c.topo);
  const int num_ranks = static_cast<int>(c.topo.num_gpus());
  const coll::Collective coll = fuzz::random_collective(rng, num_ranks);
  c.sim_opts.block_bytes = static_cast<double>(std::uint64_t{1} << rng.next_in(14, 20));
  c.sim_opts.max_blocks = static_cast<int>(rng.next_in(1, 8));
  const sim::Schedule direct = fuzz::random_direct_schedule(coll, c.groups, rng);
  c.schedules.push_back(direct);
  for (int m = 0; m < 2; ++m) {
    sim::Schedule mutant = direct;
    fuzz::mutate_schedule(mutant, c.groups, rng, 1 + static_cast<int>(rng.next_below(3)));
    c.schedules.push_back(std::move(mutant));
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string corpus_path = argc > 1 ? argv[1] : SYCCL_CORPUS_PATH;
  const std::vector<std::uint64_t> seeds = load_corpus(corpus_path);
  if (seeds.empty()) {
    std::fprintf(stderr, "bench_sim: empty corpus %s\n", corpus_path.c_str());
    return 2;
  }

  // Heap-pinned cases: the Simulator keeps a reference to its case's groups,
  // so it must be constructed only once the Case has its final address.
  std::vector<std::unique_ptr<Case>> case_ptrs;
  case_ptrs.reserve(seeds.size());
  for (const std::uint64_t s : seeds) {
    case_ptrs.push_back(std::make_unique<Case>(build_case(s)));
    Case& c = *case_ptrs.back();
    c.simulator = std::make_unique<sim::Simulator>(c.groups, c.sim_opts);
  }

  std::size_t num_schedules = 0;
  for (const auto& c : case_ptrs) num_schedules += c->schedules.size();

  // Correctness tripwire + per-sweep event count: the rewrite must be a pure
  // layout change, so every makespan matches the baseline bit-for-bit and
  // both engines must agree on which schedules to reject. Some pinned corpus
  // seeds intentionally mutate into rejected schedules; agree-to-throw is a
  // pass, and only cleanly-simulating schedules enter the timed sweeps.
  std::size_t events_per_sweep = 0;
  std::size_t mismatches = 0;
  std::size_t rejected = 0;
  for (auto& cp : case_ptrs) {
    Case& c = *cp;
    std::vector<sim::Schedule> kept;
    for (sim::Schedule& s : c.schedules) {
      bool new_ok = true;
      sim::SimResult r;
      try {
        r = c.simulator->run(s);
      } catch (const std::invalid_argument&) {
        new_ok = false;
      }
      bool ref_ok = true;
      refsim::Engine ref(c.groups, c.sim_opts, s);
      try {
        ref.run();
      } catch (const std::invalid_argument&) {
        ref_ok = false;
      }
      if (new_ok != ref_ok) {
        ++mismatches;
        std::fprintf(stderr, "bench_sim: VERDICT MISMATCH on %s (new %s, ref %s)\n",
                     c.desc.c_str(), new_ok ? "ok" : "throw", ref_ok ? "ok" : "throw");
        continue;
      }
      if (!new_ok) {
        ++rejected;
        continue;
      }
      if (r.makespan != ref.makespan || r.num_events != ref.num_events) {
        ++mismatches;
        std::fprintf(stderr, "bench_sim: MISMATCH on %s: new %.17g/%zu vs ref %.17g/%zu\n",
                     c.desc.c_str(), r.makespan, r.num_events, ref.makespan,
                     ref.num_events);
        continue;
      }
      events_per_sweep += r.num_events;
      kept.push_back(std::move(s));
    }
    c.schedules = std::move(kept);
  }
  num_schedules = 0;
  for (const auto& c : case_ptrs) num_schedules += c->schedules.size();

  // Warm both sides, then size the repetition count so the (fast) production
  // sweep runs long enough to time reliably.
  util::Stopwatch probe;
  for (const auto& c : case_ptrs) {
    for (const sim::Schedule& s : c->schedules) c->simulator->run(s);
  }
  const double probe_s = probe.elapsed_seconds();
  const int reps = std::max(3, static_cast<int>(std::ceil(0.5 / std::max(probe_s, 1e-4))));

  // Interleave the production and baseline sweeps rep by rep instead of
  // timing two long back-to-back phases: machine-load drift then hits both
  // sides of the ratio equally instead of skewing whichever phase it lands
  // on (the ratio, not the absolute rate, is what the gate checks).
  double new_s = 0.0;
  double ref_s = 0.0;
  for (int r = 0; r < reps; ++r) {
    {
      const util::Stopwatch sw;
      for (const auto& c : case_ptrs) {
        for (const sim::Schedule& s : c->schedules) c->simulator->run(s);
      }
      new_s += sw.elapsed_seconds();
    }
    {
      const util::Stopwatch sw;
      for (const auto& c : case_ptrs) {
        for (const sim::Schedule& s : c->schedules) {
          refsim::Engine ref(c->groups, c->sim_opts, s);
          ref.run();
        }
      }
      ref_s += sw.elapsed_seconds();
    }
  }

  // Informational: batched throughput with a pool — the path the synthesizer
  // uses for candidate fan-out.
  util::ThreadPool pool(0);
  std::vector<std::vector<const sim::Schedule*>> ptrs(case_ptrs.size());
  for (std::size_t i = 0; i < case_ptrs.size(); ++i) {
    for (const sim::Schedule& s : case_ptrs[i]->schedules) ptrs[i].push_back(&s);
  }
  util::Stopwatch batch_clock;
  for (int r = 0; r < reps; ++r) {
    for (std::size_t i = 0; i < case_ptrs.size(); ++i) {
      case_ptrs[i]->simulator->run_batch(ptrs[i], &pool);
    }
  }
  const double batch_s = batch_clock.elapsed_seconds();

  const double total_events = static_cast<double>(events_per_sweep) * reps;
  const double new_eps = total_events / new_s;
  const double ref_eps = total_events / ref_s;
  const double batch_eps = total_events / batch_s;
  const double ratio = new_eps / ref_eps;
  constexpr double kGate = 5.0;
  const bool pass = mismatches == 0 && ratio >= kGate;

  std::printf("bench_sim: %zu seeds, %zu schedules (%zu rejected by both), "
              "%zu events/sweep, %d reps\n",
              seeds.size(), num_schedules, rejected, events_per_sweep, reps);
  std::printf("  ref  %10.0f events/sec (%.3f s)\n", ref_eps, ref_s);
  std::printf("  new  %10.0f events/sec (%.3f s)  ratio %.2fx (gate >= %.1fx)\n", new_eps,
              new_s, ratio, kGate);
  std::printf("  batch %9.0f events/sec (%.3f s, pool=%zu)\n", batch_eps, batch_s,
              pool.size());

  obs::Json json = obs::Json::object();
  json.set("bench", "sim");
  json.set("seeds", seeds.size());
  json.set("schedules", num_schedules);
  json.set("events_per_sweep", events_per_sweep);
  json.set("reps", reps);
  json.set("ref_events_per_sec", static_cast<long>(ref_eps));
  json.set("new_events_per_sec", static_cast<long>(new_eps));
  json.set("batch_events_per_sec", static_cast<long>(batch_eps));
  json.set("ratio", ratio);
  json.set("gate", kGate);
  json.set("mismatches", mismatches);
  json.set("pass", pass);
  benchutil::emit_json("sim", json.dump());

  if (!pass) {
    std::fprintf(stderr, "bench_sim: FAIL (%s)\n",
                 mismatches != 0 ? "baseline mismatch" : "speedup below gate");
    return 1;
  }
  return 0;
}

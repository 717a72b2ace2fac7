#include "core/synthesizer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "coll/decompose.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/solve_cache.h"
#include "core/merge.h"
#include "core/subdemand.h"
#include "sketch/alltoall.h"
#include "sketch/search.h"
#include "topo/groups.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace syccl::core {

namespace {

/// A candidate = one sketch combination with its demand plan and the
/// isomorphism-class index of every merged sub-demand. The combination
/// itself is freed once the plan is built; only its description stays.
struct Candidate {
  /// Index of the first earlier candidate with an equal combination, or -1.
  /// A copy has no plan of its own: it is never planned, merged or
  /// simulated, and takes its original's predicted times.
  int copy_of = -1;
  std::string description;
  DemandPlan plan;
  std::vector<int> demand_class;
  /// Per-demand piece map carrying the class representative's solution onto
  /// this demand's piece ids (empty, the identity, for the representative
  /// itself and for demands listing their pieces in the same order).
  std::vector<std::vector<int>> demand_remap;
};

/// One target's ranking of the shared candidates.
struct TargetState {
  /// Predicted time per candidate; ∞ until timed, and once rejected.
  std::vector<double> predicted;
  /// The surviving originals the fine pass evaluates, fastest coarse first.
  std::vector<std::size_t> fine;
  /// Why the target produced no schedule (empty while it still can).
  std::string error;
};

/// A pass's schedules by candidate index: the merged forward ones, and each
/// reversed target's flips of them.
struct Evaluated {
  std::vector<sim::Schedule> forward;
  std::vector<std::vector<sim::Schedule>> flipped;
};

/// Isomorphism-class registry shared by all candidates of one synthesis.
/// Owns copies of its representative demands so solving never depends on
/// candidate storage. Classes are keyed on the canonical demand key, so
/// demands that list the same pieces in a different order (the rotated
/// groups of one dimension) share a class; intern() returns the piece map
/// that carries the representative's solution onto the interned demand.
struct ClassRegistry {
  std::map<std::string, int> index_of;
  std::vector<solver::SubDemand> representative;
  std::vector<solver::CanonicalDemand> canon;  ///< of the representative

  /// `cd` is `demand.canonical()`, computed by the caller (on the pool).
  std::pair<int, std::vector<int>> intern(const solver::SubDemand& demand,
                                          solver::CanonicalDemand cd) {
    const auto it = index_of.find(cd.key);
    if (it == index_of.end()) {
      const int id = static_cast<int>(representative.size());
      index_of.emplace(cd.key, id);
      representative.push_back(demand);
      canon.push_back(std::move(cd));
      return {id, {}};
    }
    const solver::CanonicalDemand& rep = canon[static_cast<std::size_t>(it->second)];
    if (rep.identity && cd.identity) return {it->second, {}};
    // Compose rep piece id -> canonical piece id -> this demand's piece id.
    const std::vector<int> down = cd.from_canonical();
    std::vector<int> remap(rep.piece_perm.size());
    bool ident = true;
    for (std::size_t i = 0; i < rep.piece_perm.size(); ++i) {
      const int to = down.empty() ? rep.piece_perm[i]
                                  : down[static_cast<std::size_t>(rep.piece_perm[i])];
      remap[i] = to;
      if (to != static_cast<int>(i)) ident = false;
    }
    if (ident) return {it->second, {}};
    return {it->second, std::move(remap)};
  }
};

}  // namespace

Synthesizer::Synthesizer(const topo::Topology& topo, SynthesisConfig config)
    : topo_(topo),
      groups_(topo::extract_groups(topo)),
      config_(std::move(config)),
      pool_(static_cast<std::size_t>(std::max(0, config_.num_threads))) {}

SynthesisResult Synthesizer::synthesize(const coll::Collective& coll) {
  SYCCL_TRACE_SPAN(span, "synthesize", "core");
  using coll::CollKind;
  switch (coll.kind()) {
    case CollKind::SendRecv:
      return synthesize_sendrecv(coll);
    case CollKind::Broadcast:
      return synthesize_pattern(coll, false, coll.chunks().front().src,
                                sketch::RootedPattern::Broadcast, {{&coll, false}});
    case CollKind::Scatter:
      return synthesize_pattern(coll, false, coll.chunks().front().src,
                                sketch::RootedPattern::Scatter, {{&coll, false}});
    case CollKind::Reduce: {
      // Reverse of Broadcast rooted at the reduce root: synthesize the
      // forward twin, then flip (§4.1). The twin carries the reduce's exact
      // chunk size; the integer total/n of make_broadcast truncates it when
      // the rank count does not divide the size.
      const int root = coll.chunks().front().dsts.front();
      const coll::Collective fwd =
          coll::make_broadcast(coll.num_ranks(), coll.total_bytes() / coll.num_ranks(), root);
      const coll::Collective twin(fwd.kind(), fwd.num_ranks(), fwd.total_bytes(),
                                  coll.chunk_bytes(), fwd.reduce(), fwd.chunks());
      return synthesize_pattern(twin, false, root, sketch::RootedPattern::Broadcast,
                                {{&coll, true}});
    }
    case CollKind::Gather: {
      const int root = coll.chunks().front().dsts.front();
      const coll::Collective twin =
          coll::make_scatter(coll.num_ranks(), coll.total_bytes(), root);
      return synthesize_pattern(twin, false, root, sketch::RootedPattern::Scatter,
                                {{&coll, true}});
    }
    case CollKind::AllGather:
      return synthesize_pattern(coll, true, 0, sketch::RootedPattern::Broadcast,
                                {{&coll, false}});
    case CollKind::AllToAll:
      return synthesize_pattern(coll, true, 0, sketch::RootedPattern::Scatter,
                                {{&coll, false}});
    case CollKind::ReduceScatter: {
      // Reverse of AllGather with the same per-chunk size.
      const coll::Collective twin = coll::make_allgather(coll.num_ranks(), coll.total_bytes());
      return synthesize_pattern(twin, true, 0, sketch::RootedPattern::Broadcast,
                                {{&coll, true}});
    }
    case CollKind::AllReduce: {
      // ReduceScatter is the flipped AllGather, so both phases rank one
      // AllGather prefix and share its sub-demand classes (§4.3, §5.3).
      const auto [rs, ag] = coll::allreduce_phases(coll);
      SynthesisResult out = synthesize_pattern(ag, true, 0, sketch::RootedPattern::Broadcast,
                                               {{&rs, true}, {&ag, false}});
      out.schedule.name = "syccl-allreduce";
      return out;
    }
  }
  throw std::invalid_argument("unsupported collective kind");
}

SynthesisResult Synthesizer::synthesize_sendrecv(const coll::Collective& coll) {
  SynthesisResult out;
  out.schedule.name = "syccl-sendrecv";
  out.schedule.pieces = sim::pieces_for(coll);
  const auto& chunk = coll.chunks().front();
  out.schedule.add_op(0, chunk.src, chunk.dsts.front());
  const sim::Simulator simulator(groups_, config_.sim);
  out.predicted_time = simulator.time_collective(out.schedule, coll);
  out.chosen = "direct send";
  return out;
}

SynthesisResult Synthesizer::synthesize_pattern(const coll::Collective& coll, bool all_to_all,
                                                int root, sketch::RootedPattern pattern,
                                                const std::vector<Target>& targets) {
  SYCCL_TRACE_SPAN(synth_span, "synthesize_pattern", "core");
  util::Stopwatch total_clock;
  SynthesisBreakdown breakdown;
  util::Stopwatch phase_clock;

  // ---- Phase 1a: sketch search (§4.1).
  std::vector<sketch::Sketch> sketches;
  std::vector<sketch::Sketch> prototypes;
  {
    SYCCL_TRACE_SPAN(span, "sketch_search", "core");
    sketches = sketch::search_sketches(groups_, root, pattern, config_.sketch.search);
    span.annotate("sketches", static_cast<double>(sketches.size()));
    // `sketches` is kept alive: when none of the selected prototypes
    // replicates (degraded/failed topologies), phase 1b falls back to the
    // full search output — profile dedup in select_prototypes can hide a
    // replicable sketch behind an infeasible one with the same workload.
    prototypes = sketch::select_prototypes(sketches, groups_, config_.sketch.max_prototypes);
    span.annotate("prototypes", static_cast<double>(prototypes.size()));
  }
  breakdown.search_s = phase_clock.elapsed_seconds();

  // ---- Phase 1b: replication + cross-dimension combination (§4.2/§4.3).
  phase_clock.reset();
  std::vector<sketch::SketchCombination> combos;
  {
    SYCCL_TRACE_SPAN(span, "combine", "core");
    combos = sketch::combine_prototypes(prototypes, sketches, groups_, all_to_all,
                                        config_.sketch.combine, &pool_);
    span.annotate("combinations", static_cast<double>(combos.size()));
  }
  breakdown.combine_s = phase_clock.elapsed_seconds();
  breakdown.num_combinations = static_cast<int>(combos.size());

  // ---- Phase 2a: coarse solve of every candidate (§5.1, E₁).
  phase_clock.reset();
  std::vector<Candidate> candidates(combos.size());
  ClassRegistry registry;
  {
    // Allocation can zero a family of a subset and reproduce a smaller
    // subset's combination exactly. Each candidate looks for the first
    // earlier equal combination; the scan only reads `combos`, so it runs
    // on the pool before anything is freed.
    SYCCL_TRACE_SPAN(span, "demand_plan", "core");
    pool_.parallel_for(combos.size(), [&](std::size_t i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (combos[j] == combos[i]) {
          candidates[i].copy_of = static_cast<int>(j);
          return;
        }
      }
    });
    // Demand planning and canonicalisation run per original on the pool
    // (outputs written by index), and every combination is freed there too;
    // interning then walks the candidates in order, so class ids and remaps
    // match a serial pass.
    std::vector<std::vector<solver::CanonicalDemand>> canon(combos.size());
    pool_.parallel_for(combos.size(), [&](std::size_t i) {
      Candidate& cand = candidates[i];
      if (cand.copy_of < 0) {
        SYCCL_TRACE_SPAN(plan_span, "plan_candidate", "core");
        cand.plan = build_demand_plan(combos[i], coll, groups_);
        cand.description = combos[i].describe();
        canon[i].reserve(cand.plan.demands.size());
        for (const auto& md : cand.plan.demands) canon[i].push_back(md.demand.canonical());
      }
      combos[i] = {};
    });
    int copies = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      Candidate& cand = candidates[i];
      if (cand.copy_of >= 0) {
        // A copy counts its original's demands, as if it had planned them.
        ++copies;
        breakdown.num_subdemands += static_cast<int>(
            candidates[static_cast<std::size_t>(cand.copy_of)].plan.demands.size());
        continue;
      }
      cand.demand_class.reserve(cand.plan.demands.size());
      cand.demand_remap.reserve(cand.plan.demands.size());
      for (std::size_t k = 0; k < cand.plan.demands.size(); ++k) {
        auto [cls, remap] = registry.intern(cand.plan.demands[k].demand, std::move(canon[i][k]));
        cand.demand_class.push_back(cls);
        cand.demand_remap.push_back(std::move(remap));
      }
      canon[i] = {};
      breakdown.num_subdemands += static_cast<int>(cand.plan.demands.size());
    }
    span.annotate("demands", static_cast<double>(breakdown.num_subdemands));
    span.annotate("classes", static_cast<double>(registry.representative.size()));
    span.annotate("copies", static_cast<double>(copies));
  }

  auto solve_classes = [&](const solver::SolveOptions& opts,
                           const std::vector<bool>& needed,
                           std::vector<solver::SubSchedule>& out) {
    std::vector<int> todo;
    for (std::size_t c = 0; c < registry.representative.size(); ++c) {
      if (needed[c]) todo.push_back(static_cast<int>(c));
    }
    out.resize(registry.representative.size());
    std::vector<double> solve_times(todo.size(), 0.0);
    std::atomic<int> hits{0};
    pool_.parallel_for(todo.size(), [&](std::size_t i) {
      SYCCL_TRACE_SPAN(span, "solve_class", "core");
      const std::size_t c = static_cast<std::size_t>(todo[i]);
      span.annotate("class", static_cast<double>(c));
      solver::SolveStats stats;
      out[c] = solver::SubScheduleCache::instance().get_or_solve(
          registry.representative[c], registry.canon[c], opts, &stats);
      if (stats.cache_hit) hits.fetch_add(1);
      solve_times[i] = stats.solve_seconds;
    });
    const int n_hits = hits.load();
    breakdown.num_solver_calls += static_cast<int>(todo.size()) - n_hits;
    breakdown.cache_hits += n_hits;
    for (double t : solve_times) breakdown.max_solve_s = std::max(breakdown.max_solve_s, t);
  };

  std::vector<bool> all_needed(registry.representative.size(), true);
  std::vector<solver::SubSchedule> coarse_solutions;
  {
    SYCCL_TRACE_SPAN(span, "coarse_solve", "core");
    span.annotate("classes", static_cast<double>(registry.representative.size()));
    solve_classes(config_.coarse_solver, all_needed, coarse_solutions);
  }

  const sim::Simulator simulator(groups_, config_.sim);
  const int num_ranks = static_cast<int>(groups_.group_of.front().size());
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<TargetState> state(targets.size());
  for (TargetState& s : state) s.predicted.assign(candidates.size(), kInf);
  const bool forward_target = std::any_of(targets.begin(), targets.end(),
                                          [](const Target& t) { return !t.reverse; });

  // Batched candidate evaluation of `ranked[t]`, the candidates target t
  // ranks: each candidate is merged once on the pool, then priced for every
  // target through the simulator's batch API (one shared topology/path
  // cache, candidates fanned across the pool). A failure rejects one
  // candidate, and every output is written by candidate index — so the
  // selection below is deterministic regardless of pool size.
  auto evaluate = [&](const std::vector<std::vector<std::size_t>>& ranked,
                      const std::vector<solver::SubSchedule>& solutions, const char* pass) {
    // Issue-order tuning triples simulation cost; the coarse pass only needs
    // a ranking, so it simulates once and leaves tuning to the fine pass.
    const bool tune = pass[0] == 'f';
    SYCCL_TRACE_SPAN(span, "evaluate_candidates", "core");
    std::vector<std::size_t> ids;  // every candidate some target ranks
    for (const auto& list : ranked) ids.insert(ids.end(), list.begin(), list.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    span.annotate("candidates", static_cast<double>(ids.size()));
    span.annotate("fine", tune ? 1.0 : 0.0);
    Evaluated ev;
    ev.forward.resize(candidates.size());
    ev.flipped.resize(targets.size());
    std::vector<std::string> error(candidates.size());

    pool_.parallel_for(ids.size(), [&](std::size_t j) {
      SYCCL_TRACE_SPAN(merge_span, "merge_schedule", "core");
      const Candidate& cand = candidates[ids[j]];
      std::vector<solver::SubSchedule> per_demand;
      per_demand.reserve(cand.plan.demands.size());
      for (std::size_t k = 0; k < cand.demand_class.size(); ++k) {
        const auto& sol = solutions[static_cast<std::size_t>(cand.demand_class[k])];
        per_demand.push_back(solver::remap_sub_schedule(sol, cand.demand_remap[k]));
      }
      try {
        ev.forward[ids[j]] = merge_schedule(cand.plan, per_demand, groups_, "syccl-candidate");
      } catch (const std::exception& e) {
        error[ids[j]] = e.what();
      }
    });

    // Times or tunes `schedules[i]` against `against` for every i in `list`
    // that has not failed yet; a failure lands in `failed[i]`. Returns the
    // times by candidate index.
    const auto price = [&](std::vector<sim::Schedule>& schedules,
                           const std::vector<std::size_t>& list,
                           std::vector<std::string>& failed, const coll::Collective& against) {
      std::vector<sim::Schedule*> live;
      std::vector<std::size_t> live_ids;
      for (const std::size_t i : list) {
        if (!failed[i].empty()) continue;
        live.push_back(&schedules[i]);
        live_ids.push_back(i);
      }
      const std::vector<sim::BatchTiming> timings =
          tune ? simulator.tune_issue_orders(live, against, 2, &pool_)
               : simulator.time_collectives(live, against, &pool_);
      std::vector<double> seconds(candidates.size(), kInf);
      for (std::size_t j = 0; j < timings.size(); ++j) {
        failed[live_ids[j]] = timings[j].error;
        seconds[live_ids[j]] = timings[j].time;
      }
      return seconds;
    };

    // Issue-order tuning removes head-of-line blocking under the per-port
    // FIFO execution model (§5.2 simulator ranking). The fine pass tunes
    // every forward schedule, whichever target ranks it: reversing a
    // well-ordered schedule preserves its pipelining, reversing a raw one
    // does not (§4.1). So a tuning failure rejects the candidate for every
    // target. The coarse pass times forward schedules only for a forward
    // target.
    std::vector<std::string> forward_error = error;
    std::vector<double> forward_seconds;
    if (tune || forward_target) forward_seconds = price(ev.forward, ids, forward_error, coll);
    if (tune) error = forward_error;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      std::vector<std::string> failed = targets[t].reverse ? error : forward_error;
      if (targets[t].reverse) {
        std::vector<sim::Schedule>& flipped = ev.flipped[t];
        flipped.resize(candidates.size());
        pool_.parallel_for(ranked[t].size(), [&](std::size_t k) {
          const std::size_t i = ranked[t][k];
          if (!failed[i].empty()) return;
          try {
            flipped[i] = reverse_schedule(ev.forward[i], targets[t].coll->reduce(), num_ranks,
                                          "syccl-candidate");
          } catch (const std::exception& e) {
            failed[i] = e.what();
          }
          // A lone target is the forward schedule's last reader.
          if (targets.size() == 1) ev.forward[i] = {};
        });
      }
      const std::vector<double> seconds =
          targets[t].reverse ? price(ev.flipped[t], ranked[t], failed, *targets[t].coll)
                             : forward_seconds;
      for (const std::size_t i : ranked[t]) {
        if (failed[i].empty()) {
          state[t].predicted[i] = seconds[i];
          SYCCL_DEBUG << pass << " candidate " << candidates[i].description << " -> "
                      << seconds[i] * 1e6 << " us";
        } else {
          SYCCL_WARN << "candidate rejected in " << pass << " pass: " << failed[i];
          state[t].predicted[i] = kInf;
        }
      }
    }
    return ev;
  };

  {
    SYCCL_TRACE_SPAN(span, "coarse_eval", "core");
    span.annotate("candidates", static_cast<double>(candidates.size()));
    std::vector<std::size_t> originals;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (candidates[i].copy_of < 0) originals.push_back(i);
    }
    evaluate(std::vector<std::vector<std::size_t>>(targets.size(), originals), coarse_solutions,
             "coarse");
    // An original precedes its copies and has its coarse results now.
    for (TargetState& s : state) {
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const int original = candidates[i].copy_of;
        if (original >= 0) s.predicted[i] = s.predicted[static_cast<std::size_t>(original)];
      }
    }
  }
  breakdown.solve1_s = phase_clock.elapsed_seconds();

  // ---- Candidate filter per target: within R1 of the best, at most R2
  // (§5.3).
  phase_clock.reset();
  std::size_t num_survivors = 0;
  for (TargetState& s : state) {
    double best_coarse = kInf;
    for (const double p : s.predicted) best_coarse = std::min(best_coarse, p);
    if (!std::isfinite(best_coarse)) {
      s.error = "every sketch combination failed to produce a valid schedule";
      continue;
    }
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (s.predicted[i] <= best_coarse * (1.0 + config_.R1)) survivors.push_back(i);
    }
    std::stable_sort(survivors.begin(), survivors.end(), [&](std::size_t a, std::size_t b) {
      return s.predicted[a] < s.predicted[b];
    });
    if (static_cast<int>(survivors.size()) > config_.R2) {
      survivors.resize(static_cast<std::size_t>(config_.R2));
    }
    num_survivors += survivors.size();
    // A copy ties its original and sorts after it, so its original survives
    // too and the copy can never win the strict `<` scan below: the fine pass
    // evaluates and scans the survivors that are originals.
    for (const std::size_t i : survivors) {
      if (candidates[i].copy_of < 0) s.fine.push_back(i);
    }
  }
  // The lowest-index target's error wins, so the first target's ends the
  // synthesis at once; a later target's waits until the earlier ones finish.
  if (!state.front().error.empty()) throw std::runtime_error(state.front().error);

  // ---- Phase 2b: fine solve of every target's survivors (E₂) and final
  // selection.
  const std::vector<solver::SubSchedule>* final_solutions = &coarse_solutions;
  std::vector<solver::SubSchedule> fine_solutions;
  if (config_.two_step) {
    SYCCL_TRACE_SPAN(span, "fine_solve", "core");
    std::vector<bool> needed(registry.representative.size(), false);
    for (const TargetState& s : state) {
      for (const std::size_t i : s.fine) {
        for (int c : candidates[i].demand_class) needed[static_cast<std::size_t>(c)] = true;
      }
    }
    solve_classes(config_.fine_solver, needed, fine_solutions);
    final_solutions = &fine_solutions;
  }

  // Fine evaluation (merge + batched simulate + issue-order tuning) of every
  // target's survivors in one pass. Each target's winner is then picked
  // sequentially by predicted time with a stable index tie-break, so the
  // choice is independent of completion order, and the winners run in
  // sequence (AllReduce: ReduceScatter, then AllGather).
  SynthesisResult result;
  {
    SYCCL_TRACE_SPAN(span, "fine_eval", "core");
    span.annotate("survivors", static_cast<double>(num_survivors));
    std::vector<std::vector<std::size_t>> ranked;
    for (const TargetState& s : state) ranked.push_back(s.fine);
    Evaluated ev = evaluate(ranked, *final_solutions, "fine");
    for (std::size_t t = 0; t < targets.size(); ++t) {
      TargetState& s = state[t];
      double best = kInf;
      std::size_t winner = 0;
      for (const std::size_t i : s.fine) {
        if (s.predicted[i] < best) {
          best = s.predicted[i];
          winner = i;
        }
      }
      if (s.error.empty() && !std::isfinite(best)) {
        s.error = "fine pass invalidated every surviving candidate";
      }
      if (!s.error.empty()) throw std::runtime_error(s.error);
      sim::Schedule& schedule = targets[t].reverse ? ev.flipped[t][winner] : ev.forward[winner];
      if (t == 0) {
        result.schedule = std::move(schedule);
      } else {
        result.schedule.append_sequential(schedule);
        result.chosen += " ++ ";
      }
      result.predicted_time += best;
      result.chosen += candidates[winner].description;
    }
  }
  // Plans are as deep as the combinations they came from: free them on the
  // pool as well instead of serially on return.
  pool_.parallel_for(candidates.size(), [&](std::size_t i) { candidates[i] = Candidate{}; });
  breakdown.solve2_s = phase_clock.elapsed_seconds();
  breakdown.total_s = total_clock.elapsed_seconds();
  result.schedule.name = "syccl";
  result.breakdown = breakdown;

  // Fold the per-call breakdown into the process-wide metrics registry so
  // phase totals aggregate across synthesize() calls (one reporting path
  // with the solver and cache layers). Once per synthesis — name lookups
  // here are not on a hot path.
  {
    auto& reg = obs::MetricsRegistry::instance();
    reg.counter("synth.patterns").add(1);
    reg.counter("synth.combinations").add(breakdown.num_combinations);
    reg.counter("synth.subdemands").add(breakdown.num_subdemands);
    reg.counter("synth.solver_calls").add(breakdown.num_solver_calls);
    reg.histogram("synth.search_seconds").observe(breakdown.search_s);
    reg.histogram("synth.combine_seconds").observe(breakdown.combine_s);
    reg.histogram("synth.solve1_seconds").observe(breakdown.solve1_s);
    reg.histogram("synth.solve2_seconds").observe(breakdown.solve2_s);
    reg.histogram("synth.total_seconds").observe(breakdown.total_s);
    reg.histogram("synth.max_solve_seconds").observe(breakdown.max_solve_s);
  }
  synth_span.annotate("combinations", breakdown.num_combinations);
  synth_span.annotate("subdemands", breakdown.num_subdemands);
  synth_span.annotate("solver_calls", breakdown.num_solver_calls);
  synth_span.annotate("predicted_us", result.predicted_time * 1e6);
  return result;
}

}  // namespace syccl::core

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
  /// simulated, and takes its original's predicted time and validity.
  int copy_of = -1;
  std::string description;
  DemandPlan plan;
  std::vector<int> demand_class;
  /// Per-demand remap carrying the class representative's solution into this
  /// demand's local coordinates (identity for the representative itself and
  /// for positionally identical demands).
  std::vector<solver::SubScheduleRemap> demand_remap;
  double predicted = std::numeric_limits<double>::infinity();
  bool valid = true;
};

/// Isomorphism-class registry shared by all candidates of one synthesis.
/// Owns copies of its representative demands so solving never depends on
/// candidate storage. Classes are keyed on the *canonical* demand key, so
/// demands whose groups are isomorphic but differently labelled (e.g. the
/// same degraded link at different ranks) share a class; intern() returns
/// the remap that repositions the representative's solution onto the
/// interned demand.
struct ClassRegistry {
  std::map<std::string, int> index_of;
  std::vector<solver::SubDemand> representative;
  std::vector<solver::CanonicalDemand> canon;  ///< of the representative

  /// `cd` is `demand.canonical()`, computed by the caller (on the pool).
  std::pair<int, solver::SubScheduleRemap> intern(const solver::SubDemand& demand,
                                                  solver::CanonicalDemand cd) {
    const auto it = index_of.find(cd.key);
    if (it == index_of.end()) {
      const int id = static_cast<int>(representative.size());
      index_of.emplace(cd.key, id);
      representative.push_back(demand);
      canon.push_back(std::move(cd));
      return {id, solver::SubScheduleRemap{}};
    }
    const solver::CanonicalDemand& rep = canon[static_cast<std::size_t>(it->second)];
    if (rep.identity && cd.identity) return {it->second, solver::SubScheduleRemap{}};
    // Compose rep-local -> canonical -> this-local.
    const solver::SubScheduleRemap down = cd.from_canonical();
    solver::SubScheduleRemap remap;
    remap.member.resize(rep.member_perm.size());
    remap.piece.resize(rep.piece_perm.size());
    bool ident = true;
    for (std::size_t i = 0; i < rep.member_perm.size(); ++i) {
      const int to = down.is_identity()
                         ? rep.member_perm[i]
                         : down.member[static_cast<std::size_t>(rep.member_perm[i])];
      remap.member[i] = to;
      if (to != static_cast<int>(i)) ident = false;
    }
    for (std::size_t i = 0; i < rep.piece_perm.size(); ++i) {
      const int to = down.is_identity()
                         ? rep.piece_perm[i]
                         : down.piece[static_cast<std::size_t>(rep.piece_perm[i])];
      remap.piece[i] = to;
      if (to != static_cast<int>(i)) ident = false;
    }
    if (ident) return {it->second, solver::SubScheduleRemap{}};
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
      return synthesize_pattern(coll, coll, false, coll.chunks().front().src,
                                sketch::RootedPattern::Broadcast, false);
    case CollKind::Scatter:
      return synthesize_pattern(coll, coll, false, coll.chunks().front().src,
                                sketch::RootedPattern::Scatter, false);
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
      return synthesize_pattern(twin, coll, false, root, sketch::RootedPattern::Broadcast,
                                true);
    }
    case CollKind::Gather: {
      const int root = coll.chunks().front().dsts.front();
      const coll::Collective twin =
          coll::make_scatter(coll.num_ranks(), coll.total_bytes(), root);
      return synthesize_pattern(twin, coll, false, root, sketch::RootedPattern::Scatter, true);
    }
    case CollKind::AllGather:
      return synthesize_pattern(coll, coll, true, 0, sketch::RootedPattern::Broadcast, false);
    case CollKind::AllToAll:
      return synthesize_pattern(coll, coll, true, 0, sketch::RootedPattern::Scatter, false);
    case CollKind::ReduceScatter: {
      // Reverse of AllGather with the same per-chunk size.
      const coll::Collective twin = coll::make_allgather(coll.num_ranks(), coll.total_bytes());
      return synthesize_pattern(twin, coll, true, 0, sketch::RootedPattern::Broadcast, true);
    }
    case CollKind::AllReduce: {
      const auto [rs, ag] = coll::allreduce_phases(coll);
      // The phases are independent syntheses, so they run concurrently on
      // the pool (parallel_for is re-entrant). The RS phase is the reversed
      // twin of the AG phase, so their sub-demand classes coincide — the
      // solve cache's in-flight dedup makes whichever phase gets there
      // second reuse the first phase's solves instead of duplicating them.
      SynthesisResult first, second;
      pool_.parallel_for(2, [&](std::size_t i) {
        if (i == 0) {
          first = synthesize(rs);
        } else {
          second = synthesize(ag);
        }
      });
      SynthesisResult out;
      out.schedule = std::move(first.schedule);
      out.schedule.append_sequential(second.schedule);
      out.schedule.name = "syccl-allreduce";
      out.predicted_time = first.predicted_time + second.predicted_time;
      out.breakdown = first.breakdown;
      out.breakdown.search_s += second.breakdown.search_s;
      out.breakdown.combine_s += second.breakdown.combine_s;
      out.breakdown.solve1_s += second.breakdown.solve1_s;
      out.breakdown.solve2_s += second.breakdown.solve2_s;
      out.breakdown.total_s += second.breakdown.total_s;
      out.breakdown.num_combinations += second.breakdown.num_combinations;
      out.breakdown.num_subdemands += second.breakdown.num_subdemands;
      out.breakdown.num_solver_calls += second.breakdown.num_solver_calls;
      out.breakdown.max_solve_s =
          std::max(out.breakdown.max_solve_s, second.breakdown.max_solve_s);
      out.breakdown.cache_hits += second.breakdown.cache_hits;
      out.breakdown.cache_bytes =
          std::max(out.breakdown.cache_bytes, second.breakdown.cache_bytes);
      out.chosen = first.chosen + " ++ " + second.chosen;
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

SynthesisResult Synthesizer::synthesize_pattern(const coll::Collective& coll,
                                                const coll::Collective& eval_coll,
                                                bool all_to_all, int root,
                                                sketch::RootedPattern pattern, bool reverse) {
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

  auto solve_classes = [&](const solver::MilpSchedulerOptions& opts,
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
      out[c] = solver::SubScheduleCache::instance().get_or_solve(registry.representative[c],
                                                                 opts, &stats);
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

  // Batched candidate evaluation: merge every candidate on the pool, then
  // rank the merged schedules through the simulator's batch API (one shared
  // topology/path cache, candidates fanned across the pool). Per-candidate
  // failures surface as BatchTiming errors, never mask other candidates, and
  // every output is written by candidate index — so the selection below is
  // deterministic regardless of pool size.
  auto evaluate_all = [&](const std::vector<Candidate*>& cands,
                          const std::vector<solver::SubSchedule>& solutions,
                          const char* pass) -> std::vector<sim::Schedule> {
    // Issue-order tuning triples simulation cost; the coarse pass only needs
    // a ranking, so it simulates once and leaves tuning to the fine pass.
    const bool tune = pass[0] == 'f';
    SYCCL_TRACE_SPAN(span, "evaluate_candidates", "core");
    span.annotate("candidates", static_cast<double>(cands.size()));
    span.annotate("fine", tune ? 1.0 : 0.0);
    const std::size_t n = cands.size();
    std::vector<sim::Schedule> schedules(n);
    std::vector<std::string> error(n);

    pool_.parallel_for(n, [&](std::size_t i) {
      SYCCL_TRACE_SPAN(merge_span, "merge_schedule", "core");
      const Candidate& cand = *cands[i];
      std::vector<solver::SubSchedule> per_demand;
      per_demand.reserve(cand.plan.demands.size());
      for (std::size_t k = 0; k < cand.demand_class.size(); ++k) {
        const auto& sol = solutions[static_cast<std::size_t>(cand.demand_class[k])];
        per_demand.push_back(solver::remap_sub_schedule(sol, cand.demand_remap[k]));
      }
      try {
        schedules[i] = merge_schedule(cand.plan, per_demand, groups_, "syccl-candidate");
      } catch (const std::exception& e) {
        error[i] = e.what();
      }
    });

    // Collect the candidates that survived so far; batch calls skip the rest.
    const auto live_schedules = [&]() {
      std::pair<std::vector<sim::Schedule*>, std::vector<std::size_t>> live;
      for (std::size_t i = 0; i < n; ++i) {
        if (error[i].empty()) {
          live.first.push_back(&schedules[i]);
          live.second.push_back(i);
        }
      }
      return live;
    };

    if (reverse) {
      // Always tune the forward schedule before flipping it (§4.1): reversing
      // an already well-ordered schedule preserves its pipelining, reversing
      // a raw one does not. The coarse pass skips tuning entirely.
      if (tune) {
        const auto [fwd, fwd_idx] = live_schedules();
        const auto tuned = simulator.tune_issue_orders(fwd, coll, 2, &pool_);
        for (std::size_t j = 0; j < tuned.size(); ++j) {
          if (!tuned[j].ok()) error[fwd_idx[j]] = tuned[j].error;
        }
      }
      pool_.parallel_for(n, [&](std::size_t i) {
        if (!error[i].empty()) return;
        try {
          schedules[i] = reverse_schedule(schedules[i], eval_coll.reduce(),
                                          static_cast<int>(groups_.group_of.front().size()),
                                          "syccl-candidate");
        } catch (const std::exception& e) {
          error[i] = e.what();
        }
      });
    }

    // Issue-order tuning removes head-of-line blocking under the per-port
    // FIFO execution model (§5.2 simulator ranking).
    const auto [live, live_idx] = live_schedules();
    const std::vector<sim::BatchTiming> timings =
        tune ? simulator.tune_issue_orders(live, eval_coll, 2, &pool_)
             : simulator.time_collectives(live, eval_coll, &pool_);
    for (std::size_t j = 0; j < timings.size(); ++j) {
      if (timings[j].ok()) {
        Candidate& cand = *cands[live_idx[j]];
        cand.predicted = timings[j].time;
        SYCCL_DEBUG << pass << " candidate " << cand.description << " -> "
                    << cand.predicted * 1e6 << " us";
      } else {
        error[live_idx[j]] = timings[j].error;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (error[i].empty()) continue;
      SYCCL_WARN << "candidate rejected in " << pass << " pass: " << error[i];
      cands[i]->valid = false;
      cands[i]->predicted = std::numeric_limits<double>::infinity();
      schedules[i] = sim::Schedule{};
    }
    return schedules;
  };

  {
    SYCCL_TRACE_SPAN(span, "coarse_eval", "core");
    span.annotate("candidates", static_cast<double>(candidates.size()));
    std::vector<Candidate*> originals;
    for (auto& cand : candidates) {
      if (cand.copy_of < 0) originals.push_back(&cand);
    }
    evaluate_all(originals, coarse_solutions, "coarse");
    // An original precedes its copies and has its coarse results now.
    for (auto& cand : candidates) {
      if (cand.copy_of < 0) continue;
      const Candidate& original = candidates[static_cast<std::size_t>(cand.copy_of)];
      cand.predicted = original.predicted;
      cand.valid = original.valid;
    }
  }
  breakdown.solve1_s = phase_clock.elapsed_seconds();

  // ---- Candidate filter: within R1 of the best, at most R2 (§5.3).
  phase_clock.reset();
  double best_coarse = std::numeric_limits<double>::infinity();
  for (const auto& cand : candidates) best_coarse = std::min(best_coarse, cand.predicted);
  if (!std::isfinite(best_coarse)) {
    throw std::runtime_error("every sketch combination failed to produce a valid schedule");
  }
  std::vector<Candidate*> survivors;
  for (auto& cand : candidates) {
    if (cand.valid && cand.predicted <= best_coarse * (1.0 + config_.R1)) {
      survivors.push_back(&cand);
    }
  }
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const Candidate* a, const Candidate* b) {
                     return a->predicted < b->predicted;
                   });
  if (static_cast<int>(survivors.size()) > config_.R2) {
    survivors.resize(static_cast<std::size_t>(config_.R2));
  }
  // A copy ties its original and sorts after it, so its original survives
  // too and the copy can never win the strict `<` scan below: the fine pass
  // evaluates and scans the survivors that are originals.
  std::vector<Candidate*> fine;
  for (Candidate* cand : survivors) {
    if (cand->copy_of < 0) fine.push_back(cand);
  }

  // ---- Phase 2b: fine solve of the survivors (E₂) and final selection.
  const std::vector<solver::SubSchedule>* final_solutions = &coarse_solutions;
  std::vector<solver::SubSchedule> fine_solutions;
  if (config_.two_step) {
    SYCCL_TRACE_SPAN(span, "fine_solve", "core");
    std::vector<bool> needed(registry.representative.size(), false);
    for (const Candidate* cand : fine) {
      for (int c : cand->demand_class) needed[static_cast<std::size_t>(c)] = true;
    }
    solve_classes(config_.fine_solver, needed, fine_solutions);
    final_solutions = &fine_solutions;
  }

  // Fine evaluation (merge + batched simulate + issue-order tuning); the
  // winner is then picked sequentially by predicted time with a stable index
  // tie-break, so the choice is independent of completion order.
  std::vector<sim::Schedule> fine_schedules;
  {
    SYCCL_TRACE_SPAN(span, "fine_eval", "core");
    span.annotate("survivors", static_cast<double>(survivors.size()));
    fine_schedules = evaluate_all(fine, *final_solutions, "fine");
  }

  SynthesisResult result;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < fine.size(); ++i) {
    Candidate* cand = fine[i];
    if (cand->valid && cand->predicted < best) {
      best = cand->predicted;
      result.schedule = std::move(fine_schedules[i]);
      result.predicted_time = cand->predicted;
      result.chosen = cand->description;
    }
  }
  if (!std::isfinite(best)) {
    throw std::runtime_error("fine pass invalidated every surviving candidate");
  }
  // Plans are as deep as the combinations they came from: free them on the
  // pool as well instead of serially on return.
  pool_.parallel_for(candidates.size(), [&](std::size_t i) { candidates[i] = Candidate{}; });
  breakdown.solve2_s = phase_clock.elapsed_seconds();
  breakdown.total_s = total_clock.elapsed_seconds();
  breakdown.cache_bytes = solver::SubScheduleCache::instance().stats().bytes;
  result.schedule.name = "syccl";
  result.breakdown = breakdown;

  // Fold the per-call breakdown into the process-wide metrics registry so
  // phase totals aggregate across synthesize() calls (one reporting path
  // with the solver/cache/milp layers). Once per synthesis — name lookups
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

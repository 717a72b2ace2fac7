// Perf-trajectory bench for warm-started node LP re-solves in the MILP
// branch and bound.
//
// Representative sub-demand encodings (allgather/broadcast on single-server
// groups, the workloads solve_sub_demand actually sees) are built through
// solver::encode_sub_demand_milp. For each, a branching-like sequence of
// bound perturbations (dive: fix random binaries, backtrack periodically) is
// re-solved two ways over the identical sequence:
//
//   cold — lp::solve() from scratch per node (the pre-warm-start behaviour),
//   warm — one lp::SimplexSolver re-entered via dual simplex per node.
//
// The node re-solve throughput ratio cold_s/warm_s is the tentpole metric;
// the node count and time of a full branch-and-bound run are also reported.
//
// A second section replays congested sub-demands derived from the pinned
// fuzz corpus (argv[1], default tests/corpus/seeds.txt by the absolute path
// fixed at configure time; a missing or empty corpus exits 2) through
// solve_sub_demand with multi-commodity flow bounds on and off. The winning
// schedules must be byte-identical either way; on the congested half of the
// corpus (most nodes explored without flow bounds) the median
// nodes-explored reduction must be ≥2×, or the median wall-time reduction
// ≥1.5×. A final ungated section reports the optimality gap of full
// synthesis against baselines::flow_lower_bound on paper topologies.
//
// Output: one JSON line on stdout and in BENCH_milp.json. Registered under
// the ctest configuration/label `perf`; the gate fails unless the median
// warm throughput is ≥3× cold and the flow section passes.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/flow_bound.h"
#include "bench_util.h"
#include "coll/collective.h"
#include "core/synthesizer.h"
#include "lp/simplex.h"
#include "lp/simplex_solver.h"
#include "milp/branch_and_bound.h"
#include "solver/epoch_model.h"
#include "solver/milp_scheduler.h"
#include "topo/builders.h"
#include "topo/groups.h"
#include "util/rng.h"
#include "util/stopwatch.h"

using namespace syccl;

namespace {

solver::SubDemand broadcast_demand(const topo::GroupTopology& g, double bytes) {
  solver::SubDemand d;
  d.group = &g;
  d.piece_bytes = bytes;
  solver::DemandPiece p;
  p.id = 0;
  p.srcs = {0};
  for (int i = 1; i < g.size(); ++i) p.dsts.push_back(i);
  d.pieces.push_back(std::move(p));
  return d;
}

solver::SubDemand allgather_demand(const topo::GroupTopology& g, double bytes) {
  solver::SubDemand d;
  d.group = &g;
  d.piece_bytes = bytes;
  for (int r = 0; r < g.size(); ++r) {
    solver::DemandPiece p;
    p.id = r;
    p.srcs = {r};
    for (int i = 0; i < g.size(); ++i) {
      if (i != r) p.dsts.push_back(i);
    }
    d.pieces.push_back(std::move(p));
  }
  return d;
}

/// A branching-like sequence of bound boxes over the encoding's binaries:
/// each step fixes one more random binary (diving); every eighth step
/// backtracks to the root box. Deterministic from the seed.
std::vector<std::pair<std::vector<double>, std::vector<double>>> node_sequence(
    const lp::Problem& p, const std::vector<bool>& is_integer, int count, std::uint64_t seed) {
  std::vector<int> binaries;
  for (int v = 0; v < p.num_vars; ++v) {
    if (is_integer[static_cast<std::size_t>(v)]) binaries.push_back(v);
  }
  util::Rng rng(seed);
  std::vector<std::pair<std::vector<double>, std::vector<double>>> seq;
  std::vector<double> lo = p.lower, hi = p.upper;
  for (int i = 0; i < count; ++i) {
    if (i % 8 == 0) {
      lo = p.lower;
      hi = p.upper;
    }
    const std::size_t v = static_cast<std::size_t>(
        binaries[static_cast<std::size_t>(rng.next_below(binaries.size()))]);
    if (rng.next_below(2) == 0) {
      hi[v] = lo[v];  // fix down
    } else {
      lo[v] = hi[v];  // fix up
    }
    seq.push_back({lo, hi});
  }
  return seq;
}

struct CaseResult {
  std::string name;
  int vars = 0;
  int rows = 0;
  double cold_s = 0.0;
  double warm_s = 0.0;
  double ratio = 0.0;
  long warm_fallbacks = 0;
  int mismatches = 0;  ///< status disagreements (must be 0)
  long bb_nodes = 0;   ///< full branch and bound from the greedy incumbent
  double bb_s = 0.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

CaseResult run_case(const std::string& name, const solver::SubDemandEncoding& enc,
                    int num_nodes) {
  CaseResult res;
  res.name = name;
  const lp::Problem& p = enc.problem.lp;
  res.vars = p.num_vars;
  res.rows = static_cast<int>(p.constraints.size());

  const auto seq = node_sequence(p, enc.problem.is_integer, num_nodes, 42);
  // Same per-node pivot budget the branch and bound uses (MilpOptions
  // default), so cold pathological nodes cost what they cost in-tree.
  constexpr long kNodeIters = 20000;

  // Statuses must agree node-for-node; collect once outside the timed loops.
  {
    lp::SimplexSolver solver(p);
    for (const auto& [lo, hi] : seq) {
      const lp::Solution warm = solver.resolve(lo, hi, kNodeIters);
      lp::Problem q = p;
      q.lower = lo;
      q.upper = hi;
      const lp::Solution cold = lp::solve(q, kNodeIters);
      // A cold IterationLimit is the reference giving up, not a verdict to
      // compare against (the warm path can legitimately out-prove it).
      if (cold.status == lp::Status::IterationLimit ||
          warm.status == lp::Status::IterationLimit) {
        continue;
      }
      if (warm.status != cold.status) {
        ++res.mismatches;
        if (std::getenv("SYCCL_BENCH_DEBUG") && res.mismatches <= 5) {
          std::fprintf(stderr, "mismatch: warm=%d obj=%.9g cold=%d obj=%.9g\n",
                       static_cast<int>(warm.status), warm.objective,
                       static_cast<int>(cold.status), cold.objective);
        }
      } else if (warm.status == lp::Status::Optimal &&
                 std::fabs(warm.objective - cold.objective) >
                     1e-6 * (1.0 + std::fabs(cold.objective))) {
        ++res.mismatches;
        if (std::getenv("SYCCL_BENCH_DEBUG") && res.mismatches <= 5) {
          std::fprintf(stderr, "obj mismatch: warm=%.9g cold=%.9g\n", warm.objective,
                       cold.objective);
        }
      }
    }
    res.warm_fallbacks = solver.stats().warm_fallbacks;
  }

  std::vector<double> cold_runs, warm_runs;
  for (int rep = 0; rep < 3; ++rep) {
    util::Stopwatch clock;
    for (const auto& [lo, hi] : seq) {
      lp::Problem q = p;
      q.lower = lo;
      q.upper = hi;
      (void)lp::solve(q, kNodeIters);
    }
    cold_runs.push_back(clock.elapsed_seconds());

    lp::SimplexSolver solver(p);
    clock.reset();
    for (const auto& [lo, hi] : seq) (void)solver.resolve(lo, hi, kNodeIters);
    warm_runs.push_back(clock.elapsed_seconds());
  }
  res.cold_s = median(cold_runs);
  res.warm_s = median(warm_runs);
  res.ratio = res.warm_s > 0 ? res.cold_s / res.warm_s : 0.0;

  // Full branch and bound from the greedy incumbent.
  milp::MilpOptions opts;
  opts.time_limit_s = 10.0;
  std::optional<std::vector<double>> inc;
  if (!enc.incumbent.empty()) inc = enc.incumbent;
  util::Stopwatch clock;
  res.bb_nodes = milp::solve(enc.problem, opts, inc).nodes_explored;
  res.bb_s = clock.elapsed_seconds();
  return res;
}

std::vector<std::uint64_t> load_corpus(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_milp: cannot open corpus file %s\n", path.c_str());
    std::exit(2);
  }
  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string token;
    if (ls >> token) seeds.push_back(std::stoull(token, nullptr, 0));
  }
  return seeds;
}

/// One corpus-derived flow A/B case. Owns its topology so the SubDemand's
/// group pointer stays valid for the case's lifetime.
struct FlowCase {
  std::string name;
  topo::Topology topo;
  topo::TopologyGroups groups;
  solver::SubDemand demand;
  long nodes_on = 0;
  long nodes_off = 0;
  long flow_prunes = 0;
  double on_s = 0.0;
  double off_s = 0.0;
  bool identical = false;

  FlowCase(std::string n, int size)
      : name(std::move(n)),
        topo(topo::build_single_server(size, {1e-6, 1e9})),
        groups(topo::extract_groups(topo)) {
    demand.group = &groups.dims[0].groups[0];
  }
};

/// Expands a corpus seed into a congested alltoall-like sub-demand: every
/// rank sources a piece demanded by most others, occasionally merged with a
/// second source — the shape that makes the epoch MILP branch hardest.
/// `index` perturbs piece_bytes so no two cases collide in the solve cache.
std::unique_ptr<FlowCase> flow_case_of(std::uint64_t seed, std::size_t index) {
  util::Rng rng(seed);
  const int n = 4 + static_cast<int>(rng.next_below(2));  // 4–5 members
  auto fc = std::make_unique<FlowCase>("seed_" + std::to_string(seed), n);
  fc->demand.piece_bytes = static_cast<double>(1 << 20) + 4096.0 * static_cast<double>(index);
  for (int r = 0; r < n; ++r) {
    solver::DemandPiece p;
    p.srcs = {r};
    if (rng.next_below(4) == 0) p.srcs.push_back((r + 1) % n);
    for (int m = 0; m < n; ++m) {
      bool is_src = false;
      for (int s : p.srcs) is_src = is_src || s == m;
      if (!is_src && rng.next_below(4) != 0) p.dsts.push_back(m);
    }
    if (p.dsts.empty()) continue;
    // Ids are positional everywhere in the solver (core/subdemand.cpp keeps
    // id == index), so number after the empty-dst filter, not before.
    p.id = static_cast<int>(fc->demand.pieces.size());
    fc->demand.pieces.push_back(std::move(p));
  }
  return fc;
}

/// Solves the case with flow bounds off then on (generous limits so both
/// prove optimality) and byte-compares the winning schedules.
void run_flow_case(FlowCase& fc) {
  solver::MilpSchedulerOptions off;
  off.max_binaries = 4000;
  off.node_limit = 400000;
  off.time_limit_s = 30.0;
  off.use_flow_bounds = false;
  solver::MilpSchedulerOptions on = off;
  on.use_flow_bounds = true;

  util::Stopwatch clock;
  solver::SolveStats stats_off;
  const solver::SubSchedule b = solver::solve_sub_demand(fc.demand, off, &stats_off);
  fc.off_s = clock.elapsed_seconds();
  clock.reset();
  solver::SolveStats stats_on;
  const solver::SubSchedule a = solver::solve_sub_demand(fc.demand, on, &stats_on);
  fc.on_s = clock.elapsed_seconds();

  fc.nodes_on = stats_on.nodes_explored;
  fc.nodes_off = stats_off.nodes_explored;
  fc.flow_prunes = stats_on.flow_prunes;
  fc.identical =
      a.num_epochs == b.num_epochs && a.ops.size() == b.ops.size() &&
      (a.ops.empty() ||
       std::memcmp(a.ops.data(), b.ops.data(), a.ops.size() * sizeof(solver::SubOp)) == 0);
}

/// Optimality gap of end-to-end synthesis against the global flow lower
/// bound (reported, not gated: the gap measures synthesis quality and the
/// bound's own slack, not this bench's regression surface).
struct GapCase {
  std::string name;
  double predicted_s = 0.0;
  double flow_bound_s = 0.0;
  double gap = 0.0;  ///< predicted / bound − 1
};

GapCase run_gap_case(const std::string& name, const topo::Topology& topo,
                     const coll::Collective& coll) {
  GapCase g;
  g.name = name;
  core::SynthesisConfig cfg;
  cfg.coarse_solver.time_limit_s = 0.5;
  cfg.fine_solver.time_limit_s = 1.0;
  core::Synthesizer synth(topo, cfg);
  g.predicted_s = synth.synthesize(coll).predicted_time;
  g.flow_bound_s = baselines::flow_lower_bound(coll, topo).seconds;
  g.gap = g.flow_bound_s > 0.0 ? g.predicted_s / g.flow_bound_s - 1.0 : 0.0;
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  // The corpus is read first so that a missing one fails before any work.
  const std::string corpus_path = argc > 1 ? argv[1] : SYCCL_CORPUS_PATH;
  std::vector<std::uint64_t> seeds = load_corpus(corpus_path);
  if (seeds.empty()) {
    std::fprintf(stderr, "bench_milp: empty corpus %s\n", corpus_path.c_str());
    return 2;
  }
  if (seeds.size() > 16) seeds.resize(16);

  // Group sizes stay inside the production MILP gate (solve_sub_demand skips
  // encodings past max_binaries = 500), so these are the encodings the tree
  // search actually re-solves.
  topo::Topology t4 = topo::build_single_server(4, {1e-6, 1e9});
  topo::Topology t5 = topo::build_single_server(5, {1e-6, 1e9});
  topo::Topology t8 = topo::build_single_server(8, {1e-6, 1e9});
  const topo::TopologyGroups g4 = topo::extract_groups(t4);
  const topo::TopologyGroups g5 = topo::extract_groups(t5);
  const topo::TopologyGroups g8 = topo::extract_groups(t8);
  const double bytes = 1 << 20;  // βs ≫ α: bandwidth-dominated epochs

  struct Case {
    std::string name;
    solver::SubDemandEncoding enc;
    int num_nodes = 400;  // fewer for encodings with expensive cold solves
  };
  std::vector<Case> cases;
  cases.push_back({"allgather_4", solver::encode_sub_demand_milp(
                                      allgather_demand(g4.dims[0].groups[0], bytes), 1.0)});
  cases.push_back({"allgather_5", solver::encode_sub_demand_milp(
                                      allgather_demand(g5.dims[0].groups[0], bytes), 1.0),
                   150});
  cases.push_back({"broadcast_8", solver::encode_sub_demand_milp(
                                      broadcast_demand(g8.dims[0].groups[0], bytes), 1.0)});

  std::string json = "{\"bench\":\"milp_warm_resolve\",\"cases\":[";
  std::vector<double> ratios;
  int mismatches = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult r = run_case(cases[i].name, cases[i].enc, cases[i].num_nodes);
    ratios.push_back(r.ratio);
    mismatches += r.mismatches;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"vars\":%d,\"rows\":%d,\"cold_s\":%.6f,"
                  "\"warm_s\":%.6f,\"ratio\":%.2f,\"warm_fallbacks\":%ld,"
                  "\"mismatches\":%d,\"bb_nodes\":%ld,\"bb_s\":%.6f}",
                  i ? "," : "", r.name.c_str(), r.vars, r.rows, r.cold_s, r.warm_s, r.ratio,
                  r.warm_fallbacks, r.mismatches, r.bb_nodes, r.bb_s);
    json += buf;
    std::printf("%s: %d vars, %d rows — cold %.4fs, warm %.4fs, ratio %.2fx "
                "(fallbacks %ld, mismatches %d); B&B %ld nodes %.3fs\n",
                r.name.c_str(), r.vars, r.rows, r.cold_s, r.warm_s, r.ratio, r.warm_fallbacks,
                r.mismatches, r.bb_nodes, r.bb_s);
  }
  const double med = median(ratios);
  char tail[128];
  std::snprintf(tail, sizeof(tail), "],\"median_ratio\":%.2f", med);
  json += tail;

  // Flow on/off corpus replay.
  std::vector<std::unique_ptr<FlowCase>> flow_cases;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    auto fc = flow_case_of(seeds[i], i);
    if (fc->demand.pieces.empty()) continue;
    run_flow_case(*fc);
    std::printf("flow %s: %ld nodes off / %ld on (%ld flow prunes), "
                "%.3fs off / %.3fs on, identical=%d\n",
                fc->name.c_str(), fc->nodes_off, fc->nodes_on, fc->flow_prunes, fc->off_s,
                fc->on_s, fc->identical ? 1 : 0);
    flow_cases.push_back(std::move(fc));
  }

  // The congested half: the cases the plain branch and bound worked hardest
  // on. Ratios are medians over this subset (the ISSUE's gate population).
  std::vector<FlowCase*> congested;
  for (auto& fc : flow_cases) congested.push_back(fc.get());
  std::sort(congested.begin(), congested.end(),
            [](const FlowCase* a, const FlowCase* b) { return a->nodes_off > b->nodes_off; });
  if (congested.size() > 1) congested.resize((congested.size() + 1) / 2);

  bool flow_identical = true;
  std::vector<double> node_ratios, time_ratios;
  for (const auto& fc : flow_cases) flow_identical = flow_identical && fc->identical;
  for (const FlowCase* fc : congested) {
    node_ratios.push_back(static_cast<double>(fc->nodes_off + 1) /
                          static_cast<double>(fc->nodes_on + 1));
    time_ratios.push_back(fc->off_s > 0 && fc->on_s > 0 ? fc->off_s / fc->on_s : 1.0);
  }
  const double node_ratio = node_ratios.empty() ? 0.0 : median(node_ratios);
  const double time_ratio = time_ratios.empty() ? 0.0 : median(time_ratios);

  json += ",\"flow_cases\":[";
  for (std::size_t i = 0; i < flow_cases.size(); ++i) {
    const FlowCase& fc = *flow_cases[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"nodes_off\":%ld,\"nodes_on\":%ld,"
                  "\"flow_prunes\":%ld,\"off_s\":%.6f,\"on_s\":%.6f,\"identical\":%s}",
                  i ? "," : "", fc.name.c_str(), fc.nodes_off, fc.nodes_on, fc.flow_prunes,
                  fc.off_s, fc.on_s, fc.identical ? "true" : "false");
    json += buf;
  }
  {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "],\"flow_median_node_ratio\":%.2f,\"flow_median_time_ratio\":%.2f,"
                  "\"flow_identical\":%s",
                  node_ratio, time_ratio, flow_identical ? "true" : "false");
    json += buf;
  }

  // Optimality gap of full synthesis vs the global flow lower bound on the
  // paper's single-server testbed shapes (reported for EXPERIMENTS.md).
  std::vector<GapCase> gaps;
  gaps.push_back(run_gap_case("allgather_8", t8, coll::make_allgather(8, 1 << 22)));
  gaps.push_back(run_gap_case("allreduce_4", t4, coll::make_allreduce(4, 1 << 22)));
  json += ",\"flow_gap\":[";
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"predicted_s\":%.6g,\"flow_bound_s\":%.6g,"
                  "\"gap\":%.3f}",
                  i ? "," : "", gaps[i].name.c_str(), gaps[i].predicted_s, gaps[i].flow_bound_s,
                  gaps[i].gap);
    json += buf;
    std::printf("gap %s: predicted %.6gs vs flow bound %.6gs (gap %.1f%%)\n",
                gaps[i].name.c_str(), gaps[i].predicted_s, gaps[i].flow_bound_s,
                gaps[i].gap * 100.0);
  }
  json += "]}";
  benchutil::emit_json("milp", json);

  if (mismatches > 0) {
    std::fprintf(stderr, "FAIL: %d warm/cold status mismatches\n", mismatches);
    return 1;
  }
  // Acceptance gate: warm node re-solve throughput ≥3× cold (median case).
  if (med < 3.0) {
    std::fprintf(stderr, "FAIL: median warm/cold re-solve ratio %.2fx < 3x\n", med);
    return 1;
  }
  // Flow gates: byte-identical schedules always; on the congested subset a
  // median ≥2× nodes-explored reduction (or ≥1.5× wall-time reduction).
  if (!flow_identical) {
    std::fprintf(stderr, "FAIL: flow on/off winning schedules differ\n");
    return 1;
  }
  if (node_ratio < 2.0 && time_ratio < 1.5) {
    std::fprintf(stderr,
                 "FAIL: flow bounds won neither gate — median node ratio %.2fx < 2x "
                 "and median time ratio %.2fx < 1.5x\n",
                 node_ratio, time_ratio);
    return 1;
  }
  return 0;
}

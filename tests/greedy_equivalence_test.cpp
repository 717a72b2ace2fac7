// Pins the flat greedy scheduler and schedule checker to the pre-rewrite
// std::map versions kept in tests/solver_reference.h: the greedy must emit
// the same SubSchedule op for op, and the checker must accept and reject
// exactly the same schedules with the same message. The greedy output is
// the shipped schedule, so any difference is a behaviour change.
//
// GreedyEquivalence.* runs a small sample in the default suite;
// GreedyEquivalenceSweep.* runs the large sample under `ctest -C fuzz`.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "coll/collective.h"
#include "core/subdemand.h"
#include "core/synthesizer.h"
#include "fuzz/generators.h"
#include "obs/scenario.h"
#include "sketch/alltoall.h"
#include "solver/epoch_model.h"
#include "solver/greedy.h"
#include "solver/tau.h"
#include "solver_reference.h"
#include "topo/groups.h"
#include "util/rng.h"

namespace syccl::solver {
namespace {

/// "" if `f` returns, else the exception's dynamic type and message.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
    return "";
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

std::string describe(const SubDemand& d, const EpochParams& ep) {
  std::ostringstream os;
  os << "n=" << d.group->size() << " pieces=" << d.pieces.size() << " L=" << ep.lat_epochs
     << " C=" << ep.capacity << " O=" << ep.occupancy;
  return os.str();
}

/// Runs both greedies; returns the production schedule (empty on a throw).
SubSchedule expect_same_greedy(const SubDemand& d, const EpochParams& ep) {
  SubSchedule got, want;
  const std::string got_error = error_of([&] { got = solve_greedy(d, ep); });
  const std::string want_error = error_of([&] { want = reference::solve_greedy(d, ep); });
  EXPECT_EQ(got_error, want_error) << describe(d, ep);
  EXPECT_EQ(got.num_epochs, want.num_epochs) << describe(d, ep);
  EXPECT_EQ(got.params.tau, want.params.tau);
  EXPECT_EQ(got.params.lat_epochs, want.params.lat_epochs);
  EXPECT_EQ(got.params.capacity, want.params.capacity);
  EXPECT_EQ(got.params.occupancy, want.params.occupancy);
  EXPECT_EQ(got.ops.size(), want.ops.size()) << describe(d, ep);
  for (std::size_t i = 0; i < std::min(got.ops.size(), want.ops.size()); ++i) {
    const SubOp& a = got.ops[i];
    const SubOp& b = want.ops[i];
    if (a.piece != b.piece || a.src != b.src || a.dst != b.dst || a.start_epoch != b.start_epoch) {
      ADD_FAILURE() << describe(d, ep) << ": op " << i << " is (" << a.piece << "," << a.src
                    << "->" << a.dst << "@" << a.start_epoch << "), reference (" << b.piece
                    << "," << b.src << "->" << b.dst << "@" << b.start_epoch << ")";
      break;
    }
  }
  return got;
}

/// Both checkers must agree on accept/reject, exception type and message.
void expect_same_check(const SubDemand& d, const SubSchedule& s, const std::string& what) {
  EXPECT_EQ(error_of([&] { check_sub_schedule(d, s); }),
            error_of([&] { reference::check_sub_schedule(d, s); }))
      << what;
}

// ---------------------------------------------------------------- scenarios

/// Every distinct sub-demand class the synthesizer's phase 1 produces for
/// one (topology, collective, size) point. Owns the groups its demands
/// point into.
struct ScenarioDemands {
  topo::Topology topo;
  topo::TopologyGroups groups;
  std::vector<SubDemand> demands;
};

std::unique_ptr<ScenarioDemands> scenario_demands(topo::Topology topo,
                                                  const coll::Collective& coll) {
  auto out = std::make_unique<ScenarioDemands>();
  out->topo = std::move(topo);
  out->groups = topo::extract_groups(out->topo);
  const core::SynthesisConfig config;
  using coll::CollKind;
  const bool all_to_all = coll.kind() == CollKind::AllGather || coll.kind() == CollKind::AllToAll;
  const sketch::RootedPattern pattern =
      coll.kind() == CollKind::AllToAll || coll.kind() == CollKind::Scatter
          ? sketch::RootedPattern::Scatter
          : sketch::RootedPattern::Broadcast;
  std::vector<sketch::SketchCombination> combos;
  try {
    const auto sketches = sketch::search_sketches(
        out->groups, all_to_all ? 0 : coll.chunks().front().src, pattern, config.sketch.search);
    combos = sketch::combine_prototypes(
        sketch::select_prototypes(sketches, out->groups, config.sketch.max_prototypes), sketches,
        out->groups, all_to_all, config.sketch.combine);
  } catch (const std::runtime_error&) {
    return out;  // no replicable sketch family on this fabric
  }
  std::set<std::string> seen;
  for (const auto& combo : combos) {
    core::DemandPlan plan;
    try {
      plan = core::build_demand_plan(combo, coll, out->groups);
    } catch (const std::invalid_argument&) {
      continue;
    }
    for (auto& md : plan.demands) {
      if (seen.insert(md.demand.canonical().key).second) {
        out->demands.push_back(std::move(md.demand));
      }
    }
  }
  return out;
}

coll::Collective make_collective(const std::string& kind, int ranks, std::uint64_t bytes) {
  if (kind == "allgather") return coll::make_allgather(ranks, bytes);
  if (kind == "alltoall") return coll::make_alltoall(ranks, bytes);
  if (kind == "broadcast") return coll::make_broadcast(ranks, bytes, ranks - 1);
  return coll::make_scatter(ranks, bytes, ranks / 2);
}

/// Compares both greedies on every class of every point, at E₁ and E₂, and
/// both checkers on each schedule. Returns the number of solves compared.
int compare_scenarios(const std::vector<std::string>& topos,
                      const std::vector<std::uint64_t>& sizes,
                      const std::vector<std::string>& kinds = {"allgather", "alltoall",
                                                               "broadcast", "scatter"}) {
  const core::SynthesisConfig config;
  int compared = 0;
  for (const std::string& name : topos) {
    for (const std::string& kind : kinds) {
      for (const std::uint64_t bytes : sizes) {
        topo::Topology t = obs::build_scenario_topology(name);
        const int ranks = static_cast<int>(t.num_gpus());
        const auto point = scenario_demands(std::move(t), make_collective(kind, ranks, bytes));
        for (const SubDemand& d : point->demands) {
          for (const double E : {config.coarse_solver.E, config.fine_solver.E}) {
            SCOPED_TRACE(name + " " + kind + " " + std::to_string(bytes) + " E=" +
                         std::to_string(E));
            const EpochParams ep = derive_epoch_params(*d.group, d.piece_bytes, E);
            const SubSchedule s = expect_same_greedy(d, ep);
            expect_same_check(d, s, "greedy output");
            ++compared;
          }
        }
      }
    }
  }
  return compared;
}

std::vector<std::uint64_t> load_corpus() {
  std::ifstream in(SYCCL_CORPUS_PATH);
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

/// The pinned fuzz corpus expanded like the differential harness: each seed
/// draws a random topology and collective; every class of the collective's
/// forward pattern is compared at E₁ and E₂.
int compare_corpus(const std::vector<std::uint64_t>& seeds) {
  const core::SynthesisConfig config;
  int compared = 0;
  for (const std::uint64_t seed : seeds) {
    util::Rng rng(seed);
    fuzz::RandomTopology rt = fuzz::random_topology(rng);
    const int ranks = static_cast<int>(rt.topo.num_gpus());
    const coll::Collective drawn = fuzz::random_collective(rng, ranks);
    // Reduce-type collectives are synthesized as their forward twins.
    using coll::CollKind;
    std::string kind = "allgather";
    if (drawn.kind() == CollKind::AllToAll) kind = "alltoall";
    if (drawn.kind() == CollKind::Broadcast || drawn.kind() == CollKind::Reduce) kind = "broadcast";
    if (drawn.kind() == CollKind::Scatter || drawn.kind() == CollKind::Gather) kind = "scatter";
    const auto point =
        scenario_demands(std::move(rt.topo), make_collective(kind, ranks, drawn.total_bytes()));
    for (const SubDemand& d : point->demands) {
      for (const double E : {config.coarse_solver.E, config.fine_solver.E}) {
        SCOPED_TRACE("corpus seed " + std::to_string(seed) + " (" + rt.desc + ") E=" +
                     std::to_string(E));
        const SubSchedule s = expect_same_greedy(d, derive_epoch_params(*d.group, d.piece_bytes, E));
        expect_same_check(d, s, "greedy output");
        ++compared;
      }
    }
  }
  return compared;
}

// ---------------------------------------------------------- generated cases

/// Which of the properties the equivalence must cover a batch has hit.
struct Coverage {
  bool shared_ports = false;
  bool occupancy = false;   ///< O > 1
  bool capacity = false;    ///< C > 1
  bool multi_source = false;
  bool duplicate_dsts = false;
  bool long_latency = false;  ///< L ≥ 100 (α-dominated)
};

/// A star group of `n` members whose port ids repeat, so that members share
/// up ports, down ports or both, as GPUs sharing a NIC do.
topo::GroupTopology random_group(util::Rng& rng, int n, Coverage& cov) {
  topo::GroupTopology g;
  g.dim = 0;
  g.group_index = 0;
  const int mode = static_cast<int>(rng.next_below(4));
  const int block = 1 + static_cast<int>(rng.next_below(3));
  for (int i = 0; i < n; ++i) {
    g.ranks.push_back(i);
    int up_id = 1000 + i;
    int down_id = 2000 + i;
    if (mode == 1) up_id = down_id = 1000 + i / block;  // NIC shared by `block` GPUs
    if (mode == 2) up_id = 1000 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (mode == 3) down_id = 1000 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    g.up.push_back(topo::GroupPort{1e-6, 1e-9, up_id});
    g.down.push_back(topo::GroupPort{1e-6, 1e-9, down_id});
  }
  g.up_hops.resize(static_cast<std::size_t>(n));
  g.down_hops.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n && !cov.shared_ports; ++i) {
    for (int j = 0; j < i; ++j) {
      if (g.up[static_cast<std::size_t>(i)].port_id == g.up[static_cast<std::size_t>(j)].port_id ||
          g.down[static_cast<std::size_t>(i)].port_id ==
              g.down[static_cast<std::size_t>(j)].port_id) {
        cov.shared_ports = true;
      }
    }
  }
  return g;
}

/// Random pieces over `g` (at most `max_pieces`, else up to 2n): one to
/// three sources each, destinations drawn with repeats, ids equal to
/// positions (as build_demand_plan emits them).
SubDemand random_demand(util::Rng& rng, const topo::GroupTopology& g, Coverage& cov,
                        int max_pieces = 0) {
  const int n = g.size();
  SubDemand d;
  d.group = &g;
  d.piece_bytes = 1024.0;
  const int pieces_bound = max_pieces > 0 ? max_pieces : 2 * n;
  const int np = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(pieces_bound)));
  for (int p = 0; p < np; ++p) {
    DemandPiece piece;
    piece.id = p;
    std::vector<bool> is_src(static_cast<std::size_t>(n), false);
    const int want_srcs = 1 + static_cast<int>(rng.next_below(3));
    for (int k = 0; k < want_srcs && k < n - 1; ++k) {
      const int s = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      piece.srcs.push_back(s);  // repeats allowed
      is_src[static_cast<std::size_t>(s)] = true;
    }
    const int draws = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n + 2)));
    for (int k = 0; k < draws; ++k) {
      const int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (!is_src[static_cast<std::size_t>(dst)]) piece.dsts.push_back(dst);
    }
    if (piece.dsts.empty()) {
      for (int m = 0; m < n && piece.dsts.empty(); ++m) {
        if (!is_src[static_cast<std::size_t>(m)]) piece.dsts.push_back(m);
      }
    }
    std::vector<int> distinct_srcs = piece.srcs;
    std::sort(distinct_srcs.begin(), distinct_srcs.end());
    if (std::unique(distinct_srcs.begin(), distinct_srcs.end()) - distinct_srcs.begin() > 1) {
      cov.multi_source = true;
    }
    std::vector<int> distinct_dsts = piece.dsts;
    std::sort(distinct_dsts.begin(), distinct_dsts.end());
    if (std::unique(distinct_dsts.begin(), distinct_dsts.end()) != distinct_dsts.end()) {
      cov.duplicate_dsts = true;
    }
    d.pieces.push_back(std::move(piece));
  }
  return d;
}

EpochParams random_params(util::Rng& rng, Coverage& cov) {
  EpochParams ep;
  ep.tau = 1e-6;
  switch (rng.next_below(4)) {
    case 0: ep.lat_epochs = 1; break;
    case 1: ep.lat_epochs = static_cast<int>(rng.next_in(2, 8)); break;
    case 2: ep.lat_epochs = static_cast<int>(rng.next_in(9, 60)); break;
    default: ep.lat_epochs = static_cast<int>(rng.next_in(100, 700)); break;
  }
  ep.capacity = static_cast<int>(rng.next_in(1, 4));
  ep.occupancy = static_cast<int>(rng.next_in(1, 4));
  cov.occupancy = cov.occupancy || ep.occupancy > 1;
  cov.capacity = cov.capacity || ep.capacity > 1;
  cov.long_latency = cov.long_latency || ep.lat_epochs >= 100;
  return ep;
}

/// Schedule mutations the checker must judge like the reference does.
enum class Mutation {
  OverCapacity,
  EarlySend,
  UnknownPiece,
  EndpointOutOfRange,
  UnmetDemand,
  Unsorted,
  UnderstatedEpochs,
  Count
};

SubSchedule mutate(const SubSchedule& s, int n, Mutation m, util::Rng& rng) {
  SubSchedule out = s;
  if (out.ops.empty()) return out;
  const std::size_t i = static_cast<std::size_t>(rng.next_below(out.ops.size()));
  switch (m) {
    case Mutation::OverCapacity: {
      // Re-issue an existing send at its epoch, sometimes to the
      // destination of another send.
      SubOp extra = out.ops[i];
      if (rng.next_below(2) == 0) {
        extra.dst = out.ops[static_cast<std::size_t>(rng.next_below(out.ops.size()))].dst;
      }
      out.ops.insert(out.ops.begin() + static_cast<std::ptrdiff_t>(i), extra);
      break;
    }
    case Mutation::EarlySend:
      out.ops[i].start_epoch -= 1 + static_cast<int>(rng.next_below(3));
      break;
    case Mutation::UnknownPiece:
      out.ops[i].piece = rng.next_below(2) == 0 ? -1 : out.ops[i].piece + 1000;
      break;
    case Mutation::EndpointOutOfRange:
      if (rng.next_below(2) == 0) {
        out.ops[i].src = rng.next_below(2) == 0 ? -1 : n;
      } else {
        out.ops[i].dst = rng.next_below(2) == 0 ? -1 : n;
      }
      break;
    case Mutation::UnmetDemand:
      out.ops.erase(out.ops.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case Mutation::Unsorted:
      for (std::size_t k = out.ops.size(); k > 1; --k) {
        std::swap(out.ops[k - 1], out.ops[static_cast<std::size_t>(rng.next_below(k))]);
      }
      break;
    case Mutation::UnderstatedEpochs:
      out.num_epochs -= 1 + static_cast<int>(rng.next_below(2));
      break;
    case Mutation::Count:
      break;
  }
  return out;
}

/// `cases` random (group, demand, params) triples: greedy equivalence on
/// each, then checker equivalence on the greedy output and on one mutant of
/// every kind (plus a pile-up of several mutations).
void compare_generated(std::uint64_t seed, int cases) {
  util::Rng rng(seed);
  Coverage cov;
  int rejected = 0;
  for (int c = 0; c < cases; ++c) {
    const int n = 2 + static_cast<int>(rng.next_below(c % 8 == 0 ? 40 : 10));
    const topo::GroupTopology g = random_group(rng, n, cov);
    const SubDemand d = random_demand(rng, g, cov);
    const EpochParams ep = random_params(rng, cov);
    SCOPED_TRACE("generated case " + std::to_string(c) + " of seed " + std::to_string(seed));
    const SubSchedule s = expect_same_greedy(d, ep);
    if (::testing::Test::HasFailure()) return;
    expect_same_check(d, s, "greedy output");
    for (int m = 0; m < static_cast<int>(Mutation::Count); ++m) {
      const SubSchedule bad = mutate(s, n, static_cast<Mutation>(m), rng);
      expect_same_check(d, bad, "mutation " + std::to_string(m));
      if (!error_of([&] { reference::check_sub_schedule(d, bad); }).empty()) ++rejected;
    }
    SubSchedule pile = s;
    for (int k = 0; k < 3; ++k) {
      pile = mutate(pile, n, static_cast<Mutation>(rng.next_below(
                                 static_cast<std::uint64_t>(Mutation::Count))),
                    rng);
    }
    expect_same_check(d, pile, "mutation pile-up");
  }
  EXPECT_TRUE(cov.shared_ports);
  EXPECT_TRUE(cov.occupancy);
  EXPECT_TRUE(cov.capacity);
  EXPECT_TRUE(cov.multi_source);
  EXPECT_TRUE(cov.duplicate_dsts);
  EXPECT_TRUE(cov.long_latency);
  EXPECT_GT(rejected, cases);  // the mutants do exercise the rejection paths
}

// ------------------------------------------------------------------- tests

TEST(GreedyEquivalence, GeneratedSubDemands) { compare_generated(1, 150); }

TEST(GreedyEquivalence, CorpusScenarios) {
  const std::vector<std::uint64_t> seeds = load_corpus();
  ASSERT_FALSE(seeds.empty()) << "missing corpus " << SYCCL_CORPUS_PATH;
  EXPECT_GT(compare_corpus(seeds), 50);
}

TEST(GreedyEquivalence, PaperScenarios) {
  // A100 pods share one NIC between two GPUs; small sizes put L in the
  // hundreds (α-dominated), large ones make the pieces bandwidth-bound.
  EXPECT_GT(compare_scenarios({"dgx16", "a100x16", "flat8@degraded"}, {4096, 16ull << 20}), 300);
}

TEST(GreedyEquivalence, WideGroupsSpanSeveralBitsetWords) {
  // Past 64 members the pending and free-port bitsets take several words.
  // Few pieces and short latencies keep the reference's rescans cheap.
  util::Rng rng(3);
  Coverage cov;
  for (int c = 0; c < 20; ++c) {
    const int n = 65 + static_cast<int>(rng.next_below(76));
    const topo::GroupTopology g = random_group(rng, n, cov);
    const SubDemand d = random_demand(rng, g, cov, /*max_pieces=*/4);
    EpochParams ep;
    ep.lat_epochs = static_cast<int>(rng.next_in(1, 8));
    ep.capacity = static_cast<int>(rng.next_in(1, 3));
    ep.occupancy = static_cast<int>(rng.next_in(1, 3));
    const SubSchedule s = expect_same_greedy(d, ep);
    expect_same_check(d, s, "greedy output");
    expect_same_check(d, mutate(s, n, Mutation::OverCapacity, rng), "over capacity");
  }
}

TEST(GreedyEquivalence, CheckerJudgesHandMutantsLikeTheReference) {
  Coverage cov;
  util::Rng rng(5);
  const topo::GroupTopology g = random_group(rng, 6, cov);
  SubDemand d;
  d.group = &g;
  d.piece_bytes = 1.0;
  d.pieces.push_back(DemandPiece{0, {0}, {1, 2, 3, 4, 5}});
  d.pieces.push_back(DemandPiece{1, {3, 4}, {0, 1, 1}});
  EpochParams ep;
  ep.lat_epochs = 2;
  ep.capacity = 2;
  ep.occupancy = 3;
  const SubSchedule s = expect_same_greedy(d, ep);
  expect_same_check(d, s, "greedy output");
  for (int m = 0; m < static_cast<int>(Mutation::Count); ++m) {
    for (int rep = 0; rep < 20; ++rep) {
      expect_same_check(d, mutate(s, 6, static_cast<Mutation>(m), rng),
                        "mutation " + std::to_string(m));
    }
  }
  // Malformed params and demands: capacity 0 rejects every send, occupancy
  // 0 never fills a port, a bad demand fails validation in both.
  for (const auto& [capacity, occupancy] : {std::pair{0, 1}, std::pair{0, 0}, std::pair{1, 0}}) {
    SubSchedule odd = s;
    odd.params.capacity = capacity;
    odd.params.occupancy = occupancy;
    expect_same_check(d, odd, "odd params");
  }
  SubDemand bad = d;
  bad.pieces[1].dsts.push_back(3);  // a destination that is also a source
  expect_same_check(bad, s, "invalid demand");
  // Pieces sharing an id pool their sources; ids need not be positions.
  SubDemand shared = d;
  shared.pieces[1].id = 0;
  expect_same_check(shared, s, "shared piece id");
  SubDemand renumbered = d;
  renumbered.pieces[0].id = 7;
  expect_same_check(renumbered, s, "non-positional ids");
}

TEST(GreedyEquivalence, NonConvergenceThrowsLikeTheReference) {
  Coverage cov;
  util::Rng rng(9);
  const topo::GroupTopology g = random_group(rng, 4, cov);
  SubDemand d;
  d.group = &g;
  d.piece_bytes = 1.0;
  d.pieces.push_back(DemandPiece{0, {0}, {1, 2, 3}});
  EpochParams ep;
  ep.capacity = 0;  // no port can ever start a send
  expect_same_greedy(d, ep);
  // The one input the rewrite refuses instead of scheduling: a send that
  // lands in the epoch it starts (derive_epoch_params never yields L < 1).
  ep.capacity = 1;
  ep.lat_epochs = 0;
  EXPECT_THROW(solve_greedy(d, ep), std::invalid_argument);
}

// Large samples, registered under `ctest -C fuzz` (excluded from the default
// test discovery in tests/CMakeLists.txt).
TEST(GreedyEquivalenceSweep, GeneratedSubDemands) {
  for (std::uint64_t seed = 100; seed < 120; ++seed) compare_generated(seed, 250);
}

TEST(GreedyEquivalenceSweep, PaperScenarios) {
  // The schedule service's cold fabrics plus the larger H800 and flat ones.
  EXPECT_GT(compare_scenarios({"dgx16", "dgx16@degraded", "a100x16", "a100x16@failnic", "a100x32",
                               "a100x32@degraded", "h800x4", "h800x4@failnic", "h800x8", "flat8",
                               "micro"},
                              {1024, 65536, 1ull << 20, 64ull << 20}),
            1000);
}

TEST(GreedyEquivalenceSweep, H800x64AllGather) {
  // The paper's 512-GPU point: 512-member groups, 512 pieces, L in the
  // thousands at E₂ — the shape that dominates its synthesis time.
  EXPECT_GT(compare_scenarios({"h800x64"}, {1ull << 20}, {"allgather"}), 10);
}

}  // namespace
}  // namespace syccl::solver

// Pins the flat library-hit stages to the ostringstream/std::map versions
// kept in tests/hit_path_reference.h: group extraction (every field,
// signatures included), canonicalisation (rendering, hash and permutation),
// chunk-aware relabelling (the whole schedule), validation (the whole
// report) and topology text parsing (equal topologies, or the same
// exception). Library keys and served schedules depend on every byte of
// these, so any difference is a behaviour change.
//
// The suites here run a small sample in the default suite;
// HitPathEquivalenceSweep.* runs the large sample under `ctest -C fuzz`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/synthesizer.h"
#include "fuzz/generators.h"
#include "hit_path_reference.h"
#include "obs/scenario.h"
#include "runtime/validate.h"
#include "serve/broker.h"
#include "serve/canonical.h"
#include "topo/groups.h"
#include "topo/mutate.h"
#include "topo/serialize.h"
#include "util/rng.h"

namespace syccl {
namespace {

// The digest matrix's fabrics (tools/schedule_digests.cpp).
const char* const kDigestFabrics[] = {
    "dgx16",          "a100x16",         "a100x32",          "h800x4",
    "h800x8",         "h800x16",         "flat8",            "micro",
    "dgx16@degraded", "flat8@degraded",  "a100x32@degraded", "a100x16@failnic",
    "h800x4@failnic",
};

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

std::vector<int> random_permutation(int n, util::Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  return perm;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// ------------------------------------------------------------------ groups

void expect_same_ports(const std::vector<topo::GroupPort>& a,
                       const std::vector<topo::GroupPort>& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_bits(a[i].alpha, b[i].alpha) && same_bits(a[i].beta, b[i].beta) &&
                a[i].port_id == b[i].port_id)
        << where << " port " << i;
  }
}

void expect_same_hops(const std::vector<std::vector<topo::PathHop>>& a,
                      const std::vector<std::vector<topo::PathHop>>& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << where << " member " << i;
    for (std::size_t h = 0; h < a[i].size(); ++h) {
      EXPECT_TRUE(a[i][h].link_id == b[i][h].link_id && same_bits(a[i][h].alpha, b[i][h].alpha) &&
                  same_bits(a[i][h].beta, b[i][h].beta))
          << where << " member " << i << " hop " << h;
    }
  }
}

void expect_same_groups(const topo::TopologyGroups& got, const topo::TopologyGroups& want,
                        const std::string& what) {
  EXPECT_EQ(got.group_of, want.group_of) << what;
  ASSERT_EQ(got.dims.size(), want.dims.size()) << what;
  for (std::size_t d = 0; d < got.dims.size(); ++d) {
    const topo::DimensionInfo& a = got.dims[d];
    const topo::DimensionInfo& b = want.dims[d];
    const std::string where = what + " dim " + std::to_string(d);
    EXPECT_EQ(a.tier, b.tier) << where;
    EXPECT_EQ(a.link_kind, b.link_kind) << where;
    EXPECT_TRUE(same_bits(a.bandwidth_share, b.bandwidth_share)) << where;
    EXPECT_EQ(a.capacity_dim, b.capacity_dim) << where;
    ASSERT_EQ(a.groups.size(), b.groups.size()) << where;
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
      const topo::GroupTopology& x = a.groups[g];
      const topo::GroupTopology& y = b.groups[g];
      const std::string at = where + " group " + std::to_string(g);
      EXPECT_EQ(x.dim, y.dim) << at;
      EXPECT_EQ(x.group_index, y.group_index) << at;
      EXPECT_EQ(x.ranks, y.ranks) << at;
      expect_same_ports(x.up, y.up, at + " up");
      expect_same_ports(x.down, y.down, at + " down");
      expect_same_hops(x.up_hops, y.up_hops, at + " up");
      expect_same_hops(x.down_hops, y.down_hops, at + " down");
      // Production freezes each signature; the reference computes it.
      EXPECT_EQ(x.signature_, y.signature()) << at;
    }
  }
}

/// Extraction and canonicalisation of `t` against the references. Returns
/// the production groups (empty dims if extraction threw).
topo::TopologyGroups expect_same_hit_keys(const topo::Topology& t, const std::string& what) {
  topo::TopologyGroups got, want;
  const std::string got_error = error_of([&] { got = topo::extract_groups(t); });
  const std::string want_error = error_of([&] { want = topo::reference::extract_groups(t); });
  EXPECT_EQ(got_error, want_error) << what;
  if (!got_error.empty() || !want_error.empty()) return {};
  expect_same_groups(got, want, what);

  serve::CanonicalTopology a, b;
  const std::string a_error = error_of([&] { a = serve::canonicalize(got); });
  const std::string b_error = error_of([&] { b = serve::reference::canonicalize(got); });
  EXPECT_EQ(a_error, b_error) << what;
  EXPECT_EQ(a.rendering, b.rendering) << what;
  EXPECT_EQ(a.hash, b.hash) << what;
  EXPECT_EQ(a.perm, b.perm) << what;
  EXPECT_EQ(a.num_ranks, b.num_ranks) << what;
  return got;
}

void compare_scenario_fabrics(const std::vector<std::string>& names, int permutations,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  for (const std::string& name : names) {
    const topo::Topology base = obs::build_scenario_topology(name);
    expect_same_hit_keys(base, name);
    for (int p = 0; p < permutations; ++p) {
      const auto perm = random_permutation(static_cast<int>(base.num_gpus()), rng);
      expect_same_hit_keys(topo::permute_gpu_ranks(base, perm),
                           name + " permutation " + std::to_string(p));
    }
  }
}

void compare_generated_fabrics(std::uint64_t seed, int count) {
  for (int i = 0; i < count; ++i) {
    util::Rng rng(seed * 1000003 + static_cast<std::uint64_t>(i));
    fuzz::RandomTopology t = fuzz::random_topology(rng);
    if (i % 3 == 2) fuzz::degrade_random(t, rng);
    expect_same_hit_keys(t.topo, t.desc);
    const auto perm = random_permutation(static_cast<int>(t.topo.num_gpus()), rng);
    expect_same_hit_keys(topo::permute_gpu_ranks(t.topo, perm), t.desc + " permuted");
  }
}

std::vector<std::string> digest_fabrics() {
  return {std::begin(kDigestFabrics), std::end(kDigestFabrics)};
}

TEST(HitKeyEquivalence, DigestFabricsUnderPermutations) {
  compare_scenario_fabrics(digest_fabrics(), 2, 1);
}

TEST(HitKeyEquivalence, LargeH800Fabrics) {
  compare_scenario_fabrics({"h800x32"}, 1, 2);
  compare_scenario_fabrics({"h800x64"}, 0, 3);
}

TEST(HitKeyEquivalence, GeneratedFabrics) { compare_generated_fabrics(1, 50); }

TEST(HitKeyEquivalence, SharedPortWithUnequalMembers) {
  // a100 servers put two GPUs on one NIC. Slowing one GPU's NIC link in α
  // alone keeps the NIC uplink as both GPUs' bottleneck port but tells the
  // two apart, so port-sharing blocks hold members of different colours.
  const topo::Topology base = obs::build_scenario_topology("a100x16");
  for (const topo::Link& l : base.links()) {
    if (base.node(l.src).kind != topo::NodeKind::Gpu ||
        base.node(l.dst).kind != topo::NodeKind::Nic) {
      continue;
    }
    const topo::Topology slow = topo::degrade_duplex(base, l.src, l.dst, 4.0, 1.0);
    util::Rng rng(4);
    expect_same_hit_keys(slow, "a100x16 slow GPU-NIC link");
    for (int p = 0; p < 3; ++p) {
      expect_same_hit_keys(topo::permute_gpu_ranks(slow, random_permutation(16, rng)),
                           "a100x16 slow GPU-NIC link permutation " + std::to_string(p));
    }
    return;
  }
  FAIL() << "a100x16 has no GPU-NIC link";
}

TEST(HitKeyEquivalence, RejectsLikeTheReference) {
  topo::Topology no_gpus;
  no_gpus.add_node(topo::NodeKind::Switch, 0, 0, "sw");
  expect_same_hit_keys(no_gpus, "no GPUs");
  topo::Topology no_switch;
  const auto a = no_switch.add_node(topo::NodeKind::Gpu, 0, 0, "g0");
  const auto b = no_switch.add_node(topo::NodeKind::Gpu, 0, 1, "g1");
  no_switch.add_duplex_link(a, b, 1e-6, 1e-9, "nvlink");
  expect_same_hit_keys(no_switch, "no switches");
  topo::Topology stray = obs::build_scenario_topology("flat4");
  stray.add_node(topo::NodeKind::Switch, 0, 0, "stray");
  expect_same_hit_keys(stray, "unreachable switch");
}

// ----------------------------------------------------------------- relabel

void expect_same_schedule(const sim::Schedule& a, const sim::Schedule& b,
                          const std::string& what) {
  EXPECT_EQ(a.name, b.name) << what;
  ASSERT_EQ(a.pieces.size(), b.pieces.size()) << what;
  for (std::size_t i = 0; i < a.pieces.size(); ++i) {
    const sim::Piece& x = a.pieces[i];
    const sim::Piece& y = b.pieces[i];
    EXPECT_TRUE(x.chunk == y.chunk && same_bits(x.bytes, y.bytes) && x.origin == y.origin &&
                x.reduce == y.reduce && x.contributors == y.contributors)
        << what << " piece " << i;
  }
  ASSERT_EQ(a.ops.size(), b.ops.size()) << what;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    const sim::TransferOp& x = a.ops[i];
    const sim::TransferOp& y = b.ops[i];
    if (x.piece != y.piece || x.src != y.src || x.dst != y.dst || x.dim != y.dim ||
        x.phase != y.phase) {
      ADD_FAILURE() << what << " op " << i << " differs";
      return;
    }
  }
}

void expect_same_relabel(const sim::Schedule& schedule, const std::vector<int>& map,
                         const coll::Collective& from, const coll::Collective& to,
                         const std::string& what) {
  sim::Schedule got = schedule, want = schedule;
  const std::string got_error = error_of([&] { serve::apply_rank_map(got, map, from, to); });
  const std::string want_error =
      error_of([&] { serve::reference::apply_rank_map(want, map, from, to); });
  EXPECT_EQ(got_error, want_error) << what;
  if (got_error.empty() && want_error.empty()) expect_same_schedule(got, want, what);
}

/// A random valid schedule for `c`, or none when a failed NIC disconnects
/// the rank graph.
std::optional<sim::Schedule> random_schedule(const coll::Collective& c,
                                             const topo::TopologyGroups& groups, util::Rng& rng) {
  try {
    return fuzz::random_direct_schedule(c, groups, rng);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

constexpr coll::CollKind kServedKinds[] = {
    coll::CollKind::Broadcast,     coll::CollKind::Scatter,  coll::CollKind::Gather,
    coll::CollKind::Reduce,        coll::CollKind::AllGather, coll::CollKind::AllToAll,
    coll::CollKind::ReduceScatter, coll::CollKind::AllReduce,
};

/// One synthesized schedule per served kind on `fabric`, rooted at rank 1.
struct SynthesizedKinds {
  topo::Topology topology;
  topo::TopologyGroups groups;
  std::vector<coll::Collective> colls;
  std::vector<sim::Schedule> schedules;
};

const SynthesizedKinds& synthesized_kinds() {
  static const SynthesizedKinds kinds = [] {
    SynthesizedKinds out;
    out.topology = obs::build_scenario_topology("dgx16");
    core::Synthesizer synth(out.topology, core::SynthesisConfig{});
    out.groups = synth.groups();
    for (coll::CollKind kind : kServedKinds) {
      out.colls.push_back(serve::make_serve_collective(kind, 16, 1 << 20, 1));
      out.schedules.push_back(synth.synthesize(out.colls.back()).schedule);
    }
    return out;
  }();
  return kinds;
}

void compare_relabels(const sim::Schedule& schedule, const coll::Collective& from, int root,
                      util::Rng& rng, int permutations, const std::string& what) {
  const int n = from.num_ranks();
  for (int p = 0; p < permutations; ++p) {
    const auto map = random_permutation(n, rng);
    const coll::Collective to = serve::make_serve_collective(
        from.kind(), n, from.total_bytes(), map[static_cast<std::size_t>(root)]);
    expect_same_relabel(schedule, map, from, to, what + " permutation " + std::to_string(p));
  }
}

TEST(RelabelEquivalence, SynthesizedSchedulesOfEveryKind) {
  const SynthesizedKinds& kinds = synthesized_kinds();
  util::Rng rng(11);
  for (std::size_t k = 0; k < kinds.colls.size(); ++k) {
    compare_relabels(kinds.schedules[k], kinds.colls[k], 1, rng, 4,
                     coll::kind_name(kinds.colls[k].kind()));
  }
}

TEST(RelabelEquivalence, RandomSchedulesOnDigestFabrics) {
  util::Rng rng(12);
  for (const char* name : {"flat8", "a100x32", "h800x4@failnic", "dgx16@degraded"}) {
    const topo::Topology t = obs::build_scenario_topology(name);
    const topo::TopologyGroups groups = topo::extract_groups(t);
    const int n = static_cast<int>(t.num_gpus());
    for (coll::CollKind kind : kServedKinds) {
      const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const coll::Collective from = serve::make_serve_collective(kind, n, 1 << 20, root);
      if (const auto s = random_schedule(from, groups, rng)) {
        compare_relabels(*s, from, root, rng, 2, std::string(name) + " " + coll::kind_name(kind));
      }
    }
  }
}

TEST(RelabelEquivalence, EqualChunksMapInAscendingOrder) {
  // Chunks 0 and 2 share (source, destinations), as do chunks 1 and 3; the
  // target lists their images in reverse. Each chunk takes the lowest
  // target chunk of its key not yet taken.
  const std::vector<coll::Chunk> chunks = {{0, {1, 2}}, {3, {1}}, {0, {2, 1}}, {3, {1}}};
  const std::vector<int> map = {2, 0, 3, 1};
  std::vector<coll::Chunk> images;
  for (const coll::Chunk& c : chunks) {
    coll::Chunk image{map[static_cast<std::size_t>(c.src)], {}};
    for (int d : c.dsts) image.dsts.push_back(map[static_cast<std::size_t>(d)]);
    images.insert(images.begin(), image);
  }
  const coll::Collective from(coll::CollKind::AllToAll, 4, 4096, 1024.0, false, chunks);
  const coll::Collective to(coll::CollKind::AllToAll, 4, 4096, 1024.0, false, images);
  sim::Schedule s;
  for (int c = 0; c < 4; ++c) {
    s.pieces.push_back(sim::Piece{c, 1024.0, chunks[static_cast<std::size_t>(c)].src, false, {}});
  }
  expect_same_relabel(s, map, from, to, "equal chunks");
  serve::apply_rank_map(s, map, from, to);
  std::vector<int> mapped;
  for (const sim::Piece& p : s.pieces) mapped.push_back(p.chunk);
  EXPECT_EQ(mapped, (std::vector<int>{1, 0, 3, 2}));
}

TEST(RelabelEquivalence, RejectsLikeTheReference) {
  const SynthesizedKinds& kinds = synthesized_kinds();
  util::Rng rng(13);
  for (std::size_t k = 0; k < kinds.colls.size(); ++k) {
    const coll::Collective& from = kinds.colls[k];
    const std::string what = coll::kind_name(from.kind());
    const auto map = random_permutation(16, rng);
    // Not a relabelling: the target is rooted elsewhere (rooted kinds only
    // change), or has another rank count.
    expect_same_relabel(kinds.schedules[k], map, from,
                        serve::make_serve_collective(from.kind(), 16, 1 << 20, map[1] ^ 1),
                        what + " wrong root");
    expect_same_relabel(kinds.schedules[k], map, from,
                        serve::make_serve_collective(from.kind(), 8, 1 << 20, 1),
                        what + " wrong size");
    // A map too short for the collective's ranks.
    expect_same_relabel(kinds.schedules[k], std::vector<int>(map.begin(), map.begin() + 15),
                        from, from, what + " short map");
    // A piece with a chunk id out of range.
    sim::Schedule bad = kinds.schedules[k];
    bad.pieces.front().chunk = from.num_chunks() + 3;
    expect_same_relabel(bad, map, from,
                        serve::make_serve_collective(from.kind(), 16, 1 << 20, map[1]),
                        what + " bad chunk");
  }
}

// ---------------------------------------------------------------- validate

void expect_same_report(const sim::Schedule& s, const coll::Collective& c,
                        const topo::TopologyGroups& groups, const std::string& what) {
  const runtime::ValidationReport got = runtime::validate_schedule(s, c, groups);
  const runtime::ValidationReport want = runtime::reference::validate_schedule(s, c, groups);
  EXPECT_EQ(got.ok, want.ok) << what;
  EXPECT_EQ(got.errors, want.errors) << what;
  EXPECT_EQ(got.warnings, want.warnings) << what;
  ASSERT_EQ(got.traffic_per_dim.size(), want.traffic_per_dim.size()) << what;
  for (std::size_t d = 0; d < got.traffic_per_dim.size(); ++d) {
    EXPECT_TRUE(same_bits(got.traffic_per_dim[d], want.traffic_per_dim[d])) << what << " dim " << d;
  }
  EXPECT_TRUE(same_bits(got.total_traffic, want.total_traffic)) << what;
}

/// Damaged copies of `s`, each judged by both validators.
void compare_damaged(const sim::Schedule& s, const coll::Collective& c,
                     const topo::TopologyGroups& groups, util::Rng& rng, const std::string& what) {
  expect_same_report(s, c, groups, what);
  if (s.ops.empty() || s.pieces.empty()) return;
  const int n = static_cast<int>(groups.group_of.front().size());
  const auto any_op = [&] { return rng.next_below(s.ops.size()); };
  const auto any_piece = [&] { return rng.next_below(s.pieces.size()); };
  const auto damaged = [&](const char* how, auto&& damage) {
    sim::Schedule bad = s;
    damage(bad);
    expect_same_report(bad, c, groups, what + " " + how);
  };
  damaged("dropped op", [&](sim::Schedule& b) {
    b.ops.erase(b.ops.begin() + static_cast<std::ptrdiff_t>(any_op()));
  });
  damaged("inverted dependency", [&](sim::Schedule& b) {
    const auto i = any_op();
    std::rotate(b.ops.begin(), b.ops.begin() + static_cast<std::ptrdiff_t>(i),
                b.ops.begin() + static_cast<std::ptrdiff_t>(i) + 1);
  });
  damaged("rank out of range", [&](sim::Schedule& b) {
    sim::TransferOp& op = b.ops[any_op()];
    (rng.next_below(2) == 0 ? op.src : op.dst) = rng.next_below(2) == 0 ? n : -1;
  });
  damaged("piece out of range", [&](sim::Schedule& b) {
    b.ops[any_op()].piece = rng.next_below(2) == 0 ? static_cast<int>(b.pieces.size()) : -1;
  });
  damaged("origin out of range", [&](sim::Schedule& b) {
    sim::Piece& p = b.pieces[any_piece()];
    if (p.reduce) {
      p.contributors.push_back(n + 1);
    } else {
      p.origin = n;
    }
  });
  damaged("missing contributor", [&](sim::Schedule& b) {
    sim::Piece& p = b.pieces[any_piece()];
    if (!p.contributors.empty()) {
      p.contributors.erase(p.contributors.begin() +
                           static_cast<std::ptrdiff_t>(rng.next_below(p.contributors.size())));
    }
  });
  damaged("too few bytes", [&](sim::Schedule& b) { b.pieces[any_piece()].bytes *= 0.5; });
  damaged("bad dimension", [&](sim::Schedule& b) {
    b.ops[any_op()].dim = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(groups.num_dims()) + 1));
  });
  damaged("duplicated op", [&](sim::Schedule& b) {
    const auto i = any_op();
    const sim::TransferOp op = b.ops[i];
    b.ops.insert(b.ops.begin() + static_cast<std::ptrdiff_t>(i), op);
  });
}

void compare_random_schedules(std::uint64_t seed, int fabrics, int per_fabric) {
  for (int f = 0; f < fabrics; ++f) {
    util::Rng rng(seed * 7919 + static_cast<std::uint64_t>(f));
    fuzz::RandomTopology t = fuzz::random_topology(rng);
    if (f % 3 == 2) fuzz::degrade_random(t, rng);
    const topo::TopologyGroups groups = topo::extract_groups(t.topo);
    for (int k = 0; k < per_fabric; ++k) {
      const coll::Collective c =
          fuzz::random_collective(rng, static_cast<int>(t.topo.num_gpus()));
      std::optional<sim::Schedule> s = random_schedule(c, groups, rng);
      if (!s) continue;
      fuzz::mutate_schedule(*s, groups, rng, 3);
      compare_damaged(*s, c, groups, rng, t.desc + " " + c.describe());
    }
  }
}

TEST(ValidateEquivalence, RandomAndMutatedSchedules) { compare_random_schedules(1, 25, 4); }

TEST(ValidateEquivalence, SynthesizedSchedulesOfEveryKind) {
  const SynthesizedKinds& kinds = synthesized_kinds();
  util::Rng rng(21);
  for (std::size_t k = 0; k < kinds.colls.size(); ++k) {
    const std::string what = coll::kind_name(kinds.colls[k].kind());
    for (int trial = 0; trial < 3; ++trial) {
      compare_damaged(kinds.schedules[k], kinds.colls[k], kinds.groups, rng, what);
    }
    // Judged against another kind's demands, and a larger collective than the
    // fabric holds.
    expect_same_report(kinds.schedules[k], kinds.colls[(k + 1) % kinds.colls.size()],
                       kinds.groups, what + " wrong collective");
    expect_same_report(kinds.schedules[k],
                       serve::make_serve_collective(kinds.colls[k].kind(), 24, 1 << 20, 1),
                       kinds.groups, what + " more ranks");
  }
}

// -------------------------------------------------------------- topo text

void expect_same_parse(const std::string& text, const std::string& what) {
  topo::Topology got, want;
  const std::string got_error = error_of([&] { got = topo::from_text(text); });
  const std::string want_error = error_of([&] { want = topo::reference::from_text(text); });
  ASSERT_EQ(got_error, want_error) << what << "\n" << text;
  if (!got_error.empty()) return;
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  for (std::size_t i = 0; i < got.num_nodes(); ++i) {
    const topo::Node& a = got.nodes()[i];
    const topo::Node& b = want.nodes()[i];
    EXPECT_TRUE(a.id == b.id && a.kind == b.kind && a.server == b.server &&
                a.local_index == b.local_index && a.name == b.name)
        << what << " node " << i;
  }
  ASSERT_EQ(got.num_links(), want.num_links()) << what;
  for (std::size_t i = 0; i < got.num_links(); ++i) {
    const topo::Link& a = got.links()[i];
    const topo::Link& b = want.links()[i];
    EXPECT_TRUE(a.id == b.id && a.src == b.src && a.dst == b.dst && same_bits(a.alpha, b.alpha) &&
                same_bits(a.beta, b.beta) && a.kind == b.kind)
        << what << " link " << i;
  }
  EXPECT_EQ(got.gpus(), want.gpus()) << what;
}

/// Splits at single spaces, keeping the separators' positions simple.
std::vector<std::string> tokens_of(const std::string& line) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= line.size()) {
    const std::size_t sp = std::min(line.find(' ', at), line.size());
    out.push_back(line.substr(at, sp - at));
    at = sp + 1;
  }
  return out;
}

/// A random edit of one line of `text`: the mutation kinds a hand-edited or
/// corrupted inventory file shows.
std::string mutate_text(const std::string& text, util::Rng& rng) {
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t nl = std::min(text.find('\n', at), text.size());
    lines.push_back(text.substr(at, nl - at));
    at = nl + 1;
  }
  if (lines.empty()) return text;
  static const char* const kNumbers[] = {
      "-1",   "+2",    "0",      "00017", "2147483647", "2147483648", "-2147483649", "1e",
      "1e+",  "1e-3",  "1E5x",   ".5",    "5.",         ".",          "-.5",         "+-1",
      "inf",  "-inf",  "nan",    "1e400", "1e-400",     "0x10",       "12abc",       "1.2.3",
      "4e-310", "1e5e3", "-0",   "  7",   "9999999999999999999999999999", "1.5e+9"};
  std::string& line = lines[rng.next_below(lines.size())];
  std::vector<std::string> tokens = tokens_of(line);
  const auto any = [&] { return rng.next_below(tokens.size()); };
  bool carriage_return = false;
  switch (rng.next_below(11)) {
    case 0: tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(any())); break;
    case 1: std::swap(tokens[any()], tokens[any()]); break;
    case 2: {
      const auto i = any();
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(i), tokens[i]);
      break;
    }
    case 3: tokens[any()] = kNumbers[rng.next_below(std::size(kNumbers))]; break;
    case 4: tokens.push_back(kNumbers[rng.next_below(std::size(kNumbers))]); break;
    case 5: tokens.push_back("trailing"); break;
    case 6: tokens[any()] += kNumbers[rng.next_below(std::size(kNumbers))]; break;
    case 7: tokens[any()] = "#"; break;
    case 8: {
      const char* const kWords[] = {"gpu", "nic", "switch", "node", "link", "duplex", "GPU"};
      tokens[any()] = kWords[rng.next_below(std::size(kWords))];
      break;
    }
    case 9: carriage_return = true; break;
    default: tokens.insert(tokens.begin(), "\t"); break;
  }
  line.clear();
  for (std::size_t i = 0; i < tokens.size(); ++i) line += (i ? " " : "") + tokens[i];
  if (carriage_return) line += '\r';
  std::string out;
  for (const std::string& l : lines) out += l + (rng.next_below(8) == 0 ? "\r\n" : "\n");
  if (rng.next_below(4) == 0) out.pop_back();  // no final newline
  return out;
}

void compare_mutated_texts(const std::vector<std::string>& names, std::uint64_t seed,
                           int per_fabric) {
  util::Rng rng(seed);
  for (const std::string& name : names) {
    const std::string text = topo::to_text(obs::build_scenario_topology(name));
    expect_same_parse(text, name);
    for (int i = 0; i < per_fabric; ++i) {
      std::string mutated = text;
      const int edits = 1 + static_cast<int>(rng.next_below(3));
      for (int e = 0; e < edits; ++e) mutated = mutate_text(mutated, rng);
      expect_same_parse(mutated, name + " mutation " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TopoTextEquivalence, ScenarioFabricTexts) {
  for (const char* name : kDigestFabrics) {
    expect_same_parse(topo::to_text(obs::build_scenario_topology(name)), name);
  }
  expect_same_parse(topo::to_text(obs::build_scenario_topology("h800x64")), "h800x64");
}

TEST(TopoTextEquivalence, MutatedTexts) {
  compare_mutated_texts({"flat4", "micro", "dgx16@degraded", "a100x16@failnic"}, 31, 400);
}

TEST(TopoTextEquivalence, HandWrittenEdgeCases) {
  const char* const kTexts[] = {
      "",
      "\n\n",
      "# only a comment",
      "   #indented comment\nnode gpu 0 0 g0",
      "node gpu 0 0 g0\nnode gpu 0 0 g0",
      "node gpu 0 0 g0\nnode switch 0 0 s\nlink g0 s 1e-6 2e11 nvlink\nlink s g0 1e-6 -5 nvlink",
      "node gpu 0 0 g0\nnode switch 0 0 s\nduplex g0 s -1e-6 2e11 nvlink",
      "node gpu 0 0 g0\nduplex g0 g0 1e-6 2e11 nvlink",
      "node gpu 0 0 g0\nnode switch 0 0 s\nduplex g0 s 1e-6 2e11",
      "node gpu 1-2 3 g0",
      "node gpu 0 0",
      "node gpu 0 0 g0\x01",
      "node gpu\v0\f0\tg0\r\nnode switch 0 0 s\r\nduplex g0 s 1e-6 2e11 nvlink\r\n",
      "edge a b",
      "node cpu 0 0 c",
  };
  for (const char* text : kTexts) expect_same_parse(text, std::string("edge case: ") + text);
  // A mantissa that underflows, then a bare exponent: malformed, not zero.
  expect_same_parse("node gpu 0 0 g0\nnode switch 0 0 s\nduplex g0 s 0." + std::string(400, '0') +
                        "1e 2e11 nvlink",
                    "underflowing mantissa with a bare exponent");
}

// ------------------------------------------------------------------- sweep

TEST(HitPathEquivalenceSweep, DigestFabricsUnderPermutations) {
  compare_scenario_fabrics(digest_fabrics(), 15, 101);
}

TEST(HitPathEquivalenceSweep, LargeH800Fabrics) {
  compare_scenario_fabrics({"h800x32"}, 8, 102);
  compare_scenario_fabrics({"h800x64"}, 4, 103);
}

TEST(HitPathEquivalenceSweep, GeneratedFabrics) { compare_generated_fabrics(104, 500); }

TEST(HitPathEquivalenceSweep, RandomAndMutatedSchedules) {
  compare_random_schedules(105, 300, 6);
}

TEST(HitPathEquivalenceSweep, RelabelEveryKindOnDigestFabrics) {
  util::Rng rng(106);
  for (const char* name : kDigestFabrics) {
    const topo::Topology t = obs::build_scenario_topology(name);
    const topo::TopologyGroups groups = topo::extract_groups(t);
    const int n = static_cast<int>(t.num_gpus());
    for (coll::CollKind kind : kServedKinds) {
      // The generator's AllToAll relay trees take seconds beyond 32 ranks.
      if (kind == coll::CollKind::AllToAll && n > 32) continue;
      const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      const coll::Collective from = serve::make_serve_collective(kind, n, 1 << 20, root);
      if (const auto s = random_schedule(from, groups, rng)) {
        compare_relabels(*s, from, root, rng, 6, std::string(name) + " " + coll::kind_name(kind));
      }
    }
  }
}

TEST(HitPathEquivalenceSweep, MutatedTexts) {
  compare_mutated_texts(digest_fabrics(), 107, 1000);
}

}  // namespace
}  // namespace syccl

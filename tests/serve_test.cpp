// Tests for the schedule-compiler service's canonical scenario keys, the
// binary schedule codec, and the persistent on-disk library.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <thread>

#include "fuzz/generators.h"
#include "obs/scenario.h"
#include "serve/broker.h"
#include "serve/canonical.h"
#include "serve/codec.h"
#include "serve/library.h"
#include "sim/schedule.h"
#include "topo/groups.h"
#include "topo/mutate.h"
#include "util/rng.h"

namespace syccl::serve {
namespace {

namespace fs = std::filesystem;

CanonicalTopology canon_of(const topo::Topology& t) {
  return canonicalize(topo::extract_groups(t));
}

/// Fresh scratch directory under the test temp root.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("syccl_serve_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---------------------------------------------------------------- canonical

TEST(ServeCanonical, PermutedRanksProduceIdenticalRendering) {
  for (const char* name : {"flat8", "dgx16", "h800x2"}) {
    const topo::Topology original = obs::build_scenario_topology(name);
    const CanonicalTopology a = canon_of(original);

    const int n = static_cast<int>(original.num_gpus());
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::reverse(perm.begin(), perm.end());
    const CanonicalTopology b = canon_of(topo::permute_gpu_ranks(original, perm));

    EXPECT_EQ(a.rendering, b.rendering) << name;
    EXPECT_EQ(a.hash, b.hash) << name;
    EXPECT_EQ(a.num_ranks, n);
  }
}

TEST(ServeCanonical, RandomPermutationsProduceIdenticalHash) {
  const topo::Topology original = obs::build_scenario_topology("dgx16");
  const CanonicalTopology base = canon_of(original);
  const int n = static_cast<int>(original.num_gpus());
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937 gen(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::shuffle(perm.begin(), perm.end(), gen);
    const CanonicalTopology permuted = canon_of(topo::permute_gpu_ranks(original, perm));
    EXPECT_EQ(base.hash, permuted.hash) << "trial " << trial;
    // The permutation must be a bijection onto [0, n).
    std::vector<int> seen(static_cast<std::size_t>(n), 0);
    for (int p : permuted.perm) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p, n);
      ++seen[static_cast<std::size_t>(p)];
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), n);
  }
}

TEST(ServeCanonical, DistinctTopologiesProduceDistinctHashes) {
  const std::vector<std::string> names = {"flat4", "flat8", "dgx16", "dgx16@degraded",
                                          "a100x16", "micro"};
  std::vector<std::string> hashes;
  for (const auto& name : names) {
    hashes.push_back(canon_of(obs::build_scenario_topology(name)).hash);
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < hashes.size(); ++j) {
      EXPECT_NE(hashes[i], hashes[j]) << names[i] << " vs " << names[j];
    }
  }
}

TEST(ServeCanonical, AliasedScenarioNamesShareAHash) {
  // "dgx16" is literally build_h800_cluster(2): the canonical key must unify
  // the two spellings — that unification is the service's reason to exist.
  EXPECT_EQ(canon_of(obs::build_scenario_topology("dgx16")).hash,
            canon_of(obs::build_scenario_topology("h800x2")).hash);
}

TEST(ServeCanonical, SizeBucketIsPow2CeilingFlooredAt1K) {
  EXPECT_EQ(size_bucket(1), 1024u);
  EXPECT_EQ(size_bucket(1024), 1024u);
  EXPECT_EQ(size_bucket(1025), 2048u);
  EXPECT_EQ(size_bucket(1u << 20), 1u << 20);
  EXPECT_EQ(size_bucket((1u << 20) + 1), 2u << 20);
}

TEST(ServeCanonical, OptionsFingerprintTracksResultAffectingFieldsOnly) {
  core::SynthesisConfig base;
  const std::string fp = options_fingerprint(base);

  core::SynthesisConfig tuned = base;
  tuned.R2 = base.R2 + 1;
  EXPECT_NE(options_fingerprint(tuned), fp);

  core::SynthesisConfig sim_tuned = base;
  sim_tuned.sim.max_blocks = base.sim.max_blocks * 2;
  EXPECT_NE(options_fingerprint(sim_tuned), fp);

  // The epoch knobs live in the solver options and split the library.
  core::SynthesisConfig coarse_e = base;
  coarse_e.coarse_solver.E = base.coarse_solver.E * 2;
  EXPECT_NE(options_fingerprint(coarse_e), fp);
  core::SynthesisConfig fine_e = base;
  fine_e.fine_solver.E = base.fine_solver.E * 2;
  EXPECT_NE(options_fingerprint(fine_e), fp);
  EXPECT_NE(options_fingerprint(coarse_e), options_fingerprint(fine_e));

  // num_threads is pinned byte-identical elsewhere; it must not split the
  // library.
  core::SynthesisConfig threads = base;
  threads.num_threads = 3;
  EXPECT_EQ(options_fingerprint(threads), fp);
}

TEST(ServeCanonical, ScenarioKeySeparatesCollectiveRootAndBucket) {
  const CanonicalTopology canon = canon_of(obs::build_scenario_topology("flat4"));
  const std::string fp = options_fingerprint(core::SynthesisConfig{});
  const std::string base = scenario_key(canon, coll::CollKind::Broadcast, 0, 1024, fp);
  EXPECT_NE(base, scenario_key(canon, coll::CollKind::AllGather, -1, 1024, fp));
  EXPECT_NE(base, scenario_key(canon, coll::CollKind::Broadcast, 1, 1024, fp));
  EXPECT_NE(base, scenario_key(canon, coll::CollKind::Broadcast, 0, 2048, fp));
  EXPECT_EQ(base, scenario_key(canon, coll::CollKind::Broadcast, 0, 1024, fp));
}

TEST(ServeCanonical, InvertPermutationRoundTripsAndValidates) {
  const std::vector<int> perm = {2, 0, 3, 1};
  const std::vector<int> inv = invert_permutation(perm);
  EXPECT_EQ(inv, (std::vector<int>{1, 3, 0, 2}));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[i])], static_cast<int>(i));
  }
  EXPECT_THROW(invert_permutation({0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(invert_permutation({0, 5}), std::invalid_argument);
}

TEST(ServeCanonical, ApplyRankMapRemapsEveryEndpoint) {
  sim::Schedule s;
  s.pieces = sim::pieces_for(coll::make_reduce(3, 3000, 0));
  s.add_op(0, 1, 0, 0, 0);
  s.add_op(0, 2, 0, 1, 1);
  const std::vector<int> map = {2, 0, 1};
  apply_rank_map(s, map);
  EXPECT_EQ(s.ops[0].src, 0);
  EXPECT_EQ(s.ops[0].dst, 2);
  EXPECT_EQ(s.ops[1].src, 1);
  EXPECT_EQ(s.ops[1].dst, 2);
  EXPECT_EQ(s.ops[0].dim, 0);  // dims are structural, never remapped
  for (const auto& p : s.pieces) {
    if (p.origin >= 0) {
      EXPECT_LT(p.origin, 3);
    }
    // Contributors stay ascending: the simulator binary-searches them.
    EXPECT_EQ(p.contributors, (std::vector<int>{0, 1, 2}));
  }

  sim::Schedule bad;
  bad.pieces = sim::pieces_for(coll::make_broadcast(4, 4096, 0));
  bad.add_op(0, 0, 3);
  EXPECT_THROW(apply_rank_map(bad, {0, 1, 2}), std::invalid_argument);
}

// Reduce-kind schedules name each reduced block by its destination rank
// (core::reverse_schedule), not by an index into the collective's chunk
// list, so the chunk-aware overload maps their chunk ids through the rank
// map — including the last rank, which a Reduce's n−1-chunk list cannot
// index.
TEST(ServeCanonical, ApplyRankMapNamesReducedBlocksByRank) {
  const int n = 4;
  const std::vector<int> map = {3, 0, 2, 1};
  const auto reduce_piece = [n](int block) {
    sim::Piece p;
    p.chunk = block;
    p.bytes = 1024.0;
    p.reduce = true;
    p.contributors.resize(static_cast<std::size_t>(n));
    std::iota(p.contributors.begin(), p.contributors.end(), 0);
    return p;
  };

  sim::Schedule reduce;
  reduce.pieces.push_back(reduce_piece(n - 1));
  reduce.add_op(0, 0, n - 1);
  apply_rank_map(reduce, map, coll::make_reduce(n, 4096, n - 1),
                 coll::make_reduce(n, 4096, map[n - 1]));
  EXPECT_EQ(reduce.pieces[0].chunk, map[n - 1]);
  EXPECT_EQ(reduce.pieces[0].contributors, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(reduce.ops[0].dst, map[n - 1]);

  sim::Schedule scatter;
  for (int d = 0; d < n; ++d) scatter.pieces.push_back(reduce_piece(d));
  apply_rank_map(scatter, map, coll::make_reduce_scatter(n, 4096),
                 coll::make_reduce_scatter(n, 4096));
  for (int d = 0; d < n; ++d) {
    EXPECT_EQ(scatter.pieces[static_cast<std::size_t>(d)].chunk, map[static_cast<std::size_t>(d)]);
  }

  sim::Schedule out_of_range;
  out_of_range.pieces.push_back(reduce_piece(n));
  EXPECT_THROW(apply_rank_map(out_of_range, map, coll::make_reduce_scatter(n, 4096),
                              coll::make_reduce_scatter(n, 4096)),
               std::invalid_argument);
}

// -------------------------------------------------------------------- codec

ScheduleBlob sample_blob() {
  ScheduleBlob blob;
  blob.scenario_key = "syccl-serve/v1|topo=abc|ranks=4|coll=AllGather|root=-1|bucket=1024|opt=x";
  blob.num_ranks = 4;
  blob.bucket_bytes = 1024;
  blob.predicted_time = 1.0 / 3.0;  // not exactly representable in decimal
  blob.schedule.name = "sample";
  blob.schedule.pieces = sim::pieces_for(coll::make_reduce(3, 3000, 0));
  blob.schedule.pieces[0].bytes = 0.1 * 12345.0;  // exercise bit-exactness
  blob.schedule.add_op(0, 1, 0, 0, 0);
  blob.schedule.add_op(0, 2, 0, 1, 1);
  return blob;
}

/// Field-by-field equality of two blobs. Doubles travel as IEEE-754 bit
/// patterns, so equality is exact, not "close".
void expect_same_blob(const ScheduleBlob& decoded, const ScheduleBlob& blob) {
  EXPECT_EQ(decoded.scenario_key, blob.scenario_key);
  EXPECT_EQ(decoded.num_ranks, blob.num_ranks);
  EXPECT_EQ(decoded.bucket_bytes, blob.bucket_bytes);
  EXPECT_EQ(decoded.predicted_time, blob.predicted_time);
  EXPECT_EQ(decoded.degraded, blob.degraded);
  EXPECT_EQ(decoded.schedule.name, blob.schedule.name);
  ASSERT_EQ(decoded.schedule.pieces.size(), blob.schedule.pieces.size());
  for (std::size_t i = 0; i < blob.schedule.pieces.size(); ++i) {
    EXPECT_EQ(decoded.schedule.pieces[i].bytes, blob.schedule.pieces[i].bytes);
    EXPECT_EQ(decoded.schedule.pieces[i].chunk, blob.schedule.pieces[i].chunk);
    EXPECT_EQ(decoded.schedule.pieces[i].origin, blob.schedule.pieces[i].origin);
    EXPECT_EQ(decoded.schedule.pieces[i].reduce, blob.schedule.pieces[i].reduce);
    EXPECT_EQ(decoded.schedule.pieces[i].contributors, blob.schedule.pieces[i].contributors);
  }
  ASSERT_EQ(decoded.schedule.ops.size(), blob.schedule.ops.size());
  for (std::size_t i = 0; i < blob.schedule.ops.size(); ++i) {
    EXPECT_EQ(decoded.schedule.ops[i].piece, blob.schedule.ops[i].piece);
    EXPECT_EQ(decoded.schedule.ops[i].src, blob.schedule.ops[i].src);
    EXPECT_EQ(decoded.schedule.ops[i].dst, blob.schedule.ops[i].dst);
    EXPECT_EQ(decoded.schedule.ops[i].dim, blob.schedule.ops[i].dim);
    EXPECT_EQ(decoded.schedule.ops[i].phase, blob.schedule.ops[i].phase);
  }
}

TEST(ServeCodec, RoundTripIsExact) {
  const ScheduleBlob blob = sample_blob();
  const std::string encoded = encode_blob(blob);
  expect_same_blob(decode_blob(encoded), blob);

  // encode(decode(s)) == s: the byte-exact save -> reopen guarantee.
  EXPECT_EQ(encode_blob(decode_blob(encoded)), encoded);
}

// Generated schedules: relay trees with split chunks, reduce in-trees,
// redundant deliveries, explicit dimensions and extra phases, on generated
// fabrics, round trip exactly for every served kind.
class ServeCodecGenerated : public ::testing::TestWithParam<coll::CollKind> {};

TEST_P(ServeCodecGenerated, RoundTripIsExact) {
  util::Rng rng(0xc0dec000u + static_cast<std::uint64_t>(GetParam()));
  for (int fabric_index = 0; fabric_index < 4; ++fabric_index) {
    const fuzz::RandomTopology fabric = fuzz::random_topology(rng);
    SCOPED_TRACE(fabric.desc);
    const topo::TopologyGroups groups = topo::extract_groups(fabric.topo);
    const int n = static_cast<int>(fabric.topo.num_gpus());
    const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    const coll::Collective coll =
        make_serve_collective(GetParam(), n, std::uint64_t{1} << rng.next_in(10, 22), root);

    ScheduleBlob blob;
    blob.scenario_key = "generated|" + fabric.desc + "|" + coll.describe();
    blob.num_ranks = n;
    blob.bucket_bytes = coll.total_bytes();
    blob.predicted_time = rng.next_double() * 1e-3;
    blob.degraded = rng.next_below(2) == 0;
    blob.schedule = fuzz::random_direct_schedule(coll, groups, rng);
    fuzz::mutate_schedule(blob.schedule, groups, rng, 3);
    blob.schedule.name = "generated " + coll.describe();

    const std::string encoded = encode_blob(blob);
    expect_same_blob(decode_blob(encoded), blob);
    EXPECT_EQ(encode_blob(decode_blob(encoded)), encoded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ServeCodec, ServeCodecGenerated,
    ::testing::Values(coll::CollKind::Broadcast, coll::CollKind::Scatter, coll::CollKind::Gather,
                      coll::CollKind::Reduce, coll::CollKind::AllGather,
                      coll::CollKind::AllToAll, coll::CollKind::ReduceScatter,
                      coll::CollKind::AllReduce),
    [](const ::testing::TestParamInfo<coll::CollKind>& info) {
      return std::string(coll::kind_name(info.param));
    });

TEST(ServeCodec, EveryTruncationThrows) {
  const std::string encoded = encode_blob(sample_blob());
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_THROW(decode_blob(std::string_view(encoded).substr(0, len)), CodecError)
        << "prefix length " << len;
  }
}

TEST(ServeCodec, CorruptionAnywhereThrows) {
  const std::string encoded = encode_blob(sample_blob());
  // Flip one bit in every byte: magic, version, size, payload and checksum
  // corruption must all be caught.
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    std::string corrupt = encoded;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_THROW(decode_blob(corrupt), CodecError) << "byte " << i;
  }
}

TEST(ServeCodec, TrailingBytesThrow) {
  const std::string encoded = encode_blob(sample_blob());
  EXPECT_THROW(decode_blob(encoded + "x"), CodecError);
}

// ------------------------------------------------------------------ library

TEST(ServeLibrary, EntriesPersistByteExactAcrossReopen) {
  const std::string dir = scratch_dir("reopen");
  ScheduleBlob a = sample_blob();
  ScheduleBlob b = sample_blob();
  b.scenario_key += "|other";
  b.predicted_time = 2.5e-6;

  {
    DiskLibrary library({dir});
    library.put(a);
    library.put(b);
    EXPECT_TRUE(library.get(a.scenario_key).has_value());
    EXPECT_FALSE(library.get("no such key").has_value());
    const auto stats = library.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
  }

  DiskLibrary reopened({dir});
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.quarantined, 0u);
  const auto got = reopened.get(a.scenario_key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(encode_blob(*got), encode_blob(a));
  EXPECT_EQ(got->predicted_time, a.predicted_time);
}

TEST(ServeLibrary, CorruptEntryIsQuarantinedNotFatal) {
  const std::string dir = scratch_dir("quarantine");
  ScheduleBlob a = sample_blob();
  ScheduleBlob b = sample_blob();
  b.scenario_key += "|other";
  {
    DiskLibrary library({dir});
    library.put(a);
    library.put(b);
  }

  // Corrupt a's entry file in the middle of the payload.
  const fs::path entry = fs::path(dir) / (fnv1a_hex(a.scenario_key) + ".sched");
  ASSERT_TRUE(fs::exists(entry));
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(entry) / 2));
    f.put('\xff');
    f.put('\xff');
  }

  DiskLibrary reopened({dir});
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_FALSE(reopened.get(a.scenario_key).has_value());  // falls back to synthesis
  EXPECT_TRUE(reopened.get(b.scenario_key).has_value());
  EXPECT_FALSE(fs::exists(entry));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / entry.filename()));
}

TEST(ServeLibrary, LruEvictionBoundsBytesAndDeletesFiles) {
  const std::string dir = scratch_dir("lru");
  ScheduleBlob a = sample_blob();
  a.scenario_key += "|a";
  ScheduleBlob b = sample_blob();
  b.scenario_key += "|b";
  ScheduleBlob c = sample_blob();
  c.scenario_key += "|c";
  const std::size_t entry_bytes = encode_blob(a).size();

  DiskLibrary library({dir, entry_bytes * 2 + entry_bytes / 2});
  library.put(a);
  library.put(b);
  EXPECT_TRUE(library.get(a.scenario_key).has_value());  // a is now most recent
  library.put(c);                                        // evicts b (LRU)

  EXPECT_FALSE(library.get(b.scenario_key).has_value());
  EXPECT_TRUE(library.get(a.scenario_key).has_value());
  EXPECT_TRUE(library.get(c.scenario_key).has_value());
  const auto stats = library.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, entry_bytes * 2 + entry_bytes / 2);
  EXPECT_FALSE(fs::exists(fs::path(dir) / (fnv1a_hex(b.scenario_key) + ".sched")));

  DiskLibrary reopened({dir, entry_bytes * 2 + entry_bytes / 2});
  EXPECT_EQ(reopened.stats().entries, 2u);
  EXPECT_FALSE(reopened.get(b.scenario_key).has_value());
}

TEST(ServeLibrary, ConcurrentGetsServeWholeEntriesAcrossARacingUpgrade) {
  // get() decodes outside the library mutex. Readers racing an upgrade put
  // must each see whole entries, the degraded one and then the full one, and
  // never a failed decode that would quarantine either.
  const std::string dir = scratch_dir("concurrent_get");
  ScheduleBlob degraded = sample_blob();
  degraded.degraded = true;
  degraded.predicted_time = 2.5e-6;
  const ScheduleBlob full = sample_blob();
  DiskLibrary library({dir});
  ASSERT_EQ(library.put(degraded), DiskLibrary::PutResult::Inserted);

  constexpr int kReaders = 4;
  constexpr int kGets = 200;
  std::vector<std::vector<std::string>> seen(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&library, &seen, &full, t] {
      for (int i = 0; i < kGets; ++i) {
        const std::optional<ScheduleBlob> got = library.get(full.scenario_key);
        seen[static_cast<std::size_t>(t)].push_back(got ? encode_blob(*got) : "miss");
      }
    });
  }
  while (library.stats().hits == 0) std::this_thread::yield();
  EXPECT_EQ(library.put(full), DiskLibrary::PutResult::Upgraded);
  for (std::thread& r : readers) r.join();

  const std::string before = encode_blob(degraded);
  const std::string after = encode_blob(full);
  for (const std::vector<std::string>& reads : seen) {
    const auto upgraded = std::find(reads.begin(), reads.end(), after);
    EXPECT_EQ(std::count(reads.begin(), upgraded, before), upgraded - reads.begin());
    EXPECT_EQ(std::count(upgraded, reads.end(), after), reads.end() - upgraded);
  }
  const DiskLibrary::Stats stats = library.stats();
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kReaders * kGets));
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.quarantined, 0u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, after.size());
  const std::optional<ScheduleBlob> now = library.get(full.scenario_key);
  ASSERT_TRUE(now.has_value());
  EXPECT_EQ(encode_blob(*now), after);
}

}  // namespace
}  // namespace syccl::serve

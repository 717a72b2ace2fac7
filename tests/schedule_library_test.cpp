// Tests for the schedule library as a training job uses it: a
// serve::DiskLibrary behind an in-process serve::Broker, keyed by the
// canonical topology hash and the scenario key, persisting across reopen.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "coll/collective.h"
#include "counting_test.h"
#include "runtime/executor.h"
#include "serve/broker.h"
#include "serve/canonical.h"
#include "serve/library.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace syccl::serve {
namespace {

namespace fs = std::filesystem;

/// A library path under the test temp root that does not exist yet;
/// DiskLibrary creates it.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("syccl_schedule_library_" + name);
  fs::remove_all(dir);
  return dir.string();
}

ServeRequest request_for(const topo::Topology& topology, coll::CollKind kind,
                         std::uint64_t bytes) {
  ServeRequest request;
  request.topology = topology;
  request.kind = kind;
  request.total_bytes = bytes;
  return request;
}

class ScheduleLibrary : public CountingTest {};

// The library's topology key: equal for two builds of one cluster, distinct
// across cluster sizes and server types.
TEST(TopologySignature, StableAndDiscriminating) {
  const auto hash_of = [](const topo::Topology& t) {
    return canonicalize(topo::extract_groups(t)).hash;
  };
  const std::string a1 = hash_of(topo::build_h800_cluster(2));
  const std::string a2 = hash_of(topo::build_h800_cluster(2));
  const std::string b = hash_of(topo::build_h800_cluster(4));
  const std::string c = hash_of(topo::build_a100_testbed(16));
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_NE(a1, c);
}

// The key a served schedule is stored under follows the collective's kind
// and size bucket; the same request always derives the same key.
TEST(ScheduleKey, DependsOnAllFields) {
  DiskLibrary library({fresh_dir("key")});
  Broker broker(library);
  const topo::Topology cluster = topo::build_h800_cluster(2);
  const auto key_of = [&](coll::CollKind kind, std::uint64_t bytes) {
    return broker.handle(request_for(cluster, kind, bytes)).scenario_key;
  };
  const std::string k1 = key_of(coll::CollKind::AllGather, 1 << 20);
  const std::string k2 = key_of(coll::CollKind::AllGather, 2 << 20);
  const std::string k3 = key_of(coll::CollKind::ReduceScatter, 1 << 20);
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_EQ(k1, key_of(coll::CollKind::AllGather, 1 << 20));
  EXPECT_EQ(library.stats().entries, 3u);
}

TEST_F(ScheduleLibrary, MemoisesSynthesis) {
  DiskLibrary library({fresh_dir("memo")});
  Broker broker(library);
  const ServeRequest ag =
      request_for(topo::build_h800_cluster(2), coll::CollKind::AllGather, 1 << 20);

  const ServeResponse first = broker.handle(ag);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(library.stats().entries, 1u);

  const ServeResponse second = broker.handle(ag);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.scenario_key, first.scenario_key);
  EXPECT_EQ(second.synth_seconds, 0.0);
  EXPECT_DOUBLE_EQ(second.predicted_time, first.predicted_time);
  EXPECT_EQ(second.schedule.ops.size(), first.schedule.ops.size());
  EXPECT_EQ(library.stats().entries, 1u);
  EXPECT_EQ(count("serve.misses"), 1);
  EXPECT_EQ(count("serve.hits"), 1);
}

TEST_F(ScheduleLibrary, SaveAndLoadRoundTrip) {
  const std::string dir = fresh_dir("round_trip");
  const coll::Collective coll = coll::make_allgather(16, 4 << 20);
  const ServeRequest ag =
      request_for(topo::build_h800_cluster(2), coll::CollKind::AllGather, 4 << 20);
  double predicted = 0.0;
  {
    DiskLibrary library({dir});
    Broker broker(library);
    predicted = broker.handle(ag).predicted_time;
  }
  DiskLibrary library({dir});
  EXPECT_EQ(library.stats().entries, 1u);
  Broker broker(library);
  const ServeResponse r = broker.handle(ag);  // served from disk, no re-synthesis
  EXPECT_TRUE(r.hit);
  EXPECT_DOUBLE_EQ(r.predicted_time, predicted);
  EXPECT_EQ(count("serve.misses"), 1);
  // The reloaded schedule still moves the right bytes.
  EXPECT_TRUE(runtime::execute_and_verify(r.schedule, coll).ok);
}

TEST_F(ScheduleLibrary, LoadSkipsOtherTopologies) {
  const std::string dir = fresh_dir("other_topology");
  {
    DiskLibrary library({dir});
    Broker broker(library);
    (void)broker.handle(
        request_for(topo::build_h800_cluster(2), coll::CollKind::AllGather, 1 << 20));
  }
  DiskLibrary library({dir});
  Broker broker(library);
  const ServeResponse r = broker.handle(
      request_for(topo::build_h800_cluster(4), coll::CollKind::AllGather, 1 << 20));
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(count("serve.hits"), 0);
  EXPECT_EQ(library.stats().entries, 2u);
}

TEST_F(ScheduleLibrary, LoadFromMissingDirIsZero) {
  const std::string dir = fresh_dir("missing") + "/nested";
  DiskLibrary library({dir});
  EXPECT_EQ(library.stats().entries, 0u);
  EXPECT_EQ(library.stats().bytes, 0u);
  EXPECT_TRUE(fs::is_directory(dir));
}

}  // namespace
}  // namespace syccl::serve

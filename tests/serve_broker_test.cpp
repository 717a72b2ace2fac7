// Tests for the serve broker (hit/miss/join/reject paths, the pinned
// isomorphic-request acceptance test), the wire protocol, and the unix
// socket transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <thread>
#include <vector>

#include "counting_test.h"
#include "obs/json.h"
#include "obs/scenario.h"
#include "runtime/validate.h"
#include "runtime/xml.h"
#include "serve/broker.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "sim/simulator.h"
#include "topo/groups.h"
#include "topo/mutate.h"
#include "util/failpoint.h"

namespace syccl::serve {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("syccl_broker_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

ServeRequest flat4_request(std::uint64_t bytes = 1 << 20) {
  ServeRequest request;
  request.topology = obs::build_scenario_topology("flat4");
  request.kind = coll::CollKind::AllGather;
  request.total_bytes = bytes;
  return request;
}

/// Disarms every failpoint when a test ends, pass or fail.
struct FailpointGuard {
  ~FailpointGuard() { util::Failpoints::instance().clear(); }
};

/// Blocks until failpoint `name` has fired at least once.
void await_failpoint(const char* name) {
  while (util::Failpoints::instance().hits(name) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// A decodable entry under `request`'s scenario key that satisfies no
/// demand (an empty schedule), so serving it fails verification.
ScheduleBlob bogus_entry(const Broker& broker, const ServeRequest& request) {
  const CanonicalTopology canon = canonicalize(topo::extract_groups(request.topology));
  ScheduleBlob bogus;
  bogus.scenario_key =
      scenario_key(canon, request.kind, -1, size_bucket(request.total_bytes),
                   options_fingerprint(broker.config().synthesis));
  bogus.num_ranks = canon.num_ranks;
  bogus.bucket_bytes = size_bucket(request.total_bytes);
  return bogus;
}

class ServeBroker : public CountingTest {};
class ServeProtocol : public CountingTest {};
class ServeSocket : public CountingTest {};

// ------------------------------------------------------------------- broker

TEST_F(ServeBroker, MissThenHitWithByteLevelAgreement) {
  DiskLibrary library({scratch_dir("miss_hit")});
  Broker broker(library);

  const ServeRequest request = flat4_request();
  const ServeResponse cold = broker.handle(request);
  EXPECT_FALSE(cold.hit);
  EXPECT_FALSE(cold.joined);
  EXPECT_GT(cold.predicted_time, 0.0);

  const ServeResponse warm = broker.handle(request);
  EXPECT_TRUE(warm.hit);
  EXPECT_EQ(warm.scenario_key, cold.scenario_key);
  EXPECT_DOUBLE_EQ(warm.predicted_time, cold.predicted_time);
  ASSERT_EQ(warm.schedule.ops.size(), cold.schedule.ops.size());

  EXPECT_EQ(count("serve.requests"), 2);
  EXPECT_EQ(count("serve.hits"), 1);
  EXPECT_EQ(count("serve.misses"), 1);
  EXPECT_EQ(count("serve.joins"), 0);
}

// The pinned acceptance test: a request whose topology is a rank-permuted
// copy of an already-served one must derive the same canonical key, hit the
// library entry, and the served schedule must validate and simulate to the
// same completion time under the caller's labelling.
TEST_F(ServeBroker, IsomorphicPermutedRequestHitsSameEntry) {
  DiskLibrary library({scratch_dir("isomorphic")});
  Broker broker(library);

  ServeRequest original;
  original.topology = obs::build_scenario_topology("flat8");
  original.kind = coll::CollKind::AllGather;
  original.total_bytes = 1 << 20;
  const ServeResponse cold = broker.handle(original);
  EXPECT_FALSE(cold.hit);

  const std::vector<int> perm = {5, 2, 7, 0, 3, 6, 1, 4};
  ServeRequest permuted = original;
  permuted.topology = topo::permute_gpu_ranks(original.topology, perm);
  const ServeResponse served = broker.handle(permuted);

  EXPECT_TRUE(served.hit);
  EXPECT_EQ(served.scenario_key, cold.scenario_key);

  // Must be a valid schedule for the *caller's* labelling of the cluster.
  const topo::TopologyGroups groups = topo::extract_groups(permuted.topology);
  const coll::Collective coll = coll::make_allgather(8, permuted.total_bytes);
  const runtime::ValidationReport report =
      runtime::validate_schedule(served.schedule, coll, groups);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors.front());

  // Isomorphic fabrics: the relabelled schedule must price identically.
  const sim::Simulator simulator(groups, broker.config().synthesis.sim);
  const double time = simulator.time_collective(served.schedule, coll);
  EXPECT_NEAR(time, cold.predicted_time, 1e-12 + 1e-9 * cold.predicted_time);

  EXPECT_EQ(count("serve.hits"), 1);
  EXPECT_EQ(library.stats().entries, 1u);  // one entry serves both labellings
}

// AllToAll is the chunk-remap regression guard: unlike AllGather (every
// chunk demanded everywhere), its chunk ids are rank-pair-specific, so a
// served schedule whose chunk ids were not remapped alongside the ranks
// fails verification and the hit silently degrades to a re-synthesis.
TEST_F(ServeBroker, IsomorphicAllToAllRequestRemapsChunkIds) {
  DiskLibrary library({scratch_dir("alltoall_chunks")});
  Broker broker(library);

  ServeRequest original = flat4_request();
  original.kind = coll::CollKind::AllToAll;
  const ServeResponse cold = broker.handle(original);
  EXPECT_FALSE(cold.hit);

  const std::vector<int> perm = {2, 0, 3, 1};
  ServeRequest permuted = original;
  permuted.topology = topo::permute_gpu_ranks(original.topology, perm);
  const ServeResponse served = broker.handle(permuted);

  EXPECT_TRUE(served.hit);
  EXPECT_EQ(served.scenario_key, cold.scenario_key);
  EXPECT_EQ(count("serve.verify_failures"), 0);

  const topo::TopologyGroups groups = topo::extract_groups(permuted.topology);
  const coll::Collective coll = coll::make_alltoall(4, permuted.total_bytes);
  const runtime::ValidationReport report =
      runtime::validate_schedule(served.schedule, coll, groups);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors.front());
}

TEST_F(ServeBroker, SameBucketRequestRescalesPieceBytes) {
  DiskLibrary library({scratch_dir("rescale")});
  Broker broker(library);

  const ServeResponse cold = broker.handle(flat4_request(1 << 20));
  // 600 KiB shares the 1 MiB bucket: must hit and rescale, not resynthesize.
  const ServeResponse scaled = broker.handle(flat4_request(600 << 10));
  EXPECT_TRUE(scaled.hit);
  EXPECT_EQ(scaled.scenario_key, cold.scenario_key);

  const auto total_bytes = [](const sim::Schedule& s) {
    double sum = 0.0;
    for (const auto& p : s.pieces) sum += p.bytes;
    return sum;
  };
  const double ratio = total_bytes(scaled.schedule) / total_bytes(cold.schedule);
  EXPECT_NEAR(ratio, static_cast<double>(600 << 10) / (1 << 20), 1e-12);
  EXPECT_LT(scaled.predicted_time, cold.predicted_time);
}

TEST_F(ServeBroker, ConcurrentMissesCoalesceIntoOneSynthesis) {
  DiskLibrary library({scratch_dir("coalesce")});
  BrokerConfig config;
  config.num_threads = 2;
  Broker broker(library, config);

  constexpr int kThreads = 4;
  std::vector<ServeResponse> responses(kThreads);
  {
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&broker, &responses, i] { responses[static_cast<std::size_t>(i)] = broker.handle(flat4_request()); });
    }
    for (auto& t : threads) t.join();
  }

  EXPECT_EQ(count("serve.requests"), kThreads);
  // Exactly one synthesis ran; everyone else joined it or (if they arrived
  // after it finished) hit the library.
  EXPECT_EQ(count("serve.misses"), 1);
  EXPECT_EQ(count("serve.joins") + count("serve.hits"), kThreads - 1);
  for (const auto& response : responses) {
    EXPECT_DOUBLE_EQ(response.predicted_time, responses[0].predicted_time);
    EXPECT_EQ(response.scenario_key, responses[0].scenario_key);
  }
  EXPECT_EQ(library.stats().entries, 1u);
}

TEST_F(ServeBroker, AdmissionLimitRejectsInsteadOfQueueingUnbounded) {
  DiskLibrary library({scratch_dir("admission")});
  BrokerConfig config;
  config.max_in_flight = 0;
  Broker broker(library, config);
  EXPECT_THROW(broker.handle(flat4_request()), BrokerError);
  EXPECT_EQ(count("serve.rejects"), 1);
}

TEST_F(ServeBroker, UnverifiableLibraryEntryFallsBackToSynthesis) {
  DiskLibrary library({scratch_dir("verify_fallback")});
  Broker broker(library);

  // Plant a decodable but bogus entry under the exact key the request will
  // derive.
  const ServeRequest request = flat4_request();
  library.put(bogus_entry(broker, request));

  const ServeResponse response = broker.handle(request);
  EXPECT_FALSE(response.hit);  // fell back to synthesis, did not crash
  EXPECT_GT(response.schedule.ops.size(), 0u);
  EXPECT_EQ(count("serve.verify_failures"), 1);
  EXPECT_EQ(count("serve.misses"), 1);
}

TEST_F(ServeBroker, EntryLandingBetweenLookupAndJoinIsServedAsHit) {
  // The miss/store race: the second request's lookup misses while the first
  // request's synthesis runs; that synthesis then stores its entry and
  // retires its in-flight record while the second request sits between its
  // lookup and join_or_start. The second request must answer from the
  // stored entry, not start a duplicate synthesis. The delays make the
  // window deterministic.
  FailpointGuard guard;
  auto& failpoints = util::Failpoints::instance();
  DiskLibrary library({scratch_dir("landed")});
  Broker broker(library);

  failpoints.enable("serve.broker.synthesize", "delay:300");
  ServeResponse first, second;
  std::thread initiator([&] { first = broker.handle(flat4_request()); });
  await_failpoint("serve.broker.synthesize");  // the first synthesis is asleep
  failpoints.enable("serve.broker.join", "delay:1500");
  std::thread late([&] { second = broker.handle(flat4_request()); });
  initiator.join();
  late.join();

  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_FALSE(second.joined);
  EXPECT_EQ(failpoints.hits("serve.broker.synthesize"), 1u);  // one synthesis ran
  EXPECT_EQ(count("serve.misses"), 1);
  EXPECT_EQ(count("serve.hits"), 1);
  EXPECT_EQ(count("serve.joins"), 0);
  EXPECT_EQ(library.stats().entries, 1u);
  EXPECT_EQ(runtime::to_xml(first.schedule, 4), runtime::to_xml(second.schedule, 4));
}

TEST_F(ServeBroker, UnverifiableEntryLandingBeforeJoinFallsBackToSynthesis) {
  // An entry that lands between the lookup and join_or_start is served like
  // any hit; when it fails verification the request synthesizes, exactly as
  // for an unverifiable entry found by the lookup itself.
  FailpointGuard guard;
  auto& failpoints = util::Failpoints::instance();
  DiskLibrary library({scratch_dir("landed_bogus")});
  Broker broker(library);
  const ServeRequest request = flat4_request();

  failpoints.enable("serve.broker.join", "delay:300");
  ServeResponse response;
  std::thread requester([&] { response = broker.handle(request); });
  await_failpoint("serve.broker.join");  // the lookup has missed
  library.put(bogus_entry(broker, request));
  requester.join();

  EXPECT_FALSE(response.hit);
  EXPECT_GT(response.schedule.ops.size(), 0u);
  EXPECT_EQ(count("serve.verify_failures"), 1);
  EXPECT_EQ(count("serve.misses"), 1);
  EXPECT_EQ(count("serve.hits"), 0);
}

TEST_F(ServeBroker, SendRecvIsRejected) {
  DiskLibrary library({scratch_dir("sendrecv")});
  Broker broker(library);
  ServeRequest request = flat4_request();
  request.kind = coll::CollKind::SendRecv;
  EXPECT_THROW(broker.handle(request), std::invalid_argument);
}

// ----------------------------------------------------------------- protocol

/// In-memory Stream: reads from a preloaded input, records writes.
class ScriptedStream : public Stream {
 public:
  explicit ScriptedStream(std::string input) : input_(std::move(input)) {}

  bool read_line(std::string& line) override {
    if (pos_ >= input_.size()) return false;
    const std::size_t nl = input_.find('\n', pos_);
    if (nl == std::string::npos) return false;
    line = input_.substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }
  bool read_exact(std::string& out, std::size_t n) override {
    if (input_.size() - pos_ < n) return false;
    out = input_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  bool write_all(std::string_view data) override {
    output.append(data);
    return true;
  }

  std::string output;

 private:
  std::string input_;
  std::size_t pos_ = 0;
};

TEST_F(ServeProtocol, PingStatsAndUnknownCommands) {
  DiskLibrary library({scratch_dir("protocol_ping")});
  Broker broker(library);
  // A miss and a hit first, so STATS has non-zero counts on both sides.
  broker.handle(flat4_request());
  broker.handle(flat4_request());
  ScriptedStream stream("PING\nFROBNICATE\nSTATS\nQUIT\n");
  EXPECT_EQ(serve_connection(stream, broker, library), 0);
  EXPECT_EQ(stream.output.substr(0, 5), "PONG\n");
  EXPECT_NE(stream.output.find("ERR "), std::string::npos);

  // The STATS reply, "OK <nbytes>\n<json>", is the last frame.
  const std::size_t ok = stream.output.rfind("OK ");
  ASSERT_NE(ok, std::string::npos);
  const std::size_t nl = stream.output.find('\n', ok);
  ASSERT_NE(nl, std::string::npos);
  const std::string body = stream.output.substr(nl + 1);
  EXPECT_EQ(std::to_string(body.size()), stream.output.substr(ok + 3, nl - ok - 3));
  const obs::Json stats = obs::Json::parse(body);

  const auto keys = [](const obs::Json& object) {
    std::vector<std::string> out;
    for (const auto& member : object.members()) out.push_back(member.first);
    return out;
  };
  EXPECT_EQ(keys(stats), (std::vector<std::string>{"broker", "library"}));
  const std::vector<std::string> broker_keys = {"requests", "hits",    "misses",
                                                "joins",    "rejects", "verify_failures",
                                                "degraded_hits", "upgrades"};
  const obs::Json& b = stats.at("broker");
  EXPECT_EQ(keys(b), broker_keys);
  for (const std::string& key : broker_keys) {
    EXPECT_EQ(b.at(key).as_number(), static_cast<double>(count("serve." + key))) << key;
  }
  EXPECT_EQ(b.at("requests").as_number(), 2.0);
  EXPECT_EQ(b.at("hits").as_number(), 1.0);

  const obs::Json& l = stats.at("library");
  EXPECT_EQ(keys(l), (std::vector<std::string>{"entries", "bytes", "hits", "misses", "evictions",
                                                "quarantined", "rejected_downgrades"}));
  const DiskLibrary::Stats want = library.stats();
  EXPECT_EQ(l.at("entries").as_number(), static_cast<double>(want.entries));
  EXPECT_EQ(l.at("bytes").as_number(), static_cast<double>(want.bytes));
  EXPECT_EQ(l.at("hits").as_number(), static_cast<double>(want.hits));
  EXPECT_EQ(l.at("misses").as_number(), static_cast<double>(want.misses));
  EXPECT_EQ(l.at("evictions").as_number(), static_cast<double>(want.evictions));
  EXPECT_EQ(l.at("quarantined").as_number(), static_cast<double>(want.quarantined));
  EXPECT_EQ(l.at("rejected_downgrades").as_number(),
            static_cast<double>(want.rejected_downgrades));
  EXPECT_EQ(want.entries, 1u);
  EXPECT_GT(want.bytes, 0u);
}

TEST_F(ServeProtocol, MalformedRequestsGetErrFramesAndKeepTheStream) {
  DiskLibrary library({scratch_dir("protocol_err")});
  Broker broker(library);
  const std::string topo = "TOPOLOGY 0\n";
  ScriptedStream stream("REQUEST NoSuchColl 0 1024 binary\n" + topo +
                        "REQUEST AllGather 0 banana binary\n" + topo +
                        "REQUEST AllGather 0 1024 yaml\n" + topo + "PING\nQUIT\n");
  serve_connection(stream, broker, library);
  // Three ERR frames, then the stream is still alive for the PING.
  std::size_t errs = 0, at = 0;
  while ((at = stream.output.find("ERR ", at)) != std::string::npos) {
    ++errs;
    at += 4;
  }
  EXPECT_EQ(errs, 3u);
  EXPECT_NE(stream.output.find("PONG\n"), std::string::npos);
  EXPECT_EQ(count("serve.requests"), 0);  // nothing reached the broker
}

TEST_F(ServeProtocol, RequestRoundTripsInBinaryAndXml) {
  DiskLibrary library({scratch_dir("protocol_rt")});
  Broker broker(library);
  const ServeRequest request = flat4_request();

  for (const char* format : {"binary", "xml"}) {
    ScriptedStream server(encode_request(request, format) + "QUIT\n");
    EXPECT_EQ(serve_connection(server, broker, library), 1);

    ScriptedStream client(server.output);
    WireResponse response;
    ASSERT_TRUE(read_response(client, response)) << format;
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.format, format);
    EXPECT_GT(response.predicted_time, 0.0);
    EXPECT_NE(response.scenario_key.find("coll=AllGather"), std::string::npos);

    if (std::string(format) == "binary") {
      const ScheduleBlob blob = decode_blob(response.payload);
      EXPECT_EQ(blob.scenario_key, response.scenario_key);
      EXPECT_GT(blob.schedule.ops.size(), 0u);
    } else {
      const sim::Schedule parsed = runtime::from_xml(response.payload);
      EXPECT_GT(parsed.ops.size(), 0u);
    }
  }
  // First format missed, second hit the same entry.
  EXPECT_EQ(count("serve.misses"), 1);
  EXPECT_EQ(count("serve.hits"), 1);
}

TEST_F(ServeProtocol, TruncatedTopologyPayloadEndsTheConnection) {
  DiskLibrary library({scratch_dir("protocol_trunc")});
  Broker broker(library);
  ScriptedStream stream("REQUEST AllGather 0 1024 binary\nTOPOLOGY 100\nshort");
  EXPECT_EQ(serve_connection(stream, broker, library), 0);
  EXPECT_NE(stream.output.find("ERR "), std::string::npos);
}

// ------------------------------------------------------------------- socket

TEST_F(ServeSocket, EndToEndOverUnixSocket) {
  DiskLibrary library({scratch_dir("socket_lib")});
  Broker broker(library);
  const std::string sock = fs::path(::testing::TempDir()) / "syccl_serve_test.sock";
  fs::remove(sock);

  UnixServer server(sock);
  std::thread server_thread(
      [&server, &broker, &library] { server.serve(broker, library, 2); });

  const ServeRequest request = flat4_request();
  for (int round = 0; round < 2; ++round) {
    auto stream = connect_unix(sock);
    std::string line;
    ASSERT_TRUE(stream->write_all("PING\n"));
    ASSERT_TRUE(stream->read_line(line));
    EXPECT_EQ(line, "PONG");

    ASSERT_TRUE(stream->write_all(encode_request(request, "binary")));
    WireResponse response;
    ASSERT_TRUE(read_response(*stream, response));
    ASSERT_TRUE(response.ok) << response.error;
    EXPECT_EQ(response.hit, round == 1);
    stream->write_all("QUIT\n");
  }

  server_thread.join();  // request budget reached -> serve() returns
  EXPECT_EQ(count("serve.requests"), 2);
  EXPECT_EQ(count("serve.hits"), 1);
}

}  // namespace
}  // namespace syccl::serve

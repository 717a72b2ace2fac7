// serve_warm and serve_cold: the schedule service over its real Unix-socket
// protocol, driven in-process by two client connections in a closed loop.
//
// The service (DiskLibrary + Broker + UnixServer) and the clients share this
// process, so getrusage covers the broker and the trace snapshot holds the
// broker's spans. Each client blocks on its reply, like a job launcher.
// The broker pool plus the two client threads never exceed the host's
// cores: pool = max(1, cores - 2) threads, one synthesizer thread each.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "coll/busbw.h"
#include "obs/metrics.h"
#include "obs/scenario.h"
#include "runtime/validate.h"
#include "serve/broker.h"
#include "serve/canonical.h"
#include "serve/codec.h"
#include "serve/library.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "solver/solve_cache.h"
#include "topo/groups.h"
#include "topo/mutate.h"

namespace sycclbench {

namespace {

using syccl::coll::CollKind;
namespace serve = syccl::serve;
namespace topo = syccl::topo;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr CollKind kKinds[] = {CollKind::AllGather, CollKind::AllReduce, CollKind::ReduceScatter,
                               CollKind::AllToAll,  CollKind::Broadcast, CollKind::Reduce,
                               CollKind::Scatter,   CollKind::Gather};

bool is_rooted(CollKind kind) {
  return kind == CollKind::Broadcast || kind == CollKind::Reduce || kind == CollKind::Scatter ||
         kind == CollKind::Gather;
}

/// Whether a library entry of this kind can be served to a caller that
/// labels the fabric differently from the requester it was synthesized for.
/// Only the rootless, reduction-free kinds can today: a rooted key depends
/// on the labelling (a relabelled rooted request misses), and relabelled
/// AllReduce/ReduceScatter schedules fail the broker's own verification
/// (dependency inversions, unmet reduce demands). The benchmark keeps the
/// other kinds in the labelling they were stored under, so that no request
/// fails.
bool relabels(CollKind kind) { return kind == CollKind::AllGather || kind == CollKind::AllToAll; }

int cores() { return static_cast<int>(std::max(1u, std::thread::hardware_concurrency())); }

double busbw_gbps(CollKind kind, int ranks, std::uint64_t bytes, double seconds) {
  return syccl::coll::busbw_factor(kind, ranks) * syccl::coll::algbw(bytes, seconds) / 1e9;
}

std::vector<int> shuffled_ranks(int n, std::mt19937_64& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

serve::BrokerConfig broker_config() {
  serve::BrokerConfig config;
  config.num_threads = std::max(1, cores() - 2);
  config.synthesis.num_threads = 1;
  return config;
}

/// One in-process schedule service on a fresh library directory: the
/// library, the broker and the socket server's accept thread. Clients
/// connect through the socket; destruction drains the server and joins it.
class Service {
 public:
  Service(const std::string& name, const serve::BrokerConfig& config)
      : library_(library_config(name)),
        broker_(library_, config),
        server_(name + ".sock"),
        thread_([this] { server_.serve(broker_, library_); }) {}

  ~Service() {
    server_.begin_drain();
    thread_.join();
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::unique_ptr<serve::Stream> connect() { return serve::connect_unix(server_.path(), 120.0); }
  serve::DiskLibrary& library() { return library_; }

 private:
  static serve::DiskLibraryConfig library_config(const std::string& name) {
    serve::DiskLibraryConfig config;
    config.dir = name + ".lib";
    return config;
  }

  serve::DiskLibrary library_;
  serve::Broker broker_;
  serve::UnixServer server_;
  std::thread thread_;  // declared last: uses every member above
};

/// One request as a client sends it, plus what the benchmark needs to check
/// the answer.
struct Request {
  topo::Topology topology;
  CollKind kind = CollKind::AllGather;
  int root = 0;
  std::uint64_t bytes = kMiB;
  int deadline_ms = 0;  ///< 0 = none

  std::string wire() const {
    serve::ServeRequest request;
    request.topology = topology;
    request.kind = kind;
    request.root = root;
    request.total_bytes = bytes;
    if (deadline_ms > 0) request.deadline_seconds = deadline_ms / 1000.0;
    return serve::encode_request(request, "binary");
  }
};

/// One reply and its latency: from the first REQUEST byte written to the
/// last SCHEDULE byte read.
struct Reply {
  serve::WireResponse response;
  double latency_s = 0.0;
};

/// Sends one request and reads its reply. A transport failure comes back
/// as a not-ok response, never as an exception: client threads call this.
Reply round_trip(serve::Stream& stream, const std::string& wire) {
  Reply reply;
  const double start = now_seconds();
  if (!stream.write_all(wire) || !serve::read_response(stream, reply.response)) {
    reply.response.ok = false;
    reply.response.error = "transport failure";
  }
  reply.latency_s = now_seconds() - start;
  return reply;
}

/// Decodes a binary reply and runs the full schedule check against the
/// request that produced it. "" when correct.
std::string check_reply(const Request& request, const serve::WireResponse& response) {
  if (!response.ok) return "ERR: " + response.error;
  try {
    const serve::ScheduleBlob blob = serve::decode_blob(response.payload);
    const topo::TopologyGroups groups = topo::extract_groups(request.topology);
    const syccl::coll::Collective coll = serve::make_serve_collective(
        request.kind, static_cast<int>(request.topology.num_gpus()), request.bytes,
        request.root);
    return check_schedule(blob.schedule, coll, groups, broker_config().synthesis.sim);
  } catch (const std::exception& e) {
    return std::string("decode: ") + e.what();
  }
}

/// Sets the tracing flag and scopes spans and counters to what follows.
void start_phase(bool trace) {
  syccl::obs::MetricsRegistry::instance().reset();
  syccl::obs::trace_clear();
  syccl::obs::set_tracing(trace);
}

void note(RunResult& result, const std::string& text) { result.notes.push_back(text); }

// ---------------------------------------------------------------- serve_warm

/// One stored library entry the warm clients request.
struct CatalogueEntry {
  std::size_t fabric = 0;
  CollKind kind = CollKind::AllGather;
  std::uint64_t bucket = kMiB;
};

struct WarmSample {
  double latency_s = 0.0;
  double busbw = 0.0;
};

struct Checked {
  Request request;
  serve::WireResponse response;
};

/// The warm-library catalogue: 16-128-rank fabrics (indices into the
/// serve_warm fabric list), rooted and rootless kinds, two size buckets.
/// Rooted kinds are rooted at rank 0.
std::vector<CatalogueEntry> warm_catalogue() {
  return {
      {0, CollKind::AllGather, kMiB},          {0, CollKind::AllReduce, 16 * kMiB},
      {0, CollKind::AllToAll, kMiB},           {0, CollKind::Broadcast, 16 * kMiB},
      {0, CollKind::Gather, kMiB},             {1, CollKind::AllGather, 16 * kMiB},
      {1, CollKind::ReduceScatter, kMiB},      {1, CollKind::AllToAll, kMiB},
      {1, CollKind::Broadcast, kMiB},          {1, CollKind::Scatter, 16 * kMiB},
      {2, CollKind::AllGather, kMiB},          {2, CollKind::AllReduce, kMiB},
      {2, CollKind::Reduce, 16 * kMiB},        {2, CollKind::Scatter, kMiB},
      {3, CollKind::AllGather, kMiB},          {3, CollKind::Gather, kMiB},
      {3, CollKind::Broadcast, 16 * kMiB},
  };
}

/// A fresh request for `entry`: a fresh rank permutation of the fabric
/// where the kind relabels (see relabels()), else the stored labelling. The
/// size is drawn inside the stored bucket, so the rescale path runs.
Request warm_request(const CatalogueEntry& entry, const topo::Topology& fabric,
                     std::mt19937_64& rng) {
  Request request;
  request.kind = entry.kind;
  if (relabels(entry.kind)) {
    request.topology = topo::permute_gpu_ranks(
        fabric, shuffled_ranks(static_cast<int>(fabric.num_gpus()), rng));
  } else {
    request.topology = fabric;
  }
  std::uniform_int_distribution<std::uint64_t> size(entry.bucket / 2 + 1, entry.bucket);
  request.bytes = size(rng);
  return request;
}

}  // namespace

RunResult run_serve_warm(const Options& options) {
  RunResult result;
  std::mt19937_64 rng(options.seed);
  const std::vector<std::string> fabric_names = {"dgx16", "a100x32", "h800x8", "h800x16"};
  const serve::BrokerConfig config = broker_config();

  // ---- Set-up, three times: build the fabrics, start a service on a fresh
  // library, fill it with the catalogue (cold solve cache each time, every
  // entry synthesized in the fabric's own labelling and rooted at rank 0,
  // so the set-up work is the same whatever the seed), then let each client
  // request every entry once as warm-up. The last repetition is measured.
  std::vector<topo::Topology> fabrics;
  const std::vector<CatalogueEntry> catalogue = warm_catalogue();
  std::vector<std::string> keys(catalogue.size());  // scenario key of each stored entry
  std::unique_ptr<Service> service;
  std::vector<std::unique_ptr<serve::Stream>> streams;
  std::vector<double> setup_times;
  for (int rep = 0; rep < 3; ++rep) {
    streams.clear();
    service.reset();
    const double start = now_seconds();
    syccl::solver::SubScheduleCache::instance().clear();
    fabrics.clear();
    for (const std::string& name : fabric_names) {
      fabrics.push_back(syccl::obs::build_scenario_topology(name));
    }
    service = std::make_unique<Service>("warm" + std::to_string(rep), config);
    streams.push_back(service->connect());
    streams.push_back(service->connect());
    for (std::size_t e = 0; e < catalogue.size(); ++e) {
      const CatalogueEntry& entry = catalogue[e];
      Request request;
      request.topology = fabrics[entry.fabric];
      request.kind = entry.kind;
      request.bytes = entry.bucket;
      const Reply reply = round_trip(*streams[0], request.wire());
      if (!reply.response.ok) {
        throw std::runtime_error("catalogue request failed: " + reply.response.error);
      }
      keys[e] = reply.response.scenario_key;
    }
    for (auto& stream : streams) {
      for (const CatalogueEntry& entry : catalogue) {
        const Reply reply =
            round_trip(*stream, warm_request(entry, fabrics[entry.fabric], rng).wire());
        if (!reply.response.ok || !reply.response.hit) {
          throw std::runtime_error("warm-up request did not hit the catalogue");
        }
      }
    }
    setup_times.push_back(now_seconds() - start);
  }

  // ---- Timed closed loop: both clients request hits until the clock runs
  // out. In a traced run the first half runs untraced (the overhead
  // baseline) and the second half traced.
  const auto run_loop = [&](double seconds, std::vector<WarmSample>& samples,
                            std::vector<Checked>& checked, std::int64_t& failed) {
    const double deadline = now_seconds() + seconds;
    std::vector<std::vector<WarmSample>> per_client(streams.size());
    std::vector<std::vector<Checked>> per_client_checked(streams.size());
    std::vector<std::int64_t> per_client_failed(streams.size(), 0);
    std::vector<std::uint64_t> seeds;
    for (std::size_t c = 0; c < streams.size(); ++c) seeds.push_back(rng());
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < streams.size(); ++c) {
      clients.emplace_back([&, c] {
        std::mt19937_64 client_rng(seeds[c]);
        std::vector<std::size_t> order(catalogue.size());
        std::iota(order.begin(), order.end(), 0);
        for (std::size_t i = 0; now_seconds() < deadline; ++i) {
          if (i % order.size() == 0) std::shuffle(order.begin(), order.end(), client_rng);
          const std::size_t e = order[i % order.size()];
          const CatalogueEntry& entry = catalogue[e];
          Request request = warm_request(entry, fabrics[entry.fabric], client_rng);
          const Reply reply = round_trip(*streams[c], request.wire());
          const serve::WireResponse& r = reply.response;
          if (!r.ok || !r.hit || r.degraded || r.joined || r.scenario_key != keys[e] ||
              !(r.predicted_time > 0.0)) {
            ++per_client_failed[c];
            continue;
          }
          per_client[c].push_back(WarmSample{
              reply.latency_s,
              busbw_gbps(request.kind, static_cast<int>(request.topology.num_gpus()),
                         request.bytes, r.predicted_time)});
          // Full decode + validate + oracle check on each client's first two
          // replies per entry (a fixed set, so memory does not depend on the
          // host's speed); the broker itself validated and re-simulated
          // every reply it served.
          if (i < 2 * order.size()) {
            per_client_checked[c].push_back(Checked{std::move(request), r});
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (std::size_t c = 0; c < streams.size(); ++c) {
      samples.insert(samples.end(), per_client[c].begin(), per_client[c].end());
      for (Checked& item : per_client_checked[c]) checked.push_back(std::move(item));
      failed += per_client_failed[c];
    }
  };

  std::vector<WarmSample> samples;
  std::vector<Checked> checked;
  std::int64_t failed = 0;
  double untraced_p50 = 0.0;
  double window_s = 0.0;
  start_peak_rss_window();
  if (options.trace) {
    std::vector<WarmSample> baseline;
    start_phase(false);
    run_loop(options.seconds / 2, baseline, checked, failed);
    std::vector<double> lat;
    for (const WarmSample& s : baseline) lat.push_back(s.latency_s);
    untraced_p50 = median(lat);
    result.attempted += static_cast<std::int64_t>(baseline.size());
    start_phase(true);
    const double start = now_seconds();
    run_loop(options.seconds / 2, samples, checked, failed);
    window_s = now_seconds() - start;
    syccl::obs::set_tracing(false);
  } else {
    start_phase(false);
    const double start = now_seconds();
    run_loop(options.seconds, samples, checked, failed);
    window_s = now_seconds() - start;
  }
  const double rss_mb = peak_rss_mb();
  const std::int64_t verify_failures = counter("serve.verify_failures");
  const auto snapshot = options.trace ? syccl::obs::trace_snapshot()
                                      : std::vector<syccl::obs::ThreadTrace>{};

  // ---- Checks, outside the timed region.
  result.attempted += static_cast<std::int64_t>(samples.size()) + failed;
  result.failed = failed + verify_failures;
  for (const Checked& item : checked) {
    const std::string problem = check_reply(item.request, item.response);
    if (!problem.empty()) {
      ++result.failed;
      std::fprintf(stderr, "serve_warm: %s %s: %s\n",
                   syccl::coll::kind_name(item.request.kind), item.response.scenario_key.c_str(),
                   problem.c_str());
    }
  }
  if (failed > 0) std::fprintf(stderr, "serve_warm: %lld requests did not hit\n",
                               static_cast<long long>(failed));

  std::vector<double> latencies, busbw;
  for (const WarmSample& s : samples) {
    latencies.push_back(s.latency_s);
    busbw.push_back(s.busbw);
  }
  const double p50_ms = median(latencies) * 1e3;
  const double p99_ms = quantile(latencies, 0.99) * 1e3;
  const double rps = static_cast<double>(samples.size()) / window_s;
  const double setup_s = median(setup_times);

  if (!options.trace) {
    result.metrics["latency_p50_ms"] = {p50_ms, "ms"};
    result.metrics["latency_tail_ms"] = {p99_ms, "ms"};
    result.metrics["throughput_per_s"] = {rps, "1/s"};
    result.metrics["schedule_busbw_gbps"] = {geomean(busbw), "GB/s"};
    result.metrics["peak_rss_mb"] = {rss_mb, "MB"};
    result.metrics["setup_s"] = {setup_s, "s"};
  } else {
    const SpanSummary spans = reduce_spans(snapshot);
    const double ops = static_cast<double>(samples.size());
    add_layer_metrics(result.metrics, spans, ops, window_s);
    double latency_sum = 0.0;
    for (double l : latencies) latency_sum += l;
    result.metrics["serve.wire_s"].value =
        ops > 0 ? (latency_sum - spans["serve.request"].total_s) / ops : 0.0;
    result.metrics["trace.overhead"].value =
        untraced_p50 > 0 ? p50_ms / 1e3 / untraced_p50 - 1.0 : 0.0;

    // The hit path's stages have no spans: time them here through the same
    // public calls Broker::handle and the protocol make, four fresh
    // requests per catalogue entry.
    serve::DiskLibrary& library = service->library();
    const std::string options_fp = serve::options_fingerprint(config.synthesis);
    double canon_s = 0, fetch_s = 0, relabel_s = 0, validate_s = 0, resim_s = 0, encode_s = 0;
    int replays = 0;
    for (int round = 0; round < 4; ++round) {
      for (const CatalogueEntry& entry : catalogue) {
        const Request request = warm_request(entry, fabrics[entry.fabric], rng);
        const int n = static_cast<int>(request.topology.num_gpus());
        double t = now_seconds();
        const topo::TopologyGroups groups = topo::extract_groups(request.topology);
        const serve::CanonicalTopology canon = serve::canonicalize(groups);
        const int canonical_root =
            is_rooted(request.kind) ? canon.perm[static_cast<std::size_t>(request.root)] : -1;
        canon_s += now_seconds() - t;
        t = now_seconds();
        const std::string key =
            serve::scenario_key(canon, request.kind, canonical_root,
                                serve::size_bucket(request.bytes), options_fp);
        const std::optional<serve::ScheduleBlob> blob = library.get(key);
        fetch_s += now_seconds() - t;
        if (!blob) {
          ++result.failed;
          continue;
        }
        t = now_seconds();
        const syccl::coll::Collective coll =
            serve::make_serve_collective(request.kind, n, request.bytes, request.root);
        const syccl::coll::Collective canon_coll =
            serve::make_serve_collective(request.kind, n, request.bytes, canonical_root);
        serve::ScheduleBlob served = *blob;
        serve::apply_rank_map(served.schedule, serve::invert_permutation(canon.perm),
                              canon_coll, coll);
        const double scale =
            static_cast<double>(request.bytes) / static_cast<double>(blob->bucket_bytes);
        for (auto& piece : served.schedule.pieces) piece.bytes *= scale;
        relabel_s += now_seconds() - t;
        t = now_seconds();
        const bool valid = syccl::runtime::validate_schedule(served.schedule, coll, groups).ok;
        validate_s += now_seconds() - t;
        t = now_seconds();
        const syccl::sim::Simulator simulator(groups, config.synthesis.sim);
        served.predicted_time = simulator.time_collective(served.schedule, coll);
        resim_s += now_seconds() - t;
        t = now_seconds();
        const std::string encoded = serve::encode_blob(served);
        encode_s += now_seconds() - t;
        if (!valid || encoded.empty()) ++result.failed;
        ++replays;
      }
    }
    result.attempted += replays;
    const auto mean = [&](double total) { return replays > 0 ? total / replays : 0.0; };
    result.metrics["serve.canon_s"].value = mean(canon_s);
    result.metrics["serve.fetch_s"].value = mean(fetch_s);
    result.metrics["serve.relabel_s"].value = mean(relabel_s);
    result.metrics["serve.validate_s"].value = mean(validate_s);
    result.metrics["serve.resim_s"].value = mean(resim_s);
    result.metrics["serve.encode_s"].value = mean(encode_s);
    const serve::DiskLibrary::Stats stats = library.stats();
    result.metrics["library.bytes"].value = static_cast<double>(stats.bytes);
    result.metrics["library.journal_failures"].value =
        static_cast<double>(stats.journal_failures);
    result.metrics["error_rate"].value =
        result.attempted > 0 ? static_cast<double>(result.failed) / result.attempted : 0.0;
  }

  note(result, fmt("serve_warm hit_p50_ms %.4f ms", p50_ms));
  note(result, fmt("serve_warm hit_p99_ms %.4f ms", p99_ms));
  note(result, fmt("serve_warm hit_rps %.2f req/s", rps));
  note(result, fmt("serve_warm hits %.0f", static_cast<double>(samples.size())));
  note(result, fmt("serve_warm schedule_busbw_gbps %.4f GB/s", geomean(busbw)));
  note(result, fmt("serve_warm peak_rss_mb %.1f MB", rss_mb));
  note(result, fmt("serve_warm setup_s %.4f s", setup_s));
  note(result, fmt("serve_warm checked %.0f", static_cast<double>(checked.size())));
  streams.clear();
  service.reset();
  return result;
}

// ---------------------------------------------------------------- serve_cold

namespace {

/// One previously unseen scenario of a serve_cold pass.
struct Scenario {
  std::size_t fabric = 0;
  CollKind kind = CollKind::AllGather;
  std::uint64_t bucket = kMiB;
  bool deadline = false;
};

/// Small paper fabrics and their fault variants. The @failnic variants
/// serve rooted kinds only: synthesis finds no replicable sketch for the
/// rootless kinds once a NIC is gone.
const std::vector<std::string>& cold_fabrics() {
  static const std::vector<std::string> kNames = {
      "dgx16",          "a100x16",         "a100x32",         "h800x4",
      "dgx16@degraded", "a100x32@degraded", "a100x16@failnic", "h800x4@failnic"};
  return kNames;
}

/// The fixed scenario set of one pass: every full fabric × every kind, the
/// @failnic fabrics × the rooted kinds, each at one of three size buckets
/// chosen by a Latin rule so kinds and buckets stay balanced. A quarter of
/// the steps carry a deadline far shorter than any synthesis.
std::vector<Scenario> cold_scenarios() {
  const std::uint64_t buckets[] = {64 * kKiB, kMiB, 16 * kMiB};
  std::vector<Scenario> out;
  for (std::size_t f = 0; f < cold_fabrics().size(); ++f) {
    const bool failnic = cold_fabrics()[f].find("@failnic") != std::string::npos;
    for (std::size_t k = 0; k < std::size(kKinds); ++k) {
      if (failnic && !is_rooted(kKinds[k])) continue;
      Scenario s;
      s.fabric = f;
      s.kind = kKinds[k];
      s.bucket = buckets[(f + k + 1) % 3];
      s.deadline = (f + k) % 4 == 3;
      out.push_back(s);
    }
  }
  return out;
}

constexpr int kDeadlineMs = 1;

struct StepRecord {
  bool deadline = false;
  bool ok = false;
  double latency_s = 0.0;  ///< summed over the step's two answers
  double window_begin_us = 0.0;
  double window_end_us = 0.0;
  std::string key;
};

struct ColdSamples {
  std::vector<double> miss_s;      ///< misses and joins
  std::vector<double> degraded_s;  ///< deadline-degraded answers
  std::vector<double> busbw;       ///< one per full-budget schedule
  std::vector<StepRecord> steps;
  std::vector<Checked> checked;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  std::int64_t late_hits = 0;  ///< second requester arrived after the store
};

}  // namespace

RunResult run_serve_cold(const Options& options) {
  RunResult result;
  std::mt19937_64 rng(options.seed);
  const serve::BrokerConfig config = broker_config();
  const std::vector<Scenario> scenarios = cold_scenarios();

  // ---- Set-up, 21 times (it takes about a millisecond): build every
  // fabric and start an empty service with both clients connected. The last
  // repetition is the one measured.
  std::vector<topo::Topology> fabrics;
  std::vector<double> setup_times;
  std::unique_ptr<Service> service;
  std::vector<std::unique_ptr<serve::Stream>> streams;
  int services = 0;
  const auto fresh_service = [&] {
    streams.clear();
    service.reset();
    syccl::solver::SubScheduleCache::instance().clear();
    service = std::make_unique<Service>("cold" + std::to_string(services++), config);
    streams.push_back(service->connect());
    streams.push_back(service->connect());
  };
  for (int rep = 0; rep < 21; ++rep) {
    const double start = now_seconds();
    fabrics.clear();
    for (const std::string& name : cold_fabrics()) {
      fabrics.push_back(syccl::obs::build_scenario_topology(name));
    }
    fresh_service();
    setup_times.push_back(now_seconds() - start);
  }

  // One pass requests every scenario once on an empty library and solve
  // cache, always in the same order, so every pass reuses the solve cache
  // the same way. Both clients send each step at once: one misses, the
  // other joins. A deadline step is answered degraded; the benchmark then
  // waits, untimed, for the background upgrade and checks it with one more
  // (hit) request.
  const auto run_pass = [&](ColdSamples& out) {
    for (const Scenario& s : scenarios) {
      const topo::Topology& fabric = fabrics[s.fabric];
      const int n = static_cast<int>(fabric.num_gpus());
      // Both clients send the fabric in its own labelling, rooted at rank
      // 0: synthesis cost depends on the labelling (even a launcher-style
      // server shuffle moves these small syntheses by ±15%), so the seed
      // only draws the size inside the bucket — the broker synthesizes at
      // the bucket size and rescales, and every kind can join (see
      // relabels()).
      std::uniform_int_distribution<std::uint64_t> size(s.bucket / 2 + 1, s.bucket);
      const std::uint64_t bytes = size(rng);
      Request requests[2];
      for (Request& request : requests) {
        request.topology = fabric;
        request.kind = s.kind;
        request.root = 0;
        request.bytes = bytes;
        request.deadline_ms = s.deadline ? kDeadlineMs : 0;
      }
      const std::string wires[2] = {requests[0].wire(), requests[1].wire()};
      Reply replies[2];
      StepRecord step;
      step.deadline = s.deadline;
      step.window_begin_us = syccl::obs::trace_now_us();
      std::thread second([&] { replies[1] = round_trip(*streams[1], wires[1]); });
      replies[0] = round_trip(*streams[0], wires[0]);
      second.join();
      step.window_end_us = syccl::obs::trace_now_us();
      out.requests += 2;

      int initiators = 0;
      bool ok = true;
      for (int c = 0; c < 2; ++c) {
        const serve::WireResponse& r = replies[c].response;
        if (!r.ok) {
          ok = false;
          continue;
        }
        // The initiator is degraded exactly when the step has a deadline.
        // The other request joins, or hits the stored entry when it
        // arrived after the store (the full one, if the synthesis beat it).
        const bool initiator = !r.hit && !r.joined;
        initiators += initiator ? 1 : 0;
        if (r.degraded ? !s.deadline : initiator && s.deadline) ok = false;
        step.latency_s += replies[c].latency_s;
        out.checked.push_back(Checked{requests[c], r});
        if (r.hit && !r.degraded) {
          ++out.late_hits;
        } else {
          (r.degraded ? out.degraded_s : out.miss_s).push_back(replies[c].latency_s);
        }
      }
      if (initiators != 1 || replies[0].response.scenario_key != replies[1].response.scenario_key) {
        ok = false;
      }
      step.key = replies[0].response.scenario_key;
      if (ok && !s.deadline) {
        out.busbw.push_back(
            busbw_gbps(s.kind, n, bytes, replies[0].response.predicted_time));
      }
      if (ok && s.deadline) {
        // Untimed: wait for the full synthesis to replace the fallback,
        // then fetch it like a client would and check it too.
        const double give_up = now_seconds() + 60.0;
        for (;;) {
          const std::optional<serve::ScheduleBlob> blob = service->library().get(step.key);
          if (blob && !blob->degraded) break;
          if (now_seconds() > give_up) {
            ok = false;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (ok) {
          Request again = requests[0];
          again.deadline_ms = 0;
          const Reply upgraded = round_trip(*streams[0], again.wire());
          ++out.requests;
          const serve::WireResponse& r = upgraded.response;
          if (!r.ok || !r.hit || r.degraded) {
            ok = false;
          } else {
            out.busbw.push_back(busbw_gbps(s.kind, n, bytes, r.predicted_time));
            out.checked.push_back(Checked{again, r});
          }
        }
      }
      if (!ok) {
        ++out.failed;
        for (const Reply& reply : replies) {
          const serve::WireResponse& r = reply.response;
          std::fprintf(stderr,
                       "serve_cold: %s %s %llu deadline=%d failed: hit=%d joined=%d "
                       "degraded=%d %.2f ms %s\n",
                       cold_fabrics()[s.fabric].c_str(), syccl::coll::kind_name(s.kind),
                       static_cast<unsigned long long>(s.bucket), s.deadline, r.hit, r.joined,
                       r.degraded, reply.latency_s * 1e3, r.error.c_str());
        }
      }
      step.ok = ok;
      out.steps.push_back(step);
    }
  };

  // Passes run until their time adds up to the budget; each after the
  // first starts on a fresh service, so every pass sees the same unseen
  // scenarios and every run the same mix. A pass's replies are checked
  // after it, off the clock, so at most one pass's replies are held.
  const auto run_passes = [&](double seconds, ColdSamples& out) {
    double timed = 0.0;
    for (bool first = true; first || timed < seconds; first = false) {
      if (!first) fresh_service();
      const double start = now_seconds();
      run_pass(out);
      timed += now_seconds() - start;
      for (const Checked& item : out.checked) {
        const std::string problem = check_reply(item.request, item.response);
        if (!problem.empty()) {
          ++out.failed;
          std::fprintf(stderr, "serve_cold: %s %s: %s\n",
                       syccl::coll::kind_name(item.request.kind),
                       item.response.scenario_key.c_str(), problem.c_str());
        }
      }
      out.checked.clear();
      // Hand the pass's freed memory back before the next pass, so the
      // peak reflects one pass rather than how earlier passes fragmented
      // the heap.
      ::malloc_trim(0);
    }
    return timed;
  };

  ColdSamples samples;
  double untraced_p50 = 0.0;
  double window_s = 0.0;
  std::int64_t untraced_requests = 0;
  start_peak_rss_window();
  if (options.trace) {
    ColdSamples baseline;
    start_phase(false);
    run_passes(options.seconds / 2, baseline);
    untraced_p50 = median(baseline.miss_s);
    untraced_requests = baseline.requests;
    result.failed += baseline.failed;
    fresh_service();
    start_phase(true);
    window_s = run_passes(options.seconds / 2, samples);
    syccl::obs::set_tracing(false);
  } else {
    start_phase(false);
    window_s = run_passes(options.seconds, samples);
  }
  const double rss_mb = peak_rss_mb();
  const auto snapshot = options.trace ? syccl::obs::trace_snapshot()
                                      : std::vector<syccl::obs::ThreadTrace>{};

  result.attempted = untraced_requests + samples.requests;
  result.failed += samples.failed;

  const double miss_p50_ms = median(samples.miss_s) * 1e3;
  const double miss_p90_ms = quantile(samples.miss_s, 0.90) * 1e3;
  const double degraded_p50_ms = median(samples.degraded_s) * 1e3;
  const double rate = static_cast<double>(samples.miss_s.size() + samples.degraded_s.size()) /
                      window_s;
  const double setup_s = median(setup_times);

  if (!options.trace) {
    result.metrics["latency_p50_ms"] = {miss_p50_ms, "ms"};
    result.metrics["latency_tail_ms"] = {miss_p90_ms, "ms"};
    result.metrics["throughput_per_s"] = {rate, "1/s"};
    result.metrics["schedule_busbw_gbps"] = {geomean(samples.busbw), "GB/s"};
    result.metrics["peak_rss_mb"] = {rss_mb, "MB"};
    result.metrics["setup_s"] = {setup_s, "s"};
  } else {
    const SpanSummary spans = reduce_spans(snapshot);
    const double ops = static_cast<double>(samples.requests);
    add_layer_metrics(result.metrics, spans, ops, window_s);
    result.metrics["trace.overhead"].value =
        untraced_p50 > 0 ? miss_p50_ms / 1e3 / untraced_p50 - 1.0 : 0.0;

    // Attribute spans to steps by their trace-clock windows: each step's
    // requests, its pool synthesis (a top-level serve.synthesize on a
    // worker thread) and nothing else start inside it.
    struct Interval {
      double begin = 0, end = 0;
    };
    std::vector<Interval> requests_spans, pool_synths;
    for (const auto& thread : snapshot) {
      const bool worker = thread.name.rfind("syccl-worker", 0) == 0;
      for (const auto& span : thread.spans) {
        const std::string name = span.name;
        if (name == "serve.request") requests_spans.push_back({span.begin_us, span.end_us});
        if (worker && span.depth == 0 && name == "serve.synthesize") {
          pool_synths.push_back({span.begin_us, span.end_us});
        }
      }
    }
    double queue_total = 0, join_total = 0, wire_total = 0;
    int queue_n = 0, join_n = 0, wire_n = 0;
    for (const StepRecord& step : samples.steps) {
      if (!step.ok) continue;
      wire_total += step.latency_s;
      wire_n += 2;
      const auto inside = [&](const Interval& i) {
        return i.begin >= step.window_begin_us && i.begin <= step.window_end_us;
      };
      double first_request = 0, last_request = 0;
      int n = 0;
      for (const Interval& r : requests_spans) {
        if (!inside(r)) continue;
        first_request = n == 0 ? r.begin : std::min(first_request, r.begin);
        last_request = n == 0 ? r.begin : std::max(last_request, r.begin);
        wire_total -= (r.end - r.begin) * 1e-6;
        ++n;
      }
      for (const Interval& synth : pool_synths) {
        if (!inside(synth) || n == 0) continue;
        queue_total += (synth.begin - first_request) * 1e-6;
        ++queue_n;
        if (!step.deadline) {
          join_total += std::max(0.0, (synth.end - last_request) * 1e-6);
          ++join_n;
        }
      }
    }
    result.metrics["serve.wire_s"].value = wire_n > 0 ? wire_total / wire_n : 0.0;
    result.metrics["serve.queue_wait_s"].value = queue_n > 0 ? queue_total / queue_n : 0.0;
    result.metrics["serve.join_wait_s"].value = join_n > 0 ? join_total / join_n : 0.0;

    // DiskLibrary::put has no span: time it here by storing this pass's
    // entries again, into a fresh library, with fsync and journal.
    serve::DiskLibrary& library = service->library();
    std::vector<serve::ScheduleBlob> blobs;
    for (const StepRecord& step : samples.steps) {
      if (auto blob = library.get(step.key)) blobs.push_back(std::move(*blob));
    }
    double put_total = 0;
    {
      serve::DiskLibraryConfig replay_config;
      replay_config.dir = "put-replay.lib";
      serve::DiskLibrary replay(replay_config);
      for (const serve::ScheduleBlob& blob : blobs) {
        const double t = now_seconds();
        replay.put(blob);
        put_total += now_seconds() - t;
      }
    }
    result.metrics["library.put_s"].value = blobs.empty() ? 0.0 : put_total / blobs.size();
    const serve::DiskLibrary::Stats stats = library.stats();
    result.metrics["library.bytes"].value = static_cast<double>(stats.bytes);
    result.metrics["library.journal_failures"].value =
        static_cast<double>(stats.journal_failures);
    result.metrics["error_rate"].value =
        result.attempted > 0 ? static_cast<double>(result.failed) / result.attempted : 0.0;
  }

  note(result, fmt("serve_cold miss_p50_ms %.4f ms", miss_p50_ms));
  note(result, fmt("serve_cold miss_p90_ms %.4f ms", miss_p90_ms));
  note(result, fmt("serve_cold degraded_p50_ms %.4f ms", degraded_p50_ms));
  note(result, fmt("serve_cold miss_samples %.0f", static_cast<double>(samples.miss_s.size())));
  note(result, fmt("serve_cold degraded_samples %.0f",
                   static_cast<double>(samples.degraded_s.size())));
  note(result, fmt("serve_cold late_hits %.0f", static_cast<double>(samples.late_hits)));
  note(result, fmt("serve_cold answers_per_s %.3f 1/s", rate));
  note(result, fmt("serve_cold schedule_busbw_gbps %.4f GB/s", geomean(samples.busbw)));
  note(result, fmt("serve_cold peak_rss_mb %.1f MB", rss_mb));
  note(result, fmt("serve_cold setup_s %.5f s", setup_s));
  streams.clear();
  service.reset();
  return result;
}

}  // namespace sycclbench

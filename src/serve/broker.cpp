#include "serve/broker.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/validate.h"
#include "sim/simulator.h"
#include "topo/groups.h"
#include "util/failpoint.h"

namespace syccl::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool is_rooted(coll::CollKind kind) {
  switch (kind) {
    case coll::CollKind::Broadcast:
    case coll::CollKind::Scatter:
    case coll::CollKind::Gather:
    case coll::CollKind::Reduce:
      return true;
    default:
      return false;
  }
}

struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& joins;
  obs::Counter& rejects;
  obs::Counter& verify_failures;
  obs::Counter& degraded_hits;
  obs::Counter& upgrades;
  obs::Counter& put_failures;
  obs::Histogram& canon_seconds;
  obs::Histogram& synth_seconds;
  obs::Histogram& request_seconds;

  static ServeMetrics& instance() {
    auto& reg = obs::MetricsRegistry::instance();
    static ServeMetrics m{reg.counter("serve.requests"),
                          reg.counter("serve.hits"),
                          reg.counter("serve.misses"),
                          reg.counter("serve.joins"),
                          reg.counter("serve.rejects"),
                          reg.counter("serve.verify_failures"),
                          reg.counter("serve.degraded_hits"),
                          reg.counter("serve.upgrades"),
                          reg.counter("serve.put_failures"),
                          reg.histogram("serve.canon_seconds"),
                          reg.histogram("serve.synth_seconds"),
                          reg.histogram("serve.request_seconds")};
    return m;
  }
};

}  // namespace

core::SynthesisConfig fallback_synthesis_config(core::SynthesisConfig config) {
  config.two_step = false;
  config.sketch.search.max_sketches = 2;
  config.sketch.max_prototypes = 1;
  config.sketch.combine.max_outputs = 2;
  config.R2 = 1;
  // Runs on the connection thread at a moment the pool is saturated; one
  // worker keeps the fallback from competing with the full synthesis.
  config.num_threads = 1;
  return config;
}

coll::Collective make_serve_collective(coll::CollKind kind, int num_ranks,
                                       std::uint64_t total_bytes, int root) {
  switch (kind) {
    case coll::CollKind::Broadcast:
      return coll::make_broadcast(num_ranks, total_bytes, root);
    case coll::CollKind::Scatter:
      return coll::make_scatter(num_ranks, total_bytes, root);
    case coll::CollKind::Gather:
      return coll::make_gather(num_ranks, total_bytes, root);
    case coll::CollKind::Reduce:
      return coll::make_reduce(num_ranks, total_bytes, root);
    case coll::CollKind::AllGather:
      return coll::make_allgather(num_ranks, total_bytes);
    case coll::CollKind::AllToAll:
      return coll::make_alltoall(num_ranks, total_bytes);
    case coll::CollKind::ReduceScatter:
      return coll::make_reduce_scatter(num_ranks, total_bytes);
    case coll::CollKind::AllReduce:
      return coll::make_allreduce(num_ranks, total_bytes);
    case coll::CollKind::SendRecv:
      break;
  }
  throw std::invalid_argument("serve does not handle SendRecv");
}

Broker::Broker(DiskLibrary& library, BrokerConfig config)
    : library_(library),
      config_(std::move(config)),
      pool_(static_cast<std::size_t>(config_.num_threads < 0 ? 0 : config_.num_threads)) {}

ServeResponse Broker::handle(const ServeRequest& request) {
  auto& metrics = ServeMetrics::instance();
  SYCCL_TRACE_SPAN(span, "serve.request", "serve");
  const auto request_start = std::chrono::steady_clock::now();
  metrics.requests.add();

  topo::TopologyGroups groups;
  CanonicalTopology canon;
  {
    SYCCL_TRACE_SPAN(canon_span, "serve.canonicalize", "serve");
    groups = topo::extract_groups(request.topology);
    const auto canon_start = std::chrono::steady_clock::now();
    canon = canonicalize(groups);
    metrics.canon_seconds.observe(seconds_since(canon_start));
  }

  const std::uint64_t bucket = size_bucket(request.total_bytes);
  if (is_rooted(request.kind) && (request.root < 0 || request.root >= canon.num_ranks)) {
    throw BrokerError("root rank out of range");
  }
  const int canonical_root =
      is_rooted(request.kind) ? canon.perm[static_cast<std::size_t>(request.root)] : -1;
  const std::string key = scenario_key(canon, request.kind, canonical_root, bucket,
                                       options_fingerprint(config_.synthesis));
  const coll::Collective coll =
      make_serve_collective(request.kind, canon.num_ranks, request.total_bytes, request.root);

  // Relabels a canonical-space blob into the caller's rank space at the
  // caller's size, verifies it, and prices it on the caller's topology.
  // Throws when the blob does not satisfy the caller's demands. Takes the
  // blob by value: a hit moves its own blob in, so only a blob shared with
  // other requesters pays for a copy of the schedule.
  const auto serve_blob = [&](ScheduleBlob blob) {
    ServeResponse response;
    response.scenario_key = key;
    response.degraded = blob.degraded;
    {
      SYCCL_TRACE_SPAN(relabel_span, "serve.relabel", "serve");
      response.schedule = std::move(blob.schedule);
      // An unrooted collective is the same in both labellings.
      const std::optional<coll::Collective> rooted_canon =
          is_rooted(request.kind) ? std::optional(make_serve_collective(
                                        request.kind, canon.num_ranks, request.total_bytes,
                                        canonical_root))
                                  : std::nullopt;
      apply_rank_map(response.schedule, invert_permutation(canon.perm),
                     rooted_canon ? *rooted_canon : coll, coll);
      // chunk_bytes is linear in total_bytes for every collective, so piece
      // bytes rescale exactly from the synthesis bucket to the caller's size.
      const double scale =
          static_cast<double>(request.total_bytes) / static_cast<double>(blob.bucket_bytes);
      for (auto& piece : response.schedule.pieces) piece.bytes *= scale;
    }
    {
      // Every served schedule, hit or miss, passes the structural validator;
      // the re-simulation below prices it under the caller's labelling.
      SYCCL_TRACE_SPAN(validate_span, "serve.validate", "serve");
      const runtime::ValidationReport report =
          runtime::validate_schedule(response.schedule, coll, groups);
      if (!report.ok) {
        throw BrokerError("served schedule failed validation: " +
                          (report.errors.empty() ? "unknown" : report.errors.front()));
      }
    }
    SYCCL_TRACE_SPAN(resim_span, "serve.resimulate", "serve");
    const sim::Simulator simulator(groups, config_.synthesis.sim);
    response.predicted_time = simulator.time_collective(response.schedule, coll);
    return response;
  };

  // Serves a library entry as a hit. A degraded entry means no full
  // synthesis has landed yet; make sure one is running (or queued) so the
  // entry eventually upgrades. The caller is not kept waiting for it.
  const auto answer_hit = [&](ScheduleBlob&& blob) {
    ServeResponse response = serve_blob(std::move(blob));
    response.hit = true;
    metrics.hits.add();
    if (response.degraded) {
      metrics.degraded_hits.add();
      bool started = false;
      join_or_start(request, canon, key, bucket, started, /*reject_throws=*/false);
    }
    metrics.request_seconds.observe(seconds_since(request_start));
    return response;
  };

  // A fetched entry is this request's own copy: nothing reads `stored` or
  // `landed` after the hit, so answer_hit moves the schedule out of them.
  std::optional<ScheduleBlob> stored = [&] {
    SYCCL_TRACE_SPAN(fetch_span, "serve.fetch", "serve");
    return library_.get(key);
  }();
  if (stored) {
    try {
      return answer_hit(std::move(*stored));
    } catch (const std::exception&) {
      // A stored entry that no longer verifies (e.g. hand-edited library) is
      // treated as a miss: fall through and synthesize fresh.
      metrics.verify_failures.add();
    }
  }

  // Miss: join an in-flight synthesis for this key, or start one. The entry
  // may land between the lookup above and this point (its synthesis stored
  // it and retired its in-flight record); join_or_start re-checks the
  // library under its lock, and such an entry is answered as a hit.
  util::failpoint("serve.broker.join");
  bool initiator = false;
  std::optional<ScheduleBlob> landed;
  std::shared_future<SynthOutcome> future = join_or_start(
      request, canon, key, bucket, initiator, /*reject_throws=*/true, stored ? nullptr : &landed);
  if (landed) {
    try {
      return answer_hit(std::move(*landed));
    } catch (const std::exception&) {
      metrics.verify_failures.add();
    }
    future = join_or_start(request, canon, key, bucket, initiator, /*reject_throws=*/true);
  }
  if (initiator) {
    metrics.misses.add();
  } else {
    metrics.joins.add();
  }

  const double deadline_s = request.deadline_seconds != 0.0 ? request.deadline_seconds
                                                            : config_.default_deadline_seconds;
  const auto wait_start = std::chrono::steady_clock::now();
  if (deadline_s > 0.0) {
    // The deadline is measured from request arrival: canonicalisation and
    // admission already spent part of it.
    const auto deadline_tp =
        request_start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(deadline_s));
    if (future.wait_until(deadline_tp) == std::future_status::timeout) {
      // Deadline expired with the full synthesis still running. Answer now
      // with a minimal-budget fallback, synthesized here on the connection
      // thread — the pool is busy with exactly the work we stopped waiting
      // for. The full synthesis upgrades the library entry when it lands.
      SYCCL_TRACE_SPAN(fb_span, "serve.fallback", "serve");
      BlobPtr fallback =
          synthesize_blob(request, canon, key, bucket,
                          fallback_synthesis_config(config_.synthesis), /*degraded=*/true);
      ServeResponse response = serve_blob(*fallback);
      response.joined = !initiator;
      response.synth_seconds = seconds_since(wait_start);
      metrics.degraded_hits.add();
      metrics.request_seconds.observe(seconds_since(request_start));
      return response;
    }
  }
  const SynthOutcome& outcome = future.get();
  if (!outcome.blob) throw BrokerError(outcome.error);  // this thread's own exception

  ServeResponse response = serve_blob(*outcome.blob);
  response.joined = !initiator;
  response.synth_seconds = seconds_since(wait_start);
  metrics.request_seconds.observe(seconds_since(request_start));
  return response;
}

std::shared_future<Broker::SynthOutcome> Broker::join_or_start(
    const ServeRequest& request, const CanonicalTopology& canon, const std::string& key,
    std::uint64_t bucket, bool& started, bool reject_throws,
    std::optional<ScheduleBlob>* landed) {
  started = false;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = in_flight_.find(key);
  if (it != in_flight_.end()) return it->second;
  // A synthesis stores its entry before it retires its in-flight record
  // under this lock, so once the record is gone a stored entry is visible.
  if (landed != nullptr) {
    *landed = library_.get(key);
    if (landed->has_value()) return {};
  }

  if (in_flight_.size() >= config_.max_in_flight) {
    if (!reject_throws) return {};  // background upgrade: retry on a later hit
    ServeMetrics::instance().rejects.add();
    throw BrokerError("admission limit reached (" + std::to_string(config_.max_in_flight) +
                      " syntheses in flight)");
  }

  started = true;
  // The future comes from an explicit promise so the in-flight entry can be
  // registered *before* the pool task exists: the task erases the entry
  // itself when done (requesters may abandon the wait at their deadline, so
  // cleanup cannot be theirs), and must not race its own registration.
  auto promise = std::make_shared<std::promise<SynthOutcome>>();
  std::shared_future<SynthOutcome> future = promise->get_future().share();
  in_flight_.emplace(key, future);
  // The task captures copies (request owns the topology), so it outlives
  // any individual requester; it runs on the broker pool while connection
  // threads block on the future from outside the pool. Failures become a
  // message in the outcome, never a shared exception object (see
  // SynthOutcome).
  pool_.submit([this, promise, request, canon, key, bucket] {
    SynthOutcome outcome;
    try {
      outcome.blob =
          synthesize_blob(request, canon, key, bucket, config_.synthesis, /*degraded=*/false);
    } catch (const std::exception& e) {
      outcome.error = e.what();
    } catch (...) {
      outcome.error = "synthesis failed with a non-standard exception";
    }
    // Retire the entry before publishing: a requester woken by the value
    // (say, by a failure) may retry at once, and must start afresh rather
    // than join this finished future.
    {
      std::lock_guard<std::mutex> inner(mutex_);
      in_flight_.erase(key);
    }
    promise->set_value(std::move(outcome));
  });
  return future;
}

Broker::BlobPtr Broker::synthesize_blob(const ServeRequest& request,
                                        const CanonicalTopology& canon, const std::string& key,
                                        std::uint64_t bucket,
                                        const core::SynthesisConfig& synth, bool degraded) {
  auto& metrics = ServeMetrics::instance();
  SYCCL_TRACE_SPAN(span, "serve.synthesize", "serve");
  util::failpoint("serve.broker.synthesize");  // error mode: synthesis "fails"
  const auto start = std::chrono::steady_clock::now();

  core::Synthesizer synthesizer(request.topology, synth);
  const coll::Collective bucket_coll =
      make_serve_collective(request.kind, canon.num_ranks, bucket, request.root);
  core::SynthesisResult result = synthesizer.synthesize(bucket_coll);

  auto blob = std::make_shared<ScheduleBlob>();
  blob->scenario_key = key;
  blob->num_ranks = canon.num_ranks;
  blob->bucket_bytes = bucket;
  blob->predicted_time = result.predicted_time;
  blob->degraded = degraded;
  blob->schedule = std::move(result.schedule);
  // Store in canonical rank space (ranks AND chunk ids) so every isomorphic
  // requester can relabel it into their own.
  const int canonical_root =
      is_rooted(request.kind) ? canon.perm[static_cast<std::size_t>(request.root)] : -1;
  const coll::Collective canon_coll =
      make_serve_collective(request.kind, canon.num_ranks, bucket, canonical_root);
  apply_rank_map(blob->schedule, canon.perm, bucket_coll, canon_coll);
  try {
    const DiskLibrary::PutResult put = library_.put(*blob);
    if (put == DiskLibrary::PutResult::Upgraded) metrics.upgrades.add();
  } catch (const std::exception&) {
    // Entry could not be persisted (disk full, failpoint): the schedule is
    // still correct — serve it and let a later put retry. Availability over
    // durability.
    metrics.put_failures.add();
  }

  metrics.synth_seconds.observe(seconds_since(start));
  obs::MetricsRegistry::instance().gauge("serve.library_bytes")
      .set(static_cast<double>(library_.stats().bytes));
  return blob;
}

}  // namespace syccl::serve

// Request broker for the schedule-compiler service: the layer between a
// transport (serve/socket.h, or a test calling it directly) and the
// synthesis pipeline.
//
// Per request: canonicalize the caller's topology, derive the scenario key,
// and then one of three paths —
//   hit    the disk library holds the entry; relabel the stored canonical
//          schedule into the caller's rank space, rescale piece bytes from
//          the synthesis bucket to the caller's size, verify, serve. A hit
//          on a *degraded* entry (deadline fallback, below) additionally
//          re-queues the full-budget synthesis in the background.
//   join   another request for the same key is already synthesizing;
//          block on its shared future instead of synthesizing again.
//   miss   admit (bounded by max_in_flight), synthesize at the bucket size
//          on the worker pool, store canonically, serve.
//
// Deadlines (DESIGN.md §4i): a request may carry a synthesis deadline. A
// miss whose full synthesis has not landed by the deadline is answered
// anyway — the broker synthesizes a minimal-budget fallback schedule
// (coarse pass only, tiny sketch budgets, one thread: see
// fallback_synthesis_config) on the connection thread, marks it `degraded`,
// and stores it so the next requester hits it instead of paying the
// fallback again. The full
// synthesis keeps running on the pool; when it completes it *upgrades* the
// library entry (the library refuses the reverse transition), so the
// degraded window closes on its own. Every request is answered — full or
// degraded — unless synthesis itself fails.
//
// Thread-safe: transports run one thread per connection; synthesis runs on
// the broker's own pool, so connection threads only ever block on futures —
// never inside the pool (util/thread_pool.h's deadlock caveat). Fallback
// synthesis runs on the connection thread itself for the same reason: at
// deadline expiry the pool is by definition still busy.
//
// Counted only in obs::MetricsRegistry (counters serve.requests/.hits/
// .misses/.joins/.rejects/.verify_failures/.degraded_hits/.upgrades,
// histograms serve.canon_seconds/.synth_seconds/.request_seconds). The
// counters are process totals over every broker; the STATS verb
// (serve/protocol.h) reports them with the histograms' p50 and p99. Traced,
// a request records serve.request with the stages of its answer directly
// below it: serve.canonicalize (group extraction and canonicalisation),
// serve.fetch, serve.relabel, serve.validate and serve.resimulate.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/synthesizer.h"
#include "serve/canonical.h"
#include "serve/library.h"
#include "util/thread_pool.h"

namespace syccl::serve {

class BrokerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Minimal-budget derivative of `config` for deadline fallbacks: no fine
/// pass, two sketches, one prototype, two combinations, a single-candidate
/// filter and one worker thread. Orders of magnitude cheaper than the full
/// budget; the schedules are correct but not competitive, which is exactly
/// what the `degraded` flag communicates.
core::SynthesisConfig fallback_synthesis_config(core::SynthesisConfig config);

struct BrokerConfig {
  /// Synthesis settings; fingerprinted into every scenario key, so brokers
  /// with different tuning never share library entries.
  core::SynthesisConfig synthesis;
  /// Admission bound on concurrently in-flight syntheses; requests beyond
  /// it are rejected with BrokerError instead of queueing without bound.
  std::size_t max_in_flight = 64;
  /// Worker threads for the synthesis pool (0 = hardware concurrency).
  int num_threads = 0;
  /// Synthesis deadline applied to requests that do not set their own
  /// (seconds, measured from request arrival). 0 = no deadline: block until
  /// the full synthesis lands, the pre-deadline behaviour.
  double default_deadline_seconds = 0.0;
};

struct ServeRequest {
  topo::Topology topology;  ///< the caller's labelling
  coll::CollKind kind = coll::CollKind::AllGather;
  /// Root rank for rooted collectives (Broadcast/Scatter/Gather/Reduce);
  /// ignored otherwise.
  int root = 0;
  std::uint64_t total_bytes = 1 << 20;
  /// Per-request synthesis deadline in seconds. 0 = use the broker's
  /// default; negative = explicitly no deadline regardless of the default.
  double deadline_seconds = 0.0;
};

struct ServeResponse {
  /// Schedule in the caller's rank labelling at the caller's size.
  sim::Schedule schedule;
  /// α–β completion time of `schedule` on the caller's topology (seconds).
  double predicted_time = 0.0;
  std::string scenario_key;
  bool hit = false;     ///< served from the disk library
  bool joined = false;  ///< coalesced onto a concurrent miss's synthesis
  /// Deadline-fallback schedule (fresh or from a degraded library entry):
  /// correct, verified, but synthesized at a minimal budget. A full-budget
  /// upgrade is running (or queued) in the background.
  bool degraded = false;
  /// Synthesis wall-clock this request waited for (0 on library hits).
  double synth_seconds = 0.0;
};

/// Builds the collective a serve request describes. Throws
/// std::invalid_argument for SendRecv (point-to-point; not served) or an
/// out-of-range root.
coll::Collective make_serve_collective(coll::CollKind kind, int num_ranks,
                                       std::uint64_t total_bytes, int root);

class Broker {
 public:
  /// The library must outlive the broker.
  explicit Broker(DiskLibrary& library, BrokerConfig config = {});

  /// Handles one request, blocking until a schedule is available: the full
  /// one, or — past the request's deadline — a degraded fallback. Throws
  /// BrokerError when admission rejects, and propagates synthesis errors.
  ServeResponse handle(const ServeRequest& request);

  const BrokerConfig& config() const { return config_; }

 private:
  using BlobPtr = std::shared_ptr<const ScheduleBlob>;

  /// What a pool synthesis hands its waiters. Failures travel as a message,
  /// not a live exception: set_exception/rethrow would share one exception
  /// object between the pool thread (releasing its reference) and every
  /// requester thread reading what() — each waiter instead throws its own
  /// BrokerError from `error`.
  struct SynthOutcome {
    BlobPtr blob;       ///< null on failure
    std::string error;  ///< failure message when blob is null
  };

  /// Returns the in-flight synthesis future for `key`, starting one on the
  /// pool if absent (`started` reports which). The task itself removes the
  /// in-flight entry when it finishes — requesters may stop waiting at
  /// their deadline, so completion cannot be their job. When a start is
  /// needed but admission is full: throws BrokerError if `reject_throws`
  /// (foreground misses), else returns an invalid future (background
  /// upgrades just wait for a quieter moment). With `landed`, the library
  /// is re-checked under the lock before a start: an entry stored since the
  /// caller's lookup is returned through it, with an invalid future, instead
  /// of starting a duplicate synthesis.
  std::shared_future<SynthOutcome> join_or_start(const ServeRequest& request,
                                                 const CanonicalTopology& canon,
                                                 const std::string& key, std::uint64_t bucket,
                                                 bool& started, bool reject_throws,
                                                 std::optional<ScheduleBlob>* landed = nullptr);

  /// Synthesizes at the bucket size under `synth`, stores the blob
  /// canonically (marked `degraded`), and returns it. Library index
  /// failures are swallowed — an unsaved schedule still answers the
  /// request.
  BlobPtr synthesize_blob(const ServeRequest& request, const CanonicalTopology& canon,
                          const std::string& key, std::uint64_t bucket,
                          const core::SynthesisConfig& synth, bool degraded);

  DiskLibrary& library_;
  BrokerConfig config_;

  std::mutex mutex_;
  /// In-flight miss coalescing: scenario key -> the synthesis future every
  /// concurrent requester of that key waits on.
  std::map<std::string, std::shared_future<SynthOutcome>> in_flight_;

  /// Declared last: pool tasks erase their own in_flight_ entries, so the
  /// pool must drain (its destructor joins) before mutex_ and the map go.
  util::ThreadPool pool_;
};

}  // namespace syccl::serve

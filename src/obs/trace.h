// Thread-safe span tracer for synthesis-time observability.
//
// A *span* is a named wall-clock interval recorded by an RAII guard
// (SYCCL_TRACE_SPAN). Spans nest: each thread keeps a depth counter, and a
// span records the depth at which it opened, so exporters can reconstruct
// the call tree (Chrome trace infers nesting from time containment on the
// same track, which these records satisfy by construction). Spans carry
// optional numeric annotations ("epochs" = 12, "cache_hit" = 1) that
// surface as args in the Chrome trace viewer.
//
// Disabled-path contract: tracing is off by default, and a span guard on the
// disabled path costs exactly one relaxed atomic load plus a branch — no
// clock read, no allocation, no lock. Instrumentation may therefore stay
// compiled into release hot paths (the synthesizer's candidate loop, every
// sub-demand solve, every simulator run); bench_synth gates the overhead.
//
// Recording path: each thread owns an append-only buffer registered with the
// process-global tracer on first use. The owning thread appends completed
// spans under the buffer's own mutex (uncontended in steady state — the only
// other taker is a snapshot), so threads never contend with each other.
// Buffers are shared_ptr-owned by both the thread and the registry: a
// ThreadPool worker that exits before the snapshot does not lose its spans.
//
// Timestamps are microseconds on std::chrono::steady_clock, relative to a
// process-wide epoch captured at static-init time, so spans from different
// threads share one timeline.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace syccl::obs {

namespace detail {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace detail

/// True while span recording is on. One relaxed load — callable on any path.
inline bool tracing_enabled() {
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}

/// Turns span recording on or off process-wide. Spans already open when
/// tracing flips off still record (their guard captured the enabled state).
void set_tracing(bool enabled);

/// Microseconds since the tracer epoch on the steady clock.
double trace_now_us();

/// One completed span. `name` and `category` point at string literals
/// supplied by the instrumentation site (never freed, never copied).
struct SpanRecord {
  const char* name = nullptr;
  const char* category = nullptr;
  double begin_us = 0.0;
  double end_us = 0.0;
  /// Nesting depth at open (0 = top-level span of its thread).
  int depth = 0;
  std::vector<std::pair<const char*, double>> args;
};

/// Everything one thread recorded: a stable tid, an optional human name
/// (obs::set_thread_name) and the completed spans in completion order.
struct ThreadTrace {
  std::uint64_t tid = 0;
  std::string name;
  std::vector<SpanRecord> spans;
};

/// Names the calling thread in trace exports ("syccl-worker-3", "main").
/// Idempotent; cheap enough to call unconditionally from thread entry.
void set_thread_name(std::string name);

/// Copies every thread's completed spans. Safe to call while other threads
/// record; spans completing concurrently may or may not be included.
std::vector<ThreadTrace> trace_snapshot();

/// Drops all recorded spans (thread registrations and names survive).
void trace_clear();

namespace detail {

/// Appends `record` to the calling thread's buffer, registering the buffer
/// on first use. Called only on the enabled path.
void append_span(SpanRecord&& record);

/// Per-thread nesting depth; mutated only by the owning thread.
int& thread_depth();

}  // namespace detail

/// RAII span guard. Construct with string literals; destructor records.
class Span {
 public:
  explicit Span(const char* name, const char* category = "syccl") {
    if (!tracing_enabled()) return;
    active_ = true;
    record_.name = name;
    record_.category = category;
    record_.begin_us = trace_now_us();
    record_.depth = detail::thread_depth()++;
  }

  ~Span() {
    if (!active_) return;
    --detail::thread_depth();
    record_.end_us = trace_now_us();
    detail::append_span(std::move(record_));
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a numeric annotation; `key` must be a string literal. No-op
  /// when the span was constructed with tracing disabled.
  void annotate(const char* key, double value) {
    if (active_) record_.args.emplace_back(key, value);
  }

  /// Whether this guard is recording (tracing was enabled at construction).
  bool active() const { return active_; }

 private:
  bool active_ = false;
  SpanRecord record_;
};

}  // namespace syccl::obs

/// Scoped span over the rest of the enclosing block.
#define SYCCL_TRACE_SPAN(var, name, category) ::syccl::obs::Span var(name, category)

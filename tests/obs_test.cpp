// Tests for the observability subsystem: span tracer (including concurrent
// recording — the Trace*/Metrics*/ChromeTrace* suites run under tsan via
// `ctest -C tsan`), metrics registry bucket/accumulation semantics, the JSON
// document model, the Chrome-trace builder schema, and the end-to-end traced
// scenario whose artifacts the syccl_trace CLI ships.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/scenario.h"
#include "obs/trace.h"
#include "solver/greedy.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace syccl::obs {
namespace {

/// Every trace test starts from an empty recorder and leaves tracing off.
struct TraceFixture : ::testing::Test {
  void SetUp() override {
    set_tracing(false);
    trace_clear();
  }
  void TearDown() override {
    set_tracing(false);
    trace_clear();
  }
};

using TraceRecorder = TraceFixture;

std::size_t total_spans(const std::vector<ThreadTrace>& threads) {
  std::size_t n = 0;
  for (const auto& t : threads) n += t.spans.size();
  return n;
}

TEST_F(TraceRecorder, DisabledGuardRecordsNothing) {
  ASSERT_FALSE(tracing_enabled());
  {
    SYCCL_TRACE_SPAN(span, "should_not_appear", "test");
    EXPECT_FALSE(span.active());
    span.annotate("ignored", 1.0);  // must be a no-op, not a crash
  }
  EXPECT_EQ(total_spans(trace_snapshot()), 0u);
}

TEST_F(TraceRecorder, RecordsNestedSpansWithDepthAndArgs) {
  set_tracing(true);
  {
    SYCCL_TRACE_SPAN(outer, "outer", "test");
    outer.annotate("k", 42.0);
    {
      SYCCL_TRACE_SPAN(inner, "inner", "test");
    }
  }
  set_tracing(false);

  const auto threads = trace_snapshot();
  ASSERT_EQ(total_spans(threads), 2u);
  const ThreadTrace* mine = nullptr;
  for (const auto& t : threads) {
    if (!t.spans.empty()) mine = &t;
  }
  ASSERT_NE(mine, nullptr);
  // Completion order: inner closes first.
  const SpanRecord& inner = mine->spans[0];
  const SpanRecord& outer = mine->spans[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_EQ(inner.depth, 1);
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(outer.depth, 0);
  // Time containment: the outer span covers the inner one.
  EXPECT_LE(outer.begin_us, inner.begin_us);
  EXPECT_GE(outer.end_us, inner.end_us);
  EXPECT_LE(inner.begin_us, inner.end_us);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_STREQ(outer.args[0].first, "k");
  EXPECT_DOUBLE_EQ(outer.args[0].second, 42.0);
}

TEST_F(TraceRecorder, SpanOpenAcrossDisableStillRecords) {
  set_tracing(true);
  {
    SYCCL_TRACE_SPAN(span, "crossing", "test");
    set_tracing(false);  // guard captured the enabled state at construction
  }
  EXPECT_EQ(total_spans(trace_snapshot()), 1u);
}

TEST_F(TraceRecorder, ConcurrentRecordingFromEightThreads) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 250;
  set_tracing(true);

  std::atomic<bool> stop_snapshots{false};
  // A concurrent reader: snapshots must be safe while recorders append.
  std::thread snapshotter([&] {
    while (!stop_snapshots.load()) {
      const auto snap = trace_snapshot();
      for (const auto& t : snap) {
        for (const auto& s : t.spans) ASSERT_LE(s.begin_us, s.end_us);
      }
    }
  });

  std::vector<std::thread> recorders;
  for (int i = 0; i < kThreads; ++i) {
    recorders.emplace_back([i] {
      set_thread_name("recorder-" + std::to_string(i));
      for (int j = 0; j < kSpansPerThread; ++j) {
        SYCCL_TRACE_SPAN(outer, "outer", "test");
        outer.annotate("j", j);
        SYCCL_TRACE_SPAN(inner, "inner", "test");
      }
    });
  }
  for (auto& t : recorders) t.join();
  stop_snapshots.store(true);
  snapshotter.join();
  set_tracing(false);

  // Buffers outlive their threads: all spans must be visible after join.
  const auto threads = trace_snapshot();
  EXPECT_EQ(total_spans(threads), static_cast<std::size_t>(kThreads) * 2 * kSpansPerThread);
  std::set<std::string> names;
  std::set<std::uint64_t> tids;
  for (const auto& t : threads) {
    if (t.spans.empty()) continue;
    EXPECT_TRUE(tids.insert(t.tid).second) << "duplicate tid " << t.tid;
    names.insert(t.name);
    EXPECT_EQ(t.spans.size(), 2u * kSpansPerThread);
  }
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(names.count("recorder-" + std::to_string(i)));
  }
}

TEST(Metrics, CounterAndGaugeBasics) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  Counter& c = reg.counter("test.counter");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  EXPECT_EQ(&c, &reg.counter("test.counter"));  // stable reference

  Gauge& g = reg.gauge("test.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(Metrics, HistogramBucketBoundaries) {
  // Bucket i spans [2^(i-64), 2^(i-63)): powers of two open their bucket.
  EXPECT_EQ(Histogram::bucket_index(1.0), 64);
  EXPECT_EQ(Histogram::bucket_index(2.0), 65);
  EXPECT_EQ(Histogram::bucket_index(1.999999), 64);
  EXPECT_EQ(Histogram::bucket_index(0.5), 63);
  EXPECT_EQ(Histogram::bucket_index(0.75), 63);
  EXPECT_EQ(Histogram::bucket_index(std::nextafter(1.0, 0.0)), 63);
  // Clamps: zero, negatives and out-of-range magnitudes stay in range.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(Histogram::bucket_index(-5.0), 0);
  EXPECT_EQ(Histogram::bucket_index(1e-300), 0);
  EXPECT_EQ(Histogram::bucket_index(1e300), Histogram::kNumBuckets - 1);
  // Lower bounds invert the mapping.
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(64), 1.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(65), 2.0);
  EXPECT_DOUBLE_EQ(Histogram::bucket_lower_bound(63), 0.5);
  for (const double v : {1e-9, 0.3, 1.0, 7.5, 4096.0}) {
    const int b = Histogram::bucket_index(v);
    EXPECT_LE(Histogram::bucket_lower_bound(b), v);
    EXPECT_GT(Histogram::bucket_lower_bound(b + 1), v);
  }
}

TEST(Metrics, HistogramObserveAccumulates) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  Histogram& h = reg.histogram("test.histogram");
  h.observe(1.5);
  h.observe(1.0);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 5.5);
  EXPECT_EQ(h.bucket_count(64), 2);  // [1, 2)
  EXPECT_EQ(h.bucket_count(65), 1);  // [2, 4)
}

TEST(Metrics, HistogramQuantileIsTheUpperEdgeOfTheNearestRankBucket) {
  Histogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty
  // 100 samples: 1..60 ms (bucket [2^-10, 2^-9) and below), then 40 samples
  // of 0.3 s (bucket [0.25, 0.5)).
  for (int i = 1; i <= 60; ++i) h.observe(i * 1e-3);
  for (int i = 0; i < 40; ++i) h.observe(0.3);
  // Nearest rank: p50 is the 50th smallest sample, 50 ms, in [2^-5, 2^-4).
  EXPECT_EQ(h.quantile(0.5), 0.0625);
  // The 60th (60 ms) is still below 2^-4; the 61st is the first 0.3 s.
  EXPECT_EQ(h.quantile(0.6), 0.0625);
  EXPECT_EQ(h.quantile(0.61), 0.5);
  EXPECT_EQ(h.quantile(0.99), 0.5);
  EXPECT_EQ(h.quantile(1.0), 0.5);
  // The smallest sample (1 ms, in [2^-10, 2^-9)) for q at or below 1/count,
  // and q outside [0, 1] clamps.
  EXPECT_EQ(h.quantile(0.0), std::ldexp(1.0, -9));
  EXPECT_EQ(h.quantile(-1.0), std::ldexp(1.0, -9));
  EXPECT_EQ(h.quantile(2.0), 0.5);
  // Never under-reports: every quantile is at least the sample it stands for.
  std::vector<double> sorted;
  for (int i = 1; i <= 60; ++i) sorted.push_back(i * 1e-3);
  sorted.insert(sorted.end(), 40, 0.3);
  for (int k = 1; k <= 100; ++k) {
    const double q = (k - 0.5) / 100.0;  // nearest rank k
    EXPECT_GE(h.quantile(q), sorted[static_cast<std::size_t>(k - 1)]) << k;
    EXPECT_LE(h.quantile(q), 2 * sorted[static_cast<std::size_t>(k - 1)]) << k;
  }
  // A power of two opens its bucket, so it reports the next one's edge.
  Histogram exact;
  exact.observe(1.0);
  EXPECT_EQ(exact.quantile(0.5), 2.0);
}

TEST(Metrics, ConcurrentUpdatesAreExact) {
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&reg] {
      // Lookup under contention on purpose: the registry mutex is part of
      // the tsan surface even though hot paths hoist the reference.
      Counter& c = reg.counter("test.concurrent.counter");
      Histogram& h = reg.histogram("test.concurrent.histogram");
      Gauge& g = reg.gauge("test.concurrent.gauge");
      for (int j = 0; j < kOps; ++j) {
        c.add(1);
        h.observe(1.0);
        g.set(static_cast<double>(j));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.counter("test.concurrent.counter").value(), kThreads * kOps);
  Histogram& h = reg.histogram("test.concurrent.histogram");
  EXPECT_EQ(h.count(), kThreads * kOps);
  // The CAS loop makes the sum exact, not approximate: every add is 1.0.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(kThreads * kOps));
  EXPECT_DOUBLE_EQ(reg.gauge("test.concurrent.gauge").value(),
                   static_cast<double>(kOps - 1));
}

TEST(Metrics, SnapshotAndJsonExport) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();
  reg.counter("test.export.counter").add(7);
  reg.gauge("test.export.gauge").set(1.25);
  reg.histogram("test.export.histogram").observe(2.0);

  const Json root = Json::parse(reg.to_json());
  EXPECT_DOUBLE_EQ(root.at("counters").at("test.export.counter").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.export.gauge").as_number(), 1.25);
  const Json& h = root.at("histograms").at("test.export.histogram");
  EXPECT_DOUBLE_EQ(h.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").as_number(), 2.0);
  ASSERT_EQ(h.at("buckets").size(), 1u);
  EXPECT_DOUBLE_EQ(h.at("buckets").at(std::size_t{0}).at("ge").as_number(), 2.0);

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("test.export.counter"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

TEST(ObsJson, RoundTripsDocuments) {
  const std::string doc =
      R"({"a":[1,2.5,-3e-2,true,false,null],"b":{"nested":"va\"lue"},"c":"A\n"})";
  const Json j = Json::parse(doc);
  EXPECT_DOUBLE_EQ(j.at("a").at(std::size_t{0}).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(j.at("a").at(std::size_t{1}).as_number(), 2.5);
  EXPECT_DOUBLE_EQ(j.at("a").at(std::size_t{2}).as_number(), -0.03);
  EXPECT_TRUE(j.at("a").at(std::size_t{3}).as_bool());
  EXPECT_FALSE(j.at("a").at(std::size_t{4}).as_bool());
  EXPECT_TRUE(j.at("a").at(std::size_t{5}).is_null());
  EXPECT_EQ(j.at("b").at("nested").as_string(), "va\"lue");
  EXPECT_EQ(j.at("c").as_string(), "A\n");
  // dump → parse is the identity on the document model.
  const Json again = Json::parse(j.dump());
  EXPECT_EQ(again.dump(), j.dump());
}

TEST(ObsJson, PreservesIntegersAndKeyOrder) {
  Json obj = Json::object();
  obj.set("z", Json(1));
  obj.set("a", Json(std::int64_t{1} << 52));
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":4503599627370496}");
}

TEST(ObsJson, ParseErrorsCarryOffsets) {
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), JsonParseError);
  try {
    Json::parse("[1, x]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.offset, 4u);
  }
}

TEST(ChromeTrace, EmitsMetadataThenSortedEvents) {
  ChromeTraceBuilder builder;
  builder.set_process_name(1, "proc");
  builder.set_thread_name(1, 7, "track");
  TraceEvent late{"late", "test", 20.0, 1.0, 1, 7, {{"x", 3.0}}};
  TraceEvent early{"early", "test", 10.0, 2.0, 1, 7, {}};
  builder.add_event(late);
  builder.add_event(early);
  ASSERT_EQ(builder.num_events(), 2u);

  const Json root = Json::parse(builder.json());
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.at(std::size_t{0}).at("ph").as_string(), "M");
  EXPECT_EQ(events.at(std::size_t{0}).at("name").as_string(), "process_name");
  EXPECT_EQ(events.at(std::size_t{1}).at("name").as_string(), "thread_name");
  EXPECT_EQ(events.at(std::size_t{1}).at("args").at("name").as_string(), "track");
  // Duration events sorted by ts regardless of insertion order.
  EXPECT_EQ(events.at(std::size_t{2}).at("name").as_string(), "early");
  EXPECT_EQ(events.at(std::size_t{3}).at("name").as_string(), "late");
  EXPECT_DOUBLE_EQ(events.at(std::size_t{3}).at("args").at("x").as_number(), 3.0);
}

TEST(ChromeTrace, FoldsTracerSnapshotIntoTracks) {
  set_tracing(false);
  trace_clear();
  set_tracing(true);
  set_thread_name("main");
  {
    SYCCL_TRACE_SPAN(span, "work", "test");
  }
  set_tracing(false);

  ChromeTraceBuilder builder;
  builder.add_spans(5, trace_snapshot());
  const Json root = Json::parse(builder.json());
  bool saw_thread_name = false;
  bool saw_span = false;
  for (const Json& e : root.at("traceEvents").items()) {
    if (e.at("ph").as_string() == "M" && e.at("name").as_string() == "thread_name" &&
        e.at("args").at("name").as_string() == "main") {
      saw_thread_name = true;
    }
    if (e.at("ph").as_string() == "X" && e.at("name").as_string() == "work") {
      saw_span = true;
      EXPECT_EQ(static_cast<int>(e.at("pid").as_number()), 5);
      EXPECT_DOUBLE_EQ(e.at("args").at("depth").as_number(), 0.0);
    }
  }
  EXPECT_TRUE(saw_thread_name);
  EXPECT_TRUE(saw_span);
  trace_clear();
}

TEST(ObsSolver, SolveFoldsItsStatsIntoRegistry) {
  auto& reg = MetricsRegistry::instance();
  reg.reset();

  const topo::Topology topo = topo::build_single_server(4);
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  solver::SubDemand demand;
  demand.group = &groups.dims[0].groups[0];
  demand.piece_bytes = 1 << 20;
  demand.pieces.push_back(solver::DemandPiece{0, {0}, {1, 2, 3}});
  solver::SolveStats stats;
  solver::solve_sub_demand(demand, {}, &stats);

  // One reporting path: registry totals must equal the returned stats.
  EXPECT_EQ(reg.counter("solver.solves").value(), 1);
  const Histogram& seconds = reg.histogram("solver.solve_seconds");
  EXPECT_EQ(seconds.count(), 1);
  EXPECT_DOUBLE_EQ(seconds.sum(), stats.solve_seconds);
  EXPECT_FALSE(stats.cache_hit);
}

TEST(ObsScenario, UnknownNamesThrow) {
  EXPECT_THROW(build_scenario_topology("nosuch"), std::invalid_argument);
  EXPECT_THROW(build_scenario_topology("h800x"), std::invalid_argument);
  EXPECT_THROW(build_scenario_collective("nosuch", 8, 1024), std::invalid_argument);
  EXPECT_EQ(build_scenario_topology("dgx16").num_gpus(), 16u);
  EXPECT_EQ(build_scenario_topology("flat4").num_gpus(), 4u);
}

/// The acceptance scenario: a 16-GPU DGX-style AllReduce, traced end to end.
/// trace.json must be schema-valid (monotone ts, every event on a named
/// track, ≥1 span per instrumented layer) and metrics.json must agree with
/// the SynthesisBreakdown the call returned.
TEST(ObsScenario, TracedDgx16AllReduceEmitsConsistentArtifacts) {
  ScenarioSpec spec;
  spec.topo = "dgx16";
  spec.coll = "allreduce";
  spec.bytes = 8ull << 20;
  // Trimmed search so the test stays in seconds; the layers crossed are
  // identical to the full-size run.
  spec.config.sketch.max_prototypes = 3;
  spec.config.sketch.combine.max_outputs = 6;

  const ScenarioResult result = run_traced_scenario(spec);
  EXPECT_FALSE(tracing_enabled());  // the guard restored the disabled state
  EXPECT_GT(result.synthesis.predicted_time, 0.0);
  EXPECT_FALSE(result.sim.link_events.empty());

  // --- trace.json ---
  const Json trace = Json::parse(result.trace_json);
  const Json& events = trace.at("traceEvents");
  ASSERT_GT(events.size(), 0u);

  std::set<std::pair<int, std::uint64_t>> named_tracks;
  std::set<int> named_pids;
  std::set<std::string> categories;
  double last_ts = -1.0;
  std::size_t duration_events = 0;
  for (const Json& e : events.items()) {
    const std::string ph = e.at("ph").as_string();
    const int pid = static_cast<int>(e.at("pid").as_number());
    if (ph == "M") {
      if (e.at("name").as_string() == "process_name") named_pids.insert(pid);
      if (e.at("name").as_string() == "thread_name") {
        named_tracks.insert({pid, static_cast<std::uint64_t>(e.at("tid").as_number())});
      }
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++duration_events;
    const double ts = e.at("ts").as_number();
    EXPECT_GE(ts, last_ts) << "trace not sorted by ts";
    last_ts = ts;
    EXPECT_GE(e.at("dur").as_number(), 0.0);
    // Every event must land on a track the metadata names (matched pid/tid).
    const auto track =
        std::make_pair(pid, static_cast<std::uint64_t>(e.at("tid").as_number()));
    EXPECT_TRUE(named_tracks.count(track))
        << "event on unnamed track pid=" << track.first << " tid=" << track.second;
    categories.insert(e.at("cat").as_string());
  }
  EXPECT_GT(duration_events, 0u);
  EXPECT_TRUE(named_pids.count(1));  // synthesis
  EXPECT_TRUE(named_pids.count(2));  // schedule simulation
  // ≥1 span per instrumented layer crossed by this scenario.
  for (const char* layer : {"core", "solver", "sim", "cache", "link"}) {
    EXPECT_TRUE(categories.count(layer)) << "no spans from layer " << layer;
  }

  // --- metrics.json vs the returned breakdown ---
  const Json metrics = Json::parse(result.metrics_json);
  const Json& counters = metrics.at("counters");
  const auto counter = [&](const char* name) {
    return static_cast<std::int64_t>(counters.at(name).as_number());
  };
  const auto& bd = result.synthesis.breakdown;
  EXPECT_EQ(counter("synth.patterns"), 1);  // RS and AG rank one prefix
  EXPECT_EQ(counter("synth.combinations"), bd.num_combinations);
  EXPECT_EQ(counter("synth.subdemands"), bd.num_subdemands);
  EXPECT_EQ(counter("synth.solver_calls"), bd.num_solver_calls);
  // Independent derivations of the same totals must agree: the solver
  // counts its own invocations, the cache its hits and misses.
  EXPECT_EQ(counter("solver.solves"), bd.num_solver_calls);
  EXPECT_EQ(counter("solve_cache.hits"), bd.cache_hits);
  EXPECT_EQ(bd.cache_hits, 0);  // cold: the phases share classes, not cache entries
  EXPECT_EQ(counter("solve_cache.misses"), bd.num_solver_calls);
  EXPECT_GT(counter("sim.runs"), 0);
  EXPECT_GT(counter("sim.events"), 0);
  const Json& total_hist = metrics.at("histograms").at("synth.total_seconds");
  EXPECT_DOUBLE_EQ(total_hist.at("count").as_number(), 1.0);
  EXPECT_GT(metrics.at("gauges").at("solve_cache.bytes").as_number(), 0.0);
}

}  // namespace
}  // namespace syccl::obs

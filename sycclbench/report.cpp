// Statistics, the trace reducer and the result line.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"

namespace sycclbench {

namespace {

/// Every per-layer metric and its unit. Each traced run reports all of them;
/// a layer that did no work on a workload reads 0.
const std::vector<std::pair<const char*, const char*>>& layer_metric_units() {
  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"solver.solve_cpu_s", "s"},      {"solver.max_solve_s", "s"},
      {"solver.solves", "count"},       {"pool.utilization", "share"},
      {"sim.run_s", "s"},               {"sim.events", "count"},
      {"sim.runs", "count"},            {"sim.events_per_s", "1/s"},
      {"core.search_s", "s"},           {"core.combine_s", "s"},
      {"core.coarse_eval_s", "s"},      {"core.fine_eval_s", "s"},
      {"core.candidates", "count"},     {"core.classes", "count"},
      {"core.accounted_share", "share"},
      {"solve_cache.hits", "count"},    {"solve_cache.misses", "count"},
      {"solve_cache.hit_ratio", "share"}, {"solve_cache.evictions", "count"},
      {"solve_cache.wait_s", "s"},
      {"milp.solves", "count"},         {"milp.nodes", "count"},
      {"milp.lp_iterations", "count"},  {"milp.flow_root_proofs", "count"},
      {"milp.solve_s", "s"},
      {"serve.canon_s", "s"},           {"serve.fetch_s", "s"},
      {"serve.relabel_s", "s"},         {"serve.validate_s", "s"},
      {"serve.resim_s", "s"},           {"serve.encode_s", "s"},
      {"serve.wire_s", "s"},
      {"library.put_s", "s"},           {"library.puts", "count"},
      {"library.bytes", "bytes"},       {"library.journal_failures", "count"},
      {"serve.queue_wait_s", "s"},      {"serve.join_wait_s", "s"},
      {"serve.fallback_s", "s"},
      {"serve.hits", "count"},          {"serve.misses", "count"},
      {"serve.joins", "count"},         {"serve.degraded", "count"},
      {"serve.upgrades", "count"},      {"serve.verify_failures", "count"},
      {"serve.hit_ratio", "share"},
      {"trace.overhead", "share"},      {"error_rate", "share"},
  };
  return kUnits;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double per(double value, double ops) { return ops > 0.0 ? value / ops : 0.0; }

}  // namespace

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string fmt(const char* format, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

void start_peak_rss_window() {
  ::malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  if (!(clear_refs << "5" << std::flush)) {
    throw std::runtime_error("cannot reset the peak RSS mark (/proc/self/clear_refs)");
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

const SpanStat& SpanSummary::operator[](const std::string& name) const {
  static const SpanStat kEmpty;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kEmpty : it->second;
}

const SpanStat& SpanSummary::edge(const std::string& parent, const std::string& name) const {
  static const SpanStat kEmpty;
  const auto it = by_edge.find(parent + ">" + name);
  return it == by_edge.end() ? kEmpty : it->second;
}

SpanSummary reduce_spans(const std::vector<syccl::obs::ThreadTrace>& threads) {
  SpanSummary out;
  for (const syccl::obs::ThreadTrace& thread : threads) {
    // Spans nest per thread (RAII guards), so ordering by start time, outer
    // span first on ties, visits every parent before its children; a stack
    // of open spans then names each span's direct parent.
    std::vector<const syccl::obs::SpanRecord*> spans;
    spans.reserve(thread.spans.size());
    for (const auto& span : thread.spans) spans.push_back(&span);
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->begin_us != b->begin_us ? a->begin_us < b->begin_us : a->depth < b->depth;
    });
    std::vector<double> covered_us(spans.size(), 0.0);
    std::vector<std::size_t> open;
    std::vector<std::size_t> parent(spans.size(), SIZE_MAX);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      while (!open.empty() && spans[open.back()]->depth >= spans[i]->depth) open.pop_back();
      if (!open.empty()) {
        parent[i] = open.back();
        covered_us[open.back()] += spans[i]->end_us - spans[i]->begin_us;
      }
      open.push_back(i);
    }
    const bool worker = thread.name.rfind("syccl-worker", 0) == 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = *spans[i];
      const double total = (s.end_us - s.begin_us) * 1e-6;
      const double self = std::max(0.0, total - covered_us[i] * 1e-6);
      if (worker && s.depth == 0) out.worker_busy_s += total;
      const std::string key =
          parent[i] == SIZE_MAX ? std::string(">") + s.name
                                : std::string(spans[parent[i]]->name) + ">" + s.name;
      for (SpanStat* stat : {&out.by_name[s.name], &out.by_edge[key]}) {
        stat->self_s += self;
        stat->total_s += total;
        stat->max_s = std::max(stat->max_s, total);
        ++stat->count;
        for (const auto& [arg, value] : s.args) stat->args[arg] += value;
      }
    }
  }
  return out;
}

std::int64_t counter(const std::string& name) {
  for (const auto& [key, value] : syccl::obs::MetricsRegistry::instance().snapshot().counters) {
    if (key == name) return value;
  }
  return 0;
}

void add_layer_metrics(Metrics& out, const SpanSummary& spans, double ops, double window_s) {
  for (const auto& [name, unit] : layer_metric_units()) out[name] = Metric{0.0, unit};
  const auto set = [&](const std::string& name, double value) { out[name].value = value; };

  set("solver.solve_cpu_s", per(spans["solve_sub_demand"].self_s, ops));
  set("solver.max_solve_s", spans["solve_sub_demand"].max_s);
  set("solver.solves", per(static_cast<double>(counter("solver.solves")), ops));
  const double cores = std::max(1u, std::thread::hardware_concurrency());
  set("pool.utilization", window_s > 0.0 ? spans.worker_busy_s / (cores * window_s) : 0.0);

  const double events = static_cast<double>(counter("sim.events"));
  set("sim.run_s", per(spans["sim.run"].self_s, ops));
  set("sim.events", per(events, ops));
  set("sim.runs", per(static_cast<double>(counter("sim.runs")), ops));
  set("sim.events_per_s", per(events, spans["sim.run"].total_s));

  set("core.search_s", per(spans["sketch_search"].self_s, ops));
  set("core.combine_s", per(spans["combine"].self_s, ops));
  set("core.coarse_eval_s",
      per(spans["coarse_eval"].self_s +
              spans.edge("coarse_eval", "evaluate_candidates").self_s,
          ops));
  set("core.fine_eval_s",
      per(spans["fine_eval"].self_s + spans.edge("fine_eval", "evaluate_candidates").self_s,
          ops));
  set("core.candidates", per(static_cast<double>(counter("synth.combinations")), ops));
  set("core.classes", per(spans["coarse_solve"].args.count("classes")
                              ? spans["coarse_solve"].args.at("classes")
                              : 0.0,
                          ops));
  // The six phases tile synthesize_pattern on its own thread; what they
  // leave uncovered is glue (demand planning, candidate filter).
  double phases_s = 0.0;
  for (const char* phase :
       {"sketch_search", "combine", "coarse_solve", "coarse_eval", "fine_solve", "fine_eval"}) {
    phases_s += spans[phase].total_s;
  }
  set("core.accounted_share", per(phases_s, spans["synthesize_pattern"].total_s));

  const double hits = static_cast<double>(counter("solve_cache.hits"));
  const double misses = static_cast<double>(counter("solve_cache.misses"));
  set("solve_cache.hits", per(hits, ops));
  set("solve_cache.misses", per(misses, ops));
  set("solve_cache.hit_ratio", per(hits, hits + misses));
  set("solve_cache.evictions", per(static_cast<double>(counter("solve_cache.evictions")), ops));
  set("solve_cache.wait_s", per(spans["solve_cache.lookup"].self_s, ops));

  set("milp.solves", per(static_cast<double>(counter("milp.solves")), ops));
  set("milp.nodes", per(static_cast<double>(counter("milp.nodes_explored")), ops));
  set("milp.lp_iterations", per(static_cast<double>(counter("milp.lp_iterations")), ops));
  set("milp.flow_root_proofs", per(static_cast<double>(counter("milp.flow_root_proofs")), ops));
  set("milp.solve_s", per(spans["milp.solve"].total_s, ops));

  const double requests = static_cast<double>(counter("serve.requests"));
  set("serve.hits", per(static_cast<double>(counter("serve.hits")), ops));
  set("serve.misses", per(static_cast<double>(counter("serve.misses")), ops));
  set("serve.joins", per(static_cast<double>(counter("serve.joins")), ops));
  set("serve.degraded", per(static_cast<double>(counter("serve.degraded_hits")), ops));
  set("serve.upgrades", per(static_cast<double>(counter("serve.upgrades")), ops));
  set("serve.verify_failures", per(static_cast<double>(counter("serve.verify_failures")), ops));
  set("serve.hit_ratio", per(static_cast<double>(counter("serve.hits")), requests));
  set("serve.fallback_s", per(spans["serve.fallback"].total_s, spans["serve.fallback"].count));
  set("library.puts", per(static_cast<double>(spans["serve.synthesize"].count), ops));
}

int emit(const RunResult& result) {
  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!first) line += ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}

}  // namespace sycclbench

#include "obs/scenario.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "solver/solve_cache.h"
#include "topo/builders.h"
#include "topo/mutate.h"

namespace syccl::obs {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Parses the integer following `prefix`, e.g. ("h800x4", "h800x") -> 4.
/// Returns -1 when `name` does not start with `prefix` or the rest is not a
/// positive integer.
int suffix_int(const std::string& name, const std::string& prefix) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) return -1;
  int value = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return -1;
    value = value * 10 + (name[i] - '0');
    if (value > 1 << 20) return -1;
  }
  return value > 0 ? value : -1;
}

/// Restores the previous tracing state on every exit path.
struct TracingGuard {
  bool previous;
  explicit TracingGuard(bool enable) : previous(tracing_enabled()) { set_tracing(enable); }
  ~TracingGuard() { set_tracing(previous); }
};

}  // namespace

topo::Topology build_scenario_topology(const std::string& name) {
  // A mutation suffix derives a faulty variant of any base scenario.
  if (const std::size_t at = name.find('@'); at != std::string::npos) {
    const topo::Topology base = build_scenario_topology(name.substr(0, at));
    const std::string fault = lower(name.substr(at + 1));
    if (fault == "degraded") {
      if (base.num_links() == 0) {
        throw std::invalid_argument("scenario '" + name + "': topology has no links");
      }
      const topo::Link& l = base.links().front();
      return topo::degrade_duplex(base, l.src, l.dst, 8.0, 8.0);
    }
    if (fault == "failnic") {
      for (const topo::Node& node : base.nodes()) {
        if (node.kind == topo::NodeKind::Nic) return topo::fail_nic(base, node.id);
      }
      throw std::invalid_argument("scenario '" + name + "': topology has no NICs");
    }
    throw std::invalid_argument("unknown scenario fault '" + fault +
                                "' (expected degraded or failnic)");
  }
  const std::string n = lower(name);
  if (n == "dgx16") return topo::build_h800_cluster(2);
  if (n == "micro") return topo::build_microbench_cluster();
  if (int servers = suffix_int(n, "h800x"); servers > 0) {
    return topo::build_h800_cluster(servers);
  }
  if (int gpus = suffix_int(n, "a100x"); gpus > 0) {
    return topo::build_a100_testbed(gpus);
  }
  if (int gpus = suffix_int(n, "flat"); gpus > 0) {
    return topo::build_flat_switch(gpus);
  }
  throw std::invalid_argument(
      "unknown scenario topology '" + name +
      "' (expected dgx16, h800x<servers>, a100x<gpus>, flat<gpus> or micro)");
}

coll::Collective build_scenario_collective(const std::string& name, int num_ranks,
                                           std::uint64_t bytes) {
  const std::string n = lower(name);
  if (n == "allreduce") return coll::make_allreduce(num_ranks, bytes);
  if (n == "allgather") return coll::make_allgather(num_ranks, bytes);
  if (n == "reducescatter") return coll::make_reduce_scatter(num_ranks, bytes);
  if (n == "alltoall") return coll::make_alltoall(num_ranks, bytes);
  if (n == "broadcast") return coll::make_broadcast(num_ranks, bytes);
  if (n == "scatter") return coll::make_scatter(num_ranks, bytes);
  if (n == "gather") return coll::make_gather(num_ranks, bytes);
  if (n == "reduce") return coll::make_reduce(num_ranks, bytes);
  throw std::invalid_argument("unknown scenario collective '" + name + "'");
}

ScenarioResult run_traced_scenario(const ScenarioSpec& spec) {
  topo::Topology topo = build_scenario_topology(spec.topo);
  coll::Collective coll = build_scenario_collective(
      spec.coll, static_cast<int>(topo.num_gpus()), spec.bytes);

  // Scope every instrument to this run: totals in metrics_json must equal the
  // run's own SolveStats/Breakdown so the two reporting paths stay checkable
  // against each other.
  MetricsRegistry::instance().reset();
  trace_clear();
  if (spec.clear_solve_cache) solver::SubScheduleCache::instance().clear();

  core::SynthesisConfig config = spec.config;
  config.num_threads = spec.num_threads;

  ScenarioResult out;
  {
    set_thread_name("main");
    TracingGuard tracing(true);
    core::Synthesizer synth(topo, config);
    out.synthesis = synth.synthesize(coll);

    // Re-simulate the winner with full recording: candidate ranking never
    // pays for link events, so the Gantt data comes from one extra run.
    sim::SimOptions sim_opts = config.sim;
    sim_opts.record_link_events = true;
    sim_opts.record_final_state = true;
    sim::Simulator simulator(synth.groups(), sim_opts);
    out.sim = simulator.run(out.synthesis.schedule);
  }

  ChromeTraceBuilder builder;
  builder.set_process_name(1, "synthesis");
  builder.add_spans(1, trace_snapshot());
  builder.set_process_name(2, "schedule simulation");
  add_link_timeline(builder, 2, out.synthesis.schedule, out.sim.link_events, &topo);
  out.trace_json = builder.json();
  out.metrics_json = MetricsRegistry::instance().to_json();
  return out;
}

}  // namespace syccl::obs

// Named end-to-end scenarios for the observability tooling.
//
// A scenario is a (topology × collective × size) triple addressed by short
// names ("dgx16" × "allreduce" × 64 MiB). run_traced_scenario() executes the
// full pipeline under instrumentation — registry reset, tracing on,
// synthesize, re-simulate the winner with link-event recording — and returns
// both artefacts the tooling ships: a Chrome trace (synthesis spans as one
// process, the winning schedule's per-link Gantt as another) and a metrics
// JSON scoped to exactly this run. tools/syccl_trace is a thin CLI over this
// function; the obs tests drive it directly to validate the trace schema.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/synthesizer.h"
#include "sim/simulator.h"
#include "topo/topology.h"

namespace syccl::obs {

struct ScenarioSpec {
  /// Topology name: "dgx16" (two 8-GPU H800 servers, the paper's DGX-style
  /// unit), "h800x<S>" (S servers × 8 GPUs), "a100x<G>" (§7.1 testbed,
  /// G ∈ {16, 32}), "flat<G>" (single switch), "micro" (§7.4 cluster).
  /// A `@degraded` suffix scales the first duplex link's α/β 8× (flapping
  /// optic); `@failnic` removes the first NIC's links (dead NIC). Both
  /// mutate through topo/mutate.h, so the degraded fabric flows through
  /// grouping, synthesis, and simulation like any other scenario.
  std::string topo = "dgx16";
  /// Collective name (case-insensitive): allreduce, allgather,
  /// reducescatter, alltoall, broadcast, scatter, gather, reduce.
  std::string coll = "allreduce";
  /// Collective payload in bytes (nccl-tests "size" convention).
  std::uint64_t bytes = 64ull << 20;
  /// Worker threads for the synthesizer (0 = hardware concurrency).
  int num_threads = 0;
  /// Clear the process-wide solve cache first so the metrics show a cold
  /// run. Off when sweeping sizes to show cache reuse instead.
  bool clear_solve_cache = true;
  /// Overrides applied on top of the default SynthesisConfig. Kept small:
  /// scenarios are observability probes, not a config surface.
  core::SynthesisConfig config;
};

/// Everything one traced run produced.
struct ScenarioResult {
  core::SynthesisResult synthesis;
  /// Winner re-simulated with link events (and final state) recorded.
  sim::SimResult sim;
  /// Chrome-trace JSON: pid 1 = synthesis spans, pid 2 = schedule timeline.
  std::string trace_json;
  /// MetricsRegistry::to_json() scoped to this run (registry reset first).
  std::string metrics_json;
};

/// Builds the topology for a scenario name. Throws std::invalid_argument on
/// an unknown name.
topo::Topology build_scenario_topology(const std::string& name);

/// Builds the collective for a scenario name over `num_ranks` ranks. Throws
/// std::invalid_argument on an unknown name.
coll::Collective build_scenario_collective(const std::string& name, int num_ranks,
                                           std::uint64_t bytes);

/// Runs a scenario end to end under tracing and returns the artefacts.
/// Resets the process-wide metrics registry and span buffers; tracing is
/// disabled again before returning regardless of exceptions.
ScenarioResult run_traced_scenario(const ScenarioSpec& spec);

}  // namespace syccl::obs

#include "fuzz/differential.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>

#include "baselines/crafted.h"
#include "baselines/nccl.h"
#include "baselines/teccl.h"
#include "core/synthesizer.h"
#include "fuzz/generators.h"
#include "obs/chrome_trace.h"
#include "obs/timeline.h"
#include "runtime/executor.h"
#include "runtime/validate.h"
#include "sim/oracle.h"
#include "sim/simulator.h"
#include "topo/groups.h"
#include "util/rng.h"

namespace syccl::fuzz {

namespace {

/// Writes the two engines' link timelines as one Chrome trace, production
/// and oracle as separate processes, so Perfetto shows them side by side.
void write_divergence_trace(const std::string& path, const sim::Schedule& schedule,
                            const sim::SimResult& production, const sim::OracleResult& oracle,
                            const topo::Topology& topo) {
  obs::ChromeTraceBuilder builder;
  builder.set_process_name(1, "production simulator");
  obs::add_link_timeline(builder, 1, schedule, production.link_events, &topo);
  builder.set_process_name(2, "oracle");
  obs::add_oracle_timeline(builder, 2, schedule, oracle, &topo);
  std::ofstream file(path, std::ios::binary);
  file << builder.json();
}

/// Checks one schedule against all four oracles; appends failures.
void check_schedule(const sim::Schedule& schedule, const std::string& label,
                    const coll::Collective& coll, const topo::Topology& topo,
                    const topo::TopologyGroups& groups, const sim::SimOptions& sim_opts,
                    const CaseOptions& options, CaseResult& out) {
  out.schedules_checked++;
  const auto fail = [&](const std::string& what) {
    out.failures.push_back("[" + label + "] " + what);
  };

  const auto report = runtime::validate_schedule(schedule, coll, groups);
  if (!report.ok) {
    for (const auto& e : report.errors) fail("validator: " + e);
  }

  const auto exec = runtime::execute_and_verify(schedule, coll);
  if (!exec.ok) {
    for (const auto& e : exec.errors) fail("executor: " + e);
  }

  sim::SimOptions opts = sim_opts;
  opts.record_final_state = true;
  opts.record_link_events = !options.trace_out.empty();
  const sim::Simulator simulator(groups, opts);

  std::optional<sim::SimResult> production;
  std::string production_error;
  try {
    production = simulator.run(schedule);
  } catch (const std::exception& e) {
    production_error = e.what();
  }

  std::optional<sim::OracleResult> oracle;
  std::string oracle_error;
  try {
    oracle = sim::oracle_run(groups, schedule, opts);
  } catch (const std::exception& e) {
    oracle_error = e.what();
  }

  if (production.has_value() != oracle.has_value()) {
    fail("verdict mismatch: production " +
         (production ? std::string("accepted") : "rejected (" + production_error + ")") +
         ", oracle " + (oracle ? std::string("accepted") : "rejected (" + oracle_error + ")"));
    return;
  }
  if (!production) {
    // Both rejected: a valid-by-construction schedule must not be rejected.
    fail("both simulators rejected a generated schedule: " + production_error);
    return;
  }
  out.sim_events += production->num_events;
  const auto diffs = sim::diff_against_oracle(*production, *oracle, options.rel_tol);
  for (const auto& d : diffs) fail("divergence: " + d);
  if (!diffs.empty() && !options.trace_out.empty() && !out.trace_written) {
    write_divergence_trace(options.trace_out, schedule, *production, *oracle, topo);
    out.trace_written = true;
  }
}

}  // namespace

CaseResult run_differential_case(std::uint64_t seed, const CaseOptions& options) {
  util::Rng rng(seed);
  CaseResult out;
  out.seed = seed;

  RandomTopology rt = random_topology(rng);
  if (options.degrade_topology) degrade_random(rt, rng);
  const topo::TopologyGroups groups = topo::extract_groups(rt.topo);
  const int num_ranks = static_cast<int>(rt.topo.num_gpus());
  const coll::Collective coll = random_collective(rng, num_ranks);

  sim::SimOptions sim_opts;
  sim_opts.block_bytes = static_cast<double>(std::uint64_t{1} << rng.next_in(14, 20));
  sim_opts.max_blocks = static_cast<int>(rng.next_in(1, 8));

  {
    std::ostringstream desc;
    desc << rt.desc << " / " << coll.describe() << " / block_bytes=" << sim_opts.block_bytes
         << " max_blocks=" << sim_opts.max_blocks;
    out.desc = desc.str();
  }

  // 1. Random direct schedule + mutants.
  const sim::Schedule direct = random_direct_schedule(coll, groups, rng);
  check_schedule(direct, "direct", coll, rt.topo, groups, sim_opts, options, out);
  for (int m = 0; m < options.mutants; ++m) {
    sim::Schedule mutant = direct;
    mutate_schedule(mutant, groups, rng, 1 + static_cast<int>(rng.next_below(3)));
    check_schedule(mutant, "mutant#" + std::to_string(m), coll, rt.topo, groups, sim_opts, options, out);
  }

  // 2. Baselines, where the kind/topology is supported.
  // The NCCL ring and crafted baselines assume every rank pair can talk
  // directly; they are genuinely unrunnable on partially connected
  // topologies (e.g. multi-rail without a spine), so gate them.
  const auto adj = rank_adjacency(groups);
  const bool fully_connected =
      std::all_of(adj.begin(), adj.end(), [&](const std::vector<int>& nbrs) {
        return static_cast<int>(nbrs.size()) == num_ranks - 1;
      });

  if (options.with_baselines) {
    if (fully_connected) {
      try {
        const sim::Schedule nccl = baselines::nccl_schedule(coll, groups);
        check_schedule(nccl, "nccl", coll, rt.topo, groups, sim_opts, options, out);
      } catch (const std::invalid_argument&) {
        // Kind not covered by the NCCL baseline; skip.
      }
    }
    try {
      baselines::TecclOptions teccl_opts;
      teccl_opts.time_budget_s = 0.05;
      teccl_opts.seed = seed;
      const auto teccl = baselines::teccl_synthesize(coll, groups, teccl_opts);
      if (!teccl.timed_out) {
        check_schedule(teccl.schedule, "teccl", coll, rt.topo, groups, sim_opts, options, out);
      }
    } catch (const std::invalid_argument&) {
      // Kind not covered by the TECCL baseline; skip.
    }
    if (coll.kind() == coll::CollKind::AllGather && fully_connected) {
      try {
        for (const auto& crafted : baselines::crafted_allgather_suite(coll, groups, true)) {
          check_schedule(crafted, "crafted:" + crafted.name, coll, rt.topo, groups, sim_opts, options,
                         out);
        }
      } catch (const std::invalid_argument&) {
        // Crafted schedules need specific topology shapes; skip.
      }
    }
  }

  // 3. The full synthesizer.
  if (options.with_synthesizer) {
    core::SynthesisConfig cfg;
    cfg.sketch.max_prototypes = 3;
    cfg.sketch.combine.max_outputs = 6;
    cfg.num_threads = 2;
    core::Synthesizer synth(rt.topo, cfg);
    try {
      const auto result = synth.synthesize(coll);
      check_schedule(result.schedule, "synthesizer", coll, rt.topo, groups, sim_opts, options, out);
    } catch (const std::exception&) {
      // On some generated fabrics the synthesizer fails with a typed error
      // (for example no replicable sketch family on a failed NIC). That is a
      // synthesis-coverage matter, not a simulator/validator divergence —
      // skip, don't fail.
    }
  }

  return out;
}

}  // namespace syccl::fuzz

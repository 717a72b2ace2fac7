// Schedule correctness check shared by every workload.
#include <exception>

#include "bench.h"
#include "runtime/validate.h"
#include "sim/oracle.h"

namespace sycclbench {

std::string check_schedule(const syccl::sim::Schedule& schedule,
                           const syccl::coll::Collective& coll,
                           const syccl::topo::TopologyGroups& groups,
                           const syccl::sim::SimOptions& sim_options) {
  const syccl::runtime::ValidationReport report =
      syccl::runtime::validate_schedule(schedule, coll, groups);
  if (!report.ok) {
    return "validation: " + (report.errors.empty() ? std::string("unknown") : report.errors[0]);
  }
  try {
    syccl::sim::SimOptions options = sim_options;
    options.record_final_state = true;
    const syccl::sim::Simulator simulator(groups, options);
    simulator.time_collective(schedule, coll);  // throws on an unmet demand
    const syccl::sim::SimResult production = simulator.run(schedule);
    const syccl::sim::OracleResult oracle = syccl::sim::oracle_run(groups, schedule, options);
    const std::vector<std::string> diffs =
        syccl::sim::diff_against_oracle(production, oracle, 1e-9);
    if (!diffs.empty()) return "oracle divergence: " + diffs.front();
  } catch (const std::exception& e) {
    return std::string("simulation: ") + e.what();
  }
  return "";
}

}  // namespace sycclbench

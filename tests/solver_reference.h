// Test-only references for the sub-demand solver layer: the original
// std::map-based greedy list scheduler and schedule checker, kept verbatim so
// the flat production versions (solver/greedy.cpp, solver/epoch_model.cpp)
// can be pinned op for op and message for message against them.
#pragma once

#include "solver/epoch_model.h"

namespace syccl::solver::reference {

/// The original solve_greedy: rescans pieces × destinations × holders every
/// pass of every epoch, port usage in a std::map. Validates its output with
/// reference::check_sub_schedule.
SubSchedule solve_greedy(const SubDemand& demand, const EpochParams& params);

/// The original check_sub_schedule: arrivals and per-epoch port usage in
/// std::maps.
void check_sub_schedule(const SubDemand& demand, const SubSchedule& sched);

}  // namespace syccl::solver::reference

// Test-only reference for the merge layer: merge_schedule and its
// estimated-start reorder as they were before the flat rewrite
// (core/merge.cpp) — std::map availability table, indirect
// std::stable_sort — forward merge only, so the production versions can be
// pinned op for op against them.
#pragma once

#include <string>
#include <vector>

#include "core/subdemand.h"
#include "sim/schedule.h"
#include "solver/epoch_model.h"

namespace syccl::core::reference {

/// The original estimated-start reorder: availability in a
/// std::map<(piece, rank), double>, ops ordered by an indirect stable sort
/// on (phase, estimated start).
void reorder_by_estimated_start(sim::Schedule& s, const topo::TopologyGroups& groups);

/// The original merge_schedule (stable sort of full op records, then the
/// reference reorder).
sim::Schedule merge_schedule(const DemandPlan& plan,
                             const std::vector<solver::SubSchedule>& solved,
                             const topo::TopologyGroups& groups, std::string name);

}  // namespace syccl::core::reference

// Incremental re-synthesis after a topology mutation (dynamic-fleet layer).
//
// A link degradation or failure invalidates only the groups whose physical
// paths touch the changed links; every other group keeps its canonical
// signature, so its sub-demand classes still hit the process-wide
// solver::SubScheduleCache (solve_cache.h) warmed by the previous synthesis.
// Re-synthesis therefore costs one sketch pass plus re-solving the few
// affected classes — milliseconds where a cold synthesis burns seconds in
// the solver — while producing output *byte-identical* to a cold synthesis
// on the mutated topology: the pipeline is deterministic and cache hits
// return exactly the schedule a fresh solve would (PR-pinned property).
//
// The modal-β bandwidth share (topo/groups.cpp) is what keeps unaffected
// classes cache-hot: a minority degradation leaves every dimension's u_d —
// and hence the sketch fractions and sub-demand piece sizes — unchanged.
#pragma once

#include "core/synthesizer.h"
#include "topo/mutate.h"

namespace syccl::core {

/// Outcome of one incremental re-synthesis.
struct ResynthesisReport {
  SynthesisResult result;
  /// Groups of the mutated topology with no identical counterpart (same
  /// tier, member ranks and canonical signature) in the base topology —
  /// the groups whose sub-demands had to be re-solved.
  int affected_groups = 0;
  int total_groups = 0;
  /// Sub-demand classes served from the warm solve cache vs re-solved.
  int classes_reused = 0;
  int classes_resolved = 0;
  /// Wall time of the incremental synthesis, seconds.
  double elapsed_s = 0.0;
  /// True when the delta was empty and `previous` was returned unchanged.
  bool reused_previous = false;
};

/// Re-synthesizes `coll` on `mutation.topo`, reusing every sub-demand class
/// the mutation did not touch from the process-wide solve cache (warmed by
/// whatever synthesis produced `previous`). `base` is the pre-mutation
/// topology, used to report which groups changed. If the delta is empty and
/// `previous` is provided, returns it unchanged without re-synthesizing.
///
/// The result is byte-identical to a cold synthesis on `mutation.topo` with
/// the same config.
ResynthesisReport resynthesize(const topo::Topology& base, const topo::MutationResult& mutation,
                               const coll::Collective& coll, const SynthesisConfig& config = {},
                               const SynthesisResult* previous = nullptr);

}  // namespace syccl::core

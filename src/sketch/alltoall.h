// Prototype selection and the combine step of synthesis Phase 1 (paper
// §4.2–4.3). core::Synthesizer runs search_sketches, select_prototypes and
// combine_prototypes in that order; tests and benches that need candidate
// combinations run the same three calls.
//
// An N-GPU all-to-all collective decomposes into N isomorphic rooted
// collectives. SyCCL searches sketches once for the prototype rooted at one
// GPU, balances each across groups (§4.2 step 1), replicates to all N roots,
// then integrates the resulting N-sketch combinations across dimensions
// (§4.2 step 2). A rooted collective skips the replication.
#pragma once

#include <vector>

#include "sketch/combine.h"
#include "sketch/search.h"
#include "sketch/sketch.h"

namespace syccl::util {
class ThreadPool;
}  // namespace syccl::util

namespace syccl::sketch {

struct AllToAllConfig {
  SearchConfig search;
  CombineConfig combine;
  /// Number of searched prototype sketches carried into replication (the
  /// best few by workload diversity; more = bigger candidate pool).
  int max_prototypes = 6;
};

/// Keeps a diverse subset of searched sketches: one per distinct
/// per-dimension workload profile, favouring fewer stages (lower latency).
std::vector<Sketch> select_prototypes(std::vector<Sketch> sketches,
                                      const topo::TopologyGroups& groups, int max_count);

/// Phase 1b, replication and combination (§4.2–4.3): balances each prototype
/// across groups — replicated to every root when `all_roots` (the all-to-all
/// patterns) — and integrates the balanced families across dimensions. A
/// family that cannot be replicated is dropped; when every prototype fails
/// (degraded fabrics), the raw search output `sketches` is walked until one
/// family works. With a `pool`, the prototype families replicate on it
/// (results and failures by prototype index, as in the serial loop; the
/// fallback walk stays serial). Throws std::runtime_error when no family
/// replicates or no combination results.
std::vector<SketchCombination> combine_prototypes(const std::vector<Sketch>& prototypes,
                                                  const std::vector<Sketch>& sketches,
                                                  const topo::TopologyGroups& groups,
                                                  bool all_roots, const CombineConfig& config,
                                                  util::ThreadPool* pool = nullptr);

}  // namespace syccl::sketch

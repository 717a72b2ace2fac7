// Sketch intermediate representation (paper §3.2, Table 3).
//
// A sketch decomposes a rooted (one-to-all) collective into K stages; a stage
// holds communication sub-demands R_{k,d,g} = V^s → V^r inside single
// (dimension, group) pairs. Destinations appear exactly once across the whole
// sketch (tree property, §4.1). For Scatter workload accounting the sketch
// also records the relay tree: parent[v] = the GPU whose sub-demand delivered
// v its data.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "topo/groups.h"

namespace syccl::sketch {

/// R_{k,d,g}: sources V^s send to destinations V^r inside group g of
/// dimension d. Ranks are global GPU ranks.
struct SubDemandSpec {
  int dim = -1;
  int group = -1;
  std::vector<int> srcs;
  std::vector<int> dsts;

  bool operator==(const SubDemandSpec&) const = default;
};

struct Stage {
  std::vector<SubDemandSpec> demands;

  bool operator==(const Stage&) const = default;
};

/// The collective pattern a sketch was searched for. Reduce flows reuse the
/// forward pattern and are reversed at merge time (§4.1: all-to-one
/// collectives are the inverses of one-to-all ones).
enum class RootedPattern { Broadcast, Scatter };

class Sketch {
 public:
  int root = 0;
  RootedPattern pattern = RootedPattern::Broadcast;
  std::vector<Stage> stages;
  /// Relay tree: parent[rank] = predecessor rank, -1 for the root and for
  /// uninvolved ranks.
  std::vector<int> parent;

  int num_stages() const { return static_cast<int>(stages.size()); }

  /// Member-wise equality: equal sketches plan into identical demands.
  bool operator==(const Sketch&) const = default;

  /// Number of descendants of `rank` in the relay tree (f(v) in §4.2).
  int descendants(int rank) const;

  /// Workload w_{d,g} (§4.2): Broadcast — number of destinations served in
  /// (d,g); Scatter — Σ over destinations of (f(v)+1) redundant chunk loads.
  /// Returned as dense [dim][group] matrix shaped like `groups`.
  std::vector<std::vector<double>> workload(const topo::TopologyGroups& groups) const;

  /// Per-dimension totals w_d = Σ_g w_{d,g}.
  std::vector<double> dim_workload(const topo::TopologyGroups& groups) const;

  /// Canonical structural key for isomorphism pruning (#1, §4.1): sketches
  /// with equal keys are related by a topology automorphism and synthesise
  /// into equally fast schedules.
  std::string canonical_key(const topo::TopologyGroups& groups) const;

  /// Structural validation: destinations unique, sources hold data (root or
  /// earlier destination), demands stay inside their group, and a Scatter
  /// relay parent is a source of the sub-demand that delivers its child.
  /// Throws std::invalid_argument with a description.
  void validate(const topo::TopologyGroups& groups) const;

  /// Set of all ranks covered (root + every destination).
  std::vector<int> covered_ranks() const;

  std::string describe() const;
};

/// A sketch plus the fraction of each chunk it transmits (⟨S_i, t_i⟩ pairs,
/// §4.2). Fractions of a combination sum to 1. The sketch is immutable and
/// shared: every combination built from one replicated family points at
/// that family's sketches instead of copying them.
struct WeightedSketch {
  std::shared_ptr<const Sketch> sketch;
  double fraction = 1.0;

  /// Exact: equal fractions and equal sketches, compared by pointer first
  /// and by content only when the pointers differ.
  bool operator==(const WeightedSketch& o) const {
    return fraction == o.fraction &&
           (sketch == o.sketch || (sketch && o.sketch && *sketch == *o.sketch));
  }
};

struct SketchCombination {
  std::vector<WeightedSketch> sketches;

  /// Exact equality, fractions included: the synthesizer evaluates each
  /// distinct combination once.
  bool operator==(const SketchCombination&) const = default;

  double total_fraction() const;
  /// Aggregate workload per dimension, fraction-weighted.
  std::vector<double> dim_workload(const topo::TopologyGroups& groups) const;
  std::string describe() const;
};

}  // namespace syccl::sketch

#include "sketch/replicate.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>
#include <stdexcept>

#include "util/log.h"

namespace syccl::sketch {

namespace {

/// First dimension on which `rank` acts as a source after having received
/// (i.e., in any stage's sub-demand sources), or -1.
std::vector<int> later_send_dims(const Sketch& sketch, int num_ranks) {
  std::vector<int> dims(static_cast<std::size_t>(num_ranks), -1);
  for (const Stage& st : sketch.stages) {
    for (const SubDemandSpec& r : st.demands) {
      for (int s : r.srcs) {
        if (s != sketch.root && dims[static_cast<std::size_t>(s)] < 0) {
          dims[static_cast<std::size_t>(s)] = r.dim;
        }
      }
    }
  }
  return dims;
}

double imbalance(const WorkloadMatrix& w) {
  double total = 0.0;
  for (const auto& dim : w) {
    double lo = 1e300, hi = 0.0, sum = 0.0;
    for (double g : dim) {
      lo = std::min(lo, g);
      hi = std::max(hi, g);
      sum += g;
    }
    if (sum > 0) total += hi - lo;
  }
  return total;
}

}  // namespace

WorkloadState::WorkloadState(const topo::TopologyGroups& g)
    : groups(zero_workload(g)),
      ranks(static_cast<std::size_t>(g.num_dims()),
            std::vector<double>(g.group_of.front().size(), 0.0)) {}

void WorkloadState::add_sketch(const Sketch& sketch, const topo::TopologyGroups& g) {
  add_workload(groups, sketch.workload(g));
  for (const Stage& st : sketch.stages) {
    for (const SubDemandSpec& r : st.demands) {
      for (int v : r.dsts) {
        ranks[static_cast<std::size_t>(r.dim)][static_cast<std::size_t>(v)] += 1.0;
      }
    }
  }
}

WorkloadMatrix zero_workload(const topo::TopologyGroups& groups) {
  WorkloadMatrix w(static_cast<std::size_t>(groups.num_dims()));
  for (int d = 0; d < groups.num_dims(); ++d) {
    w[static_cast<std::size_t>(d)].assign(groups.dims[static_cast<std::size_t>(d)].groups.size(),
                                          0.0);
  }
  return w;
}

void add_workload(WorkloadMatrix& acc, const WorkloadMatrix& w) {
  for (std::size_t d = 0; d < acc.size(); ++d) {
    for (std::size_t g = 0; g < acc[d].size(); ++g) acc[d][g] += w[d][g];
  }
}

std::optional<Sketch> replicate_sketch(const Sketch& sketch, const topo::TopologyGroups& groups,
                                       const WorkloadState& state, int new_root,
                                       bool steer_by_load) {
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  std::vector<int> F(static_cast<std::size_t>(num_ranks), -1);
  std::vector<bool> used(static_cast<std::size_t>(num_ranks), false);
  // Ranks whose image holds the data before the current stage (stage-ordered,
  // like Sketch::validate): the substitute pool for coverage holes.
  std::vector<bool> holds(static_cast<std::size_t>(num_ranks), false);
  F[static_cast<std::size_t>(sketch.root)] = new_root;
  used[static_cast<std::size_t>(new_root)] = true;
  holds[static_cast<std::size_t>(new_root)] = true;

  const std::vector<int> send_dim = later_send_dims(sketch, num_ranks);

  // Local accumulator: the global picture plus this replica's own loads, so
  // in-replica steering does not pile everything onto one group.
  WorkloadMatrix local = state.groups;
  std::vector<std::vector<double>> rank_load = state.ranks;

  Sketch out;
  out.root = new_root;
  out.pattern = sketch.pattern;
  out.parent.assign(static_cast<std::size_t>(num_ranks), -1);

  for (const Stage& st : sketch.stages) {
    Stage mapped_stage;
    for (const SubDemandSpec& r : st.demands) {
      SubDemandSpec m;
      m.dim = r.dim;
      const auto& gd = groups.group_of[static_cast<std::size_t>(r.dim)];
      for (int s : r.srcs) {
        const int fs = F[static_cast<std::size_t>(s)];
        if (fs < 0) return std::nullopt;  // source not yet mapped: malformed sketch
        // A failed link/NIC can leave ranks uncovered by a dimension: such an
        // image holds the data but cannot send on this dimension, so drop it
        // instead of failing the whole replica.
        if (gd[static_cast<std::size_t>(fs)] < 0) continue;
        m.srcs.push_back(fs);
      }
      bool dim_hole = false;
      for (int u = 0; u < num_ranks; ++u) {
        if (gd[static_cast<std::size_t>(u)] < 0) dim_hole = true;
      }
      if (!m.srcs.empty()) {
        m.group = gd[static_cast<std::size_t>(m.srcs.front())];
        for (int fs : m.srcs) {
          if (gd[static_cast<std::size_t>(fs)] != m.group) return std::nullopt;
        }
      }
      // Candidate images: unused members of the mapped group.
      auto avail_of = [&](int g2) {
        std::vector<int> out_avail;
        for (int u : groups.group(r.dim, g2).ranks) {
          if (!used[static_cast<std::size_t>(u)]) out_avail.push_back(u);
        }
        return out_avail;
      };
      std::vector<int> avail;
      if (m.group >= 0) avail = avail_of(m.group);
      if (m.srcs.empty() || avail.size() < r.dsts.size()) {
        // The structural mapping dead-ends: either every mapped source fell
        // into a coverage hole, or the mapped group cannot seat the
        // destinations (a failure can shrink a group to a singleton). Only
        // hole-ridden dimensions may re-source — on intact topologies the
        // historical strict mapping is preserved. Pick the first group with
        // a data-holding, covered source and enough free members; all of its
        // holders become sources, mirroring how the search picks sources.
        if (!dim_hole) return std::nullopt;
        const auto& dim_groups = groups.dims[static_cast<std::size_t>(r.dim)].groups;
        m.group = -1;
        for (std::size_t g2 = 0; g2 < dim_groups.size() && m.group < 0; ++g2) {
          std::vector<int> srcs2;
          for (int u : dim_groups[g2].ranks) {
            if (holds[static_cast<std::size_t>(u)]) srcs2.push_back(u);
          }
          if (srcs2.empty()) continue;
          std::vector<int> avail2 = avail_of(static_cast<int>(g2));
          if (avail2.size() < r.dsts.size()) continue;
          m.group = static_cast<int>(g2);
          m.srcs = std::move(srcs2);
          avail = std::move(avail2);
        }
        if (m.group < 0) return std::nullopt;
      }

      // Map relaying destinations first: their image choice decides which
      // group carries the next stage's load.
      std::vector<int> order(r.dsts);
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        const bool ra = send_dim[static_cast<std::size_t>(a)] >= 0;
        const bool rb = send_dim[static_cast<std::size_t>(b)] >= 0;
        return ra > rb;
      });

      for (int v : order) {
        int chosen = -1;
        const int d2 = send_dim[static_cast<std::size_t>(v)];
        double best_group = 1e300;
        double best_rank = 1e300;
        for (int u : steer_by_load ? std::span<const int>(avail) : std::span<const int>()) {
          double group_load = 0.0;
          if (d2 >= 0) {
            const int g2 =
                groups.group_of[static_cast<std::size_t>(d2)][static_cast<std::size_t>(u)];
            group_load = g2 >= 0 ? local[static_cast<std::size_t>(d2)][static_cast<std::size_t>(g2)]
                                 : 1e300;
          }
          // Reception on this dimension's port: this is what spreads the
          // crossings of successive replicas across the group's NICs.
          const double rl = rank_load[static_cast<std::size_t>(r.dim)][static_cast<std::size_t>(u)];
          if (group_load < best_group - 1e-12 ||
              (group_load < best_group + 1e-12 && rl < best_rank - 1e-12)) {
            best_group = group_load;
            best_rank = rl;
            chosen = u;
          }
        }
        if (chosen < 0) chosen = avail.front();
        avail.erase(std::find(avail.begin(), avail.end(), chosen));
        used[static_cast<std::size_t>(chosen)] = true;
        rank_load[static_cast<std::size_t>(r.dim)][static_cast<std::size_t>(chosen)] += 1.0;
        F[static_cast<std::size_t>(v)] = chosen;
      }
      // Map destinations preserving per-destination order of the original.
      for (int v : r.dsts) m.dsts.push_back(F[static_cast<std::size_t>(v)]);

      // Account this sub-demand's load at its mapped group.
      double load = 0.0;
      for (int v : r.dsts) {
        load += sketch.pattern == RootedPattern::Scatter ? 1.0 + sketch.descendants(v) : 1.0;
      }
      local[static_cast<std::size_t>(m.dim)][static_cast<std::size_t>(m.group)] += load;

      mapped_stage.demands.push_back(std::move(m));
    }
    for (const SubDemandSpec& m : mapped_stage.demands) {
      for (int v : m.dsts) holds[static_cast<std::size_t>(v)] = true;
    }
    out.stages.push_back(std::move(mapped_stage));
  }

  // Map the relay tree.
  for (int v = 0; v < num_ranks; ++v) {
    const int p = sketch.parent.empty() ? -1 : sketch.parent[static_cast<std::size_t>(v)];
    if (p >= 0 && F[static_cast<std::size_t>(v)] >= 0) {
      out.parent[static_cast<std::size_t>(F[static_cast<std::size_t>(v)])] =
          F[static_cast<std::size_t>(p)];
    }
  }

  try {
    out.validate(groups);
  } catch (const std::invalid_argument&) {
    return std::nullopt;  // hole substitution cornered itself on this root
  }
  return out;
}

SketchCombination balance_across_groups(const Sketch& sketch, const topo::TopologyGroups& groups,
                                        int max_replicas) {
  SketchCombination combo;
  combo.sketches.push_back(WeightedSketch{std::make_shared<const Sketch>(sketch), 1.0});
  WorkloadState acc(groups);
  acc.add_sketch(sketch, groups);

  double current = imbalance(acc.groups);
  while (static_cast<int>(combo.sketches.size()) < max_replicas && current > 1e-9) {
    auto rep = replicate_sketch(sketch, groups, acc, sketch.root);
    if (!rep.has_value()) rep = replicate_sketch(sketch, groups, acc, sketch.root, false);
    if (!rep.has_value()) break;
    WorkloadMatrix g2 = acc.groups;
    add_workload(g2, rep->workload(groups));
    const double next = imbalance(g2);
    // Accept only strict improvement of the balance metric; a one-to-all
    // sketch whose root pins a dimension's load can never balance fully.
    if (next >= current - 1e-9) break;
    acc.add_sketch(*rep, groups);
    combo.sketches.push_back(WeightedSketch{std::make_shared<const Sketch>(std::move(*rep)), 1.0});
    current = next;
  }
  const double frac = 1.0 / static_cast<double>(combo.sketches.size());
  for (auto& ws : combo.sketches) ws.fraction = frac;
  return combo;
}

namespace {

/// The hierarchical coordinates rotate_sketch rotates, built once per
/// topology: digit 0 is the position inside the dim-0 group; every higher
/// dimension that *nests* the previous level (Clos pods contain whole
/// servers) adds a digit. Dimensions that cross servers (rails) are implied
/// by digit 0 and add nothing. Rotating each digit independently is an
/// automorphism of the whole tier structure.
class RotationFrame {
 public:
  explicit RotationFrame(const topo::TopologyGroups& groups);

  /// False for irregular topologies (unequal server sizes or fanouts):
  /// no rotation exists.
  bool valid() const { return valid_; }

  /// The image of `rank` under the rotation taking `root` to `new_root`.
  /// Throws std::out_of_range when the rotated coordinates name no rank.
  int image(int rank, int root, int new_root) const;

 private:
  bool valid_ = false;
  int num_digits_ = 0;
  std::vector<int> sizes_;    ///< radix of every digit
  std::vector<int> digits_;   ///< rank * num_digits_ + digit
  std::vector<int> rank_of_;  ///< mixed-radix code -> highest rank with it, or -1
};

RotationFrame::RotationFrame(const topo::TopologyGroups& groups) {
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  const auto& servers = groups.dims.front().groups;
  const int per_server = servers.front().size();
  for (const auto& sv : servers) {
    if (sv.size() != per_server) return;  // irregular topology
  }

  struct Level {
    int dim;
    int fanout;  // children per unit at this level
  };

  // Detect nested dimensions and their fanouts by replaying the hierarchy:
  // `cur[r]` is rank r's unit id at the current level (starts at its dim-0
  // group). A dimension d nests when every unit lies inside one dim-d group.
  std::vector<Level> levels;
  {
    std::vector<int> cur(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      cur[static_cast<std::size_t>(r)] = groups.group_of[0][static_cast<std::size_t>(r)];
    }
    int num_units = static_cast<int>(servers.size());
    for (int d = 1; d < groups.num_dims(); ++d) {
      const auto& gd = groups.group_of[static_cast<std::size_t>(d)];
      std::vector<int> unit_group(static_cast<std::size_t>(num_units), -2);
      bool nested = true;
      for (int r = 0; r < num_ranks && nested; ++r) {
        int& ug = unit_group[static_cast<std::size_t>(cur[static_cast<std::size_t>(r)])];
        const int g = gd[static_cast<std::size_t>(r)];
        if (ug == -2) {
          ug = g;
        } else if (ug != g) {
          nested = false;
        }
      }
      if (!nested) continue;
      std::map<int, std::vector<int>> members;  // dim-d group -> unit ids
      for (int u = 0; u < num_units; ++u) {
        members[unit_group[static_cast<std::size_t>(u)]].push_back(u);
      }
      const int fanout = static_cast<int>(members.begin()->second.size());
      for (const auto& [g, us] : members) {
        (void)g;
        if (static_cast<int>(us.size()) != fanout) return;
      }
      // Renumber units to dim-d groups.
      std::map<int, int> group_id;
      for (const auto& [g, us] : members) {
        (void)us;
        group_id.emplace(g, static_cast<int>(group_id.size()));
      }
      for (int r = 0; r < num_ranks; ++r) {
        cur[static_cast<std::size_t>(r)] = group_id.at(gd[static_cast<std::size_t>(r)]);
      }
      num_units = static_cast<int>(group_id.size());
      if (fanout > 1) levels.push_back(Level{d, fanout});
    }
  }

  // Full digit vectors per rank.
  num_digits_ = 1 + static_cast<int>(levels.size());
  digits_.assign(static_cast<std::size_t>(num_ranks) * static_cast<std::size_t>(num_digits_), 0);
  const auto digit = [&](int r, std::size_t i) -> int& {
    return digits_[static_cast<std::size_t>(r) * static_cast<std::size_t>(num_digits_) + i];
  };
  {
    std::vector<int> cur(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      const int s0 = groups.group_of[0][static_cast<std::size_t>(r)];
      digit(r, 0) = servers[static_cast<std::size_t>(s0)].local_of(r);
      cur[static_cast<std::size_t>(r)] = s0;
    }
    // Level digits rank-wise by replaying the nesting: a unit's digit is its
    // order of first appearance inside its dim-d group.
    for (std::size_t li = 0; li < levels.size(); ++li) {
      const auto& gd = groups.group_of[static_cast<std::size_t>(levels[li].dim)];
      std::map<int, std::map<int, int>> digit_of;  // dim-d group -> unit -> digit
      for (int r = 0; r < num_ranks; ++r) {
        auto& m = digit_of[gd[static_cast<std::size_t>(r)]];
        m.emplace(cur[static_cast<std::size_t>(r)], static_cast<int>(m.size()));
      }
      std::map<int, int> group_id;
      for (const auto& [g, m] : digit_of) {
        (void)m;
        group_id.emplace(g, static_cast<int>(group_id.size()));
      }
      for (int r = 0; r < num_ranks; ++r) {
        const int g = gd[static_cast<std::size_t>(r)];
        digit(r, li + 1) = digit_of[g][cur[static_cast<std::size_t>(r)]];
        cur[static_cast<std::size_t>(r)] = group_id[g];
      }
    }
  }
  sizes_.push_back(per_server);
  for (const auto& l : levels) sizes_.push_back(l.fanout);

  // Coordinates -> rank as a dense mixed-radix table. Ranks sharing
  // coordinates (units above the top nested level) resolve to the highest
  // such rank.
  std::size_t codes = 1;
  for (int size : sizes_) codes *= static_cast<std::size_t>(size);
  rank_of_.assign(codes, -1);
  for (int r = 0; r < num_ranks; ++r) {
    std::size_t code = 0;
    for (int i = 0; i < num_digits_; ++i) {
      code = code * static_cast<std::size_t>(sizes_[static_cast<std::size_t>(i)]) +
             static_cast<std::size_t>(digit(r, static_cast<std::size_t>(i)));
    }
    rank_of_[code] = r;
  }
  valid_ = true;
}

int RotationFrame::image(int rank, int root, int new_root) const {
  const int* c = &digits_[static_cast<std::size_t>(rank) * static_cast<std::size_t>(num_digits_)];
  const int* c0 = &digits_[static_cast<std::size_t>(root) * static_cast<std::size_t>(num_digits_)];
  const int* c1 =
      &digits_[static_cast<std::size_t>(new_root) * static_cast<std::size_t>(num_digits_)];
  std::size_t code = 0;
  for (int i = 0; i < num_digits_; ++i) {
    const int size = sizes_[static_cast<std::size_t>(i)];
    const int delta = ((c1[i] - c0[i]) % size + size) % size;
    code = code * static_cast<std::size_t>(size) + static_cast<std::size_t>((c[i] + delta) % size);
  }
  const int out = rank_of_[code];
  if (out < 0) throw std::out_of_range("rotated coordinates name no rank");
  return out;
}

/// rotate_sketch over a prebuilt frame.
std::optional<Sketch> rotate_in_frame(const RotationFrame& frame, const Sketch& sketch,
                                      const topo::TopologyGroups& groups, int new_root) {
  if (!frame.valid()) return std::nullopt;
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  const auto F = [&](int rank) { return frame.image(rank, sketch.root, new_root); };

  Sketch out;
  out.root = new_root;
  out.pattern = sketch.pattern;
  out.parent.assign(static_cast<std::size_t>(num_ranks), -1);
  for (const Stage& st : sketch.stages) {
    Stage mapped;
    for (const SubDemandSpec& r : st.demands) {
      SubDemandSpec m;
      m.dim = r.dim;
      for (int x : r.srcs) m.srcs.push_back(F(x));
      for (int x : r.dsts) m.dsts.push_back(F(x));
      const auto& gd = groups.group_of[static_cast<std::size_t>(r.dim)];
      m.group = gd[static_cast<std::size_t>(m.srcs.front())];
      if (m.group < 0) return std::nullopt;  // rotated onto an uncovered rank
      for (int x : m.srcs) {
        if (gd[static_cast<std::size_t>(x)] != m.group) return std::nullopt;
      }
      for (int x : m.dsts) {
        if (gd[static_cast<std::size_t>(x)] != m.group) return std::nullopt;
      }
      mapped.demands.push_back(std::move(m));
    }
    out.stages.push_back(std::move(mapped));
  }
  for (int v = 0; v < num_ranks; ++v) {
    const int p = sketch.parent.empty() ? -1 : sketch.parent[static_cast<std::size_t>(v)];
    if (p >= 0) out.parent[static_cast<std::size_t>(F(v))] = F(p);
  }
  try {
    out.validate(groups);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return out;
}

}  // namespace

std::optional<Sketch> rotate_sketch(const Sketch& sketch, const topo::TopologyGroups& groups,
                                    int new_root) {
  return rotate_in_frame(RotationFrame(groups), sketch, groups, new_root);
}

SketchCombination replicate_for_all_roots(const SketchCombination& proto,
                                          const topo::TopologyGroups& groups) {
  if (proto.sketches.empty()) throw std::invalid_argument("empty prototype combination");
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  const int r0 = proto.sketches.front().sketch->root;

  SketchCombination out = proto;
  WorkloadState acc(groups);
  for (const auto& ws : proto.sketches) acc.add_sketch(*ws.sketch, groups);
  const RotationFrame frame(groups);

  for (int r = 0; r < num_ranks; ++r) {
    if (r == r0) continue;
    for (const auto& ws : proto.sketches) {
      // The exact automorphism first (uniform by construction); load-steered
      // replication handles irregular topologies; canonical mapping is the
      // last resort.
      auto rep = rotate_in_frame(frame, *ws.sketch, groups, r);
      if (!rep.has_value()) rep = replicate_sketch(*ws.sketch, groups, acc, r);
      if (!rep.has_value()) rep = replicate_sketch(*ws.sketch, groups, acc, r, false);
      if (!rep.has_value()) {
        throw std::runtime_error("all-to-all replication failed for a root");
      }
      acc.add_sketch(*rep, groups);
      out.sketches.push_back(
          WeightedSketch{std::make_shared<const Sketch>(std::move(*rep)), ws.fraction});
    }
  }
  return out;
}

}  // namespace syccl::sketch

#include "sketch/sketch.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace syccl::sketch {

int Sketch::descendants(int rank) const {
  int count = 0;
  for (std::size_t v = 0; v < parent.size(); ++v) {
    // Walk up from v; if the path passes through `rank`, v is a descendant.
    int cur = parent[v];
    while (cur >= 0) {
      if (cur == rank) {
        ++count;
        break;
      }
      cur = parent[static_cast<std::size_t>(cur)];
    }
  }
  return count;
}

std::vector<std::vector<double>> Sketch::workload(const topo::TopologyGroups& groups) const {
  std::vector<std::vector<double>> w(static_cast<std::size_t>(groups.num_dims()));
  for (int d = 0; d < groups.num_dims(); ++d) {
    w[static_cast<std::size_t>(d)].assign(groups.dims[static_cast<std::size_t>(d)].groups.size(),
                                          0.0);
  }
  for (const Stage& st : stages) {
    for (const SubDemandSpec& r : st.demands) {
      double load = 0.0;
      for (int v : r.dsts) {
        load += pattern == RootedPattern::Scatter ? 1.0 + descendants(v) : 1.0;
      }
      w[static_cast<std::size_t>(r.dim)][static_cast<std::size_t>(r.group)] += load;
    }
  }
  return w;
}

std::vector<double> Sketch::dim_workload(const topo::TopologyGroups& groups) const {
  const auto w = workload(groups);
  std::vector<double> out(w.size(), 0.0);
  for (std::size_t d = 0; d < w.size(); ++d) {
    for (double g : w[d]) out[d] += g;
  }
  return out;
}

std::string Sketch::canonical_key(const topo::TopologyGroups& groups) const {
  // Encode each stage as the sorted multiset of
  // (dim, group-isomorphism-size, |srcs|, |dsts|, per-dst subtree sizes).
  // GPU identities and group indices are erased, so sketches related by a
  // topology automorphism collapse to the same key.
  std::ostringstream os;
  os << (pattern == RootedPattern::Scatter ? "S" : "B") << "|";
  for (const Stage& st : stages) {
    std::vector<std::string> parts;
    for (const SubDemandSpec& r : st.demands) {
      std::ostringstream ps;
      ps << r.dim << ":" << groups.group(r.dim, r.group).size() << ":" << r.srcs.size() << ":"
         << r.dsts.size();
      if (pattern == RootedPattern::Scatter) {
        std::multiset<int> subtrees;
        for (int v : r.dsts) subtrees.insert(descendants(v));
        ps << ":[";
        for (int s : subtrees) ps << s << ",";
        ps << "]";
      }
      parts.push_back(ps.str());
    }
    std::sort(parts.begin(), parts.end());
    for (const auto& p : parts) os << p << ";";
    os << "/";
  }
  return os.str();
}

void Sketch::validate(const topo::TopologyGroups& groups) const {
  const int num_ranks =
      groups.group_of.empty() ? 0 : static_cast<int>(groups.group_of.front().size());
  // Per-rank flags rather than sets: replicate_for_all_roots validates every
  // replica, 511 per prototype sketch on the 512-GPU point.
  std::vector<char> holds(static_cast<std::size_t>(num_ranks), 0);
  std::vector<char> received(static_cast<std::size_t>(num_ranks), 0);
  // Scatter routes each destination's chunk along its relay edge, so the
  // parent must be a source of the sub-demand that delivers the child.
  const bool check_relays =
      pattern == RootedPattern::Scatter && static_cast<int>(parent.size()) == num_ranks;
  std::vector<char> is_src(check_relays ? static_cast<std::size_t>(num_ranks) : 0, 0);
  if (root >= 0 && root < num_ranks) holds[static_cast<std::size_t>(root)] = 1;
  std::vector<int> stage_dsts;
  for (const Stage& st : stages) {
    stage_dsts.clear();
    for (const SubDemandSpec& r : st.demands) {
      if (r.dim < 0 || r.dim >= groups.num_dims()) throw std::invalid_argument("bad dimension");
      const auto& gd = groups.group_of[static_cast<std::size_t>(r.dim)];
      if (r.srcs.empty() || r.dsts.empty()) {
        throw std::invalid_argument("sub-demand with empty sources or destinations");
      }
      for (int s : r.srcs) {
        if (s < 0 || s >= num_ranks) throw std::invalid_argument("src rank out of range");
        if (gd[static_cast<std::size_t>(s)] != r.group) {
          throw std::invalid_argument("src outside its group");
        }
        if (!holds[static_cast<std::size_t>(s)]) {
          throw std::invalid_argument("source does not hold the chunk yet");
        }
        if (check_relays) is_src[static_cast<std::size_t>(s)] = 1;
      }
      for (int v : r.dsts) {
        if (v < 0 || v >= num_ranks) throw std::invalid_argument("dst rank out of range");
        if (gd[static_cast<std::size_t>(v)] != r.group) {
          throw std::invalid_argument("dst outside its group");
        }
        if (v == root || received[static_cast<std::size_t>(v)]) {
          throw std::invalid_argument("rank is a destination more than once");
        }
        if (check_relays) {
          const int p = parent[static_cast<std::size_t>(v)];
          if (p >= num_ranks || (p >= 0 && !is_src[static_cast<std::size_t>(p)])) {
            throw std::invalid_argument("relay parent is not a source of its sub-demand");
          }
        }
        received[static_cast<std::size_t>(v)] = 1;
        stage_dsts.push_back(v);
      }
      if (check_relays) {
        for (int s : r.srcs) is_src[static_cast<std::size_t>(s)] = 0;
      }
    }
    for (int v : stage_dsts) holds[static_cast<std::size_t>(v)] = 1;
  }
  // Relay tree consistency.
  if (!parent.empty()) {
    if (static_cast<int>(parent.size()) != num_ranks) {
      throw std::invalid_argument("parent vector size mismatch");
    }
    if (parent[static_cast<std::size_t>(root)] != -1) {
      throw std::invalid_argument("root must not have a parent");
    }
    for (int v = 0; v < num_ranks; ++v) {
      if (received[static_cast<std::size_t>(v)] && parent[static_cast<std::size_t>(v)] < 0) {
        throw std::invalid_argument("destination without a parent in the relay tree");
      }
    }
  }
}

std::vector<int> Sketch::covered_ranks() const {
  std::set<int> out{root};
  for (const Stage& st : stages) {
    for (const SubDemandSpec& r : st.demands) out.insert(r.dsts.begin(), r.dsts.end());
  }
  return {out.begin(), out.end()};
}

std::string Sketch::describe() const {
  std::ostringstream os;
  os << (pattern == RootedPattern::Scatter ? "Scatter" : "Broadcast") << " sketch root=" << root;
  for (std::size_t k = 0; k < stages.size(); ++k) {
    os << " | stage " << k << ":";
    for (const auto& r : stages[k].demands) {
      os << " D" << r.dim << ".G" << r.group << "{" << r.srcs.size() << "->" << r.dsts.size()
         << "}";
    }
  }
  return os.str();
}

double SketchCombination::total_fraction() const {
  double sum = 0.0;
  for (const auto& ws : sketches) sum += ws.fraction;
  return sum;
}

std::vector<double> SketchCombination::dim_workload(const topo::TopologyGroups& groups) const {
  std::vector<double> out(static_cast<std::size_t>(groups.num_dims()), 0.0);
  for (const auto& ws : sketches) {
    const auto w = ws.sketch->dim_workload(groups);
    for (std::size_t d = 0; d < w.size(); ++d) out[d] += ws.fraction * w[d];
  }
  return out;
}

std::string SketchCombination::describe() const {
  // Summarise fractions as distinct value × count pairs (combinations can
  // hold hundreds of replicas sharing a handful of fractions).
  std::map<long long, int> counts;
  for (const auto& ws : sketches) counts[std::llround(ws.fraction * 1e6)]++;
  std::ostringstream os;
  os << sketches.size() << "-sketch combination (fractions:";
  for (const auto& [f, c] : counts) {
    os << " " << static_cast<double>(f) / 1e6 << "x" << c;
  }
  os << ")";
  return os.str();
}

}  // namespace syccl::sketch

#include "serve/canonical.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "solver/solve_cache.h"

namespace syccl::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Picoseconds for α, 1e-21 s/byte for β, rounded to nearest — fine enough
/// that distinct link classes never collide, coarse enough that a 1-ulp
/// serialisation wobble never splits. The group signatures (topo/groups.cpp)
/// use the same units but truncate, so a value can land one unit apart in
/// the two; serve keys are only ever compared with serve keys.
long long quant_alpha(double a) { return std::llround(a * 1e12); }
long long quant_beta(double b) { return std::llround(b * 1e21); }

/// Hop ladder of one member, up and down: the signature covers the
/// aggregated ports; the ladder pins the per-hop structure the simulator's
/// contention model sees, so topologies that aggregate identically but route
/// differently hash apart.
std::string hop_rendering(const topo::GroupTopology& g, int local) {
  std::ostringstream os;
  const auto render = [&os](const std::vector<topo::PathHop>& hops) {
    os << "[";
    for (const auto& h : hops) os << quant_alpha(h.alpha) << "/" << quant_beta(h.beta) << ",";
    os << "]";
  };
  os << "u";
  render(g.up_hops[static_cast<std::size_t>(local)]);
  os << "d";
  render(g.down_hops[static_cast<std::size_t>(local)]);
  return os.str();
}

/// Assigns dense ids to strings by sorted order; returns ids per input.
std::vector<int> compress(const std::vector<std::string>& strings) {
  std::map<std::string, int> rank;
  for (const auto& s : strings) rank.emplace(s, 0);
  int next = 0;
  for (auto& [s, r] : rank) r = next++;
  std::vector<int> out(strings.size());
  for (std::size_t i = 0; i < strings.size(); ++i) out[i] = rank.at(strings[i]);
  return out;
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  std::uint64_t h = seed == 0 ? kFnvOffset : seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::string fnv1a_hex(const std::string& text) {
  std::ostringstream os;
  os << std::hex << fnv1a(text.data(), text.size());
  return os.str();
}

CanonicalTopology canonicalize(const topo::TopologyGroups& groups) {
  CanonicalTopology out;
  if (groups.group_of.empty()) throw std::invalid_argument("canonicalize: no dimensions");
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  out.num_ranks = num_ranks;

  // Label-invariant member descriptors, built from the raw star abstraction.
  // GroupTopology::canonical_form() is deliberately NOT used here: its member
  // order (and therefore the port-sharing block ids inside its signature)
  // breaks ties between structurally identical members by local index — the
  // caller labelling this function must be invariant to. Instead each member
  // contributes its quantised port α/β, its physical hop ladder, and the
  // sizes of its up/down port-sharing blocks; which members share a port is
  // propagated through refinement via port-mate colour multisets.
  const int num_dims = groups.num_dims();
  std::vector<std::vector<std::string>> member_desc(static_cast<std::size_t>(num_dims));
  std::vector<std::vector<std::string>> ladder(static_cast<std::size_t>(num_dims));
  // Per dim, per rank: the co-members (global ranks) sharing this member's
  // physical up/down serialisation port.
  std::vector<std::vector<std::vector<int>>> up_mates(static_cast<std::size_t>(num_dims));
  std::vector<std::vector<std::vector<int>>> down_mates(static_cast<std::size_t>(num_dims));
  for (int d = 0; d < num_dims; ++d) {
    member_desc[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(num_ranks));
    ladder[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(num_ranks));
    up_mates[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(num_ranks));
    down_mates[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(num_ranks));
    for (const auto& g : groups.dims[static_cast<std::size_t>(d)].groups) {
      for (int i = 0; i < g.size(); ++i) {
        const int r = g.ranks[static_cast<std::size_t>(i)];
        for (int j = 0; j < g.size(); ++j) {
          if (j == i) continue;
          const int mate = g.ranks[static_cast<std::size_t>(j)];
          if (g.up[static_cast<std::size_t>(i)].port_id >= 0 &&
              g.up[static_cast<std::size_t>(j)].port_id == g.up[static_cast<std::size_t>(i)].port_id) {
            up_mates[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)].push_back(mate);
          }
          if (g.down[static_cast<std::size_t>(i)].port_id >= 0 &&
              g.down[static_cast<std::size_t>(j)].port_id == g.down[static_cast<std::size_t>(i)].port_id) {
            down_mates[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)].push_back(mate);
          }
        }
        ladder[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)] = hop_rendering(g, i);
        std::ostringstream ds;
        ds << "n" << g.size() << ";u" << quant_alpha(g.up[static_cast<std::size_t>(i)].alpha)
           << "/" << quant_beta(g.up[static_cast<std::size_t>(i)].beta) << "+"
           << up_mates[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)].size() << ";d"
           << quant_alpha(g.down[static_cast<std::size_t>(i)].alpha) << "/"
           << quant_beta(g.down[static_cast<std::size_t>(i)].beta) << "+"
           << down_mates[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)].size() << ";L"
           << ladder[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)];
        member_desc[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)] = ds.str();
      }
    }
  }

  // Colour refinement over ranks. A rank's colour starts from its per-dim
  // (group signature, canonical position); each round then separates groups
  // of equal signature by their member-colour multisets, which in turn
  // separates their members. Group order ids restart from the signatures
  // every round, so the fixed point does not depend on the iteration count.
  std::vector<int> color(static_cast<std::size_t>(num_ranks), 0);
  std::vector<int> pinned(static_cast<std::size_t>(num_ranks), -1);
  std::vector<std::vector<int>> group_order(static_cast<std::size_t>(num_dims));
  const auto rank_strings = [&](bool with_colors) {
    std::vector<std::string> strings(static_cast<std::size_t>(num_ranks));
    for (int r = 0; r < num_ranks; ++r) {
      std::ostringstream os;
      if (pinned[static_cast<std::size_t>(r)] >= 0) {
        os << "p" << pinned[static_cast<std::size_t>(r)] << ";";
      }
      if (with_colors) os << "c" << color[static_cast<std::size_t>(r)] << ";";
      for (int d = 0; d < num_dims; ++d) {
        const int gi = groups.group_of[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)];
        if (gi < 0) {
          os << "d" << d << ":-;";
          continue;
        }
        os << "d" << d << ":";
        if (with_colors && !group_order[static_cast<std::size_t>(d)].empty()) {
          os << "g" << group_order[static_cast<std::size_t>(d)][static_cast<std::size_t>(gi)];
        } else {
          os << "m" << member_desc[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)];
        }
        if (with_colors) {
          // Port-sharing incidence: the sorted colours of the members this
          // rank serialises with, per direction. This is what lets refinement
          // see *which* co-members share a rail, not just how many.
          const auto mate_colors = [&](const std::vector<int>& mates) {
            std::vector<int> cs;
            cs.reserve(mates.size());
            for (int m : mates) cs.push_back(color[static_cast<std::size_t>(m)]);
            std::sort(cs.begin(), cs.end());
            os << "[";
            for (int c : cs) os << c << ",";
            os << "]";
          };
          os << "U";
          mate_colors(up_mates[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)]);
          os << "D";
          mate_colors(down_mates[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)]);
        }
        os << ";";
      }
      strings[static_cast<std::size_t>(r)] = os.str();
    }
    return strings;
  };

  const auto refine_to_fixpoint = [&]() {
    int num_colors = *std::max_element(color.begin(), color.end()) + 1;
    for (int round = 0; round <= num_ranks; ++round) {
      // Order groups within each dimension by their sorted member-colour
      // multiset (colours already encode every member's structural
      // descriptor): isomorphic groups containing differently-coloured
      // members pull apart, deterministically across relabellings.
      for (int d = 0; d < num_dims; ++d) {
        const auto& dim = groups.dims[static_cast<std::size_t>(d)];
        std::vector<std::string> keys(dim.groups.size());
        for (std::size_t gi = 0; gi < dim.groups.size(); ++gi) {
          std::vector<int> member_colors;
          for (int r : dim.groups[gi].ranks) {
            member_colors.push_back(color[static_cast<std::size_t>(r)]);
          }
          std::sort(member_colors.begin(), member_colors.end());
          std::ostringstream os;
          for (int c : member_colors) os << c << ",";
          keys[gi] = os.str();
        }
        group_order[static_cast<std::size_t>(d)] = compress(keys);
      }
      color = compress(rank_strings(true));
      const int refined = *std::max_element(color.begin(), color.end()) + 1;
      if (refined == num_colors) break;
      num_colors = refined;
    }
    return num_colors;
  };

  color = compress(rank_strings(false));
  int num_colors = refine_to_fixpoint();

  // Individualisation–refinement: while some colour class is still tied,
  // refinement alone cannot see past the symmetry, so pin one representative
  // of the first tied class (give it a fresh colour) and re-refine. Each pin
  // strictly splits its class, so this terminates within num_ranks rounds and
  // ends with every rank in a singleton class — a true canonical permutation.
  //
  // The representative is the lowest-indexed member. For the symmetric
  // topologies the builders produce, a refinement-stable class is an
  // automorphism orbit, so every choice of representative leads to the same
  // rendering and the hash is relabelling-invariant. On adversarial regular
  // graphs where a stable class is not an orbit, two isomorphic topologies
  // may hash apart — a conservative cache miss, never a false share: equal
  // renderings always exhibit a concrete isomorphism.
  int pin_counter = 0;
  while (num_colors < num_ranks) {
    int target_color = -1;
    int representative = -1;
    std::vector<int> class_size(static_cast<std::size_t>(num_colors), 0);
    for (int r = 0; r < num_ranks; ++r) ++class_size[static_cast<std::size_t>(color[static_cast<std::size_t>(r)])];
    for (int c = 0; c < num_colors && target_color < 0; ++c) {
      if (class_size[static_cast<std::size_t>(c)] > 1) target_color = c;
    }
    for (int r = 0; r < num_ranks; ++r) {
      if (color[static_cast<std::size_t>(r)] == target_color) {
        representative = r;
        break;
      }
    }
    pinned[static_cast<std::size_t>(representative)] = pin_counter++;
    color = compress(rank_strings(true));
    const int split = refine_to_fixpoint();
    if (split <= num_colors) {
      throw std::logic_error("canonicalize: individualisation failed to split a class");
    }
    num_colors = split;
  }

  // Canonical rank order = final colour (all classes are singletons now).
  std::vector<int> ord(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) ord[static_cast<std::size_t>(r)] = r;
  std::sort(ord.begin(), ord.end(), [&](int a, int b) {
    return color[static_cast<std::size_t>(a)] < color[static_cast<std::size_t>(b)];
  });
  out.perm.assign(static_cast<std::size_t>(num_ranks), -1);
  for (int k = 0; k < num_ranks; ++k) out.perm[static_cast<std::size_t>(ord[static_cast<std::size_t>(k)])] = k;

  // Render the decomposition under the canonical permutation. Groups are
  // listed by their smallest canonical member (groups partition the ranks of
  // a dimension, so that is a total order); members in canonical-position
  // order as canonical ranks plus their physical hop ladders.
  std::ostringstream os;
  os << "syccl-canon/v" << kServeVersion << ";ranks=" << num_ranks << ";dims=" << num_dims
     << ";\n";
  for (int d = 0; d < num_dims; ++d) {
    const auto& dim = groups.dims[static_cast<std::size_t>(d)];
    os << "dim" << d << "{tier=" << dim.tier << ";cap=" << dim.capacity_dim
       << ";share=" << std::llround(dim.bandwidth_share * 1e6) << ";\n";
    std::vector<std::pair<int, std::size_t>> order;  // (min canonical member, group index)
    for (std::size_t gi = 0; gi < dim.groups.size(); ++gi) {
      int lo = num_ranks;
      for (int r : dim.groups[gi].ranks) {
        lo = std::min(lo, out.perm[static_cast<std::size_t>(r)]);
      }
      order.emplace_back(lo, gi);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [lo, gi] : order) {
      const auto& g = dim.groups[gi];
      os << " group{n=" << g.size() << ";members=";
      // Members in canonical-rank order. Physical port ids are renumbered by
      // first appearance along that order, so the port-sharing blocks (which
      // members serialise together) render identically for any relabelling
      // that reaches the same canonical order.
      std::vector<int> members(g.ranks);
      std::sort(members.begin(), members.end(), [&](int a, int b) {
        return out.perm[static_cast<std::size_t>(a)] < out.perm[static_cast<std::size_t>(b)];
      });
      std::map<int, int> up_port_id;
      std::map<int, int> down_port_id;
      const auto canon_port = [](std::map<int, int>& ids, int raw) {
        if (raw < 0) return -1;
        return ids.emplace(raw, static_cast<int>(ids.size())).first->second;
      };
      for (int r : members) {
        const int i = g.local_of(r);
        os << out.perm[static_cast<std::size_t>(r)] << ":u"
           << quant_alpha(g.up[static_cast<std::size_t>(i)].alpha) << "/"
           << quant_beta(g.up[static_cast<std::size_t>(i)].beta) << "@p"
           << canon_port(up_port_id, g.up[static_cast<std::size_t>(i)].port_id) << ";d"
           << quant_alpha(g.down[static_cast<std::size_t>(i)].alpha) << "/"
           << quant_beta(g.down[static_cast<std::size_t>(i)].beta) << "@p"
           << canon_port(down_port_id, g.down[static_cast<std::size_t>(i)].port_id) << ";L"
           << ladder[static_cast<std::size_t>(d)][static_cast<std::size_t>(r)] << ",";
      }
      os << "}\n";
    }
    os << "}\n";
  }
  out.rendering = os.str();
  out.hash = fnv1a_hex(out.rendering);
  return out;
}

std::uint64_t size_bucket(std::uint64_t bytes) {
  std::uint64_t bucket = 1024;
  while (bucket < bytes) bucket <<= 1;
  return bucket;
}

std::string options_fingerprint(const core::SynthesisConfig& config) {
  // Every field that can change the winning schedule; the epoch knobs are
  // in the solver fingerprints. num_threads is excluded on purpose: results
  // are byte-identical across thread counts (pinned by
  // SolveCache.ParallelEvaluationMatchesSingleThread and the golden digests).
  std::ostringstream os;
  os << std::hexfloat << "R1=" << config.R1 << ";R2=" << config.R2
     << ";ts=" << static_cast<int>(config.two_step)
     << ";coarse={" << solver::SubScheduleCache::options_fingerprint(config.coarse_solver)
     << "};fine={" << solver::SubScheduleCache::options_fingerprint(config.fine_solver)
     << "};sk={st=" << config.sketch.search.max_stages << ";h=" << config.sketch.search.max_hops
     << ";pi=" << static_cast<int>(config.sketch.search.prune_isomorphic)
     << ";pc=" << static_cast<int>(config.sketch.search.prune_consistency)
     << ";ex=" << static_cast<int>(config.sketch.search.exhaustive_counts)
     << ";ms=" << config.sketch.search.max_sketches << ";nb=" << config.sketch.search.node_budget
     << ";se=" << config.sketch.combine.max_share_error
     << ";mo=" << config.sketch.combine.max_outputs
     << ";mf=" << config.sketch.combine.min_fraction
     << ";mp=" << config.sketch.max_prototypes << "};sim={bb=" << config.sim.block_bytes
     << ";mb=" << config.sim.max_blocks << "}";
  return fnv1a_hex(os.str());
}

std::string scenario_key(const CanonicalTopology& canon, coll::CollKind kind,
                         int canonical_root, std::uint64_t bucket_bytes,
                         const std::string& options_fp) {
  std::ostringstream os;
  os << "syccl-serve/v" << kServeVersion << "|topo=" << canon.hash
     << "|ranks=" << canon.num_ranks << "|coll=" << coll::kind_name(kind)
     << "|root=" << canonical_root << "|bucket=" << bucket_bytes << "|opt=" << options_fp;
  return os.str();
}

void apply_rank_map(sim::Schedule& schedule, const std::vector<int>& map) {
  const int n = static_cast<int>(map.size());
  const auto remap = [&](int rank) {
    if (rank < 0 || rank >= n) {
      throw std::invalid_argument("apply_rank_map: rank out of range");
    }
    return map[static_cast<std::size_t>(rank)];
  };
  for (auto& p : schedule.pieces) {
    if (p.origin >= 0) p.origin = remap(p.origin);
    for (int& c : p.contributors) c = remap(c);
    std::sort(p.contributors.begin(), p.contributors.end());
  }
  for (auto& op : schedule.ops) {
    op.src = remap(op.src);
    op.dst = remap(op.dst);
  }
}

void apply_rank_map(sim::Schedule& schedule, const std::vector<int>& map,
                    const coll::Collective& from, const coll::Collective& to) {
  if (from.num_chunks() != to.num_chunks()) {
    throw std::invalid_argument("apply_rank_map: chunk count mismatch");
  }
  const int n = static_cast<int>(map.size());
  const auto remap = [&](int rank) {
    if (rank < 0 || rank >= n) {
      throw std::invalid_argument("apply_rank_map: rank out of range");
    }
    return map[static_cast<std::size_t>(rank)];
  };
  if (from.reduce()) {
    // Reduce-kind schedules name each piece's block by its destination rank
    // (core::reverse_schedule), and an AllReduce's AllGather phase names
    // each chunk by its source rank, so these chunk ids are ranks.
    apply_rank_map(schedule, map);
    for (auto& p : schedule.pieces) {
      if (p.chunk < 0 || p.chunk >= n) {
        throw std::invalid_argument("apply_rank_map: piece chunk out of range");
      }
      p.chunk = map[static_cast<std::size_t>(p.chunk)];
    }
    return;
  }
  const auto key_of = [](int src, std::vector<int> dsts) {
    std::sort(dsts.begin(), dsts.end());
    std::ostringstream os;
    os << src << "|";
    for (int d : dsts) os << d << ",";
    return os.str();
  };
  // Slots: each (src, dsts) image class of `to`, ids in ascending order.
  std::map<std::string, std::vector<int>> slots;
  for (int j = 0; j < to.num_chunks(); ++j) {
    const coll::Chunk& c = to.chunks()[static_cast<std::size_t>(j)];
    slots[key_of(c.src, c.dsts)].push_back(j);
  }
  std::map<std::string, std::size_t> taken;
  std::vector<int> chunk_map(static_cast<std::size_t>(from.num_chunks()), -1);
  for (int i = 0; i < from.num_chunks(); ++i) {
    const coll::Chunk& c = from.chunks()[static_cast<std::size_t>(i)];
    std::vector<int> dsts;
    dsts.reserve(c.dsts.size());
    for (int d : c.dsts) dsts.push_back(remap(d));
    const std::string key = key_of(remap(c.src), std::move(dsts));
    const auto it = slots.find(key);
    std::size_t& used = taken[key];
    if (it == slots.end() || used >= it->second.size()) {
      throw std::invalid_argument("apply_rank_map: target is not a relabelling of source");
    }
    chunk_map[static_cast<std::size_t>(i)] = it->second[used++];
  }
  apply_rank_map(schedule, map);
  for (auto& p : schedule.pieces) {
    if (p.chunk < 0 || p.chunk >= from.num_chunks()) {
      throw std::invalid_argument("apply_rank_map: piece chunk out of range");
    }
    p.chunk = chunk_map[static_cast<std::size_t>(p.chunk)];
  }
}

std::vector<int> invert_permutation(const std::vector<int>& perm) {
  std::vector<int> inv(perm.size(), -1);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const int p = perm[i];
    if (p < 0 || static_cast<std::size_t>(p) >= perm.size() || inv[static_cast<std::size_t>(p)] != -1) {
      throw std::invalid_argument("invert_permutation: not a permutation");
    }
    inv[static_cast<std::size_t>(p)] = static_cast<int>(i);
  }
  return inv;
}

}  // namespace syccl::serve

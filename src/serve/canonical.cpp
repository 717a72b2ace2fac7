#include "serve/canonical.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "solver/solve_cache.h"
#include "util/text.h"

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
  std::string out;
  const auto render = [&out](const char* tag, const std::vector<topo::PathHop>& hops) {
    util::append(out, tag, '[');
    for (const auto& h : hops) {
      util::append(out, quant_alpha(h.alpha), '/', quant_beta(h.beta), ',');
    }
    out += ']';
  };
  render("u", g.up_hops[static_cast<std::size_t>(local)]);
  render("d", g.down_hops[static_cast<std::size_t>(local)]);
  return out;
}

/// Appends "c,c,...,": the colours of `ranks`, ascending.
void put_colours(std::string& out, const std::vector<int>& ranks, const std::vector<int>& color,
                 std::vector<int>& scratch) {
  scratch.clear();
  for (int r : ranks) scratch.push_back(color[static_cast<std::size_t>(r)]);
  std::sort(scratch.begin(), scratch.end());
  for (int c : scratch) util::append(out, c, ',');
}

/// Chunk keys as flat integer rows, (source, sorted destinations) each,
/// compared lexicographically.
class ChunkKeys {
 public:
  /// Appends the key of a chunk; sorts `dsts` in place.
  void add(int src, std::vector<int>& dsts) {
    std::sort(dsts.begin(), dsts.end());
    data_.push_back(src);
    data_.insert(data_.end(), dsts.begin(), dsts.end());
    start_.push_back(data_.size());
  }
  void clear() {
    data_.clear();
    start_.assign(1, 0);
  }
  bool less(int a, const ChunkKeys& other, int b) const {
    return std::lexicographical_compare(begin(a), end(a), other.begin(b), other.end(b));
  }
  bool equal(int a, const ChunkKeys& other, int b) const {
    return std::equal(begin(a), end(a), other.begin(b), other.end(b));
  }

 private:
  std::vector<int>::const_iterator begin(int k) const {
    return data_.begin() + static_cast<std::ptrdiff_t>(start_[static_cast<std::size_t>(k)]);
  }
  std::vector<int>::const_iterator end(int k) const { return begin(k + 1); }

  std::vector<int> data_;
  std::vector<std::size_t> start_{0};
};

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
  char buf[16];
  const std::uint64_t h = fnv1a(text.data(), text.size());
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), h, 16).ptr);
}

CanonicalTopology canonicalize(const topo::TopologyGroups& groups) {
  CanonicalTopology out;
  if (groups.group_of.empty()) throw std::invalid_argument("canonicalize: no dimensions");
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  const auto n = static_cast<std::size_t>(num_ranks);
  out.num_ranks = num_ranks;

  // Label-invariant member descriptors, built from the raw star abstraction.
  // GroupTopology::signature() is deliberately NOT used here: it lists
  // members and numbers port-sharing blocks in local order — the caller
  // labelling this function must be invariant to. Instead each member
  // contributes its quantised port α/β, its physical hop ladder, and the
  // sizes of its up/down port-sharing blocks; which members share a port is
  // propagated through refinement via port-mate colour multisets.
  const auto num_dims = static_cast<std::size_t>(groups.num_dims());
  std::vector<std::vector<std::string>> member_desc(num_dims, std::vector<std::string>(n));
  std::vector<std::vector<std::string>> ladder(num_dims, std::vector<std::string>(n));
  // Per dim, per rank: the co-members (global ranks) sharing this member's
  // physical up/down serialisation port.
  std::vector<std::vector<std::vector<int>>> up_mates(num_dims, std::vector<std::vector<int>>(n));
  std::vector<std::vector<std::vector<int>>> down_mates(num_dims,
                                                        std::vector<std::vector<int>>(n));
  for (std::size_t d = 0; d < num_dims; ++d) {
    for (const auto& g : groups.dims[d].groups) {
      for (std::size_t i = 0; i < g.ranks.size(); ++i) {
        const auto r = static_cast<std::size_t>(g.ranks[i]);
        for (std::size_t j = 0; j < g.ranks.size(); ++j) {
          if (j == i) continue;
          if (g.up[i].port_id >= 0 && g.up[j].port_id == g.up[i].port_id) {
            up_mates[d][r].push_back(g.ranks[j]);
          }
          if (g.down[i].port_id >= 0 && g.down[j].port_id == g.down[i].port_id) {
            down_mates[d][r].push_back(g.ranks[j]);
          }
        }
        ladder[d][r] = hop_rendering(g, static_cast<int>(i));
        util::append(member_desc[d][r], 'n', g.size(), ";u", quant_alpha(g.up[i].alpha), '/',
                     quant_beta(g.up[i].beta), '+', up_mates[d][r].size(), ";d",
                     quant_alpha(g.down[i].alpha), '/', quant_beta(g.down[i].beta), '+',
                     down_mates[d][r].size(), ";L", ladder[d][r]);
      }
    }
  }

  // Colour refinement over ranks. A rank's colour starts from its per-dim
  // member descriptors; each round then separates groups by their
  // member-colour multisets, which in turn separates their members. Group
  // order ids are recomputed from the current colours every round, so the
  // fixed point does not depend on the iteration count.
  //
  // A colour is the rank of a rank string among the sorted distinct
  // strings, and the strings embed earlier colours in decimal, so colours
  // follow the strings' byte order ("c10;" sorts before "c1;", and a pinned
  // rank's "p…" string after every "c…" one). That order reaches the
  // rendering through the permutation, so the strings are built exactly,
  // into per-rank buffers reused across rounds.
  std::vector<int> color(n, 0);
  std::vector<int> pinned(n, -1);
  std::vector<std::vector<int>> group_order(num_dims);
  std::vector<std::vector<std::string>> group_keys(num_dims);
  std::vector<std::string> strings(n);
  std::vector<int> order, scratch;
  const auto rank_strings = [&](bool with_colors) {
    for (std::size_t r = 0; r < n; ++r) {
      std::string& s = strings[r];
      s.clear();
      if (pinned[r] >= 0) util::append(s, 'p', pinned[r], ';');
      if (with_colors) util::append(s, 'c', color[r], ';');
      for (std::size_t d = 0; d < num_dims; ++d) {
        const int gi = groups.group_of[d][r];
        if (gi < 0) {
          util::append(s, 'd', d, ":-;");
          continue;
        }
        util::append(s, 'd', d, ':');
        if (with_colors && !group_order[d].empty()) {
          util::append(s, 'g', group_order[d][static_cast<std::size_t>(gi)]);
        } else {
          util::append(s, 'm', member_desc[d][r]);
        }
        if (with_colors) {
          // Port-sharing incidence: the sorted colours of the members this
          // rank serialises with, per direction. This is what lets refinement
          // see *which* co-members share a rail, not just how many.
          s += "U[";
          put_colours(s, up_mates[d][r], color, scratch);
          s += "]D[";
          put_colours(s, down_mates[d][r], color, scratch);
          s += ']';
        }
        s += ';';
      }
    }
    return util::dense_rank(strings, order, color);
  };

  const auto refine_to_fixpoint = [&](int num_colors) {
    for (int round = 0; round <= num_ranks; ++round) {
      // Order groups within each dimension by their sorted member-colour
      // multiset (colours already encode every member's structural
      // descriptor): isomorphic groups containing differently-coloured
      // members pull apart, deterministically across relabellings.
      for (std::size_t d = 0; d < num_dims; ++d) {
        const auto& dim_groups = groups.dims[d].groups;
        std::vector<std::string>& keys = group_keys[d];
        keys.resize(dim_groups.size());
        for (std::size_t gi = 0; gi < dim_groups.size(); ++gi) {
          keys[gi].clear();
          put_colours(keys[gi], dim_groups[gi].ranks, color, scratch);
        }
        util::dense_rank(keys, order, group_order[d]);
      }
      const int refined = rank_strings(true);
      if (refined == num_colors) break;
      num_colors = refined;
    }
    return num_colors;
  };

  int num_colors = refine_to_fixpoint(rank_strings(false));

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
  std::vector<int> class_size;
  while (num_colors < num_ranks) {
    class_size.assign(static_cast<std::size_t>(num_colors), 0);
    for (int c : color) ++class_size[static_cast<std::size_t>(c)];
    const int target_color = static_cast<int>(
        std::find_if(class_size.begin(), class_size.end(), [](int k) { return k > 1; }) -
        class_size.begin());
    const auto representative = std::find(color.begin(), color.end(), target_color) - color.begin();
    pinned[static_cast<std::size_t>(representative)] = pin_counter++;
    const int split = refine_to_fixpoint(rank_strings(true));
    if (split <= num_colors) {
      throw std::logic_error("canonicalize: individualisation failed to split a class");
    }
    num_colors = split;
  }

  // Canonical rank order = final colour (all classes are singletons now).
  out.perm = color;

  // Render the decomposition under the canonical permutation. Groups are
  // listed by their smallest canonical member (groups partition the ranks of
  // a dimension, so that is a total order); members in canonical-position
  // order as canonical ranks plus their physical hop ladders.
  std::string& os = out.rendering;
  util::append(os, "syccl-canon/v", kServeVersion, ";ranks=", num_ranks, ";dims=", num_dims,
               ";\n");
  std::vector<int> members;
  for (std::size_t d = 0; d < num_dims; ++d) {
    const auto& dim = groups.dims[d];
    util::append(os, "dim", d, "{tier=", dim.tier, ";cap=", dim.capacity_dim,
                 ";share=", std::llround(dim.bandwidth_share * 1e6), ";\n");
    std::vector<std::pair<int, std::size_t>> group_order_by_min;  // (min canonical member, group)
    for (std::size_t gi = 0; gi < dim.groups.size(); ++gi) {
      int lo = num_ranks;
      for (int r : dim.groups[gi].ranks) lo = std::min(lo, out.perm[static_cast<std::size_t>(r)]);
      group_order_by_min.emplace_back(lo, gi);
    }
    std::sort(group_order_by_min.begin(), group_order_by_min.end());
    for (const auto& [lo, gi] : group_order_by_min) {
      const auto& g = dim.groups[gi];
      util::append(os, " group{n=", g.size(), ";members=");
      // Members in canonical-rank order. Physical port ids are renumbered by
      // first appearance along that order, so the port-sharing blocks (which
      // members serialise together) render identically for any relabelling
      // that reaches the same canonical order.
      members = g.ranks;
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
        const auto i = static_cast<std::size_t>(g.local_of(r));
        util::append(os, out.perm[static_cast<std::size_t>(r)], ":u", quant_alpha(g.up[i].alpha),
                     '/', quant_beta(g.up[i].beta), "@p", canon_port(up_port_id, g.up[i].port_id),
                     ";d", quant_alpha(g.down[i].alpha), '/', quant_beta(g.down[i].beta), "@p",
                     canon_port(down_port_id, g.down[i].port_id), ";L",
                     ladder[d][static_cast<std::size_t>(r)], ',');
      }
      os += "}\n";
    }
    os += "}\n";
  }
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
  // Slots: the chunks of `to` sorted by (source, sorted destinations) key;
  // stable, so chunks with equal keys stay in ascending id order. Each chunk
  // of `from` takes the next untaken slot of its image's key.
  ChunkKeys slot_keys;
  std::vector<int> dsts;
  for (const coll::Chunk& c : to.chunks()) {
    dsts = c.dsts;
    slot_keys.add(c.src, dsts);
  }
  std::vector<int> slots(static_cast<std::size_t>(to.num_chunks()));
  std::iota(slots.begin(), slots.end(), 0);
  std::stable_sort(slots.begin(), slots.end(),
                   [&](int a, int b) { return slot_keys.less(a, slot_keys, b); });
  std::vector<int> taken(slots.size(), 0);  // per run of equal keys, at its first slot
  ChunkKeys image;
  std::vector<int> chunk_map(static_cast<std::size_t>(from.num_chunks()), -1);
  for (int i = 0; i < from.num_chunks(); ++i) {
    const coll::Chunk& c = from.chunks()[static_cast<std::size_t>(i)];
    dsts.clear();
    for (int d : c.dsts) dsts.push_back(remap(d));
    image.clear();
    image.add(remap(c.src), dsts);
    const auto run = std::lower_bound(slots.begin(), slots.end(), 0, [&](int slot, int) {
      return slot_keys.less(slot, image, 0);
    });
    const auto first = static_cast<std::size_t>(run - slots.begin());
    const std::size_t next =
        first < slots.size() ? first + static_cast<std::size_t>(taken[first]) : first;
    if (next >= slots.size() || !slot_keys.equal(slots[next], image, 0)) {
      throw std::invalid_argument("apply_rank_map: target is not a relabelling of source");
    }
    chunk_map[static_cast<std::size_t>(i)] = slots[next];
    ++taken[first];
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

#include "core/subdemand.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace syccl::core {

namespace {

/// chunk index by (src, first dst) for scatter routing; -1 keys by src only.
struct ChunkIndex {
  std::map<int, std::vector<int>> by_src;
  std::map<std::pair<int, int>, int> by_src_dst;

  explicit ChunkIndex(const coll::Collective& coll) {
    for (int c = 0; c < coll.num_chunks(); ++c) {
      const auto& chunk = coll.chunks()[static_cast<std::size_t>(c)];
      by_src[chunk.src].push_back(c);
      if (chunk.dsts.size() == 1) by_src_dst[{chunk.src, chunk.dsts.front()}] = c;
    }
  }
};

/// Children lists of the relay tree.
std::vector<std::vector<int>> children_of(const sketch::Sketch& s) {
  std::vector<std::vector<int>> ch(s.parent.size());
  for (std::size_t v = 0; v < s.parent.size(); ++v) {
    const int p = s.parent[v];
    if (p >= 0) ch[static_cast<std::size_t>(p)].push_back(static_cast<int>(v));
  }
  return ch;
}

/// Ranks in the subtree rooted at v (v included).
void collect_subtree(int v, const std::vector<std::vector<int>>& children,
                     std::vector<int>& out) {
  out.push_back(v);
  for (int c : children[static_cast<std::size_t>(v)]) collect_subtree(c, children, out);
}

}  // namespace

DemandPlan build_demand_plan(const sketch::SketchCombination& combo,
                             const coll::Collective& coll, const topo::TopologyGroups& groups) {
  if (combo.sketches.empty()) throw std::invalid_argument("empty sketch combination");
  const ChunkIndex chunks(coll);
  const double chunk_bytes = coll.chunk_bytes();

  DemandPlan plan;
  // Merge accumulator: (stage, dim, group, quantised bytes) → demand index.
  std::map<std::tuple<int, int, int, long long>, std::size_t> merged;

  // local_index[d][rank]: the rank's position in its dim-d group, so mapping
  // a sketch's ranks to group-local ones is a lookup, not a search.
  const std::size_t num_ranks = groups.group_of.front().size();
  std::vector<std::vector<int>> local_index;
  for (const auto& dim : groups.dims) {
    std::vector<int>& index = local_index.emplace_back(num_ranks, -1);
    for (const auto& g : dim.groups) {
      for (int l = 0; l < g.size(); ++l) {
        index[static_cast<std::size_t>(g.ranks[static_cast<std::size_t>(l)])] = l;
      }
    }
  }

  for (const auto& ws : combo.sketches) {
    const sketch::Sketch& sk = *ws.sketch;
    const double bytes = ws.fraction * chunk_bytes;
    if (bytes <= 0) throw std::invalid_argument("non-positive piece bytes");
    const long long size_key = std::llround(bytes * 256.0);

    // Global pieces carried by this sketch.
    const auto src_it = chunks.by_src.find(sk.root);
    if (src_it == chunks.by_src.end() || src_it->second.empty()) {
      throw std::invalid_argument("sketch root carries no chunk of the collective");
    }
    // One piece per chunk of the root, allocated consecutively: the piece of
    // root_chunks[i] (ascending chunk ids) is first_piece + i.
    const std::vector<int>& root_chunks = src_it->second;
    const int first_piece = static_cast<int>(plan.pieces.size());
    for (int c : root_chunks) {
      sim::Piece piece;
      piece.chunk = c;
      piece.bytes = bytes;
      piece.origin = sk.root;
      plan.add_piece_index(std::move(piece));
    }

    const bool scatter = sk.pattern == sketch::RootedPattern::Scatter;
    std::vector<std::vector<int>> children;
    if (scatter) children = children_of(sk);

    for (int k = 0; k < sk.num_stages(); ++k) {
      for (const auto& spec : sk.stages[static_cast<std::size_t>(k)].demands) {
        const topo::GroupTopology& gt = groups.group(spec.dim, spec.group);

        const auto key = std::make_tuple(k, spec.dim, spec.group, size_key);
        auto mit = merged.find(key);
        if (mit == merged.end()) {
          MergedSubDemand md;
          md.stage = k;
          md.dim = spec.dim;
          md.group = spec.group;
          md.demand.group = &gt;
          md.demand.piece_bytes = bytes;
          plan.demands.push_back(std::move(md));
          mit = merged.emplace(key, plan.demands.size() - 1).first;
        }
        MergedSubDemand& md = plan.demands[mit->second];

        const auto& group_of = groups.group_of[static_cast<std::size_t>(spec.dim)];
        const auto& local_of = local_index[static_cast<std::size_t>(spec.dim)];
        auto local = [&](int rank) {
          if (rank < 0 || static_cast<std::size_t>(rank) >= num_ranks ||
              group_of[static_cast<std::size_t>(rank)] != spec.group) {
            throw std::invalid_argument("sketch rank outside its group");
          }
          return local_of[static_cast<std::size_t>(rank)];
        };

        if (!scatter) {
          // Broadcast: every chunk of the root flows along the sub-demand.
          // The last piece takes the local lists, the others copy them.
          std::vector<int> lsrcs, ldsts;
          lsrcs.reserve(spec.srcs.size());
          ldsts.reserve(spec.dsts.size());
          for (int s : spec.srcs) lsrcs.push_back(local(s));
          for (int d : spec.dsts) ldsts.push_back(local(d));
          for (std::size_t i = 0; i < root_chunks.size(); ++i) {
            solver::DemandPiece dp;
            dp.id = static_cast<int>(md.demand.pieces.size());
            if (i + 1 < root_chunks.size()) {
              dp.srcs = lsrcs;
              dp.dsts = ldsts;
            } else {
              dp.srcs = std::move(lsrcs);
              dp.dsts = std::move(ldsts);
            }
            md.demand.pieces.push_back(std::move(dp));
            md.global_piece.push_back(first_piece + static_cast<int>(i));
          }
        } else {
          // Scatter: each destination pulls its own chunk plus its subtree's
          // chunks from its relay parent.
          for (int v : spec.dsts) {
            const int p = sk.parent[static_cast<std::size_t>(v)];
            if (p < 0) throw std::invalid_argument("scatter destination without parent");
            std::vector<int> subtree;
            collect_subtree(v, children, subtree);
            for (int w : subtree) {
              const auto cit = chunks.by_src_dst.find({sk.root, w});
              if (cit == chunks.by_src_dst.end()) continue;  // root keeps its own block
              solver::DemandPiece dp;
              dp.id = static_cast<int>(md.demand.pieces.size());
              dp.srcs = {local(p)};
              dp.dsts = {local(v)};
              md.demand.pieces.push_back(std::move(dp));
              const auto at = std::lower_bound(root_chunks.begin(), root_chunks.end(), cit->second);
              md.global_piece.push_back(first_piece + static_cast<int>(at - root_chunks.begin()));
            }
          }
        }
      }
    }
  }

  // Drop empty demands (scatter specs whose chunks were absent).
  std::vector<MergedSubDemand> kept;
  for (auto& d : plan.demands) {
    if (!d.demand.pieces.empty()) kept.push_back(std::move(d));
  }
  plan.demands = std::move(kept);

  // Canonicalise piece order inside every demand: isomorphism-class caching
  // (§5.3) shares solved sub-schedules positionally, so demands with the
  // same structure must list their pieces in the same order.
  for (auto& d : plan.demands) {
    const std::size_t np = d.demand.pieces.size();
    for (auto& p : d.demand.pieces) {
      std::sort(p.srcs.begin(), p.srcs.end());
      std::sort(p.dsts.begin(), p.dsts.end());
    }
    std::vector<std::size_t> idx(np);
    for (std::size_t i = 0; i < np; ++i) idx[i] = i;
    std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      const auto& pa = d.demand.pieces[a];
      const auto& pb = d.demand.pieces[b];
      if (pa.srcs != pb.srcs) return pa.srcs < pb.srcs;
      return pa.dsts < pb.dsts;
    });
    std::vector<solver::DemandPiece> pieces;
    std::vector<int> globals;
    pieces.reserve(np);
    globals.reserve(np);
    for (std::size_t i = 0; i < np; ++i) {
      solver::DemandPiece p = std::move(d.demand.pieces[idx[i]]);
      p.id = static_cast<int>(i);
      pieces.push_back(std::move(p));
      globals.push_back(d.global_piece[idx[i]]);
    }
    d.demand.pieces = std::move(pieces);
    d.global_piece = std::move(globals);
  }
  std::stable_sort(plan.demands.begin(), plan.demands.end(),
                   [](const MergedSubDemand& a, const MergedSubDemand& b) {
                     return a.stage < b.stage;
                   });
  return plan;
}

}  // namespace syccl::core

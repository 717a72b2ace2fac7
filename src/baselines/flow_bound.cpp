#include "baselines/flow_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lp/simplex.h"
#include "obs/trace.h"

namespace syccl::baselines {

namespace {

/// One demand unit of the relaxation. `root` is the node the flow fans out
/// from; for reduce traffic that is the aggregation destination and the flow
/// runs over reversed links (`transposed`), charging the real ones.
struct Commodity {
  topo::NodeId root = topo::kInvalidNode;
  std::vector<topo::NodeId> leaves;
  double bytes = 0.0;
  bool transposed = false;
};

std::vector<Commodity> build_commodities(const coll::Collective& coll,
                                         const topo::Topology& topo) {
  const auto& gpus = topo.gpus();
  const auto gpu = [&](int rank) { return gpus[static_cast<std::size_t>(rank)]; };
  std::vector<Commodity> out;
  const double b = coll.chunk_bytes();

  const auto add_forward_chunks = [&]() {
    for (const coll::Chunk& c : coll.chunks()) {
      if (c.dsts.empty()) continue;
      Commodity k;
      k.root = gpu(c.src);
      for (int d : c.dsts) k.leaves.push_back(gpu(d));
      k.bytes = b;
      out.push_back(std::move(k));
    }
  };
  // Aggregation toward each destination, grouped so that partials merged en
  // route are charged once per link (the in-tree is a transposed broadcast).
  const auto add_reduce_to = [&](int dst, const std::vector<int>& contributors, double bytes) {
    if (contributors.empty()) return;
    Commodity k;
    k.root = gpu(dst);
    for (int s : contributors) k.leaves.push_back(gpu(s));
    k.bytes = bytes;
    k.transposed = true;
    out.push_back(std::move(k));
  };

  switch (coll.kind()) {
    case coll::CollKind::Reduce:
    case coll::CollKind::ReduceScatter: {
      std::vector<std::vector<int>> by_dst(static_cast<std::size_t>(coll.num_ranks()));
      for (const coll::Chunk& c : coll.chunks()) {
        for (int d : c.dsts) by_dst[static_cast<std::size_t>(d)].push_back(c.src);
      }
      for (int d = 0; d < coll.num_ranks(); ++d) {
        add_reduce_to(d, by_dst[static_cast<std::size_t>(d)], b);
      }
      break;
    }
    case coll::CollKind::AllReduce: {
      // RS + AG commodity sets sharing the link rows (§4.3 synthesis shape).
      const int n = coll.num_ranks();
      for (int r = 0; r < n; ++r) {
        std::vector<int> others;
        for (int s = 0; s < n; ++s) {
          if (s != r) others.push_back(s);
        }
        add_reduce_to(r, others, b);  // ReduceScatter phase
        Commodity ag;                 // AllGather phase
        ag.root = gpu(r);
        for (int s : others) ag.leaves.push_back(gpu(s));
        ag.bytes = b;
        out.push_back(std::move(ag));
      }
      break;
    }
    default:
      add_forward_chunks();
      break;
  }
  return out;
}

/// Latency floor: the least Σα over the paths from the commodity root to its
/// farthest leaf. Only α is a per-hop floor: a message streams through its
/// path cut-through, block by block, and a chunk may be split across paths,
/// so β·bytes is charged per link, by the load floor and the LP, not per hop.
double path_bound_of(const Commodity& k, const topo::Topology& topo) {
  constexpr double kUnreached = std::numeric_limits<double>::infinity();
  std::vector<double> dist(topo.num_nodes(), kUnreached);
  using Entry = std::pair<double, topo::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[static_cast<std::size_t>(k.root)] = 0.0;
  heap.push({0.0, k.root});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(v)]) continue;
    const auto& links = k.transposed ? topo.in_links(v) : topo.out_links(v);
    for (topo::LinkId lid : links) {
      const topo::Link& l = topo.link(lid);
      const topo::NodeId to = k.transposed ? l.src : l.dst;
      const double nd = d + l.alpha;
      if (nd < dist[static_cast<std::size_t>(to)]) {
        dist[static_cast<std::size_t>(to)] = nd;
        heap.push({nd, to});
      }
    }
  }
  double worst = 0.0;
  for (topo::NodeId leaf : k.leaves) {
    const double d = dist[static_cast<std::size_t>(leaf)];
    if (d >= kUnreached) {
      throw std::invalid_argument("flow_lower_bound: demand leaf unreachable in topology");
    }
    worst = std::max(worst, d);
  }
  return worst;
}

/// Per-GPU injection/delivery floor: the bytes a GPU must emit (or absorb)
/// cross its attached links, whose aggregate rate is Σ 1/β, and the last of
/// them still pays its link's α once off the wire — at least the least α.
double load_bound_of(const std::vector<Commodity>& commodities, const topo::Topology& topo) {
  std::vector<double> in_load(topo.num_nodes(), 0.0), out_load(topo.num_nodes(), 0.0);
  for (const Commodity& k : commodities) {
    if (k.transposed) {
      // Aggregation: every leaf injects its partial; the root absorbs at
      // least one merged message.
      for (topo::NodeId leaf : k.leaves) out_load[static_cast<std::size_t>(leaf)] += k.bytes;
      in_load[static_cast<std::size_t>(k.root)] += k.bytes;
    } else {
      for (topo::NodeId leaf : k.leaves) in_load[static_cast<std::size_t>(leaf)] += k.bytes;
      out_load[static_cast<std::size_t>(k.root)] += k.bytes;
    }
  }
  const auto floor_of = [&](const std::vector<topo::LinkId>& links, double load) {
    double rate = 0.0;
    double alpha = std::numeric_limits<double>::infinity();
    for (topo::LinkId lid : links) {
      const topo::Link& l = topo.link(lid);
      alpha = std::min(alpha, l.alpha);
      if (l.beta > 0.0) rate += 1.0 / l.beta;
    }
    return load > 0.0 && rate > 0.0 ? alpha + load / rate : 0.0;
  };
  double worst = 0.0;
  for (topo::NodeId v = 0; v < static_cast<topo::NodeId>(topo.num_nodes()); ++v) {
    const std::size_t i = static_cast<std::size_t>(v);
    worst = std::max(worst, floor_of(topo.in_links(v), in_load[i]));
    worst = std::max(worst, floor_of(topo.out_links(v), out_load[i]));
  }
  return worst;
}

}  // namespace

FlowBoundResult flow_lower_bound(const coll::Collective& coll, const topo::Topology& topo,
                                 const FlowBoundOptions& options) {
  SYCCL_TRACE_SPAN(span, "flow.lower_bound", "flow");
  if (topo.num_gpus() == 0) throw std::invalid_argument("flow_lower_bound: topology has no GPUs");
  if (coll.num_ranks() > static_cast<int>(topo.num_gpus())) {
    throw std::invalid_argument("flow_lower_bound: more ranks than GPUs");
  }

  const std::vector<Commodity> commodities = build_commodities(coll, topo);
  FlowBoundResult res;
  res.commodities = static_cast<int>(commodities.size());
  res.load_bound = load_bound_of(commodities, topo);
  for (const Commodity& k : commodities) {
    res.path_bound = std::max(res.path_bound, path_bound_of(k, topo));
  }
  res.seconds = std::max(res.load_bound, res.path_bound);

  const int num_links = static_cast<int>(topo.num_links());
  const long cols = static_cast<long>(commodities.size()) * num_links + 1;
  if (!commodities.empty() && num_links > 0 && cols <= options.max_lp_cols) {
    // Flow LP: one f variable per (commodity, link) plus z = per-link busy
    // time; flow direction follows the commodity's orientation but the link
    // row charges the real link either way.
    lp::Problem pb;
    const auto fvar = [&](int k, topo::LinkId l) {
      return k * num_links + static_cast<int>(l);
    };
    for (long c = 0; c + 1 < cols; ++c) pb.add_var(0.0, 1.0, 0.0);
    const int z = pb.add_var(0.0, lp::kInf, 1.0);

    for (int k = 0; k < res.commodities; ++k) {
      const Commodity& com = commodities[static_cast<std::size_t>(k)];
      // Indegree: each leaf receives (forward) / emits (transposed) once.
      for (topo::NodeId leaf : com.leaves) {
        lp::Constraint c;
        const auto& links = com.transposed ? topo.out_links(leaf) : topo.in_links(leaf);
        for (topo::LinkId lid : links) c.terms.push_back({fvar(k, lid), 1.0});
        if (c.terms.empty()) {
          res.used_lp = false;  // leaf with no attachment: floors still hold
          return res;
        }
        c.rel = lp::Relation::GreaterEq;
        c.rhs = 1.0;
        pb.add_constraint(std::move(c));
      }
      // Relay gating: non-root nodes forward at most what they receive.
      for (topo::NodeId v = 0; v < static_cast<topo::NodeId>(topo.num_nodes()); ++v) {
        if (v == com.root) continue;
        const auto& outs = com.transposed ? topo.in_links(v) : topo.out_links(v);
        const auto& ins = com.transposed ? topo.out_links(v) : topo.in_links(v);
        for (topo::LinkId out : outs) {
          lp::Constraint c;
          c.terms.push_back({fvar(k, out), 1.0});
          for (topo::LinkId in : ins) c.terms.push_back({fvar(k, in), -1.0});
          c.rel = lp::Relation::LessEq;
          c.rhs = 0.0;
          pb.add_constraint(std::move(c));
        }
      }
    }
    // Per-link serialization: everything crossing ℓ transmits back to back.
    // z is in units of the load floor so that the wire times are near 1:
    // the simplex's tolerances are absolute, and wire times in seconds are
    // small enough to read as zero.
    const double unit = res.load_bound > 0.0 ? res.load_bound : 1.0;
    for (int l = 0; l < num_links; ++l) {
      lp::Constraint c;
      const double beta = topo.link(l).beta;
      for (int k = 0; k < res.commodities; ++k) {
        c.terms.push_back(
            {fvar(k, l), commodities[static_cast<std::size_t>(k)].bytes * beta / unit});
      }
      c.terms.push_back({z, -1.0});
      c.rel = lp::Relation::LessEq;
      c.rhs = 0.0;
      pb.add_constraint(std::move(c));
    }

    const lp::Solution sol = lp::solve(pb, options.max_lp_iters);
    res.lp_iterations = sol.iterations;
    if (sol.status == lp::Status::Optimal) {
      res.used_lp = true;
      res.lp_cols = static_cast<int>(cols);
      res.seconds = std::max(res.seconds, sol.objective * unit);
    }
  }
  span.annotate("seconds", res.seconds);
  span.annotate("commodities", static_cast<double>(res.commodities));
  span.annotate("used_lp", res.used_lp ? 1.0 : 0.0);
  return res;
}

}  // namespace syccl::baselines

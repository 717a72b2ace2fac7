#include "fuzz/generators.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "topo/builders.h"
#include "topo/mutate.h"

namespace syccl::fuzz {

namespace {

topo::LinkParams jitter(util::Rng& rng, double alpha_lo_us, double alpha_hi_us, double bw_lo_GBs,
                        double bw_hi_GBs) {
  topo::LinkParams p;
  p.alpha_s = (alpha_lo_us + (alpha_hi_us - alpha_lo_us) * rng.next_double()) * 1e-6;
  p.bandwidth_Bps = (bw_lo_GBs + (bw_hi_GBs - bw_lo_GBs) * rng.next_double()) * 1e9;
  return p;
}

/// Random spanning tree (parent pointers, -1 at root) over the connectivity
/// graph via randomized Prim: each step attaches a uniformly drawn
/// (covered, uncovered) edge.
std::vector<int> random_spanning_tree(const std::vector<std::vector<int>>& adj, int root,
                                      util::Rng& rng) {
  const int n = static_cast<int>(adj.size());
  std::vector<int> parent(static_cast<std::size_t>(n), -2);
  parent[static_cast<std::size_t>(root)] = -1;
  int covered = 1;
  while (covered < n) {
    std::vector<std::pair<int, int>> frontier;  // (covered u, uncovered v)
    for (int u = 0; u < n; ++u) {
      if (parent[static_cast<std::size_t>(u)] == -2) continue;
      for (int v : adj[static_cast<std::size_t>(u)]) {
        if (parent[static_cast<std::size_t>(v)] == -2) frontier.emplace_back(u, v);
      }
    }
    if (frontier.empty()) {
      throw std::invalid_argument("rank connectivity graph is disconnected");
    }
    const auto [u, v] = frontier[rng.next_below(frontier.size())];
    parent[static_cast<std::size_t>(v)] = u;
    ++covered;
  }
  return parent;
}

std::vector<int> tree_depths(const std::vector<int>& parent) {
  std::vector<int> depth(parent.size(), -1);
  for (std::size_t v = 0; v < parent.size(); ++v) {
    int d = 0;
    for (int u = static_cast<int>(v); parent[static_cast<std::size_t>(u)] >= 0;
         u = parent[static_cast<std::size_t>(u)]) {
      ++d;
    }
    depth[v] = d;
  }
  return depth;
}

/// Nodes needed to deliver to / collect from `targets`: the targets plus all
/// their ancestors up to the root.
std::vector<bool> needed_nodes(const std::vector<int>& parent, const std::vector<int>& targets) {
  std::vector<bool> needed(parent.size(), false);
  for (int t : targets) {
    for (int u = t; u >= 0; u = parent[static_cast<std::size_t>(u)]) {
      if (needed[static_cast<std::size_t>(u)]) break;
      needed[static_cast<std::size_t>(u)] = true;
    }
  }
  return needed;
}

/// Random interleave of per-piece op lists that preserves each piece's own
/// order (the only intra-schedule dependency the simulator model has).
std::vector<sim::TransferOp> interleave(std::vector<std::vector<sim::TransferOp>> per_piece,
                                        util::Rng& rng) {
  std::vector<sim::TransferOp> out;
  std::vector<std::size_t> cursor(per_piece.size(), 0);
  for (;;) {
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < per_piece.size(); ++i) {
      if (cursor[i] < per_piece[i].size()) ready.push_back(i);
    }
    if (ready.empty()) break;
    const std::size_t pick = ready[rng.next_below(ready.size())];
    out.push_back(per_piece[pick][cursor[pick]++]);
  }
  return out;
}

}  // namespace

RandomTopology random_topology(util::Rng& rng) {
  std::ostringstream desc;
  switch (rng.next_below(8)) {
    case 0: {
      const int n = static_cast<int>(rng.next_in(2, 8));
      desc << "single_server(" << n << ")";
      return {topo::build_single_server(n, jitter(rng, 0.2, 1.0, 100, 400)), desc.str()};
    }
    case 1: {
      const int n = static_cast<int>(rng.next_in(2, 8));
      desc << "flat_switch(" << n << ")";
      return {topo::build_flat_switch(n, jitter(rng, 0.2, 1.0, 100, 400)), desc.str()};
    }
    case 2:
    case 3: {
      topo::MultiRailSpec spec;
      spec.num_servers = static_cast<int>(rng.next_in(2, 3));
      spec.gpus_per_server = static_cast<int>(rng.next_in(2, 4));
      spec.with_spine = rng.next_below(2) == 0;
      spec.nvlink = jitter(rng, 0.2, 1.0, 100, 400);
      spec.nic = jitter(rng, 1.0, 4.0, 12, 50);
      spec.fabric = jitter(rng, 0.5, 2.0, 12, 50);
      desc << "multi_rail(" << spec.num_servers << "x" << spec.gpus_per_server
           << (spec.with_spine ? ",spine" : ",no-spine") << ")";
      return {topo::build_multi_rail(spec), desc.str()};
    }
    case 4: {
      topo::ClosSpec spec;
      spec.num_servers = 2 * static_cast<int>(rng.next_in(1, 2));
      spec.gpus_per_server = static_cast<int>(rng.next_in(2, 4));
      // NICs must divide the GPU count per server.
      spec.nics_per_server =
          spec.gpus_per_server % 2 == 0 ? static_cast<int>(rng.next_in(1, 2)) : 1;
      spec.servers_per_leaf = 2;
      spec.leaves_per_spine = 2;
      spec.nvlink = jitter(rng, 0.2, 1.0, 100, 400);
      spec.nic = jitter(rng, 1.0, 4.0, 12, 50);
      spec.fabric = jitter(rng, 0.5, 2.0, 12, 50);
      desc << "clos(" << spec.num_servers << "x" << spec.gpus_per_server << ",nics="
           << spec.nics_per_server << ")";
      return {topo::build_clos(spec), desc.str()};
    }
    case 5:
      desc << "a100_testbed(16)";
      return {topo::build_a100_testbed(16), desc.str()};
    case 6:
      desc << "h800_cluster(2)";
      return {topo::build_h800_cluster(2), desc.str()};
    default:
      desc << "microbench_cluster";
      return {topo::build_microbench_cluster(), desc.str()};
  }
}

void degrade_random(RandomTopology& t, util::Rng& rng) {
  std::ostringstream desc;
  const auto degrade = [&]() {
    const auto& links = t.topo.links();
    const topo::Link& l = links[rng.next_below(links.size())];
    const double alpha_scale = static_cast<double>(std::uint64_t{1} << rng.next_in(1, 4));
    const double beta_scale = static_cast<double>(std::uint64_t{1} << rng.next_in(1, 4));
    desc << ",degrade(link" << l.id << ",a" << alpha_scale << ",b" << beta_scale << ")";
    t.topo = topo::degrade_duplex(t.topo, l.src, l.dst, alpha_scale, beta_scale);
  };
  if (rng.next_below(2) == 0) {
    // NIC failure, drawn uniformly over NICs that still have links.
    std::vector<topo::NodeId> nics;
    for (const topo::Node& n : t.topo.nodes()) {
      if (n.kind == topo::NodeKind::Nic && !t.topo.out_links(n.id).empty()) nics.push_back(n.id);
    }
    if (!nics.empty()) {
      const topo::NodeId nic = nics[rng.next_below(nics.size())];
      try {
        topo::Topology failed = topo::fail_nic(t.topo, nic);
        desc << ",failnic(" << t.topo.nodes()[static_cast<std::size_t>(nic)].name << ")";
        t.topo = std::move(failed);
        t.desc += desc.str();
        return;
      } catch (const std::runtime_error&) {
        // Failure would disconnect the fabric — degrade instead.
      }
    }
  }
  degrade();
  t.desc += desc.str();
}

coll::Collective random_collective(util::Rng& rng, int num_ranks) {
  const std::uint64_t bytes = std::uint64_t{1} << rng.next_in(10, 22);
  const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_ranks)));
  switch (rng.next_below(9)) {
    case 0: {
      int dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_ranks)));
      if (dst == root) dst = (dst + 1) % num_ranks;
      return coll::make_sendrecv(num_ranks, root, dst, bytes);
    }
    case 1: return coll::make_broadcast(num_ranks, bytes, root);
    case 2: return coll::make_scatter(num_ranks, bytes, root);
    case 3: return coll::make_gather(num_ranks, bytes, root);
    case 4: return coll::make_reduce(num_ranks, bytes, root);
    case 5: return coll::make_allgather(num_ranks, bytes);
    case 6: return coll::make_alltoall(num_ranks, bytes);
    case 7: return coll::make_reduce_scatter(num_ranks, bytes);
    default: return coll::make_allreduce(num_ranks, bytes);
  }
}

std::vector<std::vector<int>> rank_adjacency(const topo::TopologyGroups& groups) {
  const int n = groups.group_of.empty() ? 0 : static_cast<int>(groups.group_of.front().size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u != v && groups.best_common_dim(u, v) >= 0) {
        adj[static_cast<std::size_t>(u)].push_back(v);
      }
    }
  }
  return adj;
}

sim::Schedule random_direct_schedule(const coll::Collective& coll,
                                     const topo::TopologyGroups& groups, util::Rng& rng) {
  const auto adj = rank_adjacency(groups);
  sim::Schedule s;
  s.name = "fuzz-direct-" + std::string(coll::kind_name(coll.kind()));
  std::vector<std::vector<sim::TransferOp>> per_piece;

  if (!coll.reduce()) {
    // One random relay tree per piece; chunks may split into 2–3 pieces
    // routed independently.
    for (std::size_t c = 0; c < coll.chunks().size(); ++c) {
      const auto& chunk = coll.chunks()[c];
      if (chunk.dsts.empty()) continue;
      const int splits = rng.next_double() < 0.3 ? static_cast<int>(rng.next_in(2, 3)) : 1;
      for (int part = 0; part < splits; ++part) {
        const int piece = s.add_piece(sim::Piece{static_cast<int>(c),
                                                 coll.chunk_bytes() / splits, chunk.src, false,
                                                 {}});
        const auto parent = random_spanning_tree(adj, chunk.src, rng);
        const auto depth = tree_depths(parent);
        const auto needed = needed_nodes(parent, chunk.dsts);
        // Parents before children: emit by ascending depth.
        std::vector<int> order;
        for (std::size_t v = 0; v < parent.size(); ++v) {
          if (needed[v] && parent[v] >= 0) order.push_back(static_cast<int>(v));
        }
        std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
          return depth[static_cast<std::size_t>(a)] < depth[static_cast<std::size_t>(b)];
        });
        std::vector<sim::TransferOp> ops;
        for (int v : order) {
          ops.push_back(sim::TransferOp{piece, parent[static_cast<std::size_t>(v)], v, -1, 0});
        }
        per_piece.push_back(std::move(ops));
      }
    }
  } else {
    // One random in-tree per reduced block, deepest-first: every relay
    // receives all inbound partials before forwarding its own.
    s.pieces = sim::pieces_for(coll);
    for (std::size_t pi = 0; pi < s.pieces.size(); ++pi) {
      const sim::Piece& p = s.pieces[pi];
      const int root = p.chunk;  // block index == destination rank
      const auto parent = random_spanning_tree(adj, root, rng);
      const auto depth = tree_depths(parent);
      const auto needed = needed_nodes(parent, p.contributors);
      std::vector<int> order;
      for (std::size_t v = 0; v < parent.size(); ++v) {
        if (needed[v] && parent[v] >= 0) order.push_back(static_cast<int>(v));
      }
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return depth[static_cast<std::size_t>(a)] > depth[static_cast<std::size_t>(b)];
      });
      std::vector<sim::TransferOp> ops;
      for (int v : order) {
        ops.push_back(
            sim::TransferOp{static_cast<int>(pi), v, parent[static_cast<std::size_t>(v)], -1, 0});
      }
      per_piece.push_back(std::move(ops));
    }
  }

  s.ops = interleave(std::move(per_piece), rng);
  return s;
}

void mutate_schedule(sim::Schedule& schedule, const topo::TopologyGroups& groups,
                     util::Rng& rng, int count) {
  for (int m = 0; m < count; ++m) {
    if (schedule.ops.empty()) return;
    switch (rng.next_below(4)) {
      case 0: {
        // Dependency-safe reorder: within each phase, randomly interleave
        // ops while preserving every piece's own order.
        std::map<int, std::map<int, std::vector<sim::TransferOp>>> phased;  // phase -> piece -> ops
        for (const auto& op : schedule.ops) phased[op.phase][op.piece].push_back(op);
        std::vector<sim::TransferOp> out;
        for (auto& [phase, by_piece] : phased) {
          (void)phase;
          std::vector<std::vector<sim::TransferOp>> lists;
          for (auto& [piece, ops] : by_piece) {
            (void)piece;
            lists.push_back(std::move(ops));
          }
          for (auto& op : interleave(std::move(lists), rng)) out.push_back(op);
        }
        schedule.ops = std::move(out);
        break;
      }
      case 1: {
        // Reassign a random op's dimension to any valid alternative.
        auto& op = schedule.ops[rng.next_below(schedule.ops.size())];
        std::vector<int> dims{-1};
        for (int d = 0; d < groups.num_dims(); ++d) {
          const auto& gd = groups.group_of[static_cast<std::size_t>(d)];
          if (gd[static_cast<std::size_t>(op.src)] >= 0 &&
              gd[static_cast<std::size_t>(op.src)] == gd[static_cast<std::size_t>(op.dst)]) {
            dims.push_back(d);
          }
        }
        op.dim = dims[rng.next_below(dims.size())];
        break;
      }
      case 2: {
        // Duplicate a random forward op: a redundant delivery (warning, not
        // error) that must not confuse either simulator.
        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
          if (!schedule.pieces[static_cast<std::size_t>(schedule.ops[i].piece)].reduce) {
            candidates.push_back(i);
          }
        }
        if (candidates.empty()) break;
        const std::size_t i = candidates[rng.next_below(candidates.size())];
        const sim::TransferOp dup = schedule.ops[i];
        schedule.ops.insert(schedule.ops.begin() + static_cast<std::ptrdiff_t>(i) + 1, dup);
        break;
      }
      default: {
        // Introduce a phase barrier at a random split point. Issue order is
        // preserved, so the schedule stays valid; timing changes.
        const std::size_t split = rng.next_below(schedule.ops.size() + 1);
        for (std::size_t i = split; i < schedule.ops.size(); ++i) {
          schedule.ops[i].phase += 1;
        }
        break;
      }
    }
  }
}

}  // namespace syccl::fuzz

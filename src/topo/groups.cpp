#include "topo/groups.h"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>

#include "util/text.h"

namespace syccl::topo {

namespace {

constexpr int kUnreached = -1;

/// BFS distance (in hops) of every node from the nearest GPU, walking links
/// in either direction. GPUs are at distance 0.
std::vector<int> distances_from_gpus(const Topology& topo) {
  std::vector<int> dist(topo.num_nodes(), kUnreached);
  std::deque<NodeId> queue;
  for (NodeId g : topo.gpus()) {
    dist[static_cast<std::size_t>(g)] = 0;
    queue.push_back(g);
  }
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const int du = dist[static_cast<std::size_t>(u)];
    auto relax = [&](NodeId v) {
      if (dist[static_cast<std::size_t>(v)] == kUnreached) {
        dist[static_cast<std::size_t>(v)] = du + 1;
        queue.push_back(v);
      }
    };
    for (LinkId l : topo.out_links(u)) relax(topo.link(l).dst);
    for (LinkId l : topo.in_links(u)) relax(topo.link(l).src);
  }
  return dist;
}

/// The up-going path (sequence of link ids) from GPU `g` to switch `sw`,
/// following strictly increasing distance. Returns empty if unreachable.
std::vector<LinkId> up_path(const Topology& topo, const std::vector<int>& dist, NodeId g,
                            NodeId sw) {
  // BFS restricted to strictly increasing distance; reconstruct path.
  std::vector<LinkId> via(topo.num_nodes(), kInvalidLink);
  std::vector<bool> seen(topo.num_nodes(), false);
  std::deque<NodeId> queue;
  seen[static_cast<std::size_t>(g)] = true;
  queue.push_back(g);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    if (u == sw) break;
    for (LinkId l : topo.out_links(u)) {
      const NodeId v = topo.link(l).dst;
      if (seen[static_cast<std::size_t>(v)]) continue;
      if (dist[static_cast<std::size_t>(v)] != dist[static_cast<std::size_t>(u)] + 1) continue;
      seen[static_cast<std::size_t>(v)] = true;
      via[static_cast<std::size_t>(v)] = l;
      queue.push_back(v);
    }
  }
  if (!seen[static_cast<std::size_t>(sw)]) return {};
  std::vector<LinkId> path;
  NodeId cur = sw;
  while (cur != g) {
    const LinkId l = via[static_cast<std::size_t>(cur)];
    path.push_back(l);
    cur = topo.link(l).src;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// The span of switch `sw`: ranks of the GPUs with an up-going path to it,
/// ascending. One walk down from `sw`, along in-links from nodes one hop
/// nearer the GPUs, reaches exactly those GPUs.
std::vector<int> span_of(const Topology& topo, const std::vector<int>& dist, NodeId sw) {
  std::vector<bool> seen(topo.num_nodes(), false);
  std::vector<NodeId> queue{sw};
  std::vector<int> ranks;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    const int dv = dist[static_cast<std::size_t>(v)];
    if (dv == 0) ranks.push_back(*topo.gpu_rank(v));
    for (LinkId l : topo.in_links(v)) {
      const NodeId u = topo.link(l).src;
      const auto ui = static_cast<std::size_t>(u);
      if (dist[ui] != dv - 1 || seen[ui]) continue;
      seen[ui] = true;
      queue.push_back(u);
    }
  }
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

/// Aggregates a physical path into a GroupPort: α sums, β is the bottleneck,
/// the port id is the bottleneck link (ties resolved toward the switch so
/// shared NICs map to one port).
GroupPort aggregate_path(const Topology& topo, const std::vector<LinkId>& path) {
  GroupPort port;
  double worst_beta = -1.0;
  for (LinkId l : path) {
    const Link& link = topo.link(l);
    port.alpha += link.alpha;
    if (link.beta >= worst_beta) {  // >= : prefer the link nearest the switch
      worst_beta = link.beta;
      port.port_id = l;
    }
  }
  port.beta = worst_beta;
  return port;
}

/// Reversed counterpart of `path` (the down direction), using the duplex
/// sibling of every link.
std::vector<LinkId> reverse_path(const Topology& topo, const std::vector<LinkId>& path) {
  std::vector<LinkId> rev;
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    const Link& link = topo.link(*it);
    const LinkId back = topo.find_link(link.dst, link.src);
    if (back == kInvalidLink) return {};
    rev.push_back(back);
  }
  return rev;
}

}  // namespace

int GroupTopology::local_of(int rank) const {
  const auto it = std::lower_bound(ranks.begin(), ranks.end(), rank);
  if (it == ranks.end() || *it != rank) return -1;
  return static_cast<int>(it - ranks.begin());
}

double GroupTopology::pair_beta(int i, int j) const {
  return std::max(up[static_cast<std::size_t>(i)].beta, down[static_cast<std::size_t>(j)].beta);
}

namespace {

/// Appends member i's port parameters, truncated to integers to avoid float
/// noise (same quantisation the historical multiset signature used).
void append_params(std::string& out, const GroupTopology& g, std::size_t i) {
  const auto q = [](double v, double unit) { return static_cast<long long>(v * unit); };
  util::append(out, q(g.up[i].alpha, 1e12), '/', q(g.up[i].beta, 1e21), '/',
               q(g.down[i].alpha, 1e12), '/', q(g.down[i].beta, 1e21));
}

std::string compute_signature(const GroupTopology& g) {
  std::string out;
  util::append(out, "n=", g.ranks.size(), ';');
  std::map<int, int> up_block, down_block;
  for (std::size_t i = 0; i < g.ranks.size(); ++i) {
    const int ub =
        up_block.emplace(g.up[i].port_id, static_cast<int>(up_block.size())).first->second;
    const int db =
        down_block.emplace(g.down[i].port_id, static_cast<int>(down_block.size())).first->second;
    append_params(out, g, i);
    util::append(out, "/u", ub, "/d", db, '|');
  }
  return out;
}

}  // namespace

std::string GroupTopology::signature() const {
  return signature_.empty() ? compute_signature(*this) : signature_;
}

void GroupTopology::freeze_signature() { signature_ = compute_signature(*this); }

int TopologyGroups::best_common_dim(int rank_a, int rank_b) const {
  for (int d = 0; d < num_dims(); ++d) {
    const auto& gd = group_of[static_cast<std::size_t>(d)];
    const int ga = gd[static_cast<std::size_t>(rank_a)];
    const int gb = gd[static_cast<std::size_t>(rank_b)];
    if (ga >= 0 && ga == gb) return d;
  }
  return -1;
}

TopologyGroups extract_groups(const Topology& topo) {
  if (topo.num_gpus() == 0) throw std::invalid_argument("topology has no GPUs");
  const std::vector<int> dist = distances_from_gpus(topo);

  // Collect switches per tier.
  std::map<int, std::vector<NodeId>> switches_by_tier;
  for (const Node& n : topo.nodes()) {
    if (n.kind != NodeKind::Switch) continue;
    if (dist[static_cast<std::size_t>(n.id)] == kUnreached) {
      throw std::invalid_argument("switch unreachable from GPUs: " + n.name);
    }
    switches_by_tier[dist[static_cast<std::size_t>(n.id)]].push_back(n.id);
  }
  if (switches_by_tier.empty()) throw std::invalid_argument("topology has no switches");

  TopologyGroups out;
  const int num_ranks = static_cast<int>(topo.num_gpus());

  for (const auto& [tier, switches] : switches_by_tier) {
    // Span of each switch: GPUs reaching it by an up-going path.
    // Collapse switches with identical spans into one group; paths through
    // any of the collapsed switches share physical first-hop bottlenecks, so
    // using a representative switch for port extraction is sufficient.
    std::map<std::vector<int>, NodeId> span_to_rep;
    for (NodeId sw : switches) {
      std::vector<int> span = span_of(topo, dist, sw);
      if (span.empty()) continue;
      span_to_rep.emplace(std::move(span), sw);  // keep first representative
    }
    if (span_to_rep.empty()) continue;

    DimensionInfo dim_info;
    dim_info.tier = tier;
    std::vector<int> group_of_rank(static_cast<std::size_t>(num_ranks), -1);

    int group_index = 0;
    for (const auto& [span, rep] : span_to_rep) {
      GroupTopology gt;
      gt.dim = static_cast<int>(out.dims.size());
      gt.group_index = group_index;
      gt.ranks = span;
      for (int r : span) {
        const NodeId g = topo.gpus()[static_cast<std::size_t>(r)];
        const auto up = up_path(topo, dist, g, rep);
        const auto down = reverse_path(topo, up);
        if (up.empty() || down.empty()) {
          throw std::logic_error("group member without duplex path to switch");
        }
        gt.up.push_back(aggregate_path(topo, up));
        gt.down.push_back(aggregate_path(topo, down));
        auto hops_of = [&](const std::vector<LinkId>& path) {
          std::vector<PathHop> hops;
          hops.reserve(path.size());
          for (LinkId l : path) {
            const Link& link = topo.link(l);
            hops.push_back(PathHop{l, link.alpha, link.beta});
          }
          return hops;
        };
        gt.up_hops.push_back(hops_of(up));
        gt.down_hops.push_back(hops_of(down));
        if (group_of_rank[static_cast<std::size_t>(r)] != -1) {
          throw std::invalid_argument(
              "GPU belongs to two groups in one dimension; topology is not "
              "tier-structured");
        }
        group_of_rank[static_cast<std::size_t>(r)] = group_index;
      }
      if (!gt.up.empty()) {
        dim_info.link_kind = topo.link(static_cast<LinkId>(gt.up.front().port_id)).kind;
      }
      gt.freeze_signature();
      dim_info.groups.push_back(std::move(gt));
      ++group_index;
    }

    out.dims.push_back(std::move(dim_info));
    out.group_of.push_back(std::move(group_of_rank));
  }

  // Bandwidth share u_d: distinct up-port bandwidth per dimension,
  // normalised to 1 across dimensions (§4.2 step 2). Ports are deduplicated
  // *globally*: a higher tier whose bottleneck is a lower tier's port (e.g.
  // spine paths squeezing through the same NIC as the rail) contributes no
  // additional capacity.
  //
  // Each dimension counts its ports at the dimension's *modal* β (most
  // common among its owned ports, ties toward the fastest) rather than
  // summing per-port 1/β. On homogeneous fabrics the two are identical; on a
  // fabric with a few degraded links the modal estimate keeps u_d — and
  // hence the sketch fractions and every sub-demand's piece size — stable,
  // so incremental re-synthesis after a local degradation re-solves only the
  // groups that actually touch the changed links instead of invalidating
  // every cached sub-schedule over a hairline share shift.
  double total = 0.0;
  std::vector<double> per_dim(out.dims.size(), 0.0);
  std::map<int, int> port_owner;  // port id -> first dimension using it
  for (std::size_t d = 0; d < out.dims.size(); ++d) {
    std::map<int, int> shared_with;  // earlier dim -> #ports shared
    std::map<long long, std::pair<int, double>> beta_count;  // quantised β -> {count, β}
    int own_ports = 0;
    for (const auto& g : out.dims[d].groups) {
      for (const auto& p : g.up) {
        const auto [it, inserted] = port_owner.emplace(p.port_id, static_cast<int>(d));
        if (inserted) {
          auto& [count, beta] = beta_count[static_cast<long long>(p.beta * 1e21)];
          ++count;
          beta = p.beta;
          ++own_ports;
        } else {
          ++shared_with[it->second];
        }
      }
    }
    double modal_beta = 0.0;
    int modal_count = 0;
    for (const auto& [q, cb] : beta_count) {
      // Map iteration is by ascending quantised β, so on a tie the fastest
      // (smallest β) wins.
      if (cb.first > modal_count) {
        modal_count = cb.first;
        modal_beta = cb.second;
      }
    }
    if (modal_beta > 0) per_dim[d] = own_ports / modal_beta;
    total += per_dim[d];
    out.dims[d].capacity_dim = static_cast<int>(d);
    // If the dimension mostly rides on earlier dimensions' ports, its
    // workload competes for that capacity.
    int best_dim = -1, best_count = own_ports;
    for (const auto& [dim, count] : shared_with) {
      if (count > best_count) {
        best_count = count;
        best_dim = dim;
      }
    }
    if (best_dim >= 0) {
      out.dims[d].capacity_dim = out.dims[static_cast<std::size_t>(best_dim)].capacity_dim;
    }
  }
  for (std::size_t d = 0; d < out.dims.size(); ++d) {
    out.dims[d].bandwidth_share = total > 0 ? per_dim[d] / total : 0.0;
  }

  return out;
}

}  // namespace syccl::topo

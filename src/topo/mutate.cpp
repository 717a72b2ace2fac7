#include "topo/mutate.h"

#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace syccl::topo {

namespace {

/// Rebuilds `topo` without the links in `removed`, scaling the links in
/// `scaled` by {alpha_scale, beta_scale}. Node ids are preserved (insertion
/// order is replayed); surviving links are renumbered densely.
Topology rebuild(const Topology& topo, const std::set<LinkId>& removed,
                 const std::map<LinkId, std::pair<double, double>>& scaled) {
  Topology out;
  for (const Node& n : topo.nodes()) out.add_node(n.kind, n.server, n.local_index, n.name);
  for (const Link& l : topo.links()) {
    if (removed.count(l.id) != 0) continue;
    double alpha = l.alpha;
    double beta = l.beta;
    if (const auto it = scaled.find(l.id); it != scaled.end()) {
      alpha *= it->second.first;
      beta *= it->second.second;
    }
    out.add_link(l.src, l.dst, alpha, beta, l.kind);
  }
  return out;
}

LinkId require_link(const Topology& topo, NodeId src, NodeId dst) {
  const LinkId l = topo.find_link(src, dst);
  if (l == kInvalidLink) {
    std::ostringstream os;
    os << "no link " << src << " -> " << dst;
    throw std::invalid_argument(os.str());
  }
  return l;
}

void require_scales(double alpha_scale, double beta_scale) {
  if (alpha_scale <= 0 || beta_scale <= 0) {
    throw std::invalid_argument("degradation scales must be positive");
  }
}

}  // namespace

Topology degrade_link(const Topology& topo, NodeId src, NodeId dst, double alpha_scale,
                      double beta_scale) {
  require_scales(alpha_scale, beta_scale);
  const LinkId l = require_link(topo, src, dst);
  return rebuild(topo, {}, {{l, {alpha_scale, beta_scale}}});
}

Topology degrade_duplex(const Topology& topo, NodeId a, NodeId b, double alpha_scale,
                        double beta_scale) {
  require_scales(alpha_scale, beta_scale);
  const LinkId fwd = require_link(topo, a, b);
  const LinkId rev = require_link(topo, b, a);
  return rebuild(topo, {},
                 {{fwd, {alpha_scale, beta_scale}}, {rev, {alpha_scale, beta_scale}}});
}

Topology fail_link(const Topology& topo, NodeId a, NodeId b) {
  const LinkId fwd = require_link(topo, a, b);
  std::set<LinkId> removed{fwd};
  const LinkId rev = topo.find_link(b, a);
  if (rev != kInvalidLink) removed.insert(rev);
  Topology out = rebuild(topo, removed, {});
  check_reachability(out);
  return out;
}

Topology fail_nic(const Topology& topo, NodeId nic) {
  if (nic < 0 || static_cast<std::size_t>(nic) >= topo.num_nodes() ||
      topo.node(nic).kind != NodeKind::Nic) {
    throw std::invalid_argument("fail_nic target is not a NIC node");
  }
  std::set<LinkId> removed;
  for (LinkId l : topo.out_links(nic)) removed.insert(l);
  for (LinkId l : topo.in_links(nic)) removed.insert(l);
  if (removed.empty()) throw std::invalid_argument("NIC has no links to fail");
  Topology out = rebuild(topo, removed, {});
  check_reachability(out);
  return out;
}

void check_reachability(const Topology& topo) {
  if (topo.num_gpus() == 0) throw std::runtime_error("topology has no GPUs");
  std::vector<bool> seen(topo.num_nodes(), false);
  std::deque<NodeId> queue;
  const NodeId start = topo.gpus().front();
  seen[static_cast<std::size_t>(start)] = true;
  queue.push_back(start);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    auto relax = [&](NodeId v) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        queue.push_back(v);
      }
    };
    for (LinkId l : topo.out_links(u)) relax(topo.link(l).dst);
    for (LinkId l : topo.in_links(u)) relax(topo.link(l).src);
  }
  for (const Node& n : topo.nodes()) {
    if (n.kind == NodeKind::Nic) continue;  // dead NICs may dangle
    if (!seen[static_cast<std::size_t>(n.id)]) {
      throw std::runtime_error("mutation disconnects node: " + n.name);
    }
  }
}

Topology permute_gpu_ranks(const Topology& topo, const std::vector<int>& perm) {
  const std::size_t n = topo.num_gpus();
  if (perm.size() != n) throw std::invalid_argument("permutation size != num_gpus");
  std::vector<int> inv(n, -1);
  for (std::size_t r = 0; r < n; ++r) {
    const int p = perm[r];
    if (p < 0 || static_cast<std::size_t>(p) >= n || inv[static_cast<std::size_t>(p)] != -1) {
      throw std::invalid_argument("perm is not a permutation of 0..num_gpus-1");
    }
    inv[static_cast<std::size_t>(p)] = static_cast<int>(r);
  }

  // GPU rank is insertion order among GPUs, and node ids are sequential, so
  // replaying the node list with the k-th GPU slot holding the GPU of old
  // rank inv[k] relabels ranks while keeping every node id position stable.
  // new_id[old id] then only moves GPUs: old rank r lands in slot perm[r].
  std::vector<NodeId> new_id(topo.num_nodes());
  for (const Node& node : topo.nodes()) new_id[static_cast<std::size_t>(node.id)] = node.id;
  for (std::size_t r = 0; r < n; ++r) {
    new_id[static_cast<std::size_t>(topo.gpus()[r])] =
        topo.gpus()[static_cast<std::size_t>(perm[r])];
  }

  Topology out;
  std::size_t gpu_slot = 0;
  for (const Node& node : topo.nodes()) {
    const Node* src = &node;
    if (node.kind == NodeKind::Gpu) {
      src = &topo.node(topo.gpus()[static_cast<std::size_t>(inv[gpu_slot])]);
      ++gpu_slot;
    }
    out.add_node(src->kind, src->server, src->local_index, src->name);
  }
  for (const Link& l : topo.links()) {
    out.add_link(new_id[static_cast<std::size_t>(l.src)], new_id[static_cast<std::size_t>(l.dst)],
                 l.alpha, l.beta, l.kind);
  }
  return out;
}

NodeId node_by_name(const Topology& topo, const std::string& name) {
  for (const Node& n : topo.nodes()) {
    if (n.name == name) return n.id;
  }
  throw std::invalid_argument("no node named '" + name + "'");
}

}  // namespace syccl::topo

#include "hit_path_reference.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace syccl::topo::reference {

namespace {

constexpr int kUnreached = -1;

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

std::vector<LinkId> up_path(const Topology& topo, const std::vector<int>& dist, NodeId g,
                            NodeId sw) {
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

GroupPort aggregate_path(const Topology& topo, const std::vector<LinkId>& path) {
  GroupPort port;
  double worst_beta = -1.0;
  for (LinkId l : path) {
    const Link& link = topo.link(l);
    port.alpha += link.alpha;
    if (link.beta >= worst_beta) {
      worst_beta = link.beta;
      port.port_id = l;
    }
  }
  port.beta = worst_beta;
  return port;
}

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

TopologyGroups extract_groups(const Topology& topo) {
  if (topo.num_gpus() == 0) throw std::invalid_argument("topology has no GPUs");
  const std::vector<int> dist = distances_from_gpus(topo);

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
    std::map<std::vector<int>, NodeId> span_to_rep;
    for (NodeId sw : switches) {
      std::vector<int> span;
      for (int r = 0; r < num_ranks; ++r) {
        const NodeId g = topo.gpus()[static_cast<std::size_t>(r)];
        if (!up_path(topo, dist, g, sw).empty()) span.push_back(r);
      }
      if (span.empty()) continue;
      span_to_rep.emplace(std::move(span), sw);
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
      dim_info.groups.push_back(std::move(gt));
      ++group_index;
    }

    out.dims.push_back(std::move(dim_info));
    out.group_of.push_back(std::move(group_of_rank));
  }

  double total = 0.0;
  std::vector<double> per_dim(out.dims.size(), 0.0);
  std::map<int, int> port_owner;
  for (std::size_t d = 0; d < out.dims.size(); ++d) {
    std::map<int, int> shared_with;
    std::map<long long, std::pair<int, double>> beta_count;
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
      if (cb.first > modal_count) {
        modal_count = cb.first;
        modal_beta = cb.second;
      }
    }
    if (modal_beta > 0) per_dim[d] = own_ports / modal_beta;
    total += per_dim[d];
    out.dims[d].capacity_dim = static_cast<int>(d);
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

namespace {

NodeKind parse_kind(const std::string& word, int line) {
  if (word == "gpu") return NodeKind::Gpu;
  if (word == "nic") return NodeKind::Nic;
  if (word == "switch") return NodeKind::Switch;
  throw std::invalid_argument("line " + std::to_string(line) + ": unknown node kind '" + word +
                              "'");
}

}  // namespace

Topology from_text(const std::string& text) {
  Topology topo;
  std::map<std::string, NodeId> by_name;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word) || word[0] == '#') continue;
    if (word == "node") {
      std::string kind, name;
      int server = 0, local = 0;
      if (!(ls >> kind >> server >> local >> name)) {
        throw std::invalid_argument("line " + std::to_string(line_no) + ": malformed node");
      }
      if (by_name.count(name) != 0) {
        throw std::invalid_argument("line " + std::to_string(line_no) + ": duplicate node '" +
                                    name + "'");
      }
      by_name[name] = topo.add_node(parse_kind(kind, line_no), server, local, name);
    } else if (word == "link" || word == "duplex") {
      std::string a, b, kind;
      double alpha = 0.0, bandwidth = 0.0;
      if (!(ls >> a >> b >> alpha >> bandwidth >> kind)) {
        throw std::invalid_argument("line " + std::to_string(line_no) + ": malformed link");
      }
      const auto ia = by_name.find(a);
      const auto ib = by_name.find(b);
      if (ia == by_name.end() || ib == by_name.end()) {
        throw std::invalid_argument("line " + std::to_string(line_no) + ": unknown node name");
      }
      if (bandwidth <= 0) {
        throw std::invalid_argument("line " + std::to_string(line_no) +
                                    ": bandwidth must be positive");
      }
      if (word == "link") {
        topo.add_link(ia->second, ib->second, alpha, 1.0 / bandwidth, kind);
      } else {
        topo.add_duplex_link(ia->second, ib->second, alpha, 1.0 / bandwidth, kind);
      }
    } else {
      throw std::invalid_argument("line " + std::to_string(line_no) + ": unknown directive '" +
                                  word + "'");
    }
  }
  return topo;
}

}  // namespace syccl::topo::reference

namespace syccl::serve::reference {

namespace {

long long quant_alpha(double a) { return std::llround(a * 1e12); }
long long quant_beta(double b) { return std::llround(b * 1e21); }

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

std::vector<int> compress(const std::vector<std::string>& strings) {
  std::map<std::string, int> rank;
  for (const auto& s : strings) rank.emplace(s, 0);
  int next = 0;
  for (auto& [s, r] : rank) r = next++;
  std::vector<int> out(strings.size());
  for (std::size_t i = 0; i < strings.size(); ++i) out[i] = rank.at(strings[i]);
  return out;
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  std::ostringstream os;
  os << std::hex << h;
  return os.str();
}

void apply_plain_rank_map(sim::Schedule& schedule, const std::vector<int>& map) {
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

}  // namespace

CanonicalTopology canonicalize(const topo::TopologyGroups& groups) {
  CanonicalTopology out;
  if (groups.group_of.empty()) throw std::invalid_argument("canonicalize: no dimensions");
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  out.num_ranks = num_ranks;

  const int num_dims = groups.num_dims();
  std::vector<std::vector<std::string>> member_desc(static_cast<std::size_t>(num_dims));
  std::vector<std::vector<std::string>> ladder(static_cast<std::size_t>(num_dims));
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

  std::vector<int> ord(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) ord[static_cast<std::size_t>(r)] = r;
  std::sort(ord.begin(), ord.end(), [&](int a, int b) {
    return color[static_cast<std::size_t>(a)] < color[static_cast<std::size_t>(b)];
  });
  out.perm.assign(static_cast<std::size_t>(num_ranks), -1);
  for (int k = 0; k < num_ranks; ++k) out.perm[static_cast<std::size_t>(ord[static_cast<std::size_t>(k)])] = k;

  std::ostringstream os;
  os << "syccl-canon/v" << kServeVersion << ";ranks=" << num_ranks << ";dims=" << num_dims
     << ";\n";
  for (int d = 0; d < num_dims; ++d) {
    const auto& dim = groups.dims[static_cast<std::size_t>(d)];
    os << "dim" << d << "{tier=" << dim.tier << ";cap=" << dim.capacity_dim
       << ";share=" << std::llround(dim.bandwidth_share * 1e6) << ";\n";
    std::vector<std::pair<int, std::size_t>> order;
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
    apply_plain_rank_map(schedule, map);
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
  apply_plain_rank_map(schedule, map);
  for (auto& p : schedule.pieces) {
    if (p.chunk < 0 || p.chunk >= from.num_chunks()) {
      throw std::invalid_argument("apply_rank_map: piece chunk out of range");
    }
    p.chunk = chunk_map[static_cast<std::size_t>(p.chunk)];
  }
}

}  // namespace syccl::serve::reference

namespace syccl::runtime::reference {

namespace {

std::string fmt_op(std::size_t index, const sim::TransferOp& op) {
  std::ostringstream os;
  os << "op #" << index << " (piece " << op.piece << ", " << op.src << "->" << op.dst << ")";
  return os.str();
}

/// The demand index as the pre-rewrite validator built it: a hash map from
/// every piece's chunk id to the indices of the pieces carrying it.
struct HashedDemandIndex {
  std::unordered_map<int, std::vector<int>> pieces_by_chunk;
  std::vector<std::pair<int, std::vector<int>>> reduce_demands;
};

HashedDemandIndex hashed_demand_index(const sim::Schedule& schedule,
                                      const coll::Collective& coll) {
  HashedDemandIndex index;
  index.pieces_by_chunk.reserve(schedule.pieces.size());
  for (std::size_t i = 0; i < schedule.pieces.size(); ++i) {
    index.pieces_by_chunk[schedule.pieces[i].chunk].push_back(static_cast<int>(i));
  }
  if (coll.reduce()) index.reduce_demands = sim::reduce_demands(coll);
  return index;
}

}  // namespace

ValidationReport validate_schedule(const sim::Schedule& schedule, const coll::Collective& coll,
                                   const topo::TopologyGroups& groups) {
  ValidationReport report;
  report.traffic_per_dim.assign(static_cast<std::size_t>(groups.num_dims()), 0.0);
  const int num_ranks = static_cast<int>(groups.group_of.front().size());

  std::set<std::pair<int, int>> have;
  std::map<std::pair<int, int>, std::set<int>> contrib;
  for (std::size_t pi = 0; pi < schedule.pieces.size(); ++pi) {
    const sim::Piece& p = schedule.pieces[pi];
    if (p.reduce) {
      for (int c : p.contributors) {
        if (c < 0 || c >= num_ranks) {
          report.errors.push_back("piece contributor rank out of range");
          continue;
        }
        have.insert({static_cast<int>(pi), c});
        contrib[{static_cast<int>(pi), c}].insert(c);
      }
    } else {
      if (p.origin < 0 || p.origin >= num_ranks) {
        report.errors.push_back("piece origin rank out of range");
        continue;
      }
      have.insert({static_cast<int>(pi), p.origin});
    }
  }

  for (std::size_t oi = 0; oi < schedule.ops.size(); ++oi) {
    const sim::TransferOp& op = schedule.ops[oi];
    if (op.piece < 0 || static_cast<std::size_t>(op.piece) >= schedule.pieces.size()) {
      report.errors.push_back(fmt_op(oi, op) + ": unknown piece");
      continue;
    }
    if (op.src < 0 || op.src >= num_ranks || op.dst < 0 || op.dst >= num_ranks ||
        op.src == op.dst) {
      report.errors.push_back(fmt_op(oi, op) + ": bad endpoints");
      continue;
    }
    const int dim = op.dim >= 0 ? op.dim : groups.best_common_dim(op.src, op.dst);
    if (dim < 0 || dim >= groups.num_dims() ||
        groups.group_of[static_cast<std::size_t>(dim)][static_cast<std::size_t>(op.src)] !=
            groups.group_of[static_cast<std::size_t>(dim)][static_cast<std::size_t>(op.dst)] ||
        groups.group_of[static_cast<std::size_t>(dim)][static_cast<std::size_t>(op.src)] < 0) {
      report.errors.push_back(fmt_op(oi, op) + ": endpoints share no group in dimension " +
                              std::to_string(dim));
      continue;
    }
    if (have.count({op.piece, op.src}) == 0) {
      report.errors.push_back(fmt_op(oi, op) + ": source does not hold the piece yet");
      continue;
    }
    const sim::Piece& p = schedule.pieces[static_cast<std::size_t>(op.piece)];
    if (!p.reduce && have.count({op.piece, op.dst}) != 0) {
      report.warnings.push_back(fmt_op(oi, op) + ": redundant delivery (bandwidth waste)");
    }
    if (p.reduce) {
      auto& dst_set = contrib[{op.piece, op.dst}];
      const auto& src_set = contrib[{op.piece, op.src}];
      if (have.count({op.piece, op.dst}) != 0 &&
          std::includes(dst_set.begin(), dst_set.end(), src_set.begin(), src_set.end())) {
        report.warnings.push_back(fmt_op(oi, op) +
                                  ": redundant delivery (no new contributors)");
      }
      dst_set.insert(src_set.begin(), src_set.end());
    }
    have.insert({op.piece, op.dst});
    report.traffic_per_dim[static_cast<std::size_t>(dim)] += p.bytes;
    report.total_traffic += p.bytes;
  }

  const double chunk_bytes = coll.chunk_bytes();
  const HashedDemandIndex demand_index = hashed_demand_index(schedule, coll);
  auto covered = [&](int chunk, int dst, const std::vector<int>* need_contrib) {
    const auto it = demand_index.pieces_by_chunk.find(chunk);
    if (it == demand_index.pieces_by_chunk.end()) return false;
    double bytes = 0.0;
    for (int pi : it->second) {
      if (have.count({pi, dst}) == 0) continue;
      if (need_contrib != nullptr) {
        const auto cit = contrib.find({pi, dst});
        if (cit == contrib.end() ||
            !std::includes(cit->second.begin(), cit->second.end(), need_contrib->begin(),
                           need_contrib->end())) {
          continue;
        }
      }
      bytes += schedule.pieces[static_cast<std::size_t>(pi)].bytes;
    }
    return bytes + 1e-6 >= chunk_bytes;
  };

  if (!coll.reduce()) {
    for (std::size_t c = 0; c < coll.chunks().size(); ++c) {
      for (int d : coll.chunks()[c].dsts) {
        if (!covered(static_cast<int>(c), d, nullptr)) {
          report.errors.push_back("demand unmet: chunk " + std::to_string(c) + " at rank " +
                                  std::to_string(d));
        }
      }
    }
  } else {
    for (const auto& [dst, cs] : demand_index.reduce_demands) {
      if (!covered(dst, dst, &cs)) {
        report.errors.push_back("reduce demand unmet at rank " + std::to_string(dst));
      }
    }
  }

  report.ok = report.errors.empty();
  return report;
}

}  // namespace syccl::runtime::reference

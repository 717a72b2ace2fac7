#include "coll/collective.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace syccl::coll {

const char* kind_name(CollKind kind) {
  switch (kind) {
    case CollKind::SendRecv: return "SendRecv";
    case CollKind::Broadcast: return "Broadcast";
    case CollKind::Scatter: return "Scatter";
    case CollKind::Gather: return "Gather";
    case CollKind::Reduce: return "Reduce";
    case CollKind::AllGather: return "AllGather";
    case CollKind::AllToAll: return "AllToAll";
    case CollKind::ReduceScatter: return "ReduceScatter";
    case CollKind::AllReduce: return "AllReduce";
  }
  return "Unknown";
}

Collective::Collective(CollKind kind, int num_ranks, std::uint64_t total_bytes,
                       double chunk_bytes, bool reduce, std::vector<Chunk> chunks)
    : kind_(kind),
      num_ranks_(num_ranks),
      total_bytes_(total_bytes),
      chunk_bytes_(std::max(1.0, chunk_bytes)),
      reduce_(reduce),
      chunks_(std::move(chunks)) {
  validate();
}

void Collective::validate() const {
  if (num_ranks_ < 1) throw std::invalid_argument("collective needs >= 1 rank");
  std::vector<int> sorted;
  for (const Chunk& c : chunks_) {
    if (c.src < 0 || c.src >= num_ranks_) throw std::invalid_argument("chunk src out of range");
    // A dst is faulty if out of range, equal to src, or a repeat; the first
    // fault in dst order names the error. So a repeat counts only before the
    // first dst that is faulty by itself.
    const auto bad = std::find_if(c.dsts.begin(), c.dsts.end(), [&](int d) {
      return d < 0 || d >= num_ranks_ || d == c.src;
    });
    sorted.assign(c.dsts.begin(), bad);
    if (!std::is_sorted(sorted.begin(), sorted.end())) std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument("duplicate chunk dst");
    }
    if (bad != c.dsts.end()) {
      throw std::invalid_argument(*bad == c.src ? "chunk dst equals src"
                                                : "chunk dst out of range");
    }
  }
}

std::string Collective::describe() const {
  std::ostringstream os;
  os << kind_name(kind_) << "(" << num_ranks_ << " ranks, " << chunks_.size() << " chunks, "
     << total_bytes_ << " B" << (reduce_ ? ", reduce" : "") << ")";
  return os.str();
}

namespace {

std::vector<int> all_except(int num_ranks, int excluded) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(num_ranks) - 1);
  for (int r = 0; r < num_ranks; ++r) {
    if (r != excluded) out.push_back(r);
  }
  return out;
}

void check_root(int num_ranks, int root) {
  if (root < 0 || root >= num_ranks) throw std::invalid_argument("root out of range");
}

}  // namespace

Collective make_sendrecv(int num_ranks, int src, int dst, std::uint64_t total_bytes) {
  check_root(num_ranks, src);
  check_root(num_ranks, dst);
  if (src == dst) throw std::invalid_argument("sendrecv src == dst");
  return Collective(CollKind::SendRecv, num_ranks, total_bytes,
                    static_cast<double>(total_bytes), false, {Chunk{src, {dst}}});
}

Collective make_broadcast(int num_ranks, std::uint64_t total_bytes, int root) {
  check_root(num_ranks, root);
  return Collective(CollKind::Broadcast, num_ranks, total_bytes,
                    static_cast<double>(total_bytes), false,
                    {Chunk{root, all_except(num_ranks, root)}});
}

Collective make_scatter(int num_ranks, std::uint64_t total_bytes, int root) {
  check_root(num_ranks, root);
  std::vector<Chunk> chunks;
  for (int r = 0; r < num_ranks; ++r) {
    if (r == root) continue;
    chunks.push_back(Chunk{root, {r}});
  }
  return Collective(CollKind::Scatter, num_ranks, total_bytes, static_cast<double>(total_bytes) / num_ranks, false,
                    std::move(chunks));
}

Collective make_gather(int num_ranks, std::uint64_t total_bytes, int root) {
  check_root(num_ranks, root);
  std::vector<Chunk> chunks;
  for (int r = 0; r < num_ranks; ++r) {
    if (r == root) continue;
    chunks.push_back(Chunk{r, {root}});
  }
  return Collective(CollKind::Gather, num_ranks, total_bytes, static_cast<double>(total_bytes) / num_ranks, false,
                    std::move(chunks));
}

Collective make_reduce(int num_ranks, std::uint64_t total_bytes, int root) {
  check_root(num_ranks, root);
  std::vector<Chunk> chunks;
  for (int r = 0; r < num_ranks; ++r) {
    if (r == root) continue;
    chunks.push_back(Chunk{r, {root}});
  }
  return Collective(CollKind::Reduce, num_ranks, total_bytes, static_cast<double>(total_bytes) / num_ranks, true,
                    std::move(chunks));
}

Collective make_allgather(int num_ranks, std::uint64_t total_bytes) {
  std::vector<Chunk> chunks;
  for (int r = 0; r < num_ranks; ++r) {
    chunks.push_back(Chunk{r, all_except(num_ranks, r)});
  }
  return Collective(CollKind::AllGather, num_ranks, total_bytes, static_cast<double>(total_bytes) / num_ranks, false,
                    std::move(chunks));
}

Collective make_alltoall(int num_ranks, std::uint64_t total_bytes) {
  std::vector<Chunk> chunks;
  for (int s = 0; s < num_ranks; ++s) {
    for (int d = 0; d < num_ranks; ++d) {
      if (s == d) continue;
      chunks.push_back(Chunk{s, {d}});
    }
  }
  return Collective(CollKind::AllToAll, num_ranks, total_bytes, static_cast<double>(total_bytes) / num_ranks, false,
                    std::move(chunks));
}

Collective make_reduce_scatter(int num_ranks, std::uint64_t total_bytes) {
  // Chunk (s, d): rank s's contribution to the block reduced at rank d.
  std::vector<Chunk> chunks;
  for (int d = 0; d < num_ranks; ++d) {
    for (int s = 0; s < num_ranks; ++s) {
      if (s == d) continue;
      chunks.push_back(Chunk{s, {d}});
    }
  }
  return Collective(CollKind::ReduceScatter, num_ranks, total_bytes, static_cast<double>(total_bytes) / num_ranks, true,
                    std::move(chunks));
}

Collective make_allreduce(int num_ranks, std::uint64_t total_bytes) {
  // Demand description only: every rank needs every rank's contribution,
  // reduced. Synthesis always goes through ReduceScatter + AllGather.
  std::vector<Chunk> chunks;
  for (int r = 0; r < num_ranks; ++r) {
    chunks.push_back(Chunk{r, all_except(num_ranks, r)});
  }
  return Collective(CollKind::AllReduce, num_ranks, total_bytes, static_cast<double>(total_bytes) / num_ranks, true,
                    std::move(chunks));
}

}  // namespace syccl::coll

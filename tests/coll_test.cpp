// Tests for the collective model, decomposition and busbw metric.
#include <gtest/gtest.h>

#include "coll/busbw.h"
#include "coll/collective.h"
#include "coll/decompose.h"

namespace syccl::coll {
namespace {

TEST(Collective, BroadcastShape) {
  const Collective c = make_broadcast(8, 1 << 20, 3);
  EXPECT_EQ(c.kind(), CollKind::Broadcast);
  ASSERT_EQ(c.num_chunks(), 1);
  EXPECT_EQ(c.chunks()[0].src, 3);
  EXPECT_EQ(c.chunks()[0].dsts.size(), 7u);
  EXPECT_DOUBLE_EQ(c.chunk_bytes(), static_cast<double>(1 << 20));
  EXPECT_FALSE(c.reduce());
}

TEST(Collective, AllGatherShape) {
  const Collective c = make_allgather(4, 4096);
  EXPECT_EQ(c.num_chunks(), 4);
  EXPECT_DOUBLE_EQ(c.chunk_bytes(), 1024.0);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(c.chunks()[r].src, r);
    EXPECT_EQ(c.chunks()[r].dsts.size(), 3u);
  }
}

TEST(Collective, AllToAllShape) {
  const Collective c = make_alltoall(4, 4096);
  EXPECT_EQ(c.num_chunks(), 12);  // n(n-1)
  EXPECT_DOUBLE_EQ(c.chunk_bytes(), 1024.0);
}

TEST(Collective, ReduceScatterIsReduce) {
  const Collective c = make_reduce_scatter(4, 4096);
  EXPECT_TRUE(c.reduce());
  EXPECT_EQ(c.num_chunks(), 12);
}

TEST(Collective, RejectsBadRoot) {
  EXPECT_THROW(make_broadcast(4, 1024, 4), std::invalid_argument);
  EXPECT_THROW(make_broadcast(4, 1024, -1), std::invalid_argument);
  EXPECT_THROW(make_sendrecv(4, 1, 1, 1024), std::invalid_argument);
}

// A chunk is judged dst by dst, so of several faults the first one in dst
// order names the error.
TEST(Collective, RejectsBadChunksWithTheFirstFaultInDstOrder) {
  const auto error_of = [](int num_ranks, std::vector<Chunk> chunks) -> std::string {
    try {
      Collective(CollKind::AllGather, num_ranks, 1024, 256.0, false, std::move(chunks));
      return "";
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
  };
  EXPECT_EQ(error_of(4, {{0, {1, 2, 3}}, {1, {3, 0, 2}}}), "");  // a dst recurs across chunks
  EXPECT_EQ(error_of(0, {}), "collective needs >= 1 rank");
  EXPECT_EQ(error_of(4, {{4, {1}}}), "chunk src out of range");
  EXPECT_EQ(error_of(4, {{0, {3, 1, 3}}}), "duplicate chunk dst");
  EXPECT_EQ(error_of(4, {{0, {1, 1, 4}}}), "duplicate chunk dst");
  EXPECT_EQ(error_of(4, {{0, {1, -1, 1}}}), "chunk dst out of range");
  EXPECT_EQ(error_of(4, {{0, {2, 4, 0}}}), "chunk dst out of range");
  EXPECT_EQ(error_of(4, {{0, {2, 0, 2}}}), "chunk dst equals src");
  EXPECT_EQ(error_of(4, {{0, {1}}, {1, {2, 3, 2}}}), "duplicate chunk dst");
}

TEST(Collective, TinySizesClampToOneByte) {
  const Collective c = make_allgather(16, 1);
  EXPECT_GE(c.chunk_bytes(), 1.0);
}

TEST(Decompose, AllGatherIntoBroadcasts) {
  const Collective ag = make_allgather(4, 4096);
  const auto parts = decompose(ag);
  ASSERT_EQ(parts.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(parts[static_cast<std::size_t>(r)].kind(), CollKind::Broadcast);
    EXPECT_EQ(parts[static_cast<std::size_t>(r)].chunks()[0].src, r);
    // Piece size must match the parent chunk size.
    EXPECT_DOUBLE_EQ(parts[static_cast<std::size_t>(r)].chunk_bytes(), ag.chunk_bytes());
  }
}

TEST(Decompose, AllToAllIntoScatters) {
  const Collective a2a = make_alltoall(4, 4096);
  const auto parts = decompose(a2a);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0].kind(), CollKind::Scatter);
  EXPECT_DOUBLE_EQ(parts[0].chunk_bytes(), a2a.chunk_bytes());
}

TEST(Decompose, ReduceScatterIntoReduces) {
  const Collective rs = make_reduce_scatter(4, 4096);
  const auto parts = decompose(rs);
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2].kind(), CollKind::Reduce);
  EXPECT_TRUE(parts[2].reduce());
  EXPECT_DOUBLE_EQ(parts[2].chunk_bytes(), rs.chunk_bytes());
}

TEST(Decompose, AllReducePhases) {
  const Collective ar = make_allreduce(8, 1 << 20);
  const auto [rs, ag] = allreduce_phases(ar);
  EXPECT_EQ(rs.kind(), CollKind::ReduceScatter);
  EXPECT_EQ(ag.kind(), CollKind::AllGather);
  EXPECT_EQ(rs.total_bytes(), ar.total_bytes());
  EXPECT_THROW(decompose(ar), std::invalid_argument);
  EXPECT_THROW(allreduce_phases(rs), std::invalid_argument);
}

TEST(Decompose, InverseKinds) {
  EXPECT_EQ(inverse_kind(CollKind::Broadcast), CollKind::Reduce);
  EXPECT_EQ(inverse_kind(CollKind::Scatter), CollKind::Gather);
  EXPECT_EQ(inverse_kind(CollKind::Gather), CollKind::Scatter);
  EXPECT_THROW(inverse_kind(CollKind::AllGather), std::invalid_argument);
}

TEST(Busbw, FactorsMatchNcclTests) {
  EXPECT_DOUBLE_EQ(busbw_factor(CollKind::AllGather, 8), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(busbw_factor(CollKind::ReduceScatter, 8), 7.0 / 8.0);
  EXPECT_DOUBLE_EQ(busbw_factor(CollKind::AllReduce, 8), 14.0 / 8.0);
  EXPECT_DOUBLE_EQ(busbw_factor(CollKind::Broadcast, 8), 1.0);
}

TEST(Busbw, Computation) {
  const Collective ag = make_allgather(4, 4'000'000'000ull);
  // 4 GB in 0.1 s → algbw 40 GB/s → busbw 30 GB/s.
  EXPECT_NEAR(busbw_GBps(ag, 0.1), 30.0, 1e-9);
  EXPECT_THROW(algbw(100, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace syccl::coll

// Synthesis determinism on generated fabrics. No synthesis decision reads the
// clock, so each drawn (fabric, collective) must yield the same schedule —
// the FNV-1a digest of its runtime::to_xml export — or the same typed error
// at 1 and at 4 threads, and from a cleared and from a warm SubScheduleCache.
// The pinned fabrics are covered by the golden-digest tests; these cases come
// from the fuzz generators, a third of them degraded or with a failed NIC.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <string>
#include <typeinfo>

#include "core/synthesizer.h"
#include "fuzz/generators.h"
#include "runtime/xml.h"
#include "serve/canonical.h"
#include "solver/solve_cache.h"
#include "topo/topology.h"
#include "util/rng.h"

namespace syccl {
namespace {

/// `0x<digest> <predicted time>` of the synthesized schedule, or the type
/// and message of what synthesis threw.
std::string synthesis_outcome(const topo::Topology& topo, const coll::Collective& coll,
                              int threads) {
  core::SynthesisConfig config;
  config.num_threads = threads;
  try {
    core::Synthesizer synthesizer(topo, config);
    const core::SynthesisResult result = synthesizer.synthesize(coll);
    return "0x" + serve::fnv1a_hex(runtime::to_xml(result.schedule, coll.num_ranks())) + " " +
           std::to_string(result.predicted_time);
  } catch (const std::exception& e) {
    return std::string("error ") + typeid(e).name() + ": " + e.what();
  }
}

class GeneratedFabricDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedFabricDeterminism, SameScheduleAcrossThreadsAndCacheStates) {
  util::Rng rng(0x5eed0000u + static_cast<std::uint64_t>(GetParam()));
  fuzz::RandomTopology fabric = fuzz::random_topology(rng);
  if (GetParam() % 3 == 2) fuzz::degrade_random(fabric, rng);
  const coll::Collective coll =
      fuzz::random_collective(rng, static_cast<int>(fabric.topo.num_gpus()));
  SCOPED_TRACE(fabric.desc + " " + coll::kind_name(coll.kind()) + " " +
               std::to_string(coll.total_bytes()));

  auto& cache = solver::SubScheduleCache::instance();
  cache.clear();
  const std::string cold_1 = synthesis_outcome(fabric.topo, coll, 1);
  const std::string warm_4 = synthesis_outcome(fabric.topo, coll, 4);
  cache.clear();
  const std::string cold_4 = synthesis_outcome(fabric.topo, coll, 4);
  const std::string warm_1 = synthesis_outcome(fabric.topo, coll, 1);
  EXPECT_EQ(warm_4, cold_1);
  EXPECT_EQ(cold_4, cold_1);
  EXPECT_EQ(warm_1, cold_1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedFabricDeterminism, ::testing::Range(0, 12));

}  // namespace
}  // namespace syccl

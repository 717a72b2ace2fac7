// Schedule digests: one line per synthesis point with the FNV-1a of the
// winning schedule's XML export, so two builds can be compared byte for byte.
//
//   schedule_digests --threads 4                                # the matrix
//   schedule_digests --topo h800x64 --coll allgather --bytes 1M # one point
//
// The matrix is 13 fabrics × 8 collectives × {64K, 1M, 16M}. Each line reads
// `<topo> <coll> <bytes> 0x<digest> <predicted_us>`, or
// `<topo> <coll> <bytes> error: <message>` when synthesis throws. The
// process-wide solve cache is cleared before every point, so each line is a
// cold synthesis regardless of what ran before it. Two last lines on
// stderr, `solves N` and `cache_hits N`, count the sub-demand solves of the
// whole run and the solves the solve cache served instead.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "core/synthesizer.h"
#include "obs/metrics.h"
#include "obs/scenario.h"
#include "runtime/xml.h"
#include "serve/canonical.h"
#include "solver/solve_cache.h"
#include "util/cli.h"

namespace {

const char* const kFabrics[] = {
    "dgx16",          "a100x16",         "a100x32",          "h800x4",
    "h800x8",         "h800x16",         "flat8",            "micro",
    "dgx16@degraded", "flat8@degraded",  "a100x32@degraded", "a100x16@failnic",
    "h800x4@failnic",
};
const char* const kCollectives[] = {"allreduce", "allgather", "reducescatter", "alltoall",
                                    "broadcast", "scatter",   "gather",        "reduce"};
const std::uint64_t kSizes[] = {64ull << 10, 1ull << 20, 16ull << 20};

struct Point {
  std::string topo;
  std::string coll;
  std::uint64_t bytes = 0;
};

void print_usage() {
  std::cerr << "usage: schedule_digests [--threads N] [--topo NAME --coll NAME --bytes N[K|M|G]]\n"
            << "without --topo/--coll/--bytes, runs 13 fabrics x 8 collectives x 64K/1M/16M\n";
}

void run_point(const Point& p, int threads) {
  std::string line = p.topo + " " + p.coll + " " + std::to_string(p.bytes) + " ";
  try {
    const syccl::topo::Topology topo = syccl::obs::build_scenario_topology(p.topo);
    const syccl::coll::Collective coll = syccl::obs::build_scenario_collective(
        p.coll, static_cast<int>(topo.num_gpus()), p.bytes);
    syccl::solver::SubScheduleCache::instance().clear();
    syccl::core::SynthesisConfig config;
    config.num_threads = threads;
    syccl::core::Synthesizer synth(topo, config);
    const syccl::core::SynthesisResult r = synth.synthesize(coll);
    const std::string xml = syccl::runtime::to_xml(r.schedule, coll.num_ranks());
    char buf[64];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64 " %.6f",
                  syccl::serve::fnv1a(xml.data(), xml.size()), r.predicted_time * 1e6);
    line += buf;
  } catch (const std::exception& e) {
    line += std::string("error: ") + e.what();
  }
  std::cout << line << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  using syccl::util::cli::parse_bytes;
  using syccl::util::cli::parse_int;
  int threads = 1;
  Point single;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << a << "\n";
      print_usage();
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--threads") {
      const auto n = parse_int(v, 0, 1 << 10);
      if (!n) {
        std::cerr << "bad value for --threads: '" << v << "'\n";
        print_usage();
        return 2;
      }
      threads = *n;
    } else if (a == "--topo") {
      single.topo = v;
    } else if (a == "--coll") {
      single.coll = v;
    } else if (a == "--bytes") {
      const auto bytes = parse_bytes(v);
      if (!bytes) {
        std::cerr << "bad value for --bytes: '" << v << "'\n";
        print_usage();
        return 2;
      }
      single.bytes = *bytes;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      print_usage();
      return 2;
    }
  }

  const bool any = !single.topo.empty() || !single.coll.empty() || single.bytes != 0;
  if (any && (single.topo.empty() || single.coll.empty() || single.bytes == 0)) {
    std::cerr << "--topo, --coll and --bytes go together\n";
    print_usage();
    return 2;
  }
  if (any) {
    run_point(single, threads);
  } else {
    for (const char* topo : kFabrics) {
      for (const char* coll : kCollectives) {
        for (const std::uint64_t bytes : kSizes) run_point(Point{topo, coll, bytes}, threads);
      }
    }
  }
  auto& reg = syccl::obs::MetricsRegistry::instance();
  std::cerr << "solves " << reg.counter("solver.solves").value() << "\n"
            << "cache_hits " << reg.counter("solve_cache.hits").value() << "\n";
  return 0;
}

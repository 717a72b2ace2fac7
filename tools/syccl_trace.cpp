// Traced end-to-end run: synthesize a collective on a named topology, dump a
// Chrome trace of the synthesis plus the winning schedule's per-link Gantt,
// and a metrics JSON scoped to the run.
//
//   syccl_trace --topo dgx16 --coll allreduce --bytes 64M
//   syccl_trace --topo h800x4 --coll allgather --bytes 256M --out /tmp/run
//
// Writes <out>/trace.json (load in Perfetto / chrome://tracing) and
// <out>/metrics.json. Default --out is the current directory.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "obs/scenario.h"
#include "util/cli.h"

namespace {

struct Args {
  syccl::obs::ScenarioSpec spec;
  std::string out_dir = ".";
  std::string trace_path;    ///< overrides <out>/trace.json when set
  std::string metrics_path;  ///< overrides <out>/metrics.json when set
};

void print_usage() {
  std::cerr << "usage: syccl_trace [--topo NAME] [--coll NAME] [--bytes N[K|M|G]]\n"
            << "                   [--threads N] [--keep-cache] [--out DIR]\n"
            << "                   [--trace FILE] [--metrics FILE]\n"
            << "topologies: dgx16, h800x<servers>, a100x<gpus>, flat<gpus>, micro\n"
            << "            (append @degraded or @failnic for a faulty variant)\n"
            << "collectives: allreduce allgather reducescatter alltoall broadcast "
               "scatter gather reduce\n";
}

using syccl::util::cli::parse_bytes;
using syccl::util::cli::parse_int;

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--topo") {
      const char* v = need_value();
      if (!v) return false;
      args.spec.topo = v;
    } else if (a == "--coll") {
      const char* v = need_value();
      if (!v) return false;
      args.spec.coll = v;
    } else if (a == "--bytes") {
      const char* v = need_value();
      if (!v) return false;
      const auto bytes = parse_bytes(v);
      if (!bytes) {
        std::cerr << "bad value for --bytes: '" << v << "'\n";
        return false;
      }
      args.spec.bytes = *bytes;
    } else if (a == "--threads") {
      const char* v = need_value();
      if (!v) return false;
      const auto threads = parse_int(v, 0, 1 << 10);
      if (!threads) {
        std::cerr << "bad value for --threads: '" << v << "'\n";
        return false;
      }
      args.spec.num_threads = *threads;
    } else if (a == "--keep-cache") {
      args.spec.clear_solve_cache = false;
    } else if (a == "--out") {
      const char* v = need_value();
      if (!v) return false;
      args.out_dir = v;
    } else if (a == "--trace") {
      const char* v = need_value();
      if (!v) return false;
      args.trace_path = v;
    } else if (a == "--metrics") {
      const char* v = need_value();
      if (!v) return false;
      args.metrics_path = v;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return false;
    }
  }
  if (args.trace_path.empty()) args.trace_path = args.out_dir + "/trace.json";
  if (args.metrics_path.empty()) args.metrics_path = args.out_dir + "/metrics.json";
  return true;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.close();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    print_usage();
    return 2;
  }

  syccl::obs::ScenarioResult result;
  try {
    result = syccl::obs::run_traced_scenario(args.spec);
  } catch (const std::exception& e) {
    std::cerr << "syccl_trace: " << e.what() << "\n";
    return 1;
  }

  if (!write_file(args.trace_path, result.trace_json)) return 1;
  if (!write_file(args.metrics_path, result.metrics_json)) return 1;

  const auto& b = result.synthesis.breakdown;
  std::cout << "syccl_trace: " << args.spec.topo << " " << args.spec.coll << " "
            << args.spec.bytes << " bytes\n"
            << "  chosen:    " << result.synthesis.chosen << "\n"
            << "  predicted: " << result.synthesis.predicted_time * 1e6 << " us ("
            << result.sim.link_events.size() << " link events)\n"
            << "  synthesis: " << b.total_s << " s total, " << b.num_combinations
            << " combinations, " << b.num_solver_calls << " solver calls, "
            << b.cache_hits << "/" << b.cache_hits + b.num_solver_calls << " cache hits\n";
  std::cout << "  wrote " << args.trace_path << " and " << args.metrics_path << "\n";
  return 0;
}

// syccl_bench: argument parsing, the per-run scratch directory, dispatch.
#include <malloc.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "bench.h"
#include "util/cli.h"

namespace {

/// (steal, total) jiffies over all CPUs from /proc/stat.
std::pair<double, double> cpu_steal_and_total() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0.0, total = 0.0, field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

int usage(const char* message) {
  std::fprintf(stderr,
               "syccl_bench: %s\nusage: syccl_bench --workload synth_512|serve_warm|serve_cold "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  namespace cli = syccl::util::cli;
  sycclbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      const auto seed = cli::parse_u64(value);
      if (!seed) return usage("bad --seed");
      options.seed = *seed;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto seconds = cli::parse_int(value, 1, 3600);
      if (!seconds) return usage("bad --seconds");
      options.seconds = *seconds;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed is required");
  if (options.workdir.empty() || !std::filesystem::is_directory(options.workdir)) {
    return usage("--workdir must name an existing directory");
  }
  sycclbench::RunResult (*run)(const sycclbench::Options&) = nullptr;
  if (options.workload == "synth_512") run = sycclbench::run_synth_512;
  if (options.workload == "serve_warm") run = sycclbench::run_serve_warm;
  if (options.workload == "serve_cold") run = sycclbench::run_serve_cold;
  if (!run) return usage("unknown --workload");

  // A peer that vanishes mid-response must surface as a write error.
  std::signal(SIGPIPE, SIG_IGN);
  // Pin glibc's adaptive heap policy: by default it adds arenas whenever
  // threads happen to contend and raises its mmap threshold after large
  // frees, so peak RSS would track the allocator's history in this run
  // rather than the program's memory. One arena per core and a fixed
  // 128 KiB mmap threshold (glibc's starting value) keep it repeatable.
  ::mallopt(M_ARENA_MAX, static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);

  // Libraries and sockets live in a fresh directory that is removed again;
  // working inside it keeps socket paths short whatever the checkout path.
  std::string scratch = (std::filesystem::absolute(options.workdir) / "run-XXXXXX").string();
  if (::mkdtemp(scratch.data()) == nullptr) return usage("cannot create a run directory");
  const std::filesystem::path previous = std::filesystem::current_path();
  std::filesystem::current_path(scratch);
  int code = 1;
  try {
    // The share of CPU time the hypervisor stole during the run: on a
    // shared host it explains a run that is slow for no reason in the code.
    const auto [steal0, total0] = cpu_steal_and_total();
    sycclbench::RunResult result = run(options);
    const auto [steal1, total1] = cpu_steal_and_total();
    result.notes.push_back(sycclbench::fmt(
        "host steal_share %.4f", total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0));
    code = sycclbench::emit(result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "syccl_bench: %s failed: %s\n", options.workload.c_str(), e.what());
  }
  std::filesystem::current_path(previous);
  std::filesystem::remove_all(scratch);
  return code;
}

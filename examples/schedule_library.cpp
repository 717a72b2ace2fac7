// Operating SyCCL like a production deployment: load the cluster from a
// topology file, put a persistent schedule library (serve::DiskLibrary)
// behind an in-process serve::Broker, and serve the traced collectives of a
// training job from it — synthesizing only on library misses.
//
// The job is served twice, reopening the library in between the way a
// restarted service would; every request of the second pass must be a
// library hit, or the example exits 1. All files live in a fresh directory
// that is removed at exit, so runs never see each other's state.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "serve/broker.h"
#include "topo/builders.h"
#include "topo/serialize.h"
#include "training/trace.h"

namespace {

/// A fresh directory for this run, removed (with everything in it) on exit.
struct RunDir {
  std::filesystem::path path;
  RunDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "syccl_example_XXXXXX").string();
    if (::mkdtemp(pattern.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = pattern;
  }
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
};

}  // namespace

int main() {
  using namespace syccl;
  const RunDir run;

  // A deployment would read this file from its inventory system; we write it
  // from a builder to keep the example self-contained.
  const std::string topology_file = (run.path / "cluster.topo").string();
  {
    const topo::Topology cluster = topo::build_h800_cluster(2);
    std::FILE* f = std::fopen(topology_file.c_str(), "w");
    const std::string text = topo::to_text(cluster);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  // Load it back — the schedule pipeline only ever sees the parsed form.
  std::string text;
  {
    std::FILE* f = std::fopen(topology_file.c_str(), "r");
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  const topo::Topology cluster = topo::from_text(text);
  std::printf("loaded %s\n", cluster.summary().c_str());

  training::TrainSetup setup;
  setup.model = training::gpt3_6p7b();
  setup.mode = training::Parallelism::TensorParallel;
  setup.num_gpus = 16;
  setup.batch_tokens = 8192;
  // Serves the job's collectives; returns how many missed the library.
  const auto serve_job = [&](serve::DiskLibrary& library) {
    serve::Broker broker(library);
    int misses = 0;
    for (const auto& call : training::trace_iteration(setup)) {
      serve::ServeRequest request;
      request.topology = cluster;
      request.kind = call.kind;
      request.total_bytes = call.bytes;
      const serve::ServeResponse r = broker.handle(request);
      if (!r.hit) ++misses;
      std::printf("  %-14s %6.1f MB x%d: %.3f ms  [%s]\n", coll::kind_name(call.kind),
                  call.bytes / 1e6, call.count, r.predicted_time * 1e3,
                  r.hit ? "library hit" : "synthesized");
    }
    return misses;
  };

  const std::string library_dir = (run.path / "library").string();
  {
    serve::DiskLibrary library({library_dir});
    std::printf("first pass (empty library):\n");
    serve_job(library);
  }
  serve::DiskLibrary library({library_dir});
  std::printf("second pass (library reopened with %zu schedules):\n", library.stats().entries);
  const int misses = serve_job(library);
  if (misses != 0) {
    std::fprintf(stderr, "FAIL: %d request(s) of the second pass missed the library\n", misses);
    return 1;
  }
  return 0;
}

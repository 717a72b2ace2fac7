// Long-running schedule-compiler service: listens on a unix socket, serves
// schedule requests from a persistent, symmetry-keyed library, synthesizes
// on miss.
//
//   syccl_serve --socket /tmp/syccl.sock --library /var/lib/syccl
//   syccl_serve --socket s.sock --library lib --max-requests 8   # drain & exit
//   syccl_serve --socket s.sock --library lib --deadline-ms 500  # degrade past 500ms
//   syccl_serve --selfcheck --library /tmp/lib                   # no socket
//
// SIGTERM/SIGINT start a graceful drain: stop accepting, finish in-flight
// requests, exit 0. SIGPIPE is ignored (a vanished client is that
// connection's problem). --failpoint injects named faults (util/failpoint.h;
// also via $SYCCL_FAILPOINTS) for chaos testing.
//
// --selfcheck runs the full pipeline in-process — synthesize a small
// scenario, re-request it under a permuted rank labelling, require a library
// hit — and exits non-zero on any mismatch. It is the deployment smoke test
// (and the ctest smoke).
#include <csignal>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "obs/scenario.h"
#include "serve/broker.h"
#include "serve/library.h"
#include "serve/socket.h"
#include "topo/mutate.h"
#include "util/cli.h"
#include "util/failpoint.h"

namespace {

struct Args {
  std::string socket_path = "syccl_serve.sock";
  std::string library_dir = "syccl_library";
  std::uint64_t max_library_bytes = 256ull << 20;
  int max_requests = -1;  ///< <= 0: serve forever
  int threads = 0;
  double deadline_seconds = 0.0;      ///< default synthesis deadline (0 = none)
  double idle_timeout_seconds = 60.0;  ///< per-connection idle bound (0 = none)
  bool selfcheck = false;
};

void print_usage() {
  std::cerr << "usage: syccl_serve [--socket PATH] [--library DIR] [--max-bytes N[K|M|G]]\n"
            << "                   [--max-requests N] [--threads N] [--deadline-ms N]\n"
            << "                   [--idle-timeout SECONDS] [--failpoint NAME=SPEC[;...]]\n"
            << "                   [--selfcheck]\n";
}

bool parse_args(int argc, char** argv, Args& args) {
  namespace cli = syccl::util::cli;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--socket") {
      const char* v = need_value();
      if (!v) return false;
      args.socket_path = v;
    } else if (a == "--library") {
      const char* v = need_value();
      if (!v) return false;
      args.library_dir = v;
    } else if (a == "--max-bytes") {
      const char* v = need_value();
      if (!v) return false;
      const auto bytes = cli::parse_bytes(v);
      if (!bytes) {
        std::cerr << "bad value for --max-bytes: '" << v << "'\n";
        return false;
      }
      args.max_library_bytes = *bytes;
    } else if (a == "--max-requests") {
      const char* v = need_value();
      if (!v) return false;
      const auto n = cli::parse_int(v, 1, 1 << 20);
      if (!n) {
        std::cerr << "bad value for --max-requests: '" << v << "'\n";
        return false;
      }
      args.max_requests = *n;
    } else if (a == "--threads") {
      const char* v = need_value();
      if (!v) return false;
      const auto n = cli::parse_int(v, 0, 1 << 10);
      if (!n) {
        std::cerr << "bad value for --threads: '" << v << "'\n";
        return false;
      }
      args.threads = *n;
    } else if (a == "--deadline-ms") {
      const char* v = need_value();
      if (!v) return false;
      const auto n = cli::parse_int(v, 0, 86'400'000);
      if (!n) {
        std::cerr << "bad value for --deadline-ms: '" << v << "'\n";
        return false;
      }
      args.deadline_seconds = static_cast<double>(*n) / 1000.0;
    } else if (a == "--idle-timeout") {
      const char* v = need_value();
      if (!v) return false;
      const auto n = cli::parse_int(v, 0, 86'400);
      if (!n) {
        std::cerr << "bad value for --idle-timeout: '" << v << "'\n";
        return false;
      }
      args.idle_timeout_seconds = static_cast<double>(*n);
    } else if (a == "--failpoint") {
      const char* v = need_value();
      if (!v) return false;
      try {
        syccl::util::Failpoints::instance().enable_list(v);
      } catch (const std::exception& e) {
        std::cerr << "bad value for --failpoint: " << e.what() << "\n";
        return false;
      }
    } else if (a == "--selfcheck") {
      args.selfcheck = true;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      return false;
    }
  }
  return true;
}

/// End-to-end in-process check: cold miss, identical re-request (hit), and a
/// rank-permuted re-request (the symmetry the service exists for — must hit
/// the same entry).
int selfcheck(syccl::serve::Broker& broker) {
  using namespace syccl;
  serve::ServeRequest request;
  request.topology = obs::build_scenario_topology("flat4");
  request.kind = coll::CollKind::AllGather;
  request.total_bytes = 1 << 20;

  const serve::ServeResponse cold = broker.handle(request);
  if (cold.hit) {
    // A persistent library dir from an earlier selfcheck run; everything
    // below still has to hit.
    std::cout << "selfcheck: library pre-warmed, skipping cold-miss check\n";
  }
  const serve::ServeResponse warm = broker.handle(request);
  if (!warm.hit) {
    std::cerr << "selfcheck: identical re-request missed the library\n";
    return 1;
  }

  serve::ServeRequest permuted = request;
  permuted.topology = topo::permute_gpu_ranks(request.topology, {2, 0, 3, 1});
  const serve::ServeResponse iso = broker.handle(permuted);
  if (!iso.hit) {
    std::cerr << "selfcheck: permuted-rank re-request missed the library\n";
    return 1;
  }
  if (iso.scenario_key != warm.scenario_key) {
    std::cerr << "selfcheck: permuted request derived a different scenario key\n";
    return 1;
  }
  std::cout << "selfcheck: ok (key " << warm.scenario_key << ", predicted "
            << warm.predicted_time * 1e6 << " us)\n";
  return 0;
}

/// Set by main once the server exists; the handler body is async-signal-safe
/// (an atomic store plus shutdown(2) inside begin_drain).
syccl::serve::UnixServer* g_server = nullptr;

void handle_drain_signal(int) {
  if (g_server != nullptr) g_server->begin_drain();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    print_usage();
    return 2;
  }
  // A client that disconnects mid-response must not kill the process; send
  // paths also pass MSG_NOSIGNAL, this covers any non-socket writes.
  std::signal(SIGPIPE, SIG_IGN);

  try {
    syccl::serve::DiskLibrary library({args.library_dir, args.max_library_bytes});
    syccl::serve::BrokerConfig config;
    config.num_threads = args.threads;
    config.default_deadline_seconds = args.deadline_seconds;
    syccl::serve::Broker broker(library, config);
    const auto stats = library.stats();
    std::cout << "syccl_serve: library " << args.library_dir << " (" << stats.entries
              << " entries, " << stats.bytes << " bytes";
    if (stats.quarantined > 0) std::cout << ", " << stats.quarantined << " quarantined";
    std::cout << ")\n";

    if (args.selfcheck) return selfcheck(broker);

    syccl::serve::UnixServer server(args.socket_path);
    g_server = &server;
    struct sigaction sa{};
    sa.sa_handler = handle_drain_signal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);

    std::cout << "syccl_serve: listening on " << args.socket_path << std::endl;
    const int handled =
        server.serve(broker, library, args.max_requests, args.idle_timeout_seconds);
    g_server = nullptr;
    std::cout << "syccl_serve: exiting after " << handled << " requests"
              << (server.draining() ? " (drained)" : "") << "\n";
  } catch (const std::exception& e) {
    std::cerr << "syccl_serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

#include "serve/protocol.h"

#include <charconv>
#include <sstream>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "runtime/xml.h"
#include "serve/codec.h"
#include "topo/serialize.h"
#include "util/cli.h"

namespace syccl::serve {

namespace {

constexpr std::size_t kMaxPayloadBytes = 64ull << 20;  ///< refuse absurd frames

/// Splits on single spaces (the protocol never emits runs of them, but
/// tolerate and skip empties so a sloppy client still parses).
std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

std::string exact_double_str(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

bool write_err(Stream& stream, const std::string& message) {
  return stream.write_all("ERR " + std::to_string(message.size()) + "\n" + message);
}

/// Reads a "<VERB> <nbytes>\n<payload>" frame whose verb line is already
/// split into `tokens`. Empty optional = protocol error (reported inline).
std::optional<std::string> read_counted_payload(Stream& stream,
                                                const std::vector<std::string>& tokens,
                                                std::string& error) {
  if (tokens.size() != 2) {
    error = "expected '" + (tokens.empty() ? std::string("?") : tokens[0]) + " <nbytes>'";
    return std::nullopt;
  }
  const std::optional<std::uint64_t> parsed = util::cli::parse_u64(tokens[1]);
  if (!parsed) {
    error = "bad payload size '" + tokens[1] + "'";
    return std::nullopt;
  }
  const std::uint64_t n = *parsed;
  if (n > kMaxPayloadBytes) {
    error = "payload size " + tokens[1] + " exceeds limit";
    return std::nullopt;
  }
  std::string payload;
  if (!stream.read_exact(payload, static_cast<std::size_t>(n))) {
    error = "truncated payload";
    return std::nullopt;
  }
  return payload;
}

/// The STATS reply: the process-wide serve.* counters every broker counts
/// into, p50 and p99 of its latency histograms (seconds, at bucket
/// resolution: see obs::Histogram::quantile), and this connection's library.
std::string stats_json(DiskLibrary& library) {
  auto& reg = obs::MetricsRegistry::instance();
  obs::Json broker = obs::Json::object();
  for (const char* name : {"requests", "hits", "misses", "joins", "rejects", "verify_failures",
                           "degraded_hits", "upgrades"}) {
    broker.set(name, reg.counter(std::string("serve.") + name).value());
  }
  obs::Json latency = obs::Json::object();
  for (const char* name : {"request", "canon", "synth"}) {
    const obs::Histogram& h = reg.histogram(std::string("serve.") + name + "_seconds");
    latency.set(std::string(name) + "_p50_s", h.quantile(0.5));
    latency.set(std::string(name) + "_p99_s", h.quantile(0.99));
  }
  const DiskLibrary::Stats l = library.stats();
  obs::Json lib = obs::Json::object();
  lib.set("entries", l.entries);
  lib.set("bytes", l.bytes);
  lib.set("hits", l.hits);
  lib.set("misses", l.misses);
  lib.set("evictions", l.evictions);
  lib.set("quarantined", l.quarantined);
  lib.set("rejected_downgrades", l.rejected_downgrades);
  obs::Json out = obs::Json::object();
  out.set("broker", std::move(broker));
  out.set("latency", std::move(latency));
  out.set("library", std::move(lib));
  return out.dump();
}

}  // namespace

std::optional<coll::CollKind> parse_kind(std::string_view name) {
  using coll::CollKind;
  static constexpr CollKind kServed[] = {
      CollKind::Broadcast,     CollKind::Scatter,  CollKind::Gather,
      CollKind::Reduce,        CollKind::AllGather, CollKind::AllToAll,
      CollKind::ReduceScatter, CollKind::AllReduce,
  };
  for (CollKind kind : kServed) {
    if (name == coll::kind_name(kind)) return kind;
  }
  return std::nullopt;
}

std::string encode_request(const ServeRequest& request, std::string_view format) {
  const std::string topology = topo::to_text(request.topology);
  std::ostringstream os;
  os << "REQUEST " << coll::kind_name(request.kind) << ' ' << request.root << ' '
     << request.total_bytes << ' ' << format;
  if (request.deadline_seconds != 0.0) {
    // deadline_ms token: explicit 0 = no deadline, overriding any server
    // default (the encoding of deadline_seconds < 0).
    const std::uint64_t ms =
        request.deadline_seconds < 0.0
            ? 0
            : static_cast<std::uint64_t>(request.deadline_seconds * 1000.0 + 0.5);
    os << ' ' << ms;
  }
  os << '\n';
  os << "TOPOLOGY " << topology.size() << '\n' << topology;
  return os.str();
}

bool read_response(Stream& stream, WireResponse& response) {
  response = WireResponse{};
  std::string line;
  if (!stream.read_line(line)) return false;
  std::vector<std::string> tokens = split_tokens(line);
  if (tokens.empty()) return false;
  if (tokens[0] == "ERR") {
    std::string error;
    auto payload = read_counted_payload(stream, tokens, error);
    if (!payload) return false;
    response.error = *payload;
    return true;
  }
  if (tokens[0] != "OK" || tokens.size() != 6) return false;
  response.hit = tokens[1] == "1";
  response.joined = tokens[2] == "1";
  response.degraded = tokens[3] == "1";
  try {
    response.predicted_time = std::stod(tokens[4]);
  } catch (const std::exception&) {
    return false;
  }
  response.scenario_key = tokens[5];

  if (!stream.read_line(line)) return false;
  tokens = split_tokens(line);
  if (tokens.size() != 3 || tokens[0] != "SCHEDULE") return false;
  response.format = tokens[1];
  std::string error;
  auto payload = read_counted_payload(stream, {tokens[0], tokens[2]}, error);
  if (!payload) return false;
  response.payload = std::move(*payload);
  response.ok = true;
  return true;
}

int serve_connection(Stream& stream, Broker& broker, DiskLibrary& library,
                     const std::atomic<bool>* stop) {
  int handled = 0;
  std::string line;
  while (!(stop && stop->load(std::memory_order_relaxed)) && stream.read_line(line)) {
    const std::vector<std::string> tokens = split_tokens(line);
    if (tokens.empty()) continue;  // blank keep-alive line
    const std::string& verb = tokens[0];

    if (verb == "QUIT") break;
    if (verb == "PING") {
      if (!stream.write_all("PONG\n")) break;
      continue;
    }
    if (verb == "STATS") {
      const std::string json = stats_json(library);
      if (!stream.write_all("OK " + std::to_string(json.size()) + "\n" + json)) break;
      continue;
    }
    if (verb != "REQUEST") {
      if (!write_err(stream, "unknown command '" + verb + "'")) break;
      continue;
    }

    // REQUEST <kind> <root> <total_bytes> <binary|xml> [deadline_ms]
    if (tokens.size() != 5 && tokens.size() != 6) {
      if (!write_err(stream,
                     "expected 'REQUEST <kind> <root> <bytes> <binary|xml> [deadline_ms]'")) {
        break;
      }
      continue;
    }
    const std::optional<coll::CollKind> kind = parse_kind(tokens[1]);
    const std::string& format = tokens[4];
    std::string error;
    if (!kind) error = "unknown collective '" + tokens[1] + "'";
    if (error.empty() && format != "binary" && format != "xml") {
      error = "unknown schedule format '" + format + "'";
    }
    ServeRequest request;
    if (error.empty()) {
      request.kind = *kind;
      const std::optional<int> root = util::cli::parse_int(tokens[2], 0, 1 << 20);
      const std::optional<std::uint64_t> bytes = util::cli::parse_bytes(tokens[3]);
      if (!root) {
        error = "bad root '" + tokens[2] + "'";
      } else if (!bytes || *bytes == 0) {
        error = "bad byte count '" + tokens[3] + "'";
      } else {
        request.root = *root;
        request.total_bytes = *bytes;
      }
    }
    if (error.empty() && tokens.size() == 6) {
      // Bounded to a day: a fat-fingered deadline must not look like "no
      // deadline for the next 49 days".
      const std::optional<std::uint64_t> deadline_ms = util::cli::parse_u64(tokens[5]);
      if (!deadline_ms || *deadline_ms > 86'400'000) {
        error = "bad deadline '" + tokens[5] + "'";
      } else if (*deadline_ms == 0) {
        request.deadline_seconds = -1.0;  // explicit "no deadline"
      } else {
        request.deadline_seconds = static_cast<double>(*deadline_ms) / 1000.0;
      }
    }

    // The TOPOLOGY frame must be consumed even when the request line was
    // bad, or the stream desynchronises.
    if (!stream.read_line(line)) break;
    const std::vector<std::string> topo_tokens = split_tokens(line);
    std::string frame_error;
    std::optional<std::string> topology_text;
    if (topo_tokens.empty() || topo_tokens[0] != "TOPOLOGY") {
      frame_error = "expected TOPOLOGY frame after REQUEST";
    } else {
      topology_text = read_counted_payload(stream, topo_tokens, frame_error);
    }
    if (!topology_text) {
      if (!write_err(stream, frame_error)) break;
      if (frame_error == "truncated payload") break;  // stream is dead
      continue;
    }
    if (!error.empty()) {
      if (!write_err(stream, error)) break;
      continue;
    }

    ++handled;
    try {
      request.topology = topo::from_text(*topology_text);
      const ServeResponse response = broker.handle(request);

      std::string payload;
      if (format == "binary") {
        ScheduleBlob blob;
        blob.scenario_key = response.scenario_key;
        blob.num_ranks = static_cast<std::int32_t>(request.topology.gpus().size());
        blob.bucket_bytes = size_bucket(request.total_bytes);
        blob.predicted_time = response.predicted_time;
        blob.degraded = response.degraded;
        blob.schedule = response.schedule;
        payload = encode_blob(blob);
      } else {
        payload = runtime::to_xml(response.schedule,
                                  static_cast<int>(request.topology.gpus().size()));
      }
      std::ostringstream os;
      os << "OK " << (response.hit ? 1 : 0) << ' ' << (response.joined ? 1 : 0) << ' '
         << (response.degraded ? 1 : 0) << ' '
         << exact_double_str(response.predicted_time) << ' ' << response.scenario_key << '\n'
         << "SCHEDULE " << format << ' ' << payload.size() << '\n'
         << payload;
      if (!stream.write_all(os.str())) break;
    } catch (const std::exception& e) {
      if (!write_err(stream, e.what())) break;
    }
  }
  return handled;
}

}  // namespace syccl::serve

// Wire protocol of the schedule-compiler service: line-oriented commands
// with byte-counted payloads, transport-agnostic (serve/socket.h provides
// the AF_UNIX transport; tests drive the same code over in-memory streams).
//
// Client → server:
//   PING\n
//   STATS\n
//   REQUEST <kind> <root> <total_bytes> <binary|xml> [deadline_ms]\n
//   TOPOLOGY <nbytes>\n<nbytes of topo::to_text format>
//   QUIT\n
// A REQUEST line must be followed immediately by its TOPOLOGY payload.
// The optional deadline_ms bounds the synthesis wait: past it the server
// answers with a degraded fallback schedule (serve/broker.h). 0 = no
// deadline even if the server configures a default; absent = the default.
//
// Server → client:
//   PONG\n                                     (PING)
//   OK <nbytes>\n<json>                        (STATS: serve.* counters +
//                                               library stats)
//   OK <hit> <joined> <degraded> <predicted_time> <scenario_key>\n
//   SCHEDULE <binary|xml> <nbytes>\n<nbytes>   (REQUEST; binary = serve
//                                               codec blob, xml = MSCCL XML)
//   ERR <nbytes>\n<nbytes of message>          (any failure; the connection
//                                               stays open)
//
// Payload sizes are byte counts, so payloads may contain newlines. Numbers
// use util::cli strict parsing server-side — a malformed count is an ERR,
// never a desynchronised stream.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "serve/broker.h"

namespace syccl::serve {

/// Blocking byte stream the protocol runs over. Implementations: the unix
/// socket connection (serve/socket.h) and the in-memory pipe used in tests.
class Stream {
 public:
  virtual ~Stream() = default;
  /// Reads up to '\n' (consumed, not returned). False on EOF/error with no
  /// buffered bytes.
  virtual bool read_line(std::string& line) = 0;
  /// Reads exactly `n` bytes. False on premature EOF/error.
  virtual bool read_exact(std::string& out, std::size_t n) = 0;
  virtual bool write_all(std::string_view data) = 0;
};

/// Maps a protocol kind token ("AllGather", case-sensitive, the names of
/// coll::kind_name) back to the kind. nullopt for unknown names and for
/// SendRecv (not served).
std::optional<coll::CollKind> parse_kind(std::string_view name);

/// Client-side encoder: the REQUEST + TOPOLOGY byte sequence for `request`.
std::string encode_request(const ServeRequest& request, std::string_view format);

/// Client-side view of one response.
struct WireResponse {
  bool ok = false;
  std::string error;  ///< set when !ok
  bool hit = false;
  bool joined = false;
  bool degraded = false;  ///< deadline-fallback schedule (see serve/broker.h)
  double predicted_time = 0.0;
  std::string scenario_key;
  std::string format;   ///< "binary" or "xml"
  std::string payload;  ///< encoded schedule
};

/// Client-side decoder: reads one REQUEST response off `stream`. False on
/// EOF before a complete response.
bool read_response(Stream& stream, WireResponse& response);

/// Serves one connection until QUIT, EOF, or — checked between requests,
/// never mid-request — `stop` becoming true (graceful drain: the in-flight
/// request still gets its response). Every protocol or broker error is
/// reported as an ERR frame on the stream; only transport failures end the
/// loop early. Returns the number of REQUEST commands handled.
int serve_connection(Stream& stream, Broker& broker, DiskLibrary& library,
                     const std::atomic<bool>* stop = nullptr);

}  // namespace syccl::serve

// AF_UNIX transport for the schedule-compiler service.
//
// A local stream socket is the right scope for this reproduction: the
// service shares a machine (or a mount namespace) with its clients, the
// kernel handles framing-free byte streams, and there is no auth surface.
// The listener runs one thread per accepted connection — connections are
// few and long-lived, and the broker already serialises what must be
// serialised — so a slow synthesis on one connection never blocks another
// connection's library hits.
//
// Hardening (DESIGN.md §4i): accepted connections run with SO_RCVTIMEO /
// SO_SNDTIMEO ticks so a wedged peer can never pin a thread forever — an
// idle timeout closes the connection, and a drain flag (set from a signal
// handler via begin_drain()) interrupts blocked I/O within one tick. Sends
// use MSG_NOSIGNAL, so a peer that disappears mid-response surfaces as a
// write error on that connection instead of a process-wide SIGPIPE. Request
// lines are length-bounded (a payload-less client cannot balloon the read
// buffer).
#pragma once

#include <atomic>
#include <memory>
#include <string>

#include "serve/protocol.h"

namespace syccl::serve {

struct FdStreamOptions {
  /// Close the stream after this long with no bytes moving (seconds).
  /// 0 = wait forever (client-side default; servers should bound it).
  double idle_timeout_seconds = 0.0;
  /// When set and true, blocked reads/writes fail within one timeout tick —
  /// how a drain interrupts connections parked in read_line.
  const std::atomic<bool>* stop = nullptr;
};

/// Buffered protocol stream over a connected file descriptor; owns the fd.
class FdStream : public Stream {
 public:
  explicit FdStream(int fd, FdStreamOptions options = {});
  ~FdStream() override;

  FdStream(const FdStream&) = delete;
  FdStream& operator=(const FdStream&) = delete;

  bool read_line(std::string& line) override;
  bool read_exact(std::string& out, std::size_t n) override;
  bool write_all(std::string_view data) override;

 private:
  /// Pulls more bytes into buffer_. False on EOF, error, idle timeout, or
  /// stop flag.
  bool fill();
  bool stopped() const { return options_.stop && options_.stop->load(std::memory_order_relaxed); }

  int fd_;
  FdStreamOptions options_;
  std::string buffer_;
  std::size_t pos_ = 0;  ///< consumed prefix of buffer_
};

/// Listening unix-domain server. Construction binds and listens (replacing
/// a stale socket file at `path`); destruction closes and unlinks.
class UnixServer {
 public:
  explicit UnixServer(const std::string& path);
  ~UnixServer();

  UnixServer(const UnixServer&) = delete;
  UnixServer& operator=(const UnixServer&) = delete;

  /// Accept loop, one serve_connection thread per client. Returns the total
  /// REQUEST count once `max_requests` (> 0) have been handled and their
  /// connections drained, or after begin_drain(); max_requests <= 0 serves
  /// until one of those. `idle_timeout_seconds` bounds how long an accepted
  /// connection may sit with no traffic (0 = forever).
  int serve(Broker& broker, DiskLibrary& library, int max_requests = -1,
            double idle_timeout_seconds = 0.0);

  /// Starts a graceful drain: stop accepting, let in-flight requests
  /// finish, then serve() returns.
  /// Async-signal-safe — exactly what a SIGTERM handler may call.
  void begin_drain();
  bool draining() const { return drain_.load(std::memory_order_relaxed); }

  const std::string& path() const { return path_; }

 private:
  int listen_fd_ = -1;
  std::atomic<bool> drain_{false};
  std::string path_;
};

/// Connects to a serve socket; `timeout_seconds` bounds each read/write on
/// the resulting stream (0 = block forever). Throws std::runtime_error on
/// connect failure.
std::unique_ptr<Stream> connect_unix(const std::string& path, double timeout_seconds = 0.0);

}  // namespace syccl::serve

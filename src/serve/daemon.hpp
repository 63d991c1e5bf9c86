#pragma once
// magicd front ends: serve the wire protocol over stdio or a Unix domain
// socket.
//
// Both run the same epoll reactor (serve/reactor.hpp), so framing, request
// order, the reload/shadow barrier, backpressure, the `stats` reply (with
// its "reactor" block), the write-stall timeout and the SIGTERM/SIGINT
// drain are one implementation. Requests are submitted to the backend
// ScanService as they are read (so micro-batching sees real concurrency)
// while responses are flushed in request order as they resolve. A stream
// ends at EOF or a `quit` line, after which every outstanding verdict is
// flushed.
//
// The socket daemon accepts any number of concurrent connections and
// drains gracefully on SIGTERM/SIGINT: stop accepting, flush in-flight
// verdicts, then drain the service. The stdio mode is the same loop with
// one connection: a socketpair whose far end two byte relays join to the
// caller's input and output fds.
//
// The reactor is written against ScanService; magicd and the tests serve a
// ModelRegistry (one version is the single-model case).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "serve/scan_service.hpp"

namespace magic::serve {

/// Options of both front ends (serve_stream ignores `socket_path` and the
/// accept hook).
struct DaemonOptions {
  std::string socket_path;
  /// Install SIGTERM/SIGINT handlers that trigger graceful drain, and
  /// ignore SIGPIPE so a vanished client cannot kill the process.
  bool handle_signals = true;
  /// Optional external stop flag (tests); polled alongside the signal flag.
  const std::atomic<bool>* external_stop = nullptr;
  /// How long the drain waits for connections to flush their in-flight
  /// verdicts before hard-closing them (bounds shutdown latency even when
  /// a client stops reading).
  std::chrono::milliseconds drain_grace{5000};
  /// Worker threads for extraction and control commands (the event loop
  /// itself never extracts or scores). 0 = a small default.
  std::size_t io_workers = 0;
  /// Per-connection flow control: past this many outstanding responses the
  /// reactor stops reading the connection and resumes at half the limit.
  std::size_t max_pending_per_connection = 512;
  /// A connection whose output buffer makes no write progress for this
  /// long is dropped (the peer stopped reading).
  std::chrono::milliseconds write_stall_timeout{30000};
  /// Max bytes consumed from one connection per readable pass (0 = no
  /// cap). Bounds how much raw input a fast pipelining writer can buffer
  /// ahead of parsing — max_pending_per_connection only limits *parsed*
  /// responses — and keeps one connection from monopolizing the loop;
  /// level-triggered epoll re-delivers the event for the remainder.
  std::size_t read_chunk_bytes = 256 * 1024;
  /// Test hook: when set and true, the event loop treats its next wakeup
  /// as a fatal poll failure — exercising the teardown path that must
  /// close every connection fd before the error propagates.
  const std::atomic<bool>* inject_loop_fault = nullptr;
  /// Test hook: when set to a nonzero errno, the next accept attempt fails
  /// with it (the value is consumed) — exercising the fd-exhaustion path
  /// that parks the listener instead of spinning on a level-triggered
  /// event.
  std::atomic<int>* inject_accept_errno = nullptr;
};

/// Binds `options.socket_path` (replacing a *stale socket file* only — a
/// path occupied by any other kind of file is refused), accepts connections
/// until a stop signal, then drains and returns the total number of scan
/// requests served. Throws std::runtime_error on socket setup failure or a
/// fatal event-loop error.
std::uint64_t run_unix_daemon(ScanService& service, const DaemonOptions& options);

/// Serves one request stream read from `in_fd` with responses written to
/// `out_fd` (the stdio mode of magicd) until end of input, a `quit` line or
/// a stop signal, then drains the service like the socket daemon. Verdicts
/// are written as soon as they resolve, while the input is still open.
/// `in_fd` may be any readable fd, a regular file included; neither fd is
/// closed. Returns the number of scan requests submitted. Malformed lines
/// produce an {"id":"","status":"error",...} response instead of killing
/// the stream.
std::uint64_t serve_stream(int in_fd, int out_fd, ScanService& service,
                           const DaemonOptions& options);

}  // namespace magic::serve

#pragma once
// Epoll-based event loop behind both magicd front ends.
//
// One reactor thread owns every connection fd. The socket daemon binds a
// listener and accepts any number of clients; the stdio mode
// (serve_stream, serve/daemon.cpp) hands it one end of a socketpair as its
// only connection and no listener. Either way this file is the one place
// the wire protocol is framed and parsed. Reads are non-blocking and feed
// per-connection line buffers; each parsed request becomes an in-order
// response entry on that connection's pending deque. Extraction and scoring
// never run on the loop: scan and control requests are dispatched to a
// small worker pool, and verdict completion hooks (PendingVerdict::on_ready)
// wake the loop through an eventfd when a response at the front of a deque
// becomes flushable.
//
// Flow control, per connection:
//  - responses flush strictly in request order (protocol invariant);
//  - past `max_pending_per_connection` outstanding responses the loop
//    stops reading that connection (EPOLLIN deregistered) and resumes at
//    half the limit — backpressure lands on the one slow client;
//  - each readable pass consumes at most `read_chunk_bytes` of raw input,
//    so a fast pipelining writer can neither balloon the input buffer
//    ahead of parsing nor monopolize the loop (level-triggered epoll
//    re-delivers the remainder);
//  - a line with no '\n' after 64 MiB (kMaxLineBytes) is answered with
//    one error line; the connection then stops reading and closes, so the
//    buffered input of one connection is bounded too;
//  - a connection paused behind an in-flight `reload`/`shadow` barrier
//    stays paused until the control's completion hook wakes the loop — a
//    blocking reload never spins it;
//  - a client that stops reading accumulates an output buffer; if no write
//    progress happens for `write_stall_timeout` the connection is dropped,
//    so one stuck peer can never wedge the daemon;
//  - fd exhaustion (EMFILE/ENFILE on accept) parks the listener for a tick
//    instead of letting the level-triggered event spin the loop.
//
// Shutdown replicates the thread-per-connection daemon's semantics: on a
// stop signal the listener (if any) closes, already-buffered request lines
// are still parsed, in-flight verdicts get `drain_grace` to flush,
// stragglers are hard-closed, and finally the ScanService drains (resolving everything
// still queued). If the event loop itself dies (epoll failure, injected
// fault), every connection fd is torn down *before* the error propagates —
// a dying loop must never leave peers attached to a daemon that will not
// serve them again.

#include <cstdint>
#include <functional>

#include "serve/daemon.hpp"

namespace magic::serve {

class ScanService;

/// Runs the reactor until `should_stop` returns true (checked at least
/// every ~200ms), then drains gracefully. With `stream_fd` < 0 it binds
/// `options.socket_path` and accepts clients. Otherwise `stream_fd` is a
/// connected non-blocking stream socket the reactor takes ownership of and
/// serves as its only connection, with no listener; the loop then also
/// ends once that connection is fully served. Returns the number of scan
/// requests submitted to the service. Throws std::runtime_error on setup
/// failure or a fatal event-loop error — after tearing down every
/// connection fd.
std::uint64_t run_reactor(ScanService& service, const DaemonOptions& options,
                          const std::function<bool()>& should_stop,
                          int stream_fd = -1);

}  // namespace magic::serve

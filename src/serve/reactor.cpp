#include "serve/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/scan_service.hpp"
#include "serve/stats.hpp"
#include "serve/wire.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace magic::serve {
namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": errno " + std::to_string(errno));
}

/// Binds the Unix listener. A path already occupied by a *socket* is a
/// stale leftover of a crashed daemon and is replaced; any other kind of
/// file is refused — blindly unlinking whatever sits at --socket used to
/// be able to delete a user's regular file.
int bind_unix_listener(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("magicd: bad socket path '" + socket_path + "'");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  struct stat st {};
  if (::lstat(socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      throw std::runtime_error("magicd: refusing to replace non-socket file '" +
                               socket_path + "'");
    }
    ::unlink(socket_path.c_str());
  } else if (errno != ENOENT) {
    throw_errno("magicd: stat " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("magicd: socket");
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("magicd: cannot bind " + socket_path + " (errno " +
                             std::to_string(errno) + ")");
  }
  if (::listen(fd, 1024) != 0) {
    ::close(fd);
    throw_errno("magicd: listen");
  }
  return fd;
}

/// Removes the daemon's socket file on shutdown — only if the path still
/// holds a socket (same guard as bind: never delete a file the daemon did
/// not create).
void remove_socket_file(const std::string& path) noexcept {
  struct stat st {};
  if (::lstat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) {
    ::unlink(path.c_str());
  }
}

/// One in-order response slot on a connection's pending deque. `id` and
/// `is_stats` are written by the loop before the entry is ever shared;
/// `line` is written by exactly one producer (worker task or verdict
/// completion hook) before the release-store on `ready`, and read by the
/// loop after the acquire-load.
struct Entry {
  std::string id;
  bool is_stats = false;
  std::atomic<bool> ready{false};
  std::string line;
};

/// Wake-up channel from worker / scoring threads into the event loop: a
/// list of connection serials with flushable progress, plus an eventfd that
/// makes epoll_wait return. Outlives the loop in a shared_ptr so late
/// verdict completions (e.g. after a fatal-teardown) degrade to no-ops.
class WakeHub {
 public:
  explicit WakeHub(int event_fd) : event_fd_(event_fd) {}

  void notify(std::uint64_t serial) MAGIC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    if (closed_) return;
    ready_.push_back(serial);
    if (!signaled_) {
      signaled_ = true;
      const std::uint64_t one = 1;
      // A full eventfd counter is unreachable with this coalescing; an
      // EAGAIN here would still leave the serial queued for the next wake.
      [[maybe_unused]] const ssize_t n = ::write(event_fd_, &one, sizeof(one));
    }
  }

  /// Loop side: collect pending serials and re-arm.
  std::vector<std::uint64_t> drain() MAGIC_EXCLUDES(mutex_) {
    std::uint64_t counter = 0;
    while (::read(event_fd_, &counter, sizeof(counter)) > 0) {
    }
    std::vector<std::uint64_t> out;
    util::MutexLock lock(mutex_);
    out.swap(ready_);
    signaled_ = false;
    return out;
  }

  /// Must be called before the loop closes event_fd_: notify() never
  /// touches the fd again afterwards.
  void close() MAGIC_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    closed_ = true;
  }

 private:
  const int event_fd_;
  util::Mutex mutex_;
  bool closed_ MAGIC_GUARDED_BY(mutex_) = false;
  bool signaled_ MAGIC_GUARDED_BY(mutex_) = false;
  std::vector<std::uint64_t> ready_ MAGIC_GUARDED_BY(mutex_);
};

struct Conn {
  int fd = -1;
  std::uint64_t serial = 0;
  std::string in;          ///< received bytes not yet parsed into lines
  std::size_t in_start = 0;
  /// in[in_start, in_scanned) is known to hold no '\n': a line arriving in
  /// many reads is searched once, not once per read.
  std::size_t in_scanned = 0;
  std::deque<std::shared_ptr<Entry>> pending;
  std::string out;         ///< rendered responses not yet written
  std::size_t out_start = 0;
  bool want_read = true;   ///< EPOLLIN registered
  bool want_write = false; ///< EPOLLOUT registered
  bool saw_eof = false;
  bool read_closed = false;  ///< EOF consumed, `quit` seen, or draining
  bool dead = false;         ///< write error — drop silently
  /// In-flight control command (reload/shadow): a per-connection sequence
  /// point. Lines after it stay buffered until it resolves, so a pipelined
  /// `reload` is guaranteed to apply to the scans that follow it.
  std::shared_ptr<Entry> barrier;
  /// Set while `out` is non-empty; pushed forward on every write progress.
  Clock::time_point stall_deadline{};
};

// epoll_event.data.u64 tags; connection serials start above these.
constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kWakeTag = 1;

// The longest unterminated line a connection may buffer: far above any
// base64 listing a client sends, and a bound on what one peer streaming
// bytes without a '\n' can make the daemon hold.
constexpr std::size_t kMaxLineBytes = std::size_t{64} << 20;

class Reactor {
 public:
  Reactor(ScanService& service, const DaemonOptions& options,
          const std::function<bool()>& should_stop, int stream_fd)
      : service_(service),
        options_(options),
        should_stop_(should_stop),
        listening_(stream_fd < 0),
        stream_fd_(stream_fd) {}

  ~Reactor() { release_fds(); }

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  std::uint64_t run() {
    setup();
    std::string fault;
    // A stream reactor (no listener) is done once its one connection is.
    while (fault.empty() && !should_stop_() && (listening_ || !conns_.empty())) {
      const int n = ::epoll_wait(epoll_fd_, events_.data(),
                                 static_cast<int>(events_.size()), kTickMs);
      if (n < 0) {
        if (errno == EINTR) continue;  // signal: loop re-checks should_stop
        fault = "magicd: epoll_wait: errno " + std::to_string(errno);
        break;
      }
      if (fault_injected()) {
        fault = "magicd: injected event-loop fault";
        break;
      }
      dispatch(n);
      expire_stalled();
      maybe_rearm_listener();
    }
    if (!fault.empty()) {
      // The PR 2 daemon closed only the listener on a poll failure and
      // threw, leaving connection threads blocked forever. The reactor owns
      // every fd, so a fatal error tears all of them down before it
      // propagates: peers see EOF, nothing can hang on a dead loop.
      fatal_teardown();
      throw std::runtime_error(fault);
    }
    graceful_drain();
    return served_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr int kTickMs = 200;
  static constexpr std::size_t kUnboundedRead =
      std::numeric_limits<std::size_t>::max();

  bool fault_injected() const {
    return options_.inject_loop_fault != nullptr &&
           options_.inject_loop_fault->load(std::memory_order_acquire);
  }

  void setup() {
    if (listening_) listen_fd_ = bind_unix_listener(options_.socket_path);
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw_errno("magicd: epoll_create1");
    event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (event_fd_ < 0) throw_errno("magicd: eventfd");
    hub_ = std::make_shared<WakeHub>(event_fd_);
    if (listening_) add_fd(listen_fd_, kListenerTag, EPOLLIN);
    add_fd(event_fd_, kWakeTag, EPOLLIN);
    if (!listening_ && !add_conn(std::exchange(stream_fd_, -1))) {
      throw std::runtime_error("magicd: cannot register the stream connection");
    }
    events_.resize(256);
    std::size_t workers = options_.io_workers;
    if (workers == 0) workers = 4;
    pool_ = std::make_unique<util::ThreadPool>(workers);
  }

  void add_fd(int fd, std::uint64_t tag, std::uint32_t mask) {
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = tag;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw_errno("magicd: epoll_ctl add");
    }
  }

  void update_interest(Conn& conn) {
    const std::uint32_t mask = (conn.want_read ? EPOLLIN : 0u) |
                               (conn.want_write ? EPOLLOUT : 0u);
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = conn.serial;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  }

  void dispatch(int n) {
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events_[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kListenerTag) {
        accept_ready();
        continue;
      }
      if (ev.data.u64 == kWakeTag) {
        ++stats_.wakeups;
        for (const std::uint64_t serial : hub_->drain()) pump(serial);
        continue;
      }
      const std::uint64_t serial = ev.data.u64;
      auto it = conns_.find(serial);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = it->second;
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        if (conn.read_closed) {
          // Peer fully gone and nothing more to read: any buffered output
          // is undeliverable. Matches the old daemon dropping a vanished
          // client on EPIPE.
          close_conn(serial);
          continue;
        }
        readable(conn);  // consume the EOF/reset through the read path
        pump(serial);
        continue;
      }
      if (ev.events & EPOLLIN) readable(conn);
      pump(serial);  // handles EPOLLOUT flushing too; may close the conn
    }
  }

  void accept_ready() {
    while (true) {
      int fd = -1;
      const int injected =
          options_.inject_accept_errno != nullptr
              ? options_.inject_accept_errno->exchange(0,
                                                       std::memory_order_acq_rel)
              : 0;
      if (injected != 0) {
        errno = injected;
      } else {
        fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
      }
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
          // Resource exhaustion: the connection stays in the backlog, so a
          // level-triggered listener event re-fires instantly and the loop
          // would spin at 100% CPU until fds free up. Park the listener
          // (drop it from the epoll set) and re-arm after a tick.
          park_listener();
        }
        break;  // EAGAIN: drained; anything else: try again next tick
      }
      add_conn(fd);
    }
  }

  /// Takes ownership of a connected non-blocking stream socket and serves
  /// it as a connection. False (fd closed) when epoll refuses it.
  bool add_conn(int fd) {
    const std::uint64_t serial = next_serial_++;
    Conn conn;
    conn.fd = fd;
    conn.serial = serial;
    auto [it, inserted] = conns_.emplace(serial, std::move(conn));
    try {
      add_fd(fd, serial, EPOLLIN);
    } catch (const std::exception&) {
      ::close(fd);
      conns_.erase(it);
      return false;
    }
    ++stats_.accepted;
    return true;
  }

  void park_listener() {
    if (listener_parked_ || listen_fd_ < 0) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    listener_parked_ = true;
    listener_resume_ = Clock::now() + std::chrono::milliseconds(kTickMs);
    ++stats_.accept_parks;
  }

  /// Re-arms a parked listener once its backoff elapsed. Called every loop
  /// iteration; epoll_wait's kTickMs timeout guarantees the loop gets here
  /// even when no fd is active.
  void maybe_rearm_listener() {
    if (!listener_parked_ || listen_fd_ < 0) return;
    if (Clock::now() < listener_resume_) return;
    listener_parked_ = false;
    add_fd(listen_fd_, kListenerTag, EPOLLIN);
  }

  /// Consumes what the kernel has buffered for this connection (up to
  /// EAGAIN, EOF, or `budget` bytes) into conn.in. The budget matters: the
  /// max_pending backpressure only bounds *parsed* response entries, so an
  /// uncapped recv loop would let a fast pipelining writer grow conn.in
  /// arbitrarily (and hold the loop hostage) before the pause ever kicks
  /// in. Stopping early is safe — the listener set is level-triggered, so
  /// EPOLLIN re-fires and the remainder is read on a later pass, with
  /// other connections serviced in between.
  void read_available(Conn& conn, std::size_t budget) {
    char buf[65536];
    while (!conn.saw_eof && budget > 0) {
      const std::size_t want = std::min(budget, sizeof(buf));
      const ssize_t n = ::recv(conn.fd, buf, want, 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        budget -= static_cast<std::size_t>(n);
        continue;
      }
      if (n == 0) {
        conn.saw_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.dead = true;  // ECONNRESET and friends: drop silently
      return;
    }
  }

  void readable(Conn& conn) {
    read_available(conn, options_.read_chunk_bytes > 0
                             ? options_.read_chunk_bytes
                             : kUnboundedRead);
    if (!conn.dead) process_input(conn);
  }

  /// Parses complete lines out of conn.in (and, at EOF, a final
  /// unterminated line — FdLineReader semantics) until the buffer is dry,
  /// backpressure or an in-flight control command pauses the connection, or
  /// the stream ends.
  void process_input(Conn& conn) {
    while (!conn.read_closed && !conn.dead) {
      if (conn.barrier) {
        if (conn.barrier->ready.load(std::memory_order_acquire)) {
          conn.barrier.reset();
        } else {
          pause_read(conn);  // bound conn.in while the control executes
          break;
        }
      }
      if (conn.pending.size() >= options_.max_pending_per_connection) {
        pause_read(conn);
        break;
      }
      const std::size_t nl =
          conn.in.find('\n', std::max(conn.in_start, conn.in_scanned));
      std::string line;
      if (nl != std::string::npos) {
        line = conn.in.substr(conn.in_start, nl - conn.in_start);
        conn.in_start = nl + 1;
      } else if (conn.in.size() - conn.in_start > kMaxLineBytes) {
        reject_overlong_line(conn);
        break;
      } else if (conn.saw_eof && conn.in_start < conn.in.size()) {
        line = conn.in.substr(conn.in_start);
        conn.in_start = conn.in.size();
      } else {
        conn.in_scanned = conn.in.size();
        break;
      }
      handle_line(conn, line);
    }
    conn.in.erase(0, conn.in_start);
    conn.in_scanned -= std::min(conn.in_scanned, conn.in_start);
    conn.in_start = 0;
    if (conn.read_closed) {
      conn.in.clear();  // `quit`: remaining input is never parsed
      conn.in_scanned = 0;
      stop_reading(conn);
    } else if (conn.saw_eof && conn.in.empty()) {
      conn.read_closed = true;
      stop_reading(conn);
    }
  }

  /// A line past kMaxLineBytes: one error response, the buffered bytes
  /// released, and no further reads on the connection, which closes once
  /// the responses before and including this one are written.
  void reject_overlong_line(Conn& conn) {
    auto entry = std::make_shared<Entry>();
    Verdict verdict;
    verdict.status = VerdictStatus::Error;
    verdict.error = "request line longer than " + std::to_string(kMaxLineBytes) +
                    " bytes; closing the connection";
    entry->line = wire::verdict_to_json(entry->id, verdict);
    entry->ready.store(true, std::memory_order_release);
    conn.pending.push_back(std::move(entry));
    std::string().swap(conn.in);
    conn.in_start = 0;
    conn.in_scanned = 0;
    conn.read_closed = true;
  }

  void stop_reading(Conn& conn) {
    if (!conn.want_read) return;
    conn.want_read = false;
    update_interest(conn);
  }

  void pause_read(Conn& conn) {
    if (!conn.want_read || conn.read_closed) return;
    conn.want_read = false;
    update_interest(conn);
    ++stats_.read_pauses;
  }

  void handle_line(Conn& conn, const std::string& line) {
    auto entry = std::make_shared<Entry>();
    try {
      const auto request = wire::parse_request_line(line);
      if (!request) return;  // blank / '#': the documented no-response lines
      switch (request->kind) {
        case wire::Request::Kind::Quit:
          conn.read_closed = true;
          return;
        case wire::Request::Kind::Stats:
          // Rendered at flush time (see flush_entries), so the payload
          // reflects the requests ordered before it.
          entry->is_stats = true;
          entry->ready.store(true, std::memory_order_release);
          conn.pending.push_back(std::move(entry));
          return;
        case wire::Request::Kind::Reload:
        case wire::Request::Kind::Shadow:
          conn.pending.push_back(entry);
          conn.barrier = entry;
          dispatch_control(conn.serial, std::move(entry), *request);
          return;
        case wire::Request::Kind::Path:
        case wire::Request::Kind::Base64:
          entry->id = request->id;
          conn.pending.push_back(entry);
          dispatch_scan(conn.serial, std::move(entry), std::move(*request));
          ++stats_.requests;
          return;
      }
    } catch (const std::exception& e) {
      // Malformed request: exactly one error response, stream stays up.
      Verdict verdict;
      verdict.status = VerdictStatus::Error;
      verdict.error = e.what();
      entry->line = wire::verdict_to_json(entry->id, verdict);
      entry->ready.store(true, std::memory_order_release);
      conn.pending.push_back(std::move(entry));
    }
  }

  /// Extraction + scoring off the loop: read the file (path requests),
  /// submit to the service, and let the verdict's completion hook render
  /// the response and wake the loop. The hook captures only the entry, the
  /// hub and the verdict handle — never the reactor — so a late completion
  /// after teardown is harmless.
  void dispatch_scan(std::uint64_t serial, std::shared_ptr<Entry> entry,
                     wire::Request request) {
    auto hub = hub_;
    ScanService& service = service_;
    std::atomic<std::uint64_t>& served = served_;
    pool_->submit([&service, &served, hub, serial, entry = std::move(entry),
                   request = std::move(request)] {
      auto finish_error = [&](const std::string& message) {
        Verdict verdict;
        verdict.status = VerdictStatus::Error;
        verdict.error = message;
        entry->line = wire::verdict_to_json(entry->id, verdict);
        entry->ready.store(true, std::memory_order_release);
        hub->notify(serial);
      };
      try {
        std::string listing;
        std::string_view view = request.payload;
        if (request.kind == wire::Request::Kind::Path) {
          if (!read_file_to_string(request.payload, listing)) {
            finish_error("cannot open " + request.payload);
            return;
          }
          view = listing;
        }
        const PendingVerdict verdict =
            service.submit_listing(view, request.version);
        served.fetch_add(1, std::memory_order_relaxed);
        verdict.on_ready([entry, hub, serial, verdict] {
          entry->line = wire::verdict_to_json(entry->id, verdict.get());
          entry->ready.store(true, std::memory_order_release);
          hub->notify(serial);
        });
      } catch (const std::exception& e) {
        finish_error(e.what());
      }
    });
  }

  /// Control commands may block (a reload materializes a model), so they
  /// run on the worker pool too; ScanService::control never throws.
  void dispatch_control(std::uint64_t serial, std::shared_ptr<Entry> entry,
                        wire::Request request) {
    auto hub = hub_;
    ScanService& service = service_;
    pool_->submit([&service, hub, serial, entry = std::move(entry),
                   request = std::move(request)] {
      entry->line = service.control(request);
      entry->ready.store(true, std::memory_order_release);
      hub->notify(serial);
    });
  }

  std::string render_stats() {
    std::string payload = service_.stats_json();
    stats_.active = conns_.size();
    // Splice the reactor block into the service's stats object.
    payload.insert(payload.size() - 1, ",\"reactor\":" + stats_.to_json());
    return payload;
  }

  /// Moves ready front entries into the output buffer (order preserved).
  void flush_entries(Conn& conn) {
    while (!conn.pending.empty()) {
      Entry& front = *conn.pending.front();
      if (!front.ready.load(std::memory_order_acquire)) break;
      conn.out += front.is_stats ? render_stats() : front.line;
      conn.out += '\n';
      conn.pending.pop_front();
    }
  }

  void try_write(Conn& conn) {
    bool progressed = false;
    while (conn.out_start < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_start,
                 conn.out.size() - conn.out_start, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_start += static_cast<std::size_t>(n);
        progressed = true;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn.dead = true;  // EPIPE / reset: peer vanished, drop silently
      return;
    }
    if (conn.out_start == conn.out.size()) {
      conn.out.clear();
      conn.out_start = 0;
    } else if (conn.out_start > 65536) {
      conn.out.erase(0, conn.out_start);
      conn.out_start = 0;
    }
    if (conn.out.empty()) {
      conn.stall_deadline = Clock::time_point{};
    } else if (progressed || conn.stall_deadline == Clock::time_point{}) {
      conn.stall_deadline = Clock::now() + options_.write_stall_timeout;
    }
  }

  /// Per-connection driver: flush ready responses, write, resume paused
  /// reads once the deque shrinks, close when the stream is complete.
  void pump(std::uint64_t serial) {
    auto it = conns_.find(serial);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    while (!conn.dead) {
      flush_entries(conn);
      try_write(conn);
      if (conn.dead) break;
      if (conn.read_closed && conn.pending.empty() && conn.out.empty()) {
        close_conn(serial);  // stream fully served
        return;
      }
      // Resume only once any control barrier has resolved (checking ready,
      // not presence — the barrier pointer is cleared inside process_input):
      // re-enabling reads under an unresolved barrier would pause again
      // immediately and spin this loop, with two epoll_ctl calls per lap,
      // for the whole duration of a blocking reload. The barrier's
      // completion hook wakes the loop, which re-enters here.
      if (!conn.want_read && !conn.read_closed &&
          (!conn.barrier ||
           conn.barrier->ready.load(std::memory_order_acquire)) &&
          conn.pending.size() <= options_.max_pending_per_connection / 2) {
        conn.want_read = true;
        update_interest(conn);
        process_input(conn);  // lines buffered while paused
        continue;             // they may have produced flushable entries
      }
      break;
    }
    if (conn.dead) {
      close_conn(serial);
      return;
    }
    const bool want_write = !conn.out.empty();
    if (want_write != conn.want_write) {
      conn.want_write = want_write;
      update_interest(conn);
    }
  }

  void close_conn(std::uint64_t serial) {
    auto it = conns_.find(serial);
    if (it == conns_.end()) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    ::close(it->second.fd);
    conns_.erase(it);
    ++stats_.closed;
  }

  void expire_stalled() {
    if (conns_.empty()) return;
    const auto now = Clock::now();
    std::vector<std::uint64_t> stalled;
    for (const auto& [serial, conn] : conns_) {
      if (conn.stall_deadline != Clock::time_point{} &&
          conn.stall_deadline <= now) {
        stalled.push_back(serial);
      }
    }
    for (const std::uint64_t serial : stalled) {
      ++stats_.write_stalls;
      close_conn(serial);
    }
  }

  /// Graceful shutdown, same contract as the thread-per-connection daemon:
  /// stop accepting, parse what is already buffered, give in-flight
  /// verdicts `drain_grace` to flush, hard-close stragglers, then drain
  /// the service so every outstanding PendingVerdict resolves.
  void graceful_drain() {
    // A client whose connect() already completed sits in the listener
    // backlog even if its EPOLLIN was never dispatched; closing the
    // listener would reset it mid-request. Adopt those connections first —
    // they drain like any other.
    if (listening_) {
      accept_ready();
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    std::vector<std::uint64_t> serials;
    serials.reserve(conns_.size());
    for (auto& [serial, conn] : conns_) {
      serials.push_back(serial);
      if (!conn.read_closed && !conn.dead) {
        // Requests the client already sent sit in the kernel receive queue
        // if the stop signal beat their EPOLLIN dispatch; consume them —
        // closing an fd with unread data resets the peer mid-read, and the
        // old daemon's reader threads always drained what was buffered.
        // Unbudgeted: after this pass reads are off for good, so anything
        // left unread here would be lost.
        read_available(conn, kUnboundedRead);
        if (!conn.dead) {
          conn.saw_eof = true;  // treat the drain as end-of-stream
          process_input(conn);
        }
      }
      // Lines still parked behind an in-flight control barrier are parsed
      // when it resolves (saw_eof is set, so read_closed follows then);
      // everything else is closed for reading now.
      if (conn.in.empty() || conn.dead) {
        conn.read_closed = true;
      }
      stop_reading(conn);
    }
    for (const std::uint64_t serial : serials) pump(serial);

    const auto deadline = Clock::now() + options_.drain_grace;
    while (!conns_.empty()) {
      const auto now = Clock::now();
      if (now >= deadline) break;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
      const int timeout =
          static_cast<int>(std::min<std::chrono::milliseconds::rep>(
              left.count(), kTickMs));
      const int n = ::epoll_wait(epoll_fd_, events_.data(),
                                 static_cast<int>(events_.size()),
                                 timeout > 0 ? timeout : 1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // teardown below hard-closes whatever is left
      }
      dispatch(n);
      expire_stalled();
    }
    while (!conns_.empty()) close_conn(conns_.begin()->first);
    hub_->close();
    pool_.reset();     // join extraction workers (late wakes are no-ops)
    service_.drain();  // resolve everything still queued
    release_fds();
    if (listening_) remove_socket_file(options_.socket_path);
  }

  /// Fatal-error teardown: close every connection fd (peers see EOF), join
  /// the workers, leave the service running — its owner decides its fate.
  void fatal_teardown() {
    while (!conns_.empty()) close_conn(conns_.begin()->first);
    hub_->close();
    pool_.reset();
    release_fds();
    if (listening_) remove_socket_file(options_.socket_path);
  }

  void release_fds() {
    for (auto& [serial, conn] : conns_) ::close(conn.fd);
    conns_.clear();
    if (hub_) hub_->close();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (stream_fd_ >= 0) ::close(stream_fd_);
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    listen_fd_ = stream_fd_ = event_fd_ = epoll_fd_ = -1;
  }

  ScanService& service_;
  const DaemonOptions& options_;
  const std::function<bool()>& should_stop_;

  /// False for a stream reactor: one adopted connection, no listener.
  const bool listening_;
  /// The adopted connection until setup() registers it (owned from
  /// construction, so a failed setup still closes it).
  int stream_fd_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  bool listener_parked_ = false;  ///< deregistered after fd exhaustion
  Clock::time_point listener_resume_{};
  std::shared_ptr<WakeHub> hub_;
  std::vector<epoll_event> events_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_serial_ = kWakeTag + 1;
  std::atomic<std::uint64_t> served_{0};
  ReactorStats stats_;
  /// Declared last: tasks reference the members above, so the pool must
  /// join before any of them die (run() also joins explicitly).
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace

std::uint64_t run_reactor(ScanService& service, const DaemonOptions& options,
                          const std::function<bool()>& should_stop,
                          int stream_fd) {
  Reactor reactor(service, options, should_stop, stream_fd);
  return reactor.run();
}

}  // namespace magic::serve

#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "serve/reactor.hpp"
#include "util/join_thread.hpp"

namespace magic::serve {
namespace {

// ---------------------------------------------------------------------------
// Signal plumbing: the handler may only touch a lock-free atomic flag.

std::atomic<bool> g_signal_stop{false};

void stop_signal_handler(int) { g_signal_stop.store(true, std::memory_order_relaxed); }

/// The stop condition of both front ends. Installs the signal handlers
/// first when `options.handle_signals` asks for them.
std::function<bool()> stop_predicate(const DaemonOptions& options) {
  if (options.handle_signals) {
    g_signal_stop.store(false, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = stop_signal_handler;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    // Belt and braces on top of MSG_NOSIGNAL in the reactor's writes: a
    // client that disconnects mid-response must never SIGPIPE-kill the
    // daemon.
    ::signal(SIGPIPE, SIG_IGN);
  }
  return [&options] {
    if (options.handle_signals && g_signal_stop.load(std::memory_order_relaxed)) {
      return true;
    }
    return options.external_stop != nullptr &&
           options.external_stop->load(std::memory_order_acquire);
  };
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": errno " + std::to_string(errno));
}

/// Owning file descriptor.
class UniqueFd {
 public:
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { reset(); }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  int get() const noexcept { return fd_; }
  int release() noexcept { return std::exchange(fd_, -1); }
  void reset() noexcept {
    if (fd_ >= 0) ::close(std::exchange(fd_, -1));
  }

 private:
  int fd_;
};

/// Writes all of `data` to `fd` (with send(MSG_NOSIGNAL) when `fd` is a
/// socket). False on a write error.
bool write_all(int fd, std::string_view data, bool is_socket) {
  while (!data.empty()) {
    const ssize_t n = is_socket ? ::send(fd, data.data(), data.size(), MSG_NOSIGNAL)
                                : ::write(fd, data.data(), data.size());
    if (n >= 0) {
      data.remove_prefix(static_cast<std::size_t>(n));
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd writable{fd, POLLOUT, 0};  // a caller's non-blocking fd
      ::poll(&writable, 1, -1);
    } else if (errno != EINTR) {
      return false;
    }
  }
  return true;
}

/// Inbound relay of serve_stream: copies `in_fd` into the stream socket
/// until end of input, then half-closes the socket, which the reactor reads
/// as EOF. Also ends when the reactor closed its end (send fails) or on a
/// wake of `stop_fd` — polled together with `in_fd`, so `quit` or a drain
/// returns even while the writer keeps the input open.
void relay_input(int in_fd, int sock, int stop_fd) {
  pollfd fds[2] = {{in_fd, POLLIN, 0}, {stop_fd, POLLIN, 0}};
  char buf[65536];
  for (;;) {
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) return;
    if (fds[0].revents == 0) continue;
    const ssize_t n = ::read(in_fd, buf, sizeof(buf));
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if (n <= 0) break;  // end of input; a read error ends it the same way
    if (!write_all(sock, {buf, static_cast<std::size_t>(n)}, true)) return;
  }
  ::shutdown(sock, SHUT_WR);
}

/// Outbound relay of serve_stream: copies the stream socket to `out_fd`
/// until the reactor closes the connection. When `out_fd` fails (its reader
/// went away) the socket is shut down both ways, so the reactor sees its
/// peer vanish and drops the connection as it would a socket client's.
void relay_output(int sock, int out_fd) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(sock, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    if (!write_all(out_fd, {buf, static_cast<std::size_t>(n)}, false)) {
      ::shutdown(sock, SHUT_RDWR);
      return;
    }
  }
}

}  // namespace

std::uint64_t run_unix_daemon(ScanService& service, const DaemonOptions& options) {
  return run_reactor(service, options, stop_predicate(options));
}

std::uint64_t serve_stream(int in_fd, int out_fd, ScanService& service,
                           const DaemonOptions& options) {
  const std::function<bool()> should_stop = stop_predicate(options);
  // The reactor only speaks to sockets (and epoll refuses regular files),
  // so the stream reaches it through a socketpair: the reactor end is its
  // one connection, the relay end is bridged to the caller's fds.
  int pair[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, pair) != 0) {
    throw_errno("magicd: socketpair");
  }
  UniqueFd reactor_end(pair[0]);
  const UniqueFd relay_end(pair[1]);
  const UniqueFd wake(::eventfd(0, EFD_CLOEXEC));
  if (wake.get() < 0) throw_errno("magicd: eventfd");
  const int flags = ::fcntl(reactor_end.get(), F_GETFL);
  if (flags < 0 || ::fcntl(reactor_end.get(), F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("magicd: fcntl");
  }

  util::JoinThread outbound;
  util::JoinThread inbound;
  // Ends both relays before they are joined, however this function exits:
  // the outbound relay reads EOF once the reactor end is closed (the
  // reactor closes it itself when it ran), the wake releases the inbound
  // relay's poll.
  auto release_relays = [&] {
    reactor_end.reset();
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake.get(), &one, sizeof(one));
  };
  try {
    outbound = util::JoinThread(relay_output, relay_end.get(), out_fd);
    inbound = util::JoinThread(relay_input, in_fd, relay_end.get(), wake.get());
    const std::uint64_t served =
        run_reactor(service, options, should_stop, reactor_end.release());
    release_relays();
    return served;
  } catch (...) {
    release_relays();
    throw;
  }
}

}  // namespace magic::serve

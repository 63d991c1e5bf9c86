#include "serve/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serve_test_util.hpp"
#include "serve/wire.hpp"
#include "tensor/simd/dispatch.hpp"

namespace magic::serve {
namespace {

using namespace std::chrono_literals;
using testing::one_version_registry;
using testing::shared_classifier;

constexpr const char* kListing =
    "401000 mov eax, 1\n"
    "401005 add eax, 2\n"
    "401008 ret\n";

ServeConfig daemon_config() {
  ServeConfig config;
  config.workers = 2;
  config.queue_capacity = 64;
  config.max_batch = 4;
  config.batch_window = 500us;
  return config;
}

/// Stream options for tests: no process-wide signal handlers.
DaemonOptions stream_options() {
  DaemonOptions options;
  options.handle_signals = false;
  return options;
}

void write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    ASSERT_GT(n, 0);
    done += static_cast<std::size_t>(n);
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream reader(text);
  std::string line;
  while (std::getline(reader, line)) lines.push_back(line);
  return lines;
}

/// Reads everything `file` holds (an output tmpfile) as lines.
std::vector<std::string> read_lines(std::FILE* file) {
  std::rewind(file);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) text.append(buf, n);
  return split_lines(text);
}

/// Serves `input` from a pipe whose writer has already closed (so the
/// stream ends at EOF) and returns the response lines.
std::vector<std::string> run_stream(const std::string& input,
                                    ScanService& service,
                                    std::uint64_t* served = nullptr) {
  int in[2];
  EXPECT_EQ(::pipe(in), 0);
  EXPECT_LT(input.size(), 65536u) << "input must fit the pipe buffer";
  write_all(in[1], input);
  ::close(in[1]);
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  const std::uint64_t n =
      serve_stream(in[0], ::fileno(out), service, stream_options());
  ::close(in[0]);
  if (served != nullptr) *served = n;
  std::vector<std::string> lines = read_lines(out);
  std::fclose(out);
  return lines;
}

/// Reads one '\n'-terminated line from `fd` within `timeout`; empty when
/// none arrived in time.
std::string read_line_within(int fd, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::string line;
  char c = 0;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return "";
    pollfd readable{fd, POLLIN, 0};
    if (::poll(&readable, 1, static_cast<int>(left.count())) <= 0) return "";
    if (::read(fd, &c, 1) != 1) return "";
    if (c == '\n') return line;
    line += c;
  }
}

TEST(ServeStream, GoldenVerdictMatchesDirectScan) {
  auto registry = one_version_registry(daemon_config());
  const core::Prediction direct = shared_classifier().predict_listing(kListing);

  std::uint64_t served = 0;
  const auto lines = run_stream(
      "req1 b64 " + wire::base64_encode(kListing) + "\n", *registry, &served);
  EXPECT_EQ(served, 1u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\":\"req1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"family\":\"" + direct.family_name + "\""),
            std::string::npos);
}

TEST(ServeStream, ResponsesComeBackInRequestOrder) {
  auto registry = one_version_registry(daemon_config());
  const std::string b64 = wire::base64_encode(kListing);
  std::ostringstream in;
  for (int i = 0; i < 12; ++i) in << "r" << i << " b64 " << b64 << "\n";
  const auto lines = run_stream(in.str(), *registry);
  ASSERT_EQ(lines.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"id\":\"r" + std::to_string(i) + "\""),
              std::string::npos)
        << lines[static_cast<std::size_t>(i)];
  }
}

TEST(ServeStream, CommentsAndBlanksIgnoredMalformedReportsError) {
  auto registry = one_version_registry(daemon_config());
  const auto lines = run_stream(
      "# a comment\n"
      "\n"
      "r1 frobnicate zzz\n"
      "r2 b64 !!!notbase64!!!\n",
      *registry);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"status\":\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"error\""), std::string::npos);
}

TEST(ServeStream, PathRequestReadsFileAndMissingFileIsError) {
  auto registry = one_version_registry(daemon_config());
  const std::string path = ::testing::TempDir() + "magic_daemon_test_listing.asm";
  {
    std::ofstream out(path);
    out << kListing;
  }
  const auto lines = run_stream(
      "f1 path " + path + "\n" +
      "f2 path " + path + ".does-not-exist\n",
      *registry);
  std::remove(path.c_str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\":\"f1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":\"f2\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\":\"error\""), std::string::npos);
}

TEST(ServeStream, StatsLineReflectsEarlierRequests) {
  auto registry = one_version_registry(daemon_config());
  const auto lines = run_stream(
      "s1 b64 " + wire::base64_encode(kListing) + "\n" +
      "stats\n",
      *registry);
  ASSERT_EQ(lines.size(), 2u);
  // The stats snapshot is rendered after its ordered predecessors resolve.
  EXPECT_NE(lines[1].find("\"completed\":1"), std::string::npos) << lines[1];
  // The wire reply names the SIMD dispatch level the kernels ran at.
  const std::string level =
      magic::tensor::simd::level_name(magic::tensor::simd::active_level());
  EXPECT_NE(lines[1].find("\"simd_level\":\"" + level + "\""), std::string::npos)
      << lines[1];
  // stdio shares the socket daemon's event loop, so its stats carry the
  // reactor block too: the stream is the loop's one connection.
  EXPECT_NE(lines[1].find("\"reactor\":{"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"accepted\":1"), std::string::npos) << lines[1];
}

TEST(ServeStream, QuitStopsReadingFurtherRequests) {
  auto registry = one_version_registry(daemon_config());
  std::uint64_t served = 0;
  const auto lines = run_stream(
      "q1 b64 " + wire::base64_encode(kListing) + "\n" +
      "quit\n" +
      "q2 b64 " + wire::base64_encode(kListing) + "\n",
      *registry, &served);
  EXPECT_EQ(served, 1u);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\":\"q1\""), std::string::npos);
}

// The blocking stdio loop this mode replaced flushed only after reading its
// next line, so an interactive client waiting for its answer hung forever.
TEST(ServeStream, VerdictArrivesWhileInputStaysOpen) {
  auto registry = one_version_registry(daemon_config());
  int in[2];
  int out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  std::uint64_t served = 0;
  std::thread stream(
      [&] { served = serve_stream(in[0], out[1], *registry, stream_options()); });

  write_all(in[1], "open1 b64 " + wire::base64_encode(kListing) + "\n");
  const std::string line = read_line_within(out[0], 1000ms);
  EXPECT_NE(line.find("\"id\":\"open1\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos) << line;

  ::close(in[1]);  // EOF ends the stream
  stream.join();
  EXPECT_EQ(served, 1u);
  ::close(in[0]);
  ::close(out[0]);
  ::close(out[1]);
}

// `magicd < requests.txt`: epoll refuses regular files (EPERM), which the
// relay in front of the reactor makes irrelevant.
TEST(ServeStream, RegularFileInputIsServedToEof) {
  auto registry = one_version_registry(daemon_config());
  const std::string path = ::testing::TempDir() + "magic_daemon_requests_" +
                           std::to_string(::getpid()) + ".txt";
  const std::string b64 = wire::base64_encode(kListing);
  {
    std::ofstream requests(path);
    for (int i = 0; i < 5; ++i) requests << "file" << i << " b64 " << b64 << "\n";
    requests << "stats";  // unterminated last line is still a request
  }
  const int in = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(in, 0);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  const std::uint64_t served =
      serve_stream(in, ::fileno(out), *registry, stream_options());
  ::close(in);
  std::remove(path.c_str());
  const auto lines = read_lines(out);
  std::fclose(out);
  EXPECT_EQ(served, 5u);
  ASSERT_EQ(lines.size(), 6u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find(
                  "\"id\":\"file" + std::to_string(i) + "\""),
              std::string::npos)
        << lines[static_cast<std::size_t>(i)];
  }
  EXPECT_NE(lines[5].find("\"completed\":5"), std::string::npos) << lines[5];
}

TEST(ServeStream, QuitReturnsWhileWriterStaysAttached) {
  auto registry = one_version_registry(daemon_config());
  int in[2];
  ASSERT_EQ(::pipe(in), 0);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  std::atomic<bool> done{false};
  std::thread stream([&] {
    serve_stream(in[0], ::fileno(out), *registry, stream_options());
    done.store(true);
  });
  write_all(in[1], "w1 b64 " + wire::base64_encode(kListing) + "\nquit\n");
  // The write end stays open: only `quit` can end the stream.
  for (int i = 0; i < 500 && !done.load(); ++i) std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(done.load()) << "serve_stream did not return after quit";
  ::close(in[1]);  // releases a stream that missed the quit
  stream.join();
  ::close(in[0]);
  const auto lines = read_lines(out);
  std::fclose(out);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\":\"w1\""), std::string::npos) << lines[0];
}

TEST(UnixDaemon, RoundTripOverSocket) {
  auto registry = one_version_registry(daemon_config());

  // Keep the socket path short: sun_path is ~108 bytes.
  const std::string socket_path =
      "/tmp/magicd_test_" + std::to_string(::getpid()) + ".sock";
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;

  std::uint64_t served = 0;
  std::thread daemon([&] { served = run_unix_daemon(*registry, options); });

  // The listener may not be bound yet; retry the connect briefly.
  std::unique_ptr<wire::UnixClient> client;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      client = std::make_unique<wire::UnixClient>(socket_path);
      break;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(10ms);
    }
  }
  ASSERT_NE(client, nullptr) << "could not connect to " << socket_path;

  const std::string b64 = wire::base64_encode(kListing);
  client->send_line("c1 b64 " + b64);
  client->send_line("c2 b64 " + b64);
  client->send_line("stats");
  client->finish_sending();

  std::vector<std::string> lines;
  std::string line;
  while (client->recv_line(line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\":\"c1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"id\":\"c2\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"submitted\":"), std::string::npos);

  stop.store(true);
  daemon.join();
  EXPECT_EQ(served, 2u);
}

TEST(UnixDaemon, SurvivesClientThatDisconnectsWithUnreadResponses) {
  // A client that vanishes before reading its responses must surface as a
  // per-connection EPIPE (MSG_NOSIGNAL in write_line), never a
  // process-killing SIGPIPE, and later clients must still be served.
  auto registry = one_version_registry(daemon_config());
  const std::string socket_path =
      "/tmp/magicd_epipe_" + std::to_string(::getpid()) + ".sock";
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;  // no SIG_IGN: MSG_NOSIGNAL must suffice
  options.external_stop = &stop;

  std::thread daemon([&] { run_unix_daemon(*registry, options); });
  const std::string b64 = wire::base64_encode(kListing);
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      // Scope ends before any response is read: fd closes with verdicts
      // (possibly) still unflushed on the daemon side.
      wire::UnixClient vanishing(socket_path);
      vanishing.send_line("v1 b64 " + b64);
      vanishing.send_line("v2 b64 " + b64);
      break;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(10ms);
    }
  }

  wire::UnixClient client(socket_path);
  client.send_line("after b64 " + b64);
  client.finish_sending();
  std::vector<std::string> lines;
  std::string line;
  while (client.recv_line(line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\":\"after\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":\"ok\""), std::string::npos);

  stop.store(true);
  daemon.join();
}

TEST(UnixDaemon, DrainMidConnectionResolvesOutstandingRequests) {
  auto registry = one_version_registry(daemon_config());
  const std::string socket_path =
      "/tmp/magicd_drain_" + std::to_string(::getpid()) + ".sock";
  std::atomic<bool> stop{false};
  DaemonOptions options;
  options.socket_path = socket_path;
  options.handle_signals = false;
  options.external_stop = &stop;

  std::thread daemon([&] { run_unix_daemon(*registry, options); });
  std::unique_ptr<wire::UnixClient> client;
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      client = std::make_unique<wire::UnixClient>(socket_path);
      break;
    } catch (const std::runtime_error&) {
      std::this_thread::sleep_for(10ms);
    }
  }
  ASSERT_NE(client, nullptr);

  const std::string b64 = wire::base64_encode(kListing);
  client->send_line("d1 b64 " + b64);
  client->send_line("d2 b64 " + b64);
  // Do NOT half-close: the drain path must shut the connection down for us.
  stop.store(true);

  std::vector<std::string> lines;
  std::string line;
  while (client->recv_line(line)) lines.push_back(line);
  daemon.join();
  // Both requests were read before the drain kicked in or the connection
  // was shut down first; either way every received response is well-formed.
  for (const auto& response : lines) {
    EXPECT_NE(response.find("\"status\":"), std::string::npos) << response;
  }
}

}  // namespace
}  // namespace magic::serve

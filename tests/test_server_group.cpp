// runtime::ServerGroup multi-reactor suite: one listener per worker
// (SO_REUSEPORT only when there are several), the bind contract, the
// accept pause when descriptors run out, ordered/idempotent stop with
// graceful drain, and the run_on_all_workers exclusivity door. Everything
// runs over real loopback TCP and is part of the sanitizer CI job.
#include <gtest/gtest.h>

#include <dirent.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sync.hpp"
#include "net/http_decoder.hpp"
#include "net/http_message.hpp"
#include "net/sim_net.hpp"
#include "runtime/http_client.hpp"
#include "runtime/server_group.hpp"
#include "runtime/tcp.hpp"
#include "tcp_test_util.hpp"

namespace {

using namespace idicn;
using namespace idicn::runtime;

/// Echoes the target; counters are relaxed atomics because tests sample
/// them while workers serve.
class EchoHost : public net::SimHost {
public:
  net::HttpResponse handle_http(const net::HttpRequest& request,
                                const net::Address&) override {
    ++requests_;
    return net::make_response(200, "echo:" + request.target);
  }
  core::sync::RelaxedCounter requests_;
};

/// Raw loopback connection with Nagle off, so every send() leaves as its
/// own segment, and a 5 s receive timeout.
ScopedFd raw_connection(std::uint16_t port) {
  ScopedFd sock(connect_tcp("127.0.0.1", port, 2000, nullptr));
  if (sock.valid()) {
    set_nodelay(sock.get());
    set_io_timeout(sock.get(), 5000);
  }
  return sock;
}

/// Read until one whole response decodes; nullopt on EOF or timeout.
std::optional<net::HttpResponse> read_response(int fd,
                                               net::HttpDecoder& decoder) {
  char buffer[4096];
  while (true) {
    if (auto response = decoder.next_response()) return response;
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) return std::nullopt;
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
}

// ---------------------------------------------------------------------------
// Reading: a worker stops at a short read; level-triggered readiness
// reports whatever arrives later, data or FIN

TEST(ServerGroup, RequestSplitAcrossSegmentsIsServed) {
  EchoHost host;
  ServerGroup group(&host, "echo.test");
  const std::uint16_t port = group.start();
  ScopedFd sock = raw_connection(port);
  ASSERT_TRUE(sock.valid());
  net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);

  for (const char* target : {"/split-1", "/split-2"}) {
    std::string wire = "GET ";
    wire += target;
    wire += " HTTP/1.1\r\nHost: echo.test\r\n\r\n";
    // Three segments with pauses: the worker reads each fragment short and
    // must wait for the next readable event to finish the request.
    for (const auto& [offset, length] :
         {std::pair<std::size_t, std::size_t>{0, 5}, {5, 20},
          {25, std::string::npos}}) {
      const std::string part = wire.substr(offset, length);
      ASSERT_EQ(::send(sock.get(), part.data(), part.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(part.size()));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const auto response = read_response(sock.get(), decoder);
    ASSERT_TRUE(response.has_value()) << target;
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, std::string("echo:") + target);
  }
  group.stop();
  EXPECT_EQ(group.stats().requests_served, 2u);
  EXPECT_EQ(group.stats().decode_errors, 0u);
  EXPECT_EQ(group.stats().connections_accepted, 1u);
}

TEST(ServerGroup, RequestFollowedByFinIsAnsweredThenClosed) {
  EchoHost host;
  ServerGroup group(&host, "echo.test");
  const std::uint16_t port = group.start();
  ScopedFd sock = raw_connection(port);
  ASSERT_TRUE(sock.valid());

  // The request and the FIN can land in one readable event: the request
  // is still answered, and the FIN then closes the connection.
  const std::string wire = "GET /fin HTTP/1.1\r\nHost: echo.test\r\n\r\n";
  ASSERT_EQ(::send(sock.get(), wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ASSERT_EQ(::shutdown(sock.get(), SHUT_WR), 0);

  net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);
  const auto response = read_response(sock.get(), decoder);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "echo:/fin");
  char byte = 0;
  EXPECT_EQ(::recv(sock.get(), &byte, 1, 0), 0);  // orderly close, no timeout
  group.stop();
  EXPECT_EQ(group.stats().requests_served, 1u);
  EXPECT_EQ(group.stats().connections_closed, 1u);
}

// ---------------------------------------------------------------------------
// Listeners and the bind contract

TEST(ServerGroup, SingleWorkerNeverUsesReuseport) {
  EchoHost host;
  ServerGroup::Options options;
  options.workers = 0;  // clamped to 1
  ServerGroup group(&host, "echo.test", options);
  group.start();
  EXPECT_EQ(group.worker_count(), 1u);
  // A lone listener keeps its port: even a socket that sets SO_REUSEPORT
  // cannot bind it.
  ListenOptions shared;
  shared.reuseport = true;
  std::string error;
  const ScopedFd intruder(listen_tcp(group.port(), nullptr, &error, shared));
  EXPECT_FALSE(intruder.valid());
  EXPECT_NE(error.find("bind"), std::string::npos) << error;
  HttpClient client("127.0.0.1", group.port());
  const auto response = client.get("/solo");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "echo:/solo");
  group.stop();
}

TEST(ServerGroup, FailedBindThrowsAndLeavesTheGroupStopped) {
  // A plain listener (no SO_REUSEPORT) holds the port, so neither a lone
  // listener nor a set of shared ones can bind it.
  std::uint16_t taken = 0;
  const ScopedFd holder(listen_tcp(0, &taken, nullptr));
  ASSERT_TRUE(holder.valid());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(workers);
    EchoHost host;
    ServerGroup::Options options;
    options.workers = workers;
    ServerGroup group(&host, "echo.test", options);
    EXPECT_THROW((void)group.start(taken), std::runtime_error);
    EXPECT_FALSE(group.running());
    EXPECT_THROW((void)group.worker_stats(0), std::out_of_range);
    group.stop();  // nothing started: a no-op
    EXPECT_FALSE(group.running());
    EXPECT_EQ(group.stats().connections_accepted, 0u);

    // The same group then starts on an ephemeral port and serves.
    const std::uint16_t port = group.start();
    ASSERT_NE(port, taken);
    EXPECT_EQ(group.worker_count(), workers);
    HttpClient client("127.0.0.1", port);
    const auto response = client.get("/after");
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->body, "echo:/after");
    group.stop();
    EXPECT_EQ(group.stats().requests_served, 1u);
  }
}

// ---------------------------------------------------------------------------
// Over-capacity shedding

TEST(ServerGroup, OverCapacityRejectionCarriesRetryAfter) {
  // Beyond max_connections the worker sheds with a 503 that tells clients
  // *when* to come back — retriers (and our RetryPolicy) key off the
  // Retry-After header rather than hammering a saturated server.
  EchoHost host;
  ServerGroup::Options options;
  options.workers = 1;
  options.max_connections = 1;
  options.retry_after_s = 7;
  ServerGroup group(&host, "echo.test", options);
  const std::uint16_t port = group.start();
  ASSERT_GT(port, 0);

  // Occupy the only slot (a completed request pins the pooled connection).
  HttpClient occupant("127.0.0.1", port);
  const auto first = occupant.get("/hold");
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, 200);

  // The second connection must be shed, not served.
  HttpClient excess("127.0.0.1", port);
  const auto rejected = excess.get("/late");
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->status, 503);
  ASSERT_TRUE(rejected->headers.get("Retry-After").has_value());
  EXPECT_EQ(*rejected->headers.get("Retry-After"), "7");

  group.stop();
  EXPECT_EQ(group.stats().connections_rejected, 1u);
  EXPECT_EQ(group.stats().requests_served, 1u);
}

// ---------------------------------------------------------------------------
// Descriptor exhaustion: accept() failing with EMFILE pauses the listener

/// Highest descriptor this process holds.
int highest_open_fd() {
  int highest = STDERR_FILENO;
  if (DIR* dir = ::opendir("/proc/self/fd")) {
    const int own = ::dirfd(dir);
    while (const dirent* entry = ::readdir(dir)) {
      const int fd = std::atoi(entry->d_name);
      if (fd != own) highest = std::max(highest, fd);
    }
    ::closedir(dir);
  }
  return highest;
}

double process_cpu_seconds() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) / 1e9;
}

/// Runs in a death-test child, because RLIMIT_NOFILE is process-wide.
/// Fills the descriptor table, connects, and measures the process's CPU
/// while the worker's accept() fails; then frees the table and reads the
/// answer. Prints what it saw and exits 0 only when the worker stayed
/// idle, accepted nothing while the table was full, and then served.
[[noreturn]] void serve_after_descriptors_run_out() {
  EchoHost host;
  ServerGroup group(&host, "echo.test");
  const std::uint16_t port = group.start();

  // One exchange first, while descriptors are free: the sanitizer
  // runtimes check a type on its first use, and UBSan's vptr check opens
  // a pipe to do it. Wait until the worker has closed its side, so no
  // descriptor comes free once the table is full.
  const bool warmed = HttpClient("127.0.0.1", port).get("/warm").has_value();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (group.stats().connections_closed == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Cap the table a little above what the process holds already (the
  // sanitizer runtimes hold some), then take every free slot under the cap.
  rlimit limit{};
  ::getrlimit(RLIMIT_NOFILE, &limit);
  limit.rlim_cur = static_cast<rlim_t>(highest_open_fd() + 16);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) {
    std::fprintf(stderr, "setrlimit failed\n");
    std::exit(1);
  }
  const ScopedFd null_fd(::open("/dev/null", O_RDONLY));
  std::vector<ScopedFd> filler;
  while (true) {
    ScopedFd fd(::dup(null_fd.get()));
    if (!fd.valid()) break;
    filler.push_back(std::move(fd));
  }

  // The client takes the last free slot. Its handshake completes in the
  // kernel backlog, and accept() finds no descriptor for it.
  filler.pop_back();
  const ScopedFd client = raw_connection(port);
  const std::string wire = "GET /waiting HTTP/1.1\r\nHost: echo.test\r\n\r\n";
  const bool sent = client.valid() &&
                    ::send(client.get(), wire.data(), wire.size(),
                           MSG_NOSIGNAL) == static_cast<ssize_t>(wire.size());

  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const double cpu_s = process_cpu_seconds() - cpu_before;
  const std::uint64_t accepted_while_full =
      group.stats().connections_accepted - 1;

  filler.clear();  // the next re-arm accepts the waiting connection
  net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);
  const auto response = read_response(client.get(), decoder);
  const bool answered = response.has_value() && response->body == "echo:/waiting";
  group.stop();

  std::fprintf(stderr,
               "warmed=%d sent=%d cpu_s=%.3f accepted_while_full=%llu "
               "answered=%d\n",
               warmed, sent, cpu_s,
               static_cast<unsigned long long>(accepted_while_full), answered);
  const bool ok =
      warmed && sent && cpu_s < 0.1 && accepted_while_full == 0 && answered;
  std::exit(ok ? 0 : 1);
}

TEST(ServerGroupDeathTest, AcceptPausesWhileDescriptorsRunOut) {
  // A spinning worker burns ~0.5 s of CPU in the 500 ms window; a paused
  // one re-tries accept() every kAcceptPauseMs and stays near zero.
  // Portable across gtest versions (GTEST_FLAG_SET is too new for some).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(serve_after_descriptors_run_out(), ::testing::ExitedWithCode(0),
              "answered=");
}

// ---------------------------------------------------------------------------
// SO_REUSEPORT listeners (kernel-balanced)

TEST(ServerGroup, ReuseportListenersShareOnePort) {
  EchoHost host;
  ServerGroup::Options options;
  options.workers = 2;
  ServerGroup group(&host, "echo.test", options);
  const std::uint16_t port = group.start();

  // The kernel picks the worker per connection — assert aggregate
  // correctness, not the (hash-dependent) distribution.
  constexpr int kConnections = 8;
  constexpr int kRequestsPer = 5;
  for (int c = 0; c < kConnections; ++c) {
    HttpClient client("127.0.0.1", port);
    for (int r = 0; r < kRequestsPer; ++r) {
      const auto response = client.get("/r");
      ASSERT_TRUE(response.has_value());
      ASSERT_EQ(response->status, 200);
    }
  }
  group.stop();
  EXPECT_EQ(group.stats().connections_accepted,
            static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(group.stats().requests_served,
            static_cast<std::uint64_t>(kConnections * kRequestsPer));
}

// ---------------------------------------------------------------------------
// Ordered, idempotent stop

TEST(ServerGroup, StopIsIdempotentAndPreservesCounters) {
  EchoHost host;
  ServerGroup::Options options;
  options.workers = 2;
  ServerGroup group(&host, "echo.test", options);
  group.start();
  {
    HttpClient client("127.0.0.1", group.port());
    ASSERT_TRUE(client.get("/one").has_value());
    ASSERT_TRUE(client.get("/two").has_value());
  }
  group.stop();
  EXPECT_FALSE(group.running());
  const auto after_first = group.stats();
  EXPECT_EQ(after_first.requests_served, 2u);

  group.stop();  // second stop: no-op, counters untouched
  EXPECT_EQ(group.stats().requests_served, after_first.requests_served);
  EXPECT_EQ(group.stats().connections_accepted,
            after_first.connections_accepted);
  // Only the aggregate survives retirement: no worker is left to report.
  EXPECT_THROW((void)group.worker_stats(0), std::out_of_range);
}

TEST(ServerGroup, StopWithoutStartIsNoOp) {
  EchoHost host;
  ServerGroup group(&host, "echo.test");
  EXPECT_FALSE(group.running());
  group.stop();
  EXPECT_FALSE(group.running());
  EXPECT_EQ(group.stats().requests_served, 0u);
}

// ---------------------------------------------------------------------------
// Graceful drain

/// Blocks inside handle_http until released — an in-flight request the
/// drain phase must wait for.
class SlowHost : public net::SimHost {
public:
  net::HttpResponse handle_http(const net::HttpRequest&,
                                const net::Address&) override {
    core::sync::MutexLock lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    while (!release_) cv_.wait(mutex_);
    return net::make_response(200, "slow-done");
  }
  void wait_entered() {
    core::sync::MutexLock lock(mutex_);
    while (!entered_) cv_.wait(mutex_);
  }
  void release() {
    core::sync::MutexLock lock(mutex_);
    release_ = true;
    cv_.notify_all();
  }

private:
  core::sync::Mutex mutex_;
  core::sync::CondVar cv_;
  bool entered_ IDICN_GUARDED_BY(mutex_) = false;
  bool release_ IDICN_GUARDED_BY(mutex_) = false;
};

TEST(ServerGroup, StopDrainsInFlightRequestBeforeJoining) {
  SlowHost host;
  ServerGroup::Options options;
  options.workers = 2;
  ServerGroup group(&host, "slow.test", options);
  const std::uint16_t port = group.start();

  std::atomic<bool> got_response{false};
  core::sync::Thread client_thread([&] {
    HttpClient client("127.0.0.1", port, HttpClient::Options{2000, 10'000});
    const auto response = client.get("/slow");
    if (response && response->status == 200 && response->body == "slow-done") {
      got_response.store(true);
    }
  });
  host.wait_entered();

  // Release the handler shortly after stop() begins tearing down: the
  // in-flight request must still complete and reach the client.
  core::sync::Thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    host.release();
  });
  group.stop();
  client_thread.join();
  releaser.join();

  EXPECT_TRUE(got_response.load()) << "drain dropped an in-flight request";
  EXPECT_EQ(group.stats().requests_served, 1u);
  EXPECT_FALSE(group.running());
}

TEST(ServerGroup, DrainDeadlineForceClosesStalledConnection) {
  EchoHost host;
  ServerGroup::Options options;
  options.workers = 2;
  options.drain_timeout_ms = 100;      // short deadline under test
  options.request_timeout_ms = 60'000; // so only the drain deadline fires
  options.idle_timeout_ms = 60'000;
  ServerGroup group(&host, "echo.test", options);
  const std::uint16_t port = group.start();

  // Half a request, then silence: the connection is in-flight (buffered
  // bytes) and will never finish.
  const int fd = connect_tcp("127.0.0.1", port, 2000, nullptr);
  ASSERT_GE(fd, 0);
  ScopedFd sock(fd);
  const std::string partial = "GET /stalled HTTP/1.1\r\nHos";
  ASSERT_EQ(::send(sock.get(), partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  while (group.stats().connections_accepted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  group.stop();  // drain cannot finish; the deadline must force-close
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 3000) << "stop() ignored the drain deadline";
  EXPECT_FALSE(group.running());
  EXPECT_EQ(group.stats().connections_accepted, 1u);

  // The server side is gone: the socket reports EOF (or reset).
  set_io_timeout(sock.get(), 2000);
  char buffer[64];
  EXPECT_LE(::recv(sock.get(), buffer, sizeof(buffer), 0), 0);
}

// ---------------------------------------------------------------------------
// run_on_all_workers: exclusive access to shared host state

/// Handler reads a plain (non-atomic) string that run_on_all_workers
/// rewrites while traffic flows — the rendezvous must make that safe
/// (TSan checks the ordering; the test checks atomicity of the swap).
class GreetingHost : public net::SimHost {
public:
  net::HttpResponse handle_http(const net::HttpRequest&,
                                const net::Address&) override {
    ++requests_;
    return net::make_response(200, greeting_);
  }
  std::string greeting_ = "v0";  ///< mutate only via run_on_all_workers
  core::sync::RelaxedCounter requests_;
};

TEST(ServerGroup, RunOnAllWorkersGetsExclusiveAccessWhileServing) {
  GreetingHost host;
  ServerGroup::Options options;
  options.workers = 3;
  ServerGroup group(&host, "greet.test", options);
  const std::uint16_t port = group.start();

  std::atomic<bool> running{true};
  std::atomic<int> bad_bodies{0};
  std::vector<core::sync::Thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      HttpClient client("127.0.0.1", port);
      while (running.load(std::memory_order_relaxed)) {
        const auto response = client.get("/greet");
        if (!response || response->status != 200 ||
            response->body.size() < 2 || response->body[0] != 'v') {
          bad_bodies.fetch_add(1);
        }
      }
    });
  }

  // Wait for live traffic before mutating: on a loaded machine the clients
  // may not run until all ten generations are done. A run that never gets
  // served still fails the requests_served check below.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (group.stats().requests_served == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Ten generations of a non-atomic mutation, interleaved with live
  // traffic: every parked-workers window must be exclusive.
  for (int generation = 1; generation <= 10; ++generation) {
    group.run_on_all_workers(
        [&] { host.greeting_ = "v" + std::to_string(generation); });
  }

  running.store(false);
  clients.clear();  // joins via Thread's destructor
  group.stop();
  EXPECT_EQ(bad_bodies.load(), 0);
  EXPECT_EQ(host.greeting_, "v10");
  EXPECT_GT(group.stats().requests_served, 0u);
}

TEST(ServerGroup, RunOnAllWorkersRunsInlineWhenStopped) {
  EchoHost host;
  ServerGroup group(&host, "echo.test");
  bool ran = false;
  group.run_on_all_workers([&] { ran = true; });
  EXPECT_TRUE(ran);
}

}  // namespace

// Runtime building blocks: timer wheel, poller, event loop,
// HttpClient ↔ HostServer over real loopback TCP.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/sync.hpp"
#include "net/http_message.hpp"
#include "net/sim_net.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/host_server.hpp"
#include "runtime/http_client.hpp"
#include "runtime/poller.hpp"
#include "runtime/socket_net.hpp"
#include "runtime/tcp.hpp"
#include "tcp_test_util.hpp"
#include "runtime/timer_wheel.hpp"

namespace {

using namespace idicn;
using namespace idicn::runtime;

// ---------------------------------------------------------------------------
// TimerWheel

TEST(TimerWheel, FiresAtDeadlineNotBefore) {
  TimerWheel wheel(10, 64, 0);
  int fired = 0;
  wheel.schedule(50, [&] { ++fired; });
  wheel.advance_to(40);
  EXPECT_EQ(fired, 0);
  wheel.advance_to(50);
  EXPECT_EQ(fired, 1);
  wheel.advance_to(1000);
  EXPECT_EQ(fired, 1);  // one-shot
}

TEST(TimerWheel, CancelPreventsFiring) {
  TimerWheel wheel;
  int fired = 0;
  const auto id = wheel.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // second cancel: already gone
  wheel.advance_to(100);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheel, LongDelayBeyondOneRevolution) {
  // 10 ms ticks × 16 slots = 160 ms per revolution; 1 s needs rounds > 0.
  TimerWheel wheel(10, 16, 0);
  int fired = 0;
  wheel.schedule(1000, [&] { ++fired; });
  wheel.advance_to(990);
  EXPECT_EQ(fired, 0);
  wheel.advance_to(1000);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, ManyTimersFireInDeadlineOrder) {
  TimerWheel wheel(10, 8, 0);
  std::vector<int> order;
  wheel.schedule(30, [&] { order.push_back(30); });
  wheel.schedule(10, [&] { order.push_back(10); });
  wheel.schedule(90, [&] { order.push_back(90); });  // same slot as 10 on 8 slots
  wheel.schedule(20, [&] { order.push_back(20); });
  wheel.advance_to(200);
  EXPECT_EQ(order, (std::vector<int>{10, 20, 30, 90}));
}

TEST(TimerWheel, NextDeadlineTracksSchedulingAndCancel) {
  TimerWheel wheel(10, 64, 0);
  EXPECT_FALSE(wheel.next_deadline_ms().has_value());
  const auto a = wheel.schedule(100, [] {});
  wheel.schedule(300, [] {});
  ASSERT_TRUE(wheel.next_deadline_ms().has_value());
  EXPECT_EQ(*wheel.next_deadline_ms(), 100u);
  wheel.cancel(a);
  EXPECT_EQ(*wheel.next_deadline_ms(), 300u);
}

TEST(TimerWheel, CallbackMayScheduleMore) {
  TimerWheel wheel(10, 32, 0);
  int fired = 0;
  wheel.schedule(10, [&] {
    ++fired;
    wheel.schedule(10, [&] { ++fired; });
  });
  wheel.advance_to(10);
  EXPECT_EQ(fired, 1);
  wheel.advance_to(30);
  EXPECT_EQ(fired, 2);
}

TEST(TimerWheel, ZeroDelayFiresWithinOneTick) {
  // Accuracy is one tick: a zero-delay timer fires as soon as the clock
  // crosses the next tick boundary, never re-entrantly at schedule time.
  TimerWheel wheel(10, 32, 5);
  int fired = 0;
  wheel.schedule(0, [&] { ++fired; });
  wheel.advance_to(5);  // clock has not moved: nothing fires
  EXPECT_EQ(fired, 0);
  wheel.advance_to(10);
  EXPECT_EQ(fired, 1);
}

TEST(TimerWheel, ZeroDelayOnATickBoundaryFiresWithinOneTick) {
  // Regression: scheduled exactly on a boundary (as a timer callback that
  // fired there re-arms with no delay), the timer landed in the current
  // bucket and waited a full revolution — 320 ms on this wheel, 5.12 s on
  // an EventLoop's.
  TimerWheel wheel(10, 32, 10);
  int fired = 0;
  wheel.schedule(0, [&] { ++fired; });
  wheel.advance_to(19);
  EXPECT_EQ(fired, 0);
  wheel.advance_to(20);
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// Poller

TEST(Poller, PipeReadiness) {
  Poller poller;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ScopedFd read_end(fds[0]), write_end(fds[1]);
  ASSERT_TRUE(poller.add(read_end.get(), true, false));

  std::vector<Ready> ready;
  EXPECT_EQ(poller.wait(0, ready), 0);  // nothing to read yet

  ASSERT_EQ(::write(write_end.get(), "x", 1), 1);
  ready.clear();
  ASSERT_EQ(poller.wait(1000, ready), 1);
  EXPECT_EQ(ready[0].fd, read_end.get());
  EXPECT_TRUE(ready[0].readable);

  poller.remove(read_end.get());
  ready.clear();
  EXPECT_EQ(poller.wait(0, ready), 0);
}

TEST(Poller, ModifySwitchesInterest) {
  Poller poller;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ScopedFd read_end(fds[0]), write_end(fds[1]);
  ASSERT_EQ(::write(write_end.get(), "x", 1), 1);

  // Watch for writability only: readable data must not surface.
  ASSERT_TRUE(poller.add(read_end.get(), false, true));
  std::vector<Ready> ready;
  (void)poller.wait(0, ready);
  for (const auto& event : ready) EXPECT_FALSE(event.readable);

  ASSERT_TRUE(poller.modify(read_end.get(), true, false));
  ready.clear();
  ASSERT_EQ(poller.wait(1000, ready), 1);
  EXPECT_TRUE(ready[0].readable);
}

// ---------------------------------------------------------------------------
// EventLoop

TEST(EventLoop, TimerFiresAndStopsLoop) {
  EventLoop loop;
  bool fired = false;
  loop.add_timer(20, [&] {
    fired = true;
    loop.stop();
  });
  loop.run();  // returns once the timer stopped it
  EXPECT_TRUE(fired);
}

TEST(EventLoop, PostFromAnotherThreadWakesLoop) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  core::sync::Thread poster([&] {
    loop.post([&] {
      ran = true;
      loop.stop();
    });
  });
  loop.run();
  poster.join();
  EXPECT_TRUE(ran);
}

TEST(EventLoop, MultiProducerPostStressWithShutdownRace) {
  // N producer threads race M posts each against the loop draining them,
  // with a stop() fired mid-stream from yet another thread — the exact
  // cross-thread hand-off TSan is pointed at in CI. Tasks posted after
  // stop() must survive in the queue, not be lost or double-run.
  EventLoop loop;
  constexpr int kProducers = 4;
  constexpr int kPostsPerProducer = 500;
  constexpr int kTotal = kProducers * kPostsPerProducer;
  std::atomic<int> executed{0};
  {
    std::vector<core::sync::Thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < kPostsPerProducer; ++i) {
          loop.post([&] { executed.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    core::sync::Thread stopper([&] {
      // Shut down while producers are (likely) still posting.
      while (executed.load(std::memory_order_relaxed) < kTotal / 2) {
        std::this_thread::yield();
      }
      loop.stop();
    });
    loop.run();
  }  // all producers + the stopper joined here
  EXPECT_GE(executed.load(), kTotal / 2);

  // Drain whatever was posted after the stop: every task must run exactly
  // once across both run() invocations.
  loop.post([&] { loop.stop(); });
  loop.run();
  EXPECT_EQ(executed.load(), kTotal);
}

#ifndef NDEBUG
TEST(EventLoopDeathTest, LoopOnlyMethodOffThreadAsserts) {
  // While the loop runs on a worker, loop-thread-only methods called from
  // another thread must trip the debug ownership assertion.
  // Portable across gtest versions (GTEST_FLAG_SET is too new for some).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EventLoop loop;
  std::atomic<bool> started{false};
  loop.post([&] { started.store(true); });
  core::sync::Thread runner([&] { loop.run(); });
  while (!started.load()) {
    std::this_thread::yield();
  }
  EXPECT_DEATH(loop.unwatch(42), "owning thread");
  EXPECT_DEATH(loop.add_timer(10, [] {}), "owning thread");
  loop.stop();
}
#endif

TEST(EventLoop, DispatchesPipeEvents) {
  EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ScopedFd read_end(fds[0]), write_end(fds[1]);
  set_nonblocking(read_end.get());

  std::string received;
  loop.watch(read_end.get(), true, false, [&](bool readable, bool, bool) {
    if (!readable) return;
    char buffer[64];
    const ssize_t n = ::read(read_end.get(), buffer, sizeof(buffer));
    if (n > 0) received.assign(buffer, static_cast<std::size_t>(n));
    loop.stop();
  });
  ASSERT_EQ(::write(write_end.get(), "ping", 4), 4);
  loop.run();
  EXPECT_EQ(received, "ping");
  loop.unwatch(read_end.get());
}

TEST(EventLoop, CancelTimerBeforeFire) {
  EventLoop loop;
  bool fired = false;
  const auto id = loop.add_timer(10, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel_timer(id));
  loop.add_timer(30, [&] { loop.stop(); });
  loop.run();
  EXPECT_FALSE(fired);
}

// ---------------------------------------------------------------------------
// HostServer + HttpClient over real sockets

/// Minimal SimHost: echoes the target and counts requests. The counter is
/// a relaxed atomic because tests sample it while the worker thread is
/// still serving; last_from_ is loop-thread-owned — read it only after
/// stop() (or via run_on_loop).
class EchoHost : public net::SimHost {
public:
  net::HttpResponse handle_http(const net::HttpRequest& request,
                                const net::Address& from) override {
    ++requests_;
    last_from_ = from;
    if (request.target == "/boom") throw std::runtime_error("kaboom");
    return net::make_response(200, "echo:" + request.target);
  }
  core::sync::RelaxedCounter requests_;
  std::string last_from_;
};

TEST(HostServer, ServesSimHostOverTcp) {
  EchoHost host;
  HostServer server(&host, "echo.test");
  const std::uint16_t port = server.start();
  ASSERT_GT(port, 0);
  EXPECT_TRUE(server.running());

  HttpClient client("127.0.0.1", port);
  std::string error;
  const auto response = client.get("/hello", &error);
  ASSERT_TRUE(response.has_value()) << error;
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "echo:/hello");

  server.stop();
  // The adapter reports the TCP peer as the SimNet `from` address
  // (last_from_ is worker-owned: read after the join).
  EXPECT_NE(host.last_from_.find("127.0.0.1:"), std::string::npos);
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.stats().requests_served, 1u);
}

TEST(HostServer, KeepAliveReusesOneConnection) {
  EchoHost host;
  HostServer server(&host, "echo.test");
  const std::uint16_t port = server.start();
  HttpClient client("127.0.0.1", port);
  for (int i = 0; i < 50; ++i) {
    const auto response = client.get("/r" + std::to_string(i));
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->body, "echo:/r" + std::to_string(i));
  }
  server.stop();
  EXPECT_EQ(server.stats().requests_served, 50u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);
}

TEST(HostServer, PipelinedRequestsAnsweredInOrder) {
  EchoHost host;
  HostServer server(&host, "echo.test");
  const std::uint16_t port = server.start();

  // Raw socket: write three requests back to back, then read three
  // responses — proves the server decodes and answers a pipeline.
  const int fd = connect_tcp("127.0.0.1", port, 2000, nullptr);
  ASSERT_GE(fd, 0);
  ScopedFd sock(fd);
  set_io_timeout(sock.get(), 5000);
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    net::HttpRequest request;
    request.target = "/p" + std::to_string(i);
    wire += request.serialize();
  }
  ASSERT_EQ(::send(sock.get(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);
  std::vector<net::HttpResponse> responses;
  char buffer[4096];
  while (responses.size() < 3) {
    const ssize_t n = ::recv(sock.get(), buffer, sizeof(buffer), 0);
    ASSERT_GT(n, 0) << "socket closed or timed out before all responses";
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    while (auto response = decoder.next_response()) {
      responses.push_back(std::move(*response));
    }
  }
  EXPECT_EQ(responses[0].body, "echo:/p0");
  EXPECT_EQ(responses[1].body, "echo:/p1");
  EXPECT_EQ(responses[2].body, "echo:/p2");
  server.stop();
}

TEST(HostServer, MalformedRequestGets400AndClose) {
  EchoHost host;
  HostServer server(&host, "echo.test");
  const std::uint16_t port = server.start();
  const int fd = connect_tcp("127.0.0.1", port, 2000, nullptr);
  ASSERT_GE(fd, 0);
  ScopedFd sock(fd);
  set_io_timeout(sock.get(), 5000);
  const std::string junk = "THIS IS NOT HTTP\r\n\r\n";
  ASSERT_EQ(::send(sock.get(), junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));

  net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);
  char buffer[4096];
  std::optional<net::HttpResponse> response;
  while (!response) {
    const ssize_t n = ::recv(sock.get(), buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    response = decoder.next_response();
  }
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 400);
  // Server closes after the error response.
  const ssize_t n = ::recv(sock.get(), buffer, sizeof(buffer), 0);
  EXPECT_EQ(n, 0);
  server.stop();
  EXPECT_EQ(server.stats().decode_errors, 1u);
}

TEST(HostServer, HandlerExceptionBecomes500) {
  EchoHost host;
  HostServer server(&host, "echo.test");
  const std::uint16_t port = server.start();
  HttpClient client("127.0.0.1", port);
  const auto response = client.get("/boom");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 500);
  server.stop();
}

// Connection options are a case-insensitive token list (RFC 9110 §7.6.1):
// "close" in any case, alone or among other options, makes the request the
// last on its connection, and the response says so.
TEST(HostServer, ConnectionCloseHeaderIsHonored) {
  EchoHost host;
  HostServer server(&host, "echo.test");
  const std::uint16_t port = server.start();
  for (const char* value : {"close", "CLOSE", "keep-alive, close"}) {
    HttpClient client("127.0.0.1", port);
    net::HttpRequest request;
    request.target = "/bye";
    request.headers.set("Connection", value);
    const auto response = client.request(request);
    ASSERT_TRUE(response.has_value()) << value;
    EXPECT_EQ(response->headers.get("Connection"), "close") << value;
    EXPECT_FALSE(client.connected()) << value;  // client dropped it too
  }
  server.stop();
}

TEST(HostServer, RequestTimeoutAnswers408) {
  EchoHost host;
  HostServer::Options options;
  options.request_timeout_ms = 60;
  options.idle_timeout_ms = 10'000;
  HostServer server(&host, "echo.test", options);
  const std::uint16_t port = server.start();
  const int fd = connect_tcp("127.0.0.1", port, 2000, nullptr);
  ASSERT_GE(fd, 0);
  ScopedFd sock(fd);
  set_io_timeout(sock.get(), 5000);
  // Half a request, then silence: the server must 408 and close.
  const std::string partial = "GET /slow HTTP/1.1\r\nHos";
  ASSERT_EQ(::send(sock.get(), partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));

  net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);
  char buffer[4096];
  std::optional<net::HttpResponse> response;
  while (!response) {
    const ssize_t n = ::recv(sock.get(), buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    decoder.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    response = decoder.next_response();
  }
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->status, 408);
  server.stop();
  EXPECT_GE(server.stats().timeouts, 1u);
}

/// Refuses every head, as MultiSourceFetcher does for a hedge attempt that
/// lost the race.
class RefusingSink final : public net::ChunkSink {
public:
  bool on_head(const net::HttpResponse&) override {
    ++heads;
    return false;
  }
  bool on_chunk(core::Chunk) override { return false; }
  int heads = 0;
};

TEST(HttpClient, ReconnectsAfterServerRestart) {
  EchoHost host;
  HostServer server(&host, "echo.test");
  const std::uint16_t port = server.start();
  HttpClient client("127.0.0.1", port);
  ASSERT_TRUE(client.get("/one").has_value());
  server.stop();

  // Same port, fresh server: the pooled connection is dead and the client
  // must transparently redial (the keep-alive race path).
  EchoHost host2;
  HostServer server2(&host2, "echo.test");
  ASSERT_EQ(server2.start(port), port);
  const auto response = client.get("/two");
  ASSERT_TRUE(response.has_value()) << "client did not recover";
  EXPECT_EQ(response->body, "echo:/two");
  server2.stop();
}

TEST(HttpClient, ConnectFailureReportsError) {
  // Port 1 on loopback: nothing listens there.
  HttpClient client("127.0.0.1", 1, HttpClient::Options{200, 200});
  std::string error;
  const auto response = client.get("/", &error);
  EXPECT_FALSE(response.has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(client.connected());
}

TEST(HttpClient, ReceiveTimeoutFailsTheRequest) {
  // A listener that never accepts: the kernel completes the handshake and
  // queues the request, but no response ever comes.
  std::uint16_t port = 0;
  const ScopedFd listener(listen_tcp(0, &port, nullptr));
  ASSERT_TRUE(listener.valid());
  HttpClient client("127.0.0.1", port, HttpClient::Options{1'000, 200});
  std::string error;
  const auto start = std::chrono::steady_clock::now();
  const auto response = client.get("/never", &error);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(response.has_value());
  EXPECT_EQ(error, "receive timeout");
  // Loop timers read a millisecond clock, so the deadline may land up to
  // 1 ms short of 200 ms measured here.
  EXPECT_GE(elapsed, std::chrono::milliseconds(199));
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_FALSE(client.connected());
}

TEST(HttpClient, SinkRefusalClosesAndTheNextRequestRedials) {
  EchoHost host;
  HostServer server(&host, "echo.test");
  const std::uint16_t port = server.start();
  HttpClient client("127.0.0.1", port);
  RefusingSink sink;
  net::HttpRequest request;
  request.target = "/refused";
  std::string error;
  EXPECT_FALSE(client.request_streaming(request, sink, &error).has_value());
  EXPECT_EQ(error, "streaming cancelled by sink");
  EXPECT_EQ(sink.heads, 1);
  EXPECT_FALSE(client.connected());  // a half-read body is not reusable

  const auto response = client.get("/after");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->body, "echo:/after");
  server.stop();
  EXPECT_EQ(server.stats().connections_accepted, 2u);
}

// ---------------------------------------------------------------------------
// SocketNet as a net::Transport
//
// The envelope tests hold both forms of call to one set of expectations:
// each runs its body once per SendForm.

enum class SendForm {
  Blocking,  ///< send(): SocketNet pumps a loop it lends to the caller
  Loop,      ///< send_async() pumped on a caller-owned EventLoop
};
constexpr SendForm kSendForms[] = {SendForm::Blocking, SendForm::Loop};

const char* name_of(SendForm form) {
  return form == SendForm::Blocking ? "blocking send" : "send_async on a loop";
}

/// One buffered send to `to` in `form`. `loop` is the Loop form's executor;
/// declare it before `socket_net` so it outlives the connections pooled
/// for it.
net::HttpResponse send_via(SendForm form, SocketNet& socket_net,
                           EventLoop& loop, const net::Address& to,
                           const net::HttpRequest& request) {
  if (form == SendForm::Blocking) return socket_net.send("caller", to, request);
  std::optional<net::HttpResponse> response;
  socket_net.send_async("caller", to, request, &loop,
                        [&response](net::HttpResponse r) {
                          response = std::move(r);
                        });
  while (!response) loop.run_once(10);
  return std::move(*response);
}

TEST(SocketNet, SendRoundTripsAndPoolsConnections) {
  for (const SendForm form : kSendForms) {
    SCOPED_TRACE(name_of(form));
    EchoHost host;
    HostServer server(&host, "echo.svc");
    server.start();

    EventLoop loop;
    SocketNet socket_net;
    socket_net.register_endpoint(server);
    net::HttpRequest request;
    request.target = "/x";
    for (int i = 0; i < 5; ++i) {
      const auto response =
          send_via(form, socket_net, loop, "echo.svc", request);
      EXPECT_EQ(response.status, 200);
      EXPECT_EQ(response.body, "echo:/x");
    }
    EXPECT_EQ(socket_net.stats().requests_sent, 5u);
    EXPECT_EQ(socket_net.stats().connections_opened, 1u);  // pooled + keep-alive
    server.stop();
  }
}

/// Answers every request with its own body.
class BodyEchoHost : public net::SimHost {
public:
  net::HttpResponse handle_http(const net::HttpRequest& request,
                                const net::Address& /*from*/) override {
    return net::make_response(200, request.body);
  }
};

TEST(SocketNet, ConcurrentBlockingSendsEachGetTheirOwnReply) {
  // Each blocking sender borrows a loop of its own, and each lent loop
  // keeps its own keep-alive pool: replies never cross between senders,
  // and no loop dials twice unless its pooled connection went stale.
  BodyEchoHost host;
  HostServer server(&host, "echo.svc");
  server.start();
  SocketNet socket_net;
  socket_net.register_endpoint(server);
  constexpr int kThreads = 8;
  constexpr int kSends = 50;
  std::atomic<int> crossed{0};
  {
    std::vector<core::sync::Thread> senders;
    for (int t = 0; t < kThreads; ++t) {
      senders.emplace_back([&socket_net, &crossed, t] {
        for (int i = 0; i < kSends; ++i) {
          net::HttpRequest request;
          request.method = "POST";
          request.body = "sender " + std::to_string(t) + " send " +
                         std::to_string(i);
          const auto response = socket_net.send("caller", "echo.svc", request);
          if (response.status != 200 || response.body != request.body) {
            ++crossed;
          }
        }
      });
    }
  }  // joins every sender
  EXPECT_EQ(crossed.load(), 0);
  const SocketNet::Stats stats = socket_net.stats();
  EXPECT_EQ(stats.requests_sent, std::uint64_t{kThreads * kSends});
  EXPECT_LE(stats.connections_opened, kThreads + stats.stale_pool_drops);
  EXPECT_EQ(stats.send_failures, 0u);
  server.stop();
}

TEST(SocketNet, BlockingSendInsideRunOnLoopCompletes) {
  // A host publishing from its own loop thread (the shape of a benchmark
  // publish): the blocking send pumps a lent loop, not the one it runs on.
  EchoHost host, publisher;
  HostServer server(&host, "echo.svc");
  HostServer publisher_server(&publisher, "publisher.svc");
  server.start();
  publisher_server.start();
  SocketNet socket_net;
  socket_net.register_endpoint(server);
  net::HttpRequest request;
  request.target = "/from-a-loop";
  net::HttpResponse response;
  publisher_server.run_on_loop([&] {
    response = socket_net.send("publisher.svc", "echo.svc", request);
  });
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "echo:/from-a-loop");
  publisher_server.stop();
  server.stop();
}

TEST(SocketNet, UnknownDestinationIs504) {
  SocketNet socket_net;
  net::HttpRequest request;
  const auto response = socket_net.send("a", "no.such.host", request);
  EXPECT_EQ(response.status, 504);
  EXPECT_EQ(socket_net.stats().send_failures, 1u);
}

TEST(SocketNet, DeadEndpointIs504) {
  SocketNet::Options options;
  options.client = {200, 200};
  SocketNet socket_net(options);
  socket_net.register_endpoint("dead.svc", "127.0.0.1", 1);
  net::HttpRequest request;
  const auto response = socket_net.send("a", "dead.svc", request);
  EXPECT_EQ(response.status, 504);
}

TEST(SocketNet, MulticastFansOutToGroup) {
  EchoHost host_a, host_b;
  HostServer server_a(&host_a, "a.svc"), server_b(&host_b, "b.svc");
  server_a.start();
  server_b.start();
  SocketNet socket_net;
  socket_net.register_endpoint(server_a);
  socket_net.register_endpoint(server_b);
  socket_net.join_group("a.svc", "neighbors");
  socket_net.join_group("b.svc", "neighbors");

  net::HttpRequest request;
  request.target = "/probe";
  // Sender is a member: excluded from its own fan-out.
  const auto responses = socket_net.multicast("a.svc", "neighbors", request);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "echo:/probe");
  EXPECT_EQ(host_a.requests_, 0u);
  EXPECT_EQ(host_b.requests_, 1u);
  server_a.stop();
  server_b.stop();
}

TEST(SocketNet, NowMsAdvances) {
  SocketNet socket_net;
  const auto t0 = socket_net.now_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(socket_net.now_ms(), t0 + 4);
}

// ---------------------------------------------------------------------------
// TimerWheel edge cases the retry/deadline machinery leans on

TEST(TimerWheelEdge, RescheduleWhilePendingKeepsBothDeadlines) {
  // The runtime "reschedules" by arming a new timer and cancelling the old
  // one — both orders must leave exactly one live deadline.
  TimerWheel wheel(10, 64, 0);
  int fired = 0;
  const auto original = wheel.schedule(100, [&] { ++fired; });
  const auto extended = wheel.schedule(300, [&] { ++fired; });
  EXPECT_TRUE(wheel.cancel(original));
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_EQ(*wheel.next_deadline_ms(), 300u);
  wheel.advance_to(200);
  EXPECT_EQ(fired, 0);  // the cancelled deadline must not fire
  wheel.advance_to(300);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(wheel.cancel(extended));  // already fired
}

TEST(TimerWheelEdge, RescheduleToSameBucketDifferentRevolution) {
  // Old and new deadlines hash to the same bucket, one revolution apart —
  // the rounds counter, not bucket position, must keep them distinct.
  TimerWheel wheel(10, 16, 0);  // revolution = 160 ms
  int early = 0, late = 0;
  const auto id = wheel.schedule(40, [&] { ++early; });
  wheel.schedule(40 + 160, [&] { ++late; });  // same slot, next revolution
  EXPECT_TRUE(wheel.cancel(id));
  wheel.advance_to(160);
  EXPECT_EQ(early, 0);
  EXPECT_EQ(late, 0);  // a revolution early: must not fire with the bucket
  wheel.advance_to(200);
  EXPECT_EQ(late, 1);
}

TEST(TimerWheelEdge, ManyRevolutionsOutstanding) {
  TimerWheel wheel(10, 8, 0);  // revolution = 80 ms
  std::vector<int> fired;
  for (int i = 1; i <= 5; ++i) {
    // 90, 180, 270, 360, 450 ms: 1–5 revolutions out, various buckets.
    wheel.schedule(static_cast<std::uint64_t>(i) * 90,
                   [&fired, i] { fired.push_back(i); });
  }
  wheel.advance_to(449);
  EXPECT_EQ(fired.size(), 4u);
  wheel.advance_to(460);
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4, 5}));  // deadline order
}

TEST(TimerWheelEdge, CancelThenFireOrderingInOneBucket) {
  // Cancel one of several same-tick timers, then advance: survivors fire
  // in deadline order and the cancelled id reports false forever after.
  TimerWheel wheel(10, 32, 0);
  std::vector<char> order;
  wheel.schedule(50, [&] { order.push_back('a'); });
  const auto doomed = wheel.schedule(50, [&] { order.push_back('x'); });
  wheel.schedule(50, [&] { order.push_back('b'); });
  EXPECT_TRUE(wheel.cancel(doomed));
  EXPECT_FALSE(wheel.cancel(doomed));  // idempotent: already gone
  wheel.advance_to(60);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b'}));
  EXPECT_FALSE(wheel.cancel(doomed));  // and still gone after the tick fired
}

TEST(TimerWheelEdge, CancelInsideCallbackDisarmsSiblingThisTick) {
  // A deadline callback cancelling a sibling due the same tick must win:
  // the sibling's callback never runs (connection-close cancelling the
  // peer timer is exactly this shape).
  TimerWheel wheel(10, 32, 0);
  int sibling_fired = 0;
  TimerWheel::TimerId sibling = 0;
  wheel.schedule(50, [&] { wheel.cancel(sibling); });
  sibling = wheel.schedule(50, [&] { ++sibling_fired; });
  wheel.advance_to(100);
  EXPECT_EQ(sibling_fired, 0);
  EXPECT_EQ(wheel.pending(), 0u);
}

// ---------------------------------------------------------------------------
// SocketNet fault tolerance: stale pooled connections, retries, breakers

TEST(SocketNet, StalePooledConnectionIsDetectedAndRedialed) {
  // Regression: the server drops idle keep-alive connections; the pooled
  // client's fd is dead by the second send. The borrow-time probe must
  // discard it and dial fresh — not surface a spurious failure.
  for (const SendForm form : kSendForms) {
    SCOPED_TRACE(name_of(form));
    EchoHost host;
    HostServer::Options server_options;
    server_options.idle_timeout_ms = 50;
    HostServer server(&host, "svc", server_options);
    server.start();
    EventLoop loop;
    SocketNet::Options options;
    options.retry.max_attempts = 1;  // isolate the probe from the retry layer
    SocketNet socket_net(options);
    socket_net.register_endpoint(server);

    net::HttpRequest request;
    request.target = "/one";
    ASSERT_EQ(send_via(form, socket_net, loop, "svc", request).status, 200);
    // Let the server idle the pooled connection out (50 ms timeout, 10 ms
    // timer ticks — 300 ms is far past it).
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    request.target = "/two";
    const auto response = send_via(form, socket_net, loop, "svc", request);
    EXPECT_EQ(response.status, 200);
    EXPECT_EQ(response.body, "echo:/two");
    EXPECT_EQ(socket_net.stats().stale_pool_drops, 1u);
    EXPECT_EQ(socket_net.stats().connections_opened, 2u);
    EXPECT_EQ(socket_net.stats().send_failures, 0u);
    server.stop();
  }
}

TEST(SocketNet, TransportFailuresAreRetriedWithBackoff) {
  for (const SendForm form : kSendForms) {
    SCOPED_TRACE(name_of(form));
    EventLoop loop;
    SocketNet::Options options;
    options.client.connect_timeout_ms = 100;
    // Isolate the retry layer: the breaker never opens on three failures.
    options.breaker.failure_threshold = 4;
    options.retry.max_attempts = 3;
    options.retry.base_delay_ms = 1;
    options.retry.max_delay_ms = 4;
    SocketNet socket_net(options);
    socket_net.register_endpoint("dead.svc", "127.0.0.1", 1);

    EXPECT_EQ(send_via(form, socket_net, loop, "dead.svc", {}).status, 504);
    EXPECT_EQ(socket_net.stats().retries, 2u);  // 3 attempts = 2 retries
    EXPECT_EQ(socket_net.stats().send_failures, 1u);  // one failure per send
  }
}

TEST(SocketNet, UnknownDestinationIsNeverRetried) {
  for (const SendForm form : kSendForms) {
    SCOPED_TRACE(name_of(form));
    EventLoop loop;
    SocketNet::Options options;
    options.retry.max_attempts = 5;
    SocketNet socket_net(options);
    EXPECT_EQ(send_via(form, socket_net, loop, "no.such.host", {}).status,
              504);
    EXPECT_EQ(socket_net.stats().retries, 0u);  // config error ≠ upstream fault
    EXPECT_EQ(socket_net.breaker_state("no.such.host"),
              CircuitBreaker::State::Closed);
  }
}

TEST(SocketNet, BreakerOpensAndFastFailsWithRetryAfter) {
  for (const SendForm form : kSendForms) {
    SCOPED_TRACE(name_of(form));
    EventLoop loop;
    SocketNet::Options options;
    options.client.connect_timeout_ms = 100;
    options.retry.max_attempts = 1;
    options.breaker.failure_threshold = 2;
    options.breaker.open_ms = 30'000;  // stays open for the whole test
    SocketNet socket_net(options);
    socket_net.register_endpoint("dead.svc", "127.0.0.1", 1);

    EXPECT_EQ(send_via(form, socket_net, loop, "dead.svc", {}).status, 504);
    EXPECT_EQ(send_via(form, socket_net, loop, "dead.svc", {}).status, 504);
    EXPECT_EQ(socket_net.breaker_state("dead.svc"),
              CircuitBreaker::State::Open);

    const auto fast_fail = send_via(form, socket_net, loop, "dead.svc", {});
    EXPECT_EQ(fast_fail.status, 503);
    ASSERT_TRUE(fast_fail.headers.get("Retry-After").has_value());
    EXPECT_EQ(*fast_fail.headers.get("Retry-After"), "30");
    EXPECT_EQ(socket_net.stats().breaker_fast_fails, 1u);
  }
}

TEST(SocketNet, BreakerHalfOpensProbesAndRecloses) {
  for (const SendForm form : kSendForms) {
    SCOPED_TRACE(name_of(form));
    EventLoop loop;
    SocketNet::Options options;
    options.client.connect_timeout_ms = 100;
    options.retry.max_attempts = 1;
    options.breaker.failure_threshold = 1;
    options.breaker.open_ms = 100;
    SocketNet socket_net(options);
    // The destination starts dead…
    socket_net.register_endpoint("flappy.svc", "127.0.0.1", 1);
    EXPECT_EQ(send_via(form, socket_net, loop, "flappy.svc", {}).status, 504);
    EXPECT_EQ(socket_net.breaker_state("flappy.svc"),
              CircuitBreaker::State::Open);

    // …then recovers at the same address (new port; re-registering keeps
    // the breaker history, as a real recovery would).
    EchoHost host;
    HostServer server(&host, "flappy.svc");
    server.start();
    socket_net.register_endpoint(server);

    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(socket_net.breaker_state("flappy.svc"),
              CircuitBreaker::State::HalfOpen);
    // The next send is the probe; its success re-closes the breaker.
    EXPECT_EQ(send_via(form, socket_net, loop, "flappy.svc", {}).status, 200);
    EXPECT_EQ(socket_net.breaker_state("flappy.svc"),
              CircuitBreaker::State::Closed);
    server.stop();
  }
}

TEST(SocketNet, SinkRefusalsFromALiveServerKeepTheBreakerClosed) {
  // Regression: a caller's sink refusing heads used to count as transport
  // failures, so `failure_threshold` hedge losers in a row fast-failed a
  // healthy replica. Both forms of call, blocking and loop-native, refuse
  // twice the threshold here.
  EchoHost host;
  HostServer server(&host, "live.svc");
  server.start();
  EventLoop loop;  // declared first: it outlives socket_net's async pool
  SocketNet::Options options;
  options.breaker.failure_threshold = 3;
  options.breaker.open_ms = 30'000;  // an opened breaker stays open
  SocketNet socket_net(options);
  socket_net.register_endpoint(server);
  const int refusals = 2 * options.breaker.failure_threshold;
  net::HttpRequest request;
  request.target = "/refused";

  for (int i = 0; i < refusals; ++i) {
    RefusingSink sink;
    const auto head = socket_net.send_streaming("a", "live.svc", request, sink);
    EXPECT_EQ(sink.heads, 1) << "refusal " << i << " never reached the server";
    EXPECT_FALSE(head.ok());
    EXPECT_EQ(socket_net.breaker_state("live.svc"),
              CircuitBreaker::State::Closed);
  }

  auto sink = std::make_shared<RefusingSink>();
  int completed = 0;
  std::function<void()> send_next = [&] {
    socket_net.send_streaming_async(
        "a", "live.svc", request, sink, &loop, [&](net::HttpResponse head) {
          EXPECT_FALSE(head.ok());
          if (++completed == refusals) {
            loop.stop();
          } else {
            send_next();
          }
        });
  };
  loop.post(send_next);
  loop.run();
  EXPECT_EQ(sink->heads, refusals);
  EXPECT_EQ(socket_net.breaker_state("live.svc"), CircuitBreaker::State::Closed);

  const SocketNet::Stats stats = socket_net.stats();
  EXPECT_EQ(stats.breaker_fast_fails, 0u);
  EXPECT_EQ(stats.send_failures, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(socket_net.send("a", "live.svc", request).status, 200);
  server.stop();
}

TEST(SocketNet, RetryBudgetShedsRetriesUnderSustainedFailure) {
  for (const SendForm form : kSendForms) {
    SCOPED_TRACE(name_of(form));
    EventLoop loop;
    SocketNet::Options options;
    options.client.connect_timeout_ms = 100;
    // Isolate the budget: the breaker never opens on the 5 + 3 failures.
    options.breaker.failure_threshold = 9;
    options.retry.max_attempts = 3;
    options.retry.base_delay_ms = 1;
    options.retry.max_delay_ms = 2;
    options.budget.initial_tokens = 3.0;  // three retries, then dry
    options.budget.tokens_per_request = 0.0;
    SocketNet socket_net(options);
    socket_net.register_endpoint("dead.svc", "127.0.0.1", 1);

    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(send_via(form, socket_net, loop, "dead.svc", {}).status, 504);
    }
    // 5 sends × 2 possible retries each = 10 wanted; the budget allowed 3.
    EXPECT_EQ(socket_net.stats().retries, 3u);
  }
}

}  // namespace

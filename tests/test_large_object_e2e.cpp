// Large-object data path over real loopback TCP (PR 6).
//
// The bug this PR fixes: every layer buffered whole bodies — a large
// object served to N clients cost N+1 copies of the bytes and the
// runtime's memory grew with clients × object_size. These tests pin the
// fix end to end:
//   * a multi-hundred-MB object (IDICN_LARGE_OBJECT_MB, default 256)
//     streams origin → reverse proxy → edge proxy → 8 concurrent
//     clients, and the process's peak RSS stays bounded by the cached
//     copies, NOT by clients × object_size (zero-copy fan-out);
//   * a request arriving while the object is still being fetched joins
//     the in-flight stream: its prefix is served immediately, the tail
//     as it lands (X-Cache: STREAM), with no duplicate upstream fetch;
//   * when the completed content fails verification, every joined stream
//     aborts before its body terminator — fail-closed, no client can
//     mistake corrupt bytes for a complete transfer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/buffer.hpp"
#include "core/sync.hpp"
#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "idicn/name.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/http_message.hpp"
#include "net/transport.hpp"
#include "runtime/host_server.hpp"
#include "runtime/http_client.hpp"
#include "runtime/socket_net.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

std::size_t large_object_bytes() {
  long mb = 256;
  if (const char* env = std::getenv("IDICN_LARGE_OBJECT_MB")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) mb = parsed;
  }
  return static_cast<std::size_t>(mb) << 20;
}

/// Peak resident set (VmHWM) in bytes — the high-water mark the kernel
/// tracks for the whole process, so deltas across a phase bound that
/// phase's worst-case memory.
std::size_t vm_hwm_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(
                 std::strtoll(line.c_str() + 6, nullptr, 10)) *
             1024;
    }
  }
  return 0;
}

/// Deterministic incompressible-ish body: block-stamped so truncation or
/// reordering anywhere in the pipeline changes the digest.
std::string make_pattern(std::size_t bytes) {
  std::string body(bytes, '\0');
  std::uint32_t x = 0x9e3779b9;
  for (std::size_t i = 0; i < bytes; i += 64) {
    x = x * 1664525u + 1013904223u;
    std::memset(&body[i], static_cast<char>(x),
                std::min<std::size_t>(64, bytes - i));
  }
  return body;
}

/// Client-side sink that hashes and discards: holds one chunk at a time,
/// so N concurrent clients of one object contribute ~nothing to RSS.
class DigestSink final : public net::ChunkSink {
public:
  explicit DigestSink(std::uint64_t throttle_every_bytes = 0)
      : throttle_every_bytes_(throttle_every_bytes) {}

  bool on_head(const net::HttpResponse& head) override {
    status_ = head.status;
    x_cache_ = head.headers.get("X-Cache").value_or("");
    head_seen_.store(true, std::memory_order_release);
    return true;
  }
  bool on_chunk(core::Chunk chunk) override {
    hasher_.update(chunk.view());
    // Release: a reader that sees the new byte count (acquire in bytes())
    // also sees everything on_head stored before the first chunk.
    const std::uint64_t total =
        bytes_.fetch_add(chunk.size(), std::memory_order_release) +
        chunk.size();
    if (throttle_every_bytes_ != 0 &&
        total / throttle_every_bytes_ != throttled_marks_) {
      // A deliberately slow consumer: exercises the server-side
      // backpressure path (bounded outq + EAGAIN) without stalling the
      // other clients sharing the same cached chunks.
      throttled_marks_ = total / throttle_every_bytes_;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  [[nodiscard]] bool head_seen() const {
    return head_seen_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int status() const { return status_; }
  [[nodiscard]] const std::string& x_cache() const { return x_cache_; }
  [[nodiscard]] crypto::Sha256Digest digest() { return hasher_.finish(); }

private:
  std::uint64_t throttle_every_bytes_;
  std::uint64_t throttled_marks_ = 0;
  std::atomic<bool> head_seen_{false};
  std::atomic<std::uint64_t> bytes_{0};
  int status_ = 0;
  std::string x_cache_;
  crypto::Sha256 hasher_;
};

net::HttpRequest proxy_get(const std::string& host) {
  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + host + "/";
  request.headers.set("Host", host);
  return request;
}

// ---------------------------------------------------------------------------
// Zero-copy fan-out of one cached object to 8 concurrent clients

TEST(LargeObjectE2e, FanOutToConcurrentClientsIsZeroCopy) {
  const std::size_t object_bytes = large_object_bytes();
  const std::size_t base_hwm = vm_hwm_bytes();
  ASSERT_GT(base_hwm, 0u);

  runtime::SocketNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{424242, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs.consortium",
                             &signer};
  Proxy::Options proxy_options;
  proxy_options.capacity_bytes = static_cast<std::uint64_t>(object_bytes) * 2;
  Proxy proxy{&net, "cache.ad1", "nrs.consortium", &dns, proxy_options};

  runtime::HostServer nrs_server{&nrs, "nrs.consortium"};
  runtime::HostServer origin_server{&origin, "origin.pub"};
  runtime::HostServer rp_server{&reverse_proxy, "rp.pub"};
  runtime::HostServer proxy_server{&proxy, "cache.ad1"};
  nrs_server.start();
  origin_server.start();
  rp_server.start();
  proxy_server.start();
  net.register_endpoint(nrs_server);
  net.register_endpoint(origin_server);
  net.register_endpoint(rp_server);
  net.register_endpoint(proxy_server);

  crypto::Sha256Digest expected;
  std::optional<SelfCertifyingName> name;
  {
    std::string body = make_pattern(object_bytes);
    expected = crypto::Sha256::hash(body);
    origin_server.run_on_loop([&] { origin.put("big", std::move(body)); });
    rp_server.run_on_loop([&] { name = reverse_proxy.publish("big"); });
  }  // the test's own copy of the body is gone before measuring
  ASSERT_TRUE(name.has_value());

  // Warm fetch: streams origin bytes through the proxy into its content
  // store, verifying as it goes — after this the object is cached once.
  {
    runtime::HttpClient warm("127.0.0.1", proxy_server.port());
    DigestSink sink;
    std::string error;
    const auto head = warm.request_streaming(proxy_get(name->host()), sink,
                                             &error);
    ASSERT_TRUE(head.has_value()) << error;
    ASSERT_EQ(head->status, 200);
    ASSERT_EQ(sink.bytes(), object_bytes);
    ASSERT_EQ(sink.digest(), expected);
    ASSERT_TRUE(proxy.is_cached(name->host()));
  }

  // 8 concurrent clients drain the same cached object; client 0 is
  // deliberately slow. Each client holds one wire chunk at a time, each
  // connection's output queue holds chunk *references* — so the fan-out
  // phase must add far less than one extra object copy to peak RSS, let
  // alone the clients × object_size a buffering runtime would need.
  const std::size_t before_fanout_hwm = vm_hwm_bytes();
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  {
    std::vector<core::sync::Thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        runtime::HttpClient client("127.0.0.1", proxy_server.port());
        DigestSink sink(c == 0 ? (8u << 20) : 0);
        const auto head = client.request_streaming(proxy_get(name->host()),
                                                   sink);
        if (!head || head->status != 200 ||
            head->headers.get("X-Cache") != "HIT" ||
            sink.bytes() != object_bytes || sink.digest() != expected) {
          failures.fetch_add(1);
        }
      });
    }
  }  // all clients joined
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(proxy.stats().hits.value(), static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(proxy.stats().bytes_from_origin, object_bytes);  // fetched once

  const std::size_t after_fanout_hwm = vm_hwm_bytes();
  // Serving clients × object bytes grew the peak by less than one object.
  EXPECT_LT(after_fanout_hwm - before_fanout_hwm, object_bytes)
      << "fan-out grew peak RSS by "
      << (after_fanout_hwm - before_fanout_hwm) / (1 << 20) << " MB";
  // Absolute bound: the whole test (origin copy + reverse-proxy copy +
  // proxy cache copy + transients) stays well below clients × object.
  EXPECT_LT(after_fanout_hwm - base_hwm,
            static_cast<std::size_t>(kClients - 2) * object_bytes)
      << "peak RSS " << (after_fanout_hwm - base_hwm) / (1 << 20)
      << " MB for a " << object_bytes / (1 << 20) << " MB object";

  proxy_server.stop();
  rp_server.stop();
  origin_server.stop();
  nrs_server.stop();
}

// ---------------------------------------------------------------------------
// Stream-join: prefix served while the tail is still in flight

/// Shared pacing state: the test releases chunks one batch at a time, so
/// "the tail is still upstream" is a controlled fact, not a race.
struct PacedState {
  std::size_t total_chunks = 8;
  std::size_t chunk_bytes = 32 << 10;
  std::atomic<std::size_t> released{0};
  std::atomic<bool> finished{false};
  std::atomic<std::size_t> pulled{0};

  [[nodiscard]] std::string chunk_at(std::size_t i) const {
    return std::string(chunk_bytes, static_cast<char>('a' + i % 26));
  }
  [[nodiscard]] std::string full_body() const {
    std::string body;
    for (std::size_t i = 0; i < total_chunks; ++i) body += chunk_at(i);
    return body;
  }
};

class PacedProducer final : public net::BodyProducer {
public:
  explicit PacedProducer(PacedState* state) : state_(state) {}
  [[nodiscard]] std::optional<std::uint64_t> total_size() const override {
    return std::nullopt;  // unknown up front → chunked on the wire
  }
  Pull pull(core::Chunk* out) override {
    if (produced_ < state_->released.load(std::memory_order_acquire)) {
      *out = core::Chunk::from_string(state_->chunk_at(produced_));
      ++produced_;
      state_->pulled.store(produced_, std::memory_order_release);
      return Pull::Ready;
    }
    if (produced_ == state_->total_chunks &&
        state_->finished.load(std::memory_order_acquire)) {
      return Pull::Done;
    }
    return Pull::Pending;
  }

private:
  PacedState* state_;
  std::size_t produced_ = 0;
};

/// Upstream location that trickles its body at the pace the test dictates.
class PacedHost : public net::SimHost {
public:
  explicit PacedHost(PacedState* state) : state_(state) {}
  net::HttpResponse handle_http(const net::HttpRequest&,
                                const net::Address&) override {
    net::HttpResponse response;
    response.status = 200;
    response.reason = "OK";
    response.headers.set("Content-Type", "application/octet-stream");
    response.producer = std::make_shared<PacedProducer>(state_);
    return response;
  }

private:
  PacedState* state_;
};

/// NRS + paced upstream + edge proxy, with the upstream registered as the
/// location for a self-certifying name (signature is genuine; whether the
/// *content* verifies is up to the test).
struct PacedDeployment {
  PacedState state;
  runtime::SocketNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{777, 4};
  NameResolutionSystem nrs{&dns};
  PacedHost upstream{&state};
  Proxy proxy;

  runtime::HostServer nrs_server{&nrs, "nrs.consortium"};
  runtime::HostServer upstream_server{&upstream, "paced.host"};
  runtime::HostServer proxy_server;

  SelfCertifyingName name{"trickle",
                          SelfCertifyingName::publisher_id(signer.root())};

  static Proxy::Options proxy_options(bool verify) {
    Proxy::Options options;
    options.verify = verify;
    return options;
  }

  explicit PacedDeployment(bool verify)
      : proxy{&net, "cache.ad1", "nrs.consortium", &dns, proxy_options(verify)},
        proxy_server{&proxy, "cache.ad1"} {
    nrs_server.start();
    upstream_server.start();
    proxy_server.start();
    net.register_endpoint(nrs_server);
    net.register_endpoint(upstream_server);
    net.register_endpoint(proxy_server);

    const auto signature = signer.sign(
        NameResolutionSystem::registration_signing_input(name, "paced.host"));
    RegisterResult registered = RegisterResult::BadSignature;
    nrs_server.run_on_loop([&] {
      registered =
          nrs.register_name(name, "paced.host", signer.root(), signature);
    });
    EXPECT_EQ(registered, RegisterResult::Ok);
  }

  ~PacedDeployment() {
    proxy_server.stop();
    upstream_server.stop();
    nrs_server.stop();
  }

  /// Block until the upstream handed its first chunk to the wire (the
  /// response head necessarily went out before it), then a grace period
  /// for the proxy to publish the in-flight transit.
  [[nodiscard]] bool wait_for_fetch_in_flight() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (state.pulled.load(std::memory_order_acquire) == 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return true;
  }
};

TEST(LargeObjectE2e, PrefixServedWhileTailStreamsFromUpstream) {
  PacedDeployment d(/*verify=*/false);  // paced bytes carry no proof headers
  constexpr std::size_t kPrefixChunks = 3;
  d.state.released.store(kPrefixChunks);
  const std::string full = d.state.full_body();
  const crypto::Sha256Digest expected = crypto::Sha256::hash(full);

  // Client A triggers the fetch. It drives Proxy::handle_http directly
  // (the documented any-worker entry point) instead of going through the
  // server socket, so the single-reactor server stays free to serve B —
  // the join is deterministic, not a bet on which worker B's connection
  // hashes to.
  net::HttpResponse response_a;
  core::sync::Thread client_a([&] {
    response_a = d.proxy.handle_http(proxy_get(d.name.host()), "client.a");
  });

  ASSERT_TRUE(d.wait_for_fetch_in_flight());

  // Client B arrives mid-fetch: it must join the in-flight stream and see
  // the already-arrived prefix NOW — before the upstream has produced the
  // tail, and long before client A (who gets the complete object) answers.
  DigestSink sink_b;
  std::optional<net::HttpResponse> head_b;
  core::sync::Thread client_b([&] {
    runtime::HttpClient client("127.0.0.1", d.proxy_server.port());
    head_b = client.request_streaming(proxy_get(d.name.host()), sink_b);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sink_b.bytes() < kPrefixChunks * d.state.chunk_bytes) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "joined client never received the prefix; got " << sink_b.bytes()
        << " bytes, X-Cache=" << sink_b.x_cache();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The prefix arrived while the tail verifiably did not exist yet.
  EXPECT_EQ(d.state.pulled.load(), kPrefixChunks);
  EXPECT_FALSE(d.state.finished.load());
  EXPECT_EQ(sink_b.x_cache(), "STREAM");

  // Release the tail; everyone completes with identical, intact bytes.
  d.state.released.store(d.state.total_chunks);
  d.state.finished.store(true);
  client_a.join();
  client_b.join();

  EXPECT_EQ(response_a.status, 200);
  EXPECT_EQ(response_a.headers.get("X-Cache"), "MISS");
  EXPECT_EQ(response_a.full_body(), full);
  ASSERT_TRUE(head_b.has_value());
  EXPECT_EQ(head_b->status, 200);
  EXPECT_EQ(sink_b.bytes(), full.size());
  EXPECT_EQ(sink_b.digest(), expected);
  EXPECT_GE(d.proxy.stats().stream_joins.value(), 1u);
  // One upstream fetch served both clients.
  EXPECT_EQ(d.proxy.stats().bytes_from_origin, full.size());
}

// ---------------------------------------------------------------------------
// Fail-closed: joined streams abort when verification fails

TEST(LargeObjectE2e, StreamJoinAbortsWhenVerificationFails) {
  PacedDeployment d(/*verify=*/true);  // paced bytes carry no proof → fail
  d.state.released.store(2);

  // Client A is the fetcher (driving handle_http directly, as above):
  // answered 502 once the proxy sees the completed content fail
  // verification — never cached, never served as complete.
  net::HttpResponse response_a;
  core::sync::Thread client_a([&] {
    response_a = d.proxy.handle_http(proxy_get(d.name.host()), "client.a");
  });

  ASSERT_TRUE(d.wait_for_fetch_in_flight());

  // Client B joins the in-flight (doomed) stream.
  DigestSink sink_b;
  std::optional<net::HttpResponse> head_b;
  std::string error_b;
  core::sync::Thread client_b([&] {
    runtime::HttpClient client("127.0.0.1", d.proxy_server.port());
    head_b = client.request_streaming(proxy_get(d.name.host()), sink_b,
                                      &error_b);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!sink_b.head_seen()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "joined client never saw a response head";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(sink_b.x_cache(), "STREAM");

  // Let the transfer complete upstream: the proxy now verifies, fails,
  // and flips the transit to `failed` — B's connection must close without
  // a body terminator, surfacing as a failed transfer, not a short 200.
  d.state.released.store(d.state.total_chunks);
  d.state.finished.store(true);
  client_a.join();
  client_b.join();

  EXPECT_EQ(response_a.status, 502);
  EXPECT_FALSE(head_b.has_value()) << "joined stream completed cleanly "
                                      "despite verification failure";
  EXPECT_GE(d.proxy.stats().verification_failures.value(), 1u);
  EXPECT_FALSE(d.proxy.is_cached(d.name.host()));
}

}  // namespace

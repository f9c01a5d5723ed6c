// Blocking HTTP/1.1 client for one endpoint: an AsyncHttpClient on an
// EventLoop this client owns, pumped on the calling thread until each
// request completes. Keep-alive reuse, the reconnect-once keep-alive race,
// Connection: close and the connect/receive deadlines are all
// AsyncHttpClient's. This is the caller-side counterpart of HostServer for
// code that is no idICN host — tests, benches and the testbed's trace
// driver speak through it; hosts reach their peers through SocketNet.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "net/http_message.hpp"
#include "net/transport.hpp"
#include "runtime/async_http_client.hpp"
#include "runtime/event_loop.hpp"

namespace idicn::runtime {

class HttpClient {
public:
  using Options = AsyncHttpClient::Options;

  HttpClient(std::string host, std::uint16_t port, Options options = {});
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One round trip. Reconnects transparently (once) when a reused
  /// keep-alive connection turns out to be dead — the standard race with a
  /// server-side idle close. nullopt on failure (reason in `error`).
  std::optional<net::HttpResponse> request(const net::HttpRequest& request,
                                           std::string* error = nullptr);

  /// Convenience GET (absolute-form or origin-form target).
  std::optional<net::HttpResponse> get(const std::string& target,
                                       std::string* error = nullptr);

  /// One round trip with incremental body delivery: `sink.on_head` fires
  /// when the status line + headers decode, `sink.on_chunk` per body slab
  /// as it arrives — the body never accumulates in this client. Returns
  /// the head (empty body) once the body is fully delivered; nullopt on
  /// transport failure or when a sink callback cancelled (the connection
  /// closes — a half-read body is not reusable). Unlike request(), no
  /// transparent reconnect happens once the sink saw anything.
  std::optional<net::HttpResponse> request_streaming(
      const net::HttpRequest& request, net::ChunkSink& sink,
      std::string* error = nullptr);

  [[nodiscard]] bool connected() const noexcept { return client_.connected(); }

private:
  /// Issue on client_ and pump loop_ until the completion fires.
  std::optional<net::HttpResponse> round_trip(
      const net::HttpRequest& request, std::shared_ptr<net::ChunkSink> sink,
      std::string* error);

  EventLoop loop_;  ///< declared first: client_ unwatches its fd here
  AsyncHttpClient client_;
};

}  // namespace idicn::runtime

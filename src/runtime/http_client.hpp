// Blocking HTTP/1.1 client for one endpoint: keep-alive connection reuse,
// incremental response decoding, send/receive timeouts. This is the
// caller-side counterpart of HostServer for code that is no idICN host —
// tests, benches and the testbed's trace driver speak through it; hosts
// reach their peers through SocketNet.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/http_decoder.hpp"
#include "net/http_message.hpp"
#include "net/transport.hpp"
#include "runtime/tcp.hpp"

namespace idicn::runtime {

class HttpClient {
public:
  struct Options {
    int connect_timeout_ms = 5'000;
    int io_timeout_ms = 10'000;
  };

  HttpClient(std::string host, std::uint16_t port);
  HttpClient(std::string host, std::uint16_t port, Options options);

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

  [[nodiscard]] bool connected() const noexcept { return fd_.valid(); }

  /// True when a kept-alive connection is no longer safely reusable: the
  /// peer closed it (EOF pending), it errored, or unsolicited bytes arrived
  /// while it sat idle (e.g. a server deadline response raced our reuse —
  /// those bytes would otherwise decode as the answer to the *next*
  /// request). A disconnected client is not stale: it dials fresh.
  [[nodiscard]] bool stale_connection() const noexcept;

  void close();

  [[nodiscard]] std::uint64_t requests_sent() const noexcept { return requests_sent_; }
  [[nodiscard]] const std::string& host() const noexcept { return host_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

private:
  bool ensure_connected(std::string* error);
  /// Write the full buffer; false on error/timeout.
  bool write_all(const std::string& bytes, std::string* error);
  /// Read until one response decodes; nullopt on error/timeout/EOF.
  std::optional<net::HttpResponse> read_response(std::string* error);
  std::optional<net::HttpResponse> round_trip(const std::string& wire,
                                              std::string* error);

  std::string host_;
  std::uint16_t port_;
  Options options_;
  ScopedFd fd_;
  net::HttpDecoder decoder_{net::HttpDecoder::Mode::Response};
  std::uint64_t requests_sent_ = 0;
};

// Out of line: Options' default member initializers only become usable once
// the enclosing class is complete.
inline HttpClient::HttpClient(std::string host, std::uint16_t port)
    : HttpClient(std::move(host), port, Options{}) {}

}  // namespace idicn::runtime

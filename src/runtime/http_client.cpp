#include "runtime/http_client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/http_internal.hpp"

namespace idicn::runtime {
namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

HttpClient::HttpClient(std::string host, std::uint16_t port, Options options)
    : host_(std::move(host)), port_(port), options_(options) {}

bool HttpClient::stale_connection() const noexcept {
  if (!fd_.valid()) return false;
  char probe = 0;
  const ssize_t n =
      ::recv(fd_.get(), &probe, sizeof(probe), MSG_PEEK | MSG_DONTWAIT);
  if (n == 0) return true;  // peer FIN while pooled
  if (n > 0) return true;   // unsolicited bytes (stale response / garbage)
  return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
}

void HttpClient::close() {
  fd_.reset();
  decoder_.reset();
}

bool HttpClient::ensure_connected(std::string* error) {
  if (fd_.valid()) return true;
  std::string reason;
  const int fd = connect_tcp(host_, port_, options_.connect_timeout_ms, &reason);
  if (fd < 0) {
    set_error(error, reason);
    return false;
  }
  set_nodelay(fd);
  set_io_timeout(fd, options_.io_timeout_ms);
  fd_.reset(fd);
  decoder_.reset();
  return true;
}

bool HttpClient::write_all(const std::string& bytes, std::string* error) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_.get(), bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      set_error(error, std::string("send: ") + std::strerror(errno));
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<net::HttpResponse> HttpClient::read_response(std::string* error) {
  char buffer[16 * 1024];
  while (true) {
    if (auto response = decoder_.next_response()) return response;
    if (decoder_.failed()) {
      set_error(error, "malformed response: " + decoder_.error());
      return std::nullopt;
    }
    const ssize_t n = ::recv(fd_.get(), buffer, sizeof(buffer), 0);
    if (n == 0) {
      set_error(error, "connection closed mid-response");
      return std::nullopt;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      const bool timeout = errno == EAGAIN || errno == EWOULDBLOCK;
      set_error(error, timeout ? "receive timeout"
                               : std::string("recv: ") + std::strerror(errno));
      return std::nullopt;
    }
    decoder_.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
  }
}

std::optional<net::HttpResponse> HttpClient::round_trip(const std::string& wire,
                                                        std::string* error) {
  if (!write_all(wire, error)) return std::nullopt;
  return read_response(error);
}

std::optional<net::HttpResponse> HttpClient::request(const net::HttpRequest& request,
                                                     std::string* error) {
  const bool reused = fd_.valid();
  if (!ensure_connected(error)) return std::nullopt;
  ++requests_sent_;

  const std::string wire = request.serialize();
  auto response = round_trip(wire, error);
  if (!response && reused) {
    // Keep-alive race: the server idled the connection out between our
    // requests. One clean reconnect is safe for idempotent traffic.
    close();
    if (!ensure_connected(error)) return std::nullopt;
    response = round_trip(wire, error);
  }
  if (!response) {
    close();
    return std::nullopt;
  }
  if (const auto connection = response->headers.get_view("Connection");
      connection && net::detail::token_list_contains(*connection, "close")) {
    close();
  }
  return response;
}

std::optional<net::HttpResponse> HttpClient::request_streaming(
    const net::HttpRequest& request, net::ChunkSink& sink, std::string* error) {
  const bool reused = fd_.valid();
  if (!ensure_connected(error)) return std::nullopt;
  ++requests_sent_;

  bool delivered = false;  // sink saw the head (or bytes) — no retries past here
  bool cancelled = false;
  net::HttpDecoder::StreamHooks hooks;
  hooks.on_head = [&](const net::HttpResponse& head) {
    delivered = true;
    if (!sink.on_head(head)) cancelled = true;
  };
  hooks.on_chunk = [&](core::Chunk chunk) {
    if (cancelled) return;  // decoder may still flush a staged slab
    if (!sink.on_chunk(std::move(chunk))) cancelled = true;
  };
  decoder_.set_stream_hooks(std::move(hooks));

  const std::string wire = request.serialize();
  auto head = round_trip(wire, error);
  if (!head && reused && !delivered) {
    // Keep-alive race: the server idled the connection out between our
    // requests; nothing reached the sink, so a clean replay is safe.
    close();
    if (!ensure_connected(error)) {
      decoder_.set_stream_hooks({});
      return std::nullopt;
    }
    head = round_trip(wire, error);
  }
  decoder_.set_stream_hooks({});
  if (cancelled) {
    // A half-read body poisons keep-alive reuse; drop the connection.
    close();
    set_error(error, "streaming cancelled by sink");
    return std::nullopt;
  }
  if (!head) {
    close();
    return std::nullopt;
  }
  if (const auto connection = head->headers.get_view("Connection");
      connection && net::detail::token_list_contains(*connection, "close")) {
    close();
  }
  return head;
}

std::optional<net::HttpResponse> HttpClient::get(const std::string& target,
                                                 std::string* error) {
  net::HttpRequest get_request;
  get_request.method = "GET";
  get_request.target = target;
  return request(get_request, error);
}

}  // namespace idicn::runtime

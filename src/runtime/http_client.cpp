#include "runtime/http_client.hpp"

#include <utility>

namespace idicn::runtime {

HttpClient::HttpClient(std::string host, std::uint16_t port, Options options)
    : client_(&loop_, std::move(host), port, options) {}

HttpClient::~HttpClient() {
  client_.assert_owned();
  client_.shutdown();  // unwatch the kept-alive fd while loop_ still exists
}

std::optional<net::HttpResponse> HttpClient::round_trip(
    const net::HttpRequest& request, std::shared_ptr<net::ChunkSink> sink,
    std::string* error) {
  bool done = false;
  std::optional<net::HttpResponse> response;
  client_.assert_owned();
  client_.issue(request, std::move(sink),
                [&](std::optional<net::HttpResponse> result, std::string reason) {
                  done = true;
                  response = std::move(result);
                  if (!response && error != nullptr) *error = std::move(reason);
                });
  while (!done) loop_.run_once(1'000);
  return response;
}

std::optional<net::HttpResponse> HttpClient::request(const net::HttpRequest& request,
                                                     std::string* error) {
  return round_trip(request, nullptr, error);
}

std::optional<net::HttpResponse> HttpClient::request_streaming(
    const net::HttpRequest& request, net::ChunkSink& sink, std::string* error) {
  // Non-owning: the caller's sink outlives this call, and the completion
  // fires before it returns.
  return round_trip(request,
                    std::shared_ptr<net::ChunkSink>(std::shared_ptr<void>(), &sink),
                    error);
}

std::optional<net::HttpResponse> HttpClient::get(const std::string& target,
                                                 std::string* error) {
  net::HttpRequest get_request;
  get_request.method = "GET";
  get_request.target = target;
  return request(get_request, error);
}

}  // namespace idicn::runtime

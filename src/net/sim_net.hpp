// Deterministic in-process internetwork for the idICN prototype.
//
// The §6 flows (publish → register → resolve → fetch → verify) are
// functional claims, so we exercise them over a message-oriented simulated
// network rather than real sockets: hosts attach at string addresses,
// requests are delivered synchronously as parsed HTTP messages, a virtual
// clock advances per message, and reachability can be toggled to model
// mobility and partitions. Everything is single-threaded and reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/http_message.hpp"
#include "net/transport.hpp"

namespace idicn::net {

/// Handle to an in-flight asynchronous request inside a host. The server
/// that parked a connection keeps the handle; abort() tells the host the
/// client went away so it can stop work it is doing solely for that
/// client (the response callback must then never fire). abort() is called
/// on the loop thread that started the operation.
class AsyncOp {
public:
  virtual ~AsyncOp() = default;
  virtual void abort() = 0;
};

/// Anything that can answer HTTP requests on the simulated network.
class SimHost {
public:
  virtual ~SimHost() = default;

  /// Handle one request arriving from `from`. Runs synchronously; the host
  /// may itself call SimNet::send() (e.g. a proxy contacting an origin).
  virtual HttpResponse handle_http(const HttpRequest& request, const Address& from) = 0;

  /// Asynchronous variant: answer via `respond` (exactly once, on the
  /// executor's loop thread — or inline before returning) instead of the
  /// return value. Hosts with loop-native upstream paths override this to
  /// park the request while upstream work proceeds on `exec`; the default
  /// adapts handle_http() inline. Returns a cancellation handle when the
  /// operation is still pending at return, else nullptr.
  virtual std::shared_ptr<AsyncOp> handle_http_async(
      const HttpRequest& request, const Address& from, Executor* exec,
      std::function<void(HttpResponse)> respond) {
    (void)exec;
    // idicn-analysis: allow(*): sync fallback adapter — hosts without an async path answer inline; loop-native hosts override
    respond(handle_http(request, from));
    return nullptr;
  }
};

class SimNet : public Transport {
public:
  /// Attach `host` (non-owning) at `address`. Throws std::invalid_argument
  /// if the address is taken.
  void attach(const Address& address, SimHost* host);
  void detach(const Address& address);
  [[nodiscard]] bool is_attached(const Address& address) const;

  /// Mark a host (un)reachable without detaching it (mobility, partition).
  void set_reachable(const Address& address, bool reachable);

  /// Deliver `request` to `to` and complete inline, whatever `exec` is; a
  /// sink gets the response replayed as if it had streamed. Unknown or
  /// unreachable destinations yield 504 Gateway Timeout. Each delivery
  /// advances the clock by the link latency and the response trip by the
  /// same amount.
  void send_streaming_async(const Address& from, const Address& to,
                            const HttpRequest& request,
                            std::shared_ptr<ChunkSink> sink, Executor* exec,
                            SendCallback done) override;

  // --- multicast groups (Zeroconf / mDNS substrate) --------------------
  void join_group(const std::string& group, const Address& member);
  void leave_group(const std::string& group, const Address& member);
  /// Members in deterministic (sorted) order.
  [[nodiscard]] std::vector<Address> group_members(const std::string& group) const;

  /// Deliver to every reachable group member (except `from`); collect the
  /// responses in member order.
  std::vector<HttpResponse> multicast(const Address& from, const std::string& group,
                                      const HttpRequest& request) override;

  // --- clock & accounting ----------------------------------------------
  /// Default per-message one-way latency (virtual milliseconds).
  void set_default_latency_ms(std::uint64_t ms) noexcept { default_latency_ms_ = ms; }
  /// Per-destination override (e.g. the origin is far, the proxy is near).
  void set_latency_ms(const Address& to, std::uint64_t ms) { latency_override_[to] = ms; }

  [[nodiscard]] std::uint64_t now_ms() const noexcept override { return clock_ms_; }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }

  /// Per-(from,to) delivered message counts, for tests.
  [[nodiscard]] std::uint64_t messages_between(const Address& from,
                                               const Address& to) const;

private:
  [[nodiscard]] std::uint64_t latency_to(const Address& to) const;

  std::map<Address, SimHost*> hosts_;
  std::set<Address> unreachable_;
  std::map<std::string, std::set<Address>> groups_;
  std::map<std::pair<Address, Address>, std::uint64_t> pair_messages_;
  std::map<Address, std::uint64_t> latency_override_;
  std::uint64_t default_latency_ms_ = 1;
  std::uint64_t clock_ms_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace idicn::net

#include "runtime/socket_net.hpp"

#include <algorithm>
#include <chrono>

#include "runtime/server_group.hpp"

namespace idicn::runtime {
namespace {

/// Retry-After is expressed in whole seconds (RFC 7231 §7.1.3); round up so
/// a compliant client never retries into a still-open breaker.
std::string retry_after_seconds(std::uint64_t retry_after_ms) {
  return std::to_string((retry_after_ms + 999) / 1000);
}

}  // namespace

std::optional<std::uint64_t> parse_retry_after_ms(std::string_view value) {
  if (value.empty()) return std::nullopt;
  std::uint64_t seconds = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return std::nullopt;
    seconds = seconds * 10 + static_cast<std::uint64_t>(c - '0');
    if (seconds > 86'400) return std::nullopt;  // cap: a day is a refusal
  }
  return seconds * 1000;
}

namespace {

/// Wraps the caller's sink for one attempt and records what it did in a
/// SinkProgress: the retry ladder stops replaying once the sink saw a
/// head, and a refusal is told apart from a transport failure. `owner` is
/// the send state, so the progress outlives the client's callbacks.
class TrackingSink final : public net::ChunkSink {
public:
  TrackingSink(net::ChunkSink& inner, SocketNet::SinkProgress& progress,
               std::shared_ptr<const void> owner)
      : inner_(inner), progress_(progress), owner_(std::move(owner)) {}

  bool on_head(const net::HttpResponse& head) override {
    progress_.delivered = true;
    return note(inner_.on_head(head));
  }
  bool on_chunk(core::Chunk chunk) override {
    return note(inner_.on_chunk(std::move(chunk)));
  }

private:
  bool note(bool accepted) {
    if (!accepted) progress_.refused = true;
    return accepted;
  }

  net::ChunkSink& inner_;
  SocketNet::SinkProgress& progress_;
  std::shared_ptr<const void> owner_;
};

/// The head a streaming send reports when the caller's sink refused: a
/// non-2xx status, so callers that check ok() see the transfer as
/// incomplete, naming the refusal rather than an unreachable destination.
net::HttpResponse refused_response(const net::Address& to, const std::string& error) {
  return net::make_response(504, "upstream " + to + ": " + error);
}

}  // namespace

SocketNet::SocketNet(Options options)
    : options_(options),
      retry_policy_(options.retry),
      retry_budget_(options.budget) {}

void SocketNet::register_endpoint(const net::Address& address, std::string host,
                                  std::uint16_t port) {
  const core::sync::MutexLock lock(mutex_);
  Endpoint& endpoint = endpoints_[address];
  endpoint.host = std::move(host);
  endpoint.port = port;
  endpoint.async_idle.clear();
}

void SocketNet::register_endpoint(const ServerGroup& server) {
  register_endpoint(server.address(), "127.0.0.1", server.port());
}

void SocketNet::unregister_endpoint(const net::Address& address) {
  const core::sync::MutexLock lock(mutex_);
  endpoints_.erase(address);
  breakers_.erase(address);
}

void SocketNet::join_group(const net::Address& address, const std::string& group) {
  const core::sync::MutexLock lock(mutex_);
  auto& members = groups_[group];
  if (std::find(members.begin(), members.end(), address) == members.end()) {
    members.push_back(address);
  }
}

std::shared_ptr<CircuitBreaker> SocketNet::breaker_for(const net::Address& to) {
  const core::sync::MutexLock lock(mutex_);
  auto& breaker = breakers_[to];
  if (breaker == nullptr) {
    breaker = std::make_shared<CircuitBreaker>(options_.breaker);
  }
  return breaker;
}

std::vector<net::HttpResponse> SocketNet::multicast(const net::Address& from,
                                                    const std::string& group,
                                                    const net::HttpRequest& request) {
  std::vector<net::Address> members;
  {
    const core::sync::MutexLock lock(mutex_);
    const auto it = groups_.find(group);
    if (it != groups_.end()) members = it->second;
  }
  std::vector<net::HttpResponse> responses;
  for (const auto& member : members) {
    if (member == from) continue;
    responses.push_back(send(from, member, request));
  }
  return responses;
}

std::uint64_t SocketNet::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- the send envelope -------------------------------------------------------

/// Everything one logical async send carries across attempts. The state is
/// shared between the issued op's completion, the tracking sink, and the
/// backoff timer; it dies when the last of them releases it (always after
/// `done` ran).
struct SocketNet::AsyncSendState {
  SocketNet* net = nullptr;
  net::Address to;
  net::HttpRequest request;
  std::shared_ptr<net::ChunkSink> sink;  ///< null ⇒ buffered send
  net::Executor* exec = nullptr;
  net::SendCallback done;
  std::shared_ptr<CircuitBreaker> breaker;  ///< set before the first attempt
  std::uint64_t started_ms = 0;
  int max_attempts = 1;
  int attempt = 1;
  SinkProgress progress;  ///< what the caller's sink did, across attempts
  std::unique_ptr<AsyncHttpClient> client;  ///< held across one attempt
};

void SocketNet::send_streaming_async(const net::Address& from,
                                     const net::Address& to,
                                     const net::HttpRequest& request,
                                     std::shared_ptr<net::ChunkSink> sink,
                                     net::Executor* exec,
                                     net::SendCallback done) {
  (void)from;  // the TCP peer address is what the receiving server reports
  auto state = std::make_shared<AsyncSendState>();
  state->net = this;
  state->to = to;
  state->request = request;
  state->sink = std::move(sink);
  if (exec == nullptr) {
    // idicn-analysis: allow(*): null-executor fallback pumps a loop lent to this send, never the caller's loop
    done(send_on_lent_loop(std::move(state)));
    return;
  }
  state->exec = exec;
  state->done = std::move(done);
  start_async_send(std::move(state));
}

net::HttpResponse SocketNet::send_on_lent_loop(
    std::shared_ptr<AsyncSendState> state) {
  std::unique_ptr<EventLoop> loop;
  {
    const core::sync::MutexLock lock(mutex_);
    if (!lent_loops_.empty()) {
      loop = std::move(lent_loops_.back());
      lent_loops_.pop_back();
    }
  }
  if (loop == nullptr) loop = std::make_unique<EventLoop>();
  std::optional<net::HttpResponse> response;
  state->exec = loop.get();
  state->done = [&response](net::HttpResponse r) { response = std::move(r); };
  start_async_send(std::move(state));
  // Every callback of this send runs on this loop, so once `done` fired
  // nothing of it is left queued there.
  while (!response) loop->run_once(1'000);
  {
    const core::sync::MutexLock lock(mutex_);
    lent_loops_.push_back(std::move(loop));
  }
  return std::move(*response);
}

void SocketNet::start_async_send(std::shared_ptr<AsyncSendState> state) {
  bool unknown = false;
  {
    const core::sync::MutexLock lock(mutex_);
    ++stats_.requests_sent;
    // Unknown destinations are a wiring error, not upstream ill health:
    // fail immediately, no breaker accounting, no retries.
    if (endpoints_.find(state->to) == endpoints_.end()) {
      ++stats_.send_failures;
      unknown = true;
    }
  }
  if (unknown) {
    state->done(net::make_response(504, "unknown destination: " + state->to));
    return;
  }

  state->breaker = breaker_for(state->to);
  if (!state->breaker->allow(now_ms())) {
    const std::uint64_t wait_ms = state->breaker->retry_after_ms(now_ms());
    {
      const core::sync::MutexLock lock(mutex_);
      ++stats_.breaker_fast_fails;
      ++stats_.send_failures;
    }
    auto response = net::make_response(
        503, "circuit open for " + state->to + "; fast-fail");
    response.headers.set("Retry-After", retry_after_seconds(wait_ms));
    state->done(std::move(response));
    return;
  }

  retry_budget_.on_attempt();
  state->started_ms = now_ms();
  state->max_attempts = std::max(1, options_.retry.max_attempts);
  async_attempt(std::move(state));
}

void SocketNet::async_attempt(std::shared_ptr<AsyncSendState> state) {
  state->client = borrow_async(state->to, state->exec);
  if (state->client == nullptr) {
    finish_async_attempt(state, std::nullopt, "unknown destination");
    return;
  }
  std::shared_ptr<net::ChunkSink> attempt_sink;
  if (state->sink != nullptr) {
    attempt_sink =
        std::make_shared<TrackingSink>(*state->sink, state->progress, state);
  }
  AsyncHttpClient* client = state->client.get();
  client->assert_owned();
  client->issue(state->request, std::move(attempt_sink),
                [state](std::optional<net::HttpResponse> head,
                        std::string error) {
                  state->net->finish_async_attempt(state, std::move(head),
                                                   std::move(error));
                });
}

void SocketNet::finish_async_attempt(std::shared_ptr<AsyncSendState> state,
                                     std::optional<net::HttpResponse> head,
                                     std::string error) {
  if (head) {
    // A 503 with a Retry-After hint is a breaker-fronted peer (or an
    // over-capacity server) saying exactly when to come back: replay the
    // attempt no earlier than the hint instead of surfacing the refusal.
    // Buffered sends only — a streaming sink already consumed this head —
    // and still bounded by attempts, deadline, and the retry budget. The
    // exchange itself was clean HTTP, so the connection pools and the
    // local breaker records nothing either way.
    if (head->status == 503 && !state->progress.delivered &&
        state->attempt < state->max_attempts) {
      const auto hint = head->headers.get_view("Retry-After");
      const auto hint_ms =
          hint ? parse_retry_after_ms(*hint) : std::nullopt;
      if (hint_ms) {
        const std::uint64_t delay_ms = std::max(
            *hint_ms, retry_policy_.backoff_delay_ms(state->attempt));
        if (retry_policy_.within_deadline(now_ms() - state->started_ms,
                                          delay_ms) &&
            retry_budget_.try_spend()) {
          give_back_async(state->to, state->exec, std::move(state->client));
          {
            const core::sync::MutexLock lock(mutex_);
            ++stats_.retries;
            ++stats_.retry_after_honored;
          }
          RetryPolicy::schedule_backoff(*state->exec, delay_ms, [state]() {
            ++state->attempt;
            state->net->async_attempt(state);
          });
          return;
        }
      }
    }
    give_back_async(state->to, state->exec, std::move(state->client));
    state->breaker->record_success(now_ms());
    state->done(std::move(*head));
    return;
  }
  state->client.reset();  // a failed connection is never pooled
  if (state->progress.refused) {
    // The caller's sink ended the transfer after the destination answered
    // (a hedge loser, say): a success for the breaker and no send failure.
    state->breaker->record_success(now_ms());
    state->done(refused_response(state->to, error));
    return;
  }
  state->breaker->record_failure(now_ms());

  bool give_up = false;
  // Once the sink has seen the head, a retry would deliver the body prefix
  // twice — the failure must surface to the caller instead.
  if (state->progress.delivered) give_up = true;
  if (!give_up && state->attempt >= state->max_attempts) give_up = true;
  if (!give_up &&
      state->breaker->state(now_ms()) == CircuitBreaker::State::Open) {
    give_up = true;
  }
  std::uint64_t delay_ms = 0;
  if (!give_up) {
    delay_ms = retry_policy_.backoff_delay_ms(state->attempt);
    if (!retry_policy_.within_deadline(now_ms() - state->started_ms,
                                       delay_ms)) {
      give_up = true;
    }
  }
  if (!give_up && !retry_budget_.try_spend()) give_up = true;
  if (give_up) {
    {
      const core::sync::MutexLock lock(mutex_);
      ++stats_.send_failures;
    }
    state->done(net::make_response(
        504, "upstream " + state->to + " unreachable: " + error));
    return;
  }
  {
    const core::sync::MutexLock lock(mutex_);
    ++stats_.retries;
  }
  net::Executor* exec = state->exec;
  RetryPolicy::schedule_backoff(*exec, delay_ms, [state]() {
    ++state->attempt;
    state->net->async_attempt(state);
  });
}

std::unique_ptr<AsyncHttpClient> SocketNet::borrow_async(const net::Address& to,
                                                         net::Executor* exec) {
  const core::sync::MutexLock lock(mutex_);
  const auto it = endpoints_.find(to);
  if (it == endpoints_.end()) return nullptr;
  Endpoint& endpoint = it->second;
  auto& pool = endpoint.async_idle[exec];
  while (!pool.empty()) {
    auto client = std::move(pool.back());
    pool.pop_back();
    // The peer may have closed (or written into) this connection while it
    // sat pooled — reusing it would either fail the round trip or, worse,
    // decode stale buffered bytes as the next response. Probe and discard.
    // idicn-analysis: allow(lock-across-io): MSG_PEEK|MSG_DONTWAIT probe never waits
    if (client->stale_connection()) {
      ++stats_.stale_pool_drops;
      continue;
    }
    return client;
  }
  ++stats_.connections_opened;
  return std::make_unique<AsyncHttpClient>(exec, endpoint.host, endpoint.port,
                                           options_.client);
}

void SocketNet::give_back_async(const net::Address& to, net::Executor* exec,
                                std::unique_ptr<AsyncHttpClient> client) {
  if (client == nullptr || !client->idle()) return;
  const core::sync::MutexLock lock(mutex_);
  const auto it = endpoints_.find(to);
  // Drop the connection when the endpoint moved while we were using it.
  if (it == endpoints_.end() || it->second.port != client->port()) return;
  it->second.async_idle[exec].push_back(std::move(client));
}

SocketNet::Stats SocketNet::stats() const {
  const core::sync::MutexLock lock(mutex_);
  return stats_;
}

CircuitBreaker::State SocketNet::breaker_state(const net::Address& to) const {
  std::shared_ptr<CircuitBreaker> breaker;
  {
    const core::sync::MutexLock lock(mutex_);
    const auto it = breakers_.find(to);
    if (it == breakers_.end()) return CircuitBreaker::State::Closed;
    breaker = it->second;
  }
  return breaker->state(now_ms());
}

}  // namespace idicn::runtime

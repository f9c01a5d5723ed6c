#include "runtime/multi_source_fetcher.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace idicn::runtime {

using core::sync::MutexLock;

namespace detail {

// One in-flight multi-source fetch. Like Proxy::FetchOp, the state is
// *loop-confined*: every transport callback, hedge timer, and range-leg
// completion for one fetch fires on the thread that called fetch() (the
// caller's event loop, or inline for synchronous transports), so no lock
// guards it. Cross-thread state — per-destination estimators/windows/
// breakers, the hedge budget, stats — lives in MultiSourceFetcher behind
// its own mutex and is touched only through the note_*/pick_* helpers.
struct MultiFetchState : std::enable_shared_from_this<MultiFetchState> {
  MultiSourceFetcher* fetcher = nullptr;
  net::Address from;
  std::vector<net::Address> ranked;  ///< candidate sources, best first
  net::HttpRequest request;          ///< caller's request, Range-free
  std::shared_ptr<net::ChunkSink> sink;
  net::Executor* exec = nullptr;
  MultiSourceFetcher::FetchCallback done;

  // --- race state -------------------------------------------------------
  struct Attempt {
    net::Address to;
    std::size_t source_index = 0;
    std::uint64_t started_ms = 0;
    bool is_hedge = false;
    bool head_seen = false;
    bool lost_race = false;     ///< head refused because another attempt won
    bool invalid_head = false;  ///< 2xx we could not use (bad Content-Range)
    bool error_head = false;    ///< upstream answered with a non-2xx head
    bool synth_win = false;     ///< won via a synthesized head (empty-object 416)
    bool denied = false;        ///< breaker refused the dial; nothing sent
    bool finished = false;      ///< completion callback ran
    int status = 0;
  };
  std::vector<Attempt> attempts;
  std::vector<bool> tried;  ///< per ranked index: an attempt was aimed at it
  int winner = -1;
  bool done_fired = false;
  bool caller_cancelled = false;
  std::optional<net::HttpResponse> best_error;
  net::Address best_error_from;  ///< who produced best_error
  bool hedge_timer_armed = false;
  net::Executor::TaskId hedge_timer = 0;

  // --- parallel range state --------------------------------------------
  bool probe_range = false;  ///< the primary request carries a probe Range
  bool range_mode = false;   ///< probe got a usable 206; joining legs
  std::uint64_t total_size = 0;
  std::uint64_t probe_len = 0;        ///< bytes the probe leg covers
  std::uint64_t probe_forwarded = 0;  ///< probe bytes already sent downstream
  bool probe_complete = false;
  std::optional<net::HttpResponse> final_head;  ///< synthesized 200 for done()
  struct RangeLeg {
    std::uint64_t first = 0;  ///< first byte this leg owns, inclusive
    std::uint64_t last = 0;
    std::vector<core::Chunk> buffered;  ///< received, not yet forwarded
    std::uint64_t received = 0;         ///< bytes buffered + forwarded
    std::uint64_t forwarded = 0;        ///< bytes the caller's sink saw
    bool complete = false;
    int tries = 0;
    net::Address to;        ///< source the current try is aimed at
    net::Address sent_to;   ///< non-empty while a dial's accounting is open
    std::uint64_t started_ms = 0;
  };
  std::vector<RangeLeg> legs;   ///< tail legs after the probe, in byte order
  std::size_t current_leg = 0;  ///< next leg to forward downstream
  std::size_t leg_cursor = 0;   ///< round-robin source cursor for legs

  void start_race();
  void start_attempt(std::size_t source_index, bool is_hedge);
  void maybe_arm_hedge();
  void on_hedge_timer();
  bool on_attempt_head(std::size_t idx, const net::HttpResponse& head);
  bool on_attempt_chunk(std::size_t idx, core::Chunk chunk);
  void on_attempt_done(std::size_t idx, net::HttpResponse head);
  void begin_range(const net::HttpResponse& probe_head,
                   const net::ContentRange& cr);
  void start_leg(std::size_t leg_idx);
  bool on_leg_head(std::size_t leg_idx, const net::HttpResponse& head);
  bool on_leg_chunk(std::size_t leg_idx, core::Chunk chunk);
  void on_leg_done(std::size_t leg_idx, net::HttpResponse head);
  void fail_over_or_finish();
  void emit_ready();
  void finish_range_if_complete();
  void fire_done(net::HttpResponse head);
  void fail_fetch();

  [[nodiscard]] bool forward_chunk(core::Chunk chunk);
  [[nodiscard]] std::optional<std::size_t> next_untried();
  [[nodiscard]] bool all_attempts_finished() const;
};

namespace {

/// Streams one racing attempt into the fetch state.
class AttemptSink final : public net::ChunkSink {
 public:
  AttemptSink(std::shared_ptr<MultiFetchState> state, std::size_t index)
      : state_(std::move(state)), index_(index) {}
  bool on_head(const net::HttpResponse& head) override {
    return state_->on_attempt_head(index_, head);
  }
  bool on_chunk(core::Chunk chunk) override {
    return state_->on_attempt_chunk(index_, std::move(chunk));
  }

 private:
  std::shared_ptr<MultiFetchState> state_;
  std::size_t index_;
};

/// Streams one range leg into the fetch state.
class LegSink final : public net::ChunkSink {
 public:
  LegSink(std::shared_ptr<MultiFetchState> state, std::size_t leg)
      : state_(std::move(state)), leg_(leg) {}
  bool on_head(const net::HttpResponse& head) override {
    return state_->on_leg_head(leg_, head);
  }
  bool on_chunk(core::Chunk chunk) override {
    return state_->on_leg_chunk(leg_, std::move(chunk));
  }

 private:
  std::shared_ptr<MultiFetchState> state_;
  std::size_t leg_;
};

net::HttpRequest with_range(const net::HttpRequest& request,
                            std::uint64_t first, std::uint64_t last) {
  net::HttpRequest ranged = request;
  ranged.headers.set("Range", "bytes=" + std::to_string(first) + "-" +
                                  std::to_string(last));
  return ranged;
}

/// Turn a ranged probe head into the 200 the caller's sink expects: the
/// join layer hides that the object arrives in parts, so everything
/// downstream (verification, transit publication, caching) is unchanged.
net::HttpResponse synthesize_full_head(const net::HttpResponse& probe_head,
                                       std::uint64_t total) {
  net::HttpResponse head = probe_head;
  head.status = 200;
  head.reason = std::string(net::default_reason(200));
  head.headers.remove("Content-Range");
  head.headers.set("Content-Length", std::to_string(total));
  return head;
}

}  // namespace

void MultiFetchState::start_race() {
  const MultiSourceFetcher::Options& opt = fetcher->options();
  probe_range = opt.max_parallel_ranges >= 2 && ranked.size() >= 2 &&
                request.method == "GET" && !request.headers.contains("Range");
  tried.assign(ranked.size(), false);
  const std::size_t primary = fetcher->pick_primary(ranked);
  leg_cursor = (primary + 1) % ranked.size();
  start_attempt(primary, /*is_hedge=*/false);
  maybe_arm_hedge();
}

void MultiFetchState::start_attempt(std::size_t source_index, bool is_hedge) {
  const std::size_t idx = attempts.size();
  Attempt attempt;
  attempt.to = ranked[source_index];
  attempt.source_index = source_index;
  attempt.started_ms = fetcher->net_->now_ms();
  attempt.is_hedge = is_hedge;
  attempts.push_back(attempt);
  tried[source_index] = true;

  if (!fetcher->gate(attempt.to)) {
    // Breaker fast-fail: nothing dialed, no timeout burned. Complete the
    // attempt synthetically so the normal ladder picks the next source.
    attempts[idx].denied = true;
    on_attempt_done(idx, net::make_response(
                             503, "circuit open for " + attempt.to));
    return;
  }

  fetcher->note_start(attempt.to);
  net::HttpRequest attempt_request =
      probe_range
          ? with_range(request, 0, fetcher->options().range_probe_bytes - 1)
          : request;
  auto self = shared_from_this();
  fetcher->net_->send_streaming_async(
      from, attempt.to, attempt_request,
      std::make_shared<AttemptSink>(self, idx), exec,
      [self, idx](net::HttpResponse head) {
        self->on_attempt_done(idx, std::move(head));
      });
}

void MultiFetchState::maybe_arm_hedge() {
  const MultiSourceFetcher::Options& opt = fetcher->options();
  if (!opt.hedging_enabled || exec == nullptr) return;
  if (done_fired || winner >= 0) return;
  if (!next_untried().has_value()) return;
  const std::uint64_t delay = fetcher->hedge_delay_ms(attempts[0].to);
  auto self = shared_from_this();
  hedge_timer_armed = true;
  hedge_timer = exec->schedule(delay, [self] { self->on_hedge_timer(); });
}

void MultiFetchState::on_hedge_timer() {
  hedge_timer_armed = false;
  if (done_fired || winner >= 0 || caller_cancelled) return;
  // Once the primary's head arrived the body is flowing; a hedge would
  // duplicate bytes we are already committed to.
  if (!attempts.empty() && attempts[0].head_seen) return;
  const std::optional<std::size_t> target =
      fetcher->pick_hedge(ranked, tried);
  if (!target.has_value()) {
    ++fetcher->stats_.hedges_suppressed;
    return;
  }
  if (!fetcher->hedge_budget_.try_spend()) {
    ++fetcher->stats_.hedges_suppressed;
    return;
  }
  // Karn: the straggling primary is now ambiguous — whatever it returns
  // measures the race, not the path. The shift also decays its ranking, so
  // repeated hedge losses steer future primaries away without requiring a
  // sample the cancelled exchange will never produce.
  fetcher->note_straggler(attempts[0].to);
  ++fetcher->stats_.hedges_sent;
  start_attempt(*target, /*is_hedge=*/true);
}

bool MultiFetchState::on_attempt_head(std::size_t idx,
                                      const net::HttpResponse& head) {
  Attempt& attempt = attempts[idx];
  attempt.head_seen = true;
  attempt.status = head.status;
  if (done_fired || caller_cancelled || winner >= 0) {
    attempt.lost_race = true;
    return false;  // the transport's abort path tears the transfer down
  }

  if (head.ok()) {
    if (probe_range && head.status == 206) {
      const auto range_header = head.headers.get_view("Content-Range");
      const auto cr = net::parse_content_range(range_header.value_or(""));
      if (!cr.has_value() || !cr->satisfied || !cr->total_known ||
          cr->first != 0) {
        // A 206 we cannot size is unusable for the join; fail the attempt.
        attempt.invalid_head = true;
        return false;
      }
      winner = static_cast<int>(idx);
      begin_range(head, *cr);  // forwards the synthesized head, starts legs
      return !caller_cancelled;
    }
    // Plain win (200, or a caller-initiated ranged fetch): pass through.
    winner = static_cast<int>(idx);
    if (!sink->on_head(head)) {
      caller_cancelled = true;
      return false;
    }
    return true;
  }

  if (probe_range && head.status == 416) {
    // An empty object cannot satisfy "bytes=0-…": the replica answers 416
    // with "bytes */0". Synthesize the empty 200 the caller expects.
    const auto range_header = head.headers.get_view("Content-Range");
    const auto cr = net::parse_content_range(range_header.value_or(""));
    if (cr.has_value() && !cr->satisfied && cr->total_known && cr->total == 0) {
      winner = static_cast<int>(idx);
      attempt.synth_win = true;
      range_mode = true;
      total_size = 0;
      final_head = synthesize_full_head(head, 0);
      if (!sink->on_head(*final_head)) caller_cancelled = true;
      return false;  // the 416's own error body is not object bytes
    }
  }

  // Upstream answered with an error head: remember it for the final
  // verdict, refuse the body, and let completion drive failover.
  attempt.error_head = true;
  best_error = head;
  best_error_from = attempt.to;
  return false;
}

bool MultiFetchState::on_attempt_chunk(std::size_t idx, core::Chunk chunk) {
  Attempt& attempt = attempts[idx];
  if (done_fired || caller_cancelled || winner != static_cast<int>(idx)) {
    attempt.lost_race = attempt.lost_race || winner != static_cast<int>(idx);
    return false;
  }
  if (range_mode) probe_forwarded += chunk.size();
  return forward_chunk(std::move(chunk));
}

void MultiFetchState::on_attempt_done(std::size_t idx, net::HttpResponse head) {
  Attempt& attempt = attempts[idx];
  attempt.finished = true;
  const std::uint64_t now = fetcher->net_->now_ms();
  const std::uint64_t rtt_us = (now - attempt.started_ms) * 1000;

  // Per-destination bookkeeping first; continuation second.
  if (attempt.denied) {
    // Nothing was sent: no estimator/window/in-flight movement.
  } else if (attempt.lost_race) {
    fetcher->note_ambiguous(attempt.to);
  } else if (winner == static_cast<int>(idx)) {
    const bool clean = head.ok() || attempt.synth_win;
    if (clean) {
      fetcher->note_clean(attempt.to, rtt_us, now);
    } else {
      fetcher->note_failure(attempt.to, now);
    }
  } else if (attempt.error_head) {
    // The upstream *responded*; 4xx is a healthy server without the
    // content (clean RTT sample), 5xx is a fault.
    if (attempt.status >= 500) {
      fetcher->note_failure(attempt.to, now);
    } else {
      fetcher->note_clean(attempt.to, rtt_us, now);
    }
  } else {
    // Transport-level failure, or a head we refused as unusable.
    fetcher->note_failure(attempt.to, now);
  }

  if (done_fired) return;

  if (winner == static_cast<int>(idx)) {
    if (attempt.is_hedge) ++fetcher->stats_.hedge_wins;
    if (caller_cancelled) {
      fail_fetch();
      return;
    }
    if (range_mode) {
      if (head.ok() || attempt.synth_win) {
        probe_complete = true;
      } else if (probe_forwarded < probe_len) {
        // The probe died mid-body: recover the rest of its range as a leg
        // so the bytes already forwarded stay valid.
        RangeLeg recovery;
        recovery.first = probe_forwarded;
        recovery.last = probe_len - 1;
        recovery.tries = 1;
        legs.insert(legs.begin() + static_cast<std::ptrdiff_t>(current_leg),
                    std::move(recovery));
        ++fetcher->stats_.range_failovers;
        probe_complete = true;
        start_leg(current_leg);
      } else {
        probe_complete = true;
      }
      emit_ready();
      finish_range_if_complete();
      return;
    }
    if (head.ok()) {
      fire_done(std::move(head));
    } else {
      // Winner's stream broke after the caller saw the head: the fetch is
      // unsalvageable (bytes already flowed), report the failure.
      fail_fetch();
    }
    return;
  }

  if (winner >= 0) return;  // we lost; the winner drives completion

  fail_over_or_finish();
}

void MultiFetchState::fail_over_or_finish() {
  if (!all_attempts_finished()) return;  // an in-flight attempt may still win
  const std::optional<std::size_t> next = next_untried();
  if (next.has_value()) {
    ++fetcher->stats_.source_failovers;
    start_attempt(*next, /*is_hedge=*/false);
    return;
  }
  if (best_error.has_value()) {
    net::HttpResponse head = std::move(*best_error);
    best_error.reset();
    fire_done(std::move(head));
  } else {
    fire_done(net::make_response(504, "all sources failed"));
  }
}

bool MultiFetchState::all_attempts_finished() const {
  for (const Attempt& attempt : attempts) {
    if (!attempt.finished) return false;
  }
  return true;
}

void MultiFetchState::begin_range(const net::HttpResponse& probe_head,
                                  const net::ContentRange& cr) {
  range_mode = true;
  total_size = cr.total;
  probe_len = cr.last + 1;
  final_head = synthesize_full_head(probe_head, total_size);
  ++fetcher->stats_.range_fetches;

  if (!sink->on_head(*final_head)) {
    caller_cancelled = true;
    return;
  }

  const std::uint64_t remaining =
      total_size > probe_len ? total_size - probe_len : 0;
  if (remaining == 0) return;

  const MultiSourceFetcher::Options& opt = fetcher->options();
  std::size_t leg_count = 1;
  if (remaining >= opt.range_probe_bytes) {
    leg_count = std::min<std::size_t>(opt.max_parallel_ranges - 1,
                                      ranked.size());
    leg_count = std::max<std::size_t>(leg_count, 1);
  }
  const std::uint64_t share = remaining / leg_count;
  std::uint64_t cursor = probe_len;
  for (std::size_t i = 0; i < leg_count; ++i) {
    RangeLeg leg;
    leg.first = cursor;
    leg.last = (i + 1 == leg_count) ? total_size - 1 : cursor + share - 1;
    cursor = leg.last + 1;
    legs.push_back(std::move(leg));
  }
  for (std::size_t i = 0; i < legs.size(); ++i) start_leg(i);
}

void MultiFetchState::start_leg(std::size_t leg_idx) {
  RangeLeg& leg = legs[leg_idx];
  ++leg.tries;
  leg.to = ranked[fetcher->pick_leg_source(ranked, leg_cursor)];
  leg.started_ms = fetcher->net_->now_ms();
  if (!fetcher->gate(leg.to)) {
    on_leg_done(leg_idx, net::make_response(503, "circuit open for " + leg.to));
    return;
  }
  fetcher->note_start(leg.to);
  leg.sent_to = leg.to;
  auto self = shared_from_this();
  const std::uint64_t range_first = leg.first + leg.received;
  fetcher->net_->send_streaming_async(
      from, leg.to, with_range(request, range_first, leg.last),
      std::make_shared<LegSink>(self, leg_idx), exec,
      [self, leg_idx](net::HttpResponse head) {
        self->on_leg_done(leg_idx, std::move(head));
      });
}

bool MultiFetchState::on_leg_head(std::size_t leg_idx,
                                  const net::HttpResponse& head) {
  if (done_fired || caller_cancelled) return false;
  RangeLeg& leg = legs[leg_idx];
  if (head.status != 206) return false;  // completion drives the failover
  const auto range_header = head.headers.get_view("Content-Range");
  const auto cr = net::parse_content_range(range_header.value_or(""));
  const std::uint64_t expected_first = leg.first + leg.received;
  if (!cr.has_value() || !cr->satisfied || cr->first != expected_first ||
      cr->last != leg.last ||
      (cr->total_known && cr->total != total_size)) {
    return false;
  }
  return true;
}

bool MultiFetchState::on_leg_chunk(std::size_t leg_idx, core::Chunk chunk) {
  if (done_fired || caller_cancelled) return false;
  RangeLeg& leg = legs[leg_idx];
  leg.received += chunk.size();
  leg.buffered.push_back(std::move(chunk));
  if (leg_idx == current_leg && probe_complete) emit_ready();
  return !caller_cancelled && !done_fired;
}

void MultiFetchState::on_leg_done(std::size_t leg_idx, net::HttpResponse head) {
  RangeLeg& leg = legs[leg_idx];
  const std::uint64_t now = fetcher->net_->now_ms();
  const bool complete =
      head.status == 206 && leg.first + leg.received == leg.last + 1;
  if (!leg.sent_to.empty()) {
    if (complete ||
        (head.status >= 200 && head.status < 500 && head.status != 206)) {
      // A full leg or any sub-5xx answer is a healthy exchange (a 200
      // just means this replica does not speak ranges).
      fetcher->note_clean(leg.sent_to, (now - leg.started_ms) * 1000, now);
    } else {
      fetcher->note_failure(leg.sent_to, now);
    }
    leg.sent_to.clear();
  }
  if (done_fired || caller_cancelled) return;

  if (complete) {
    leg.complete = true;
    if (probe_complete) {
      emit_ready();
      finish_range_if_complete();
    }
    return;
  }

  // The leg failed (transport fault, non-206, truncated, breaker-open):
  // re-aim the unreceived remainder at the next surviving source. Bytes
  // already buffered/forwarded stay — the retry range starts after them.
  leg.buffered.clear();
  // Unforwarded buffered bytes are discarded; rewind `received` to what
  // the caller actually saw so the retry range is exact.
  leg.received = leg.forwarded;
  if (leg.tries >= static_cast<int>(ranked.size()) + 1) {
    fail_fetch();
    return;
  }
  ++fetcher->stats_.range_failovers;
  start_leg(leg_idx);
}

void MultiFetchState::emit_ready() {
  while (current_leg < legs.size()) {
    RangeLeg& leg = legs[current_leg];
    while (!leg.buffered.empty()) {
      core::Chunk chunk = std::move(leg.buffered.front());
      leg.buffered.erase(leg.buffered.begin());
      leg.forwarded += chunk.size();
      if (!forward_chunk(std::move(chunk))) return;
    }
    if (!leg.complete) return;
    ++current_leg;
  }
}

void MultiFetchState::finish_range_if_complete() {
  if (done_fired || !probe_complete) return;
  if (caller_cancelled) {
    fail_fetch();
    return;
  }
  if (current_leg < legs.size()) return;
  net::HttpResponse head =
      final_head.has_value() ? std::move(*final_head)
                             : net::make_response(502, "range join lost head");
  final_head.reset();
  fire_done(std::move(head));
}

bool MultiFetchState::forward_chunk(core::Chunk chunk) {
  if (!sink->on_chunk(std::move(chunk))) {
    caller_cancelled = true;
    return false;
  }
  return true;
}

std::optional<std::size_t> MultiFetchState::next_untried() {
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (!tried[i]) return i;
  }
  return std::nullopt;
}

void MultiFetchState::fail_fetch() {
  fire_done(net::make_response(504, "multi-source fetch failed"));
}

void MultiFetchState::fire_done(net::HttpResponse head) {
  if (done_fired) return;
  done_fired = true;
  if (hedge_timer_armed && exec != nullptr) {
    exec->cancel(hedge_timer);
    hedge_timer_armed = false;
  }
  MultiSourceFetcher::Result result;
  if (winner >= 0) {
    const Attempt& won = attempts[static_cast<std::size_t>(winner)];
    result.source = won.to;
    result.hedge_won = won.is_hedge;
  } else {
    result.source = best_error_from;
  }
  result.range_split = range_mode && !legs.empty();
  result.attempts = attempts.size();
  MultiSourceFetcher::FetchCallback finish = std::move(done);
  done = nullptr;
  if (finish) finish(std::move(head), result);
}

}  // namespace detail

MultiSourceFetcher::MultiSourceFetcher(net::Transport* net)
    : MultiSourceFetcher(net, Options{}) {}

MultiSourceFetcher::MultiSourceFetcher(net::Transport* net, Options options)
    : net_(net), options_(options), hedge_budget_(options.hedge_budget) {
  if (options_.range_probe_bytes == 0) options_.range_probe_bytes = 1;
}

MultiSourceFetcher::~MultiSourceFetcher() = default;

void MultiSourceFetcher::fetch_from_best(const net::Address& from,
                               std::vector<net::Address> sources,
                               net::HttpRequest request,
                               std::shared_ptr<net::ChunkSink> sink,
                               net::Executor* exec, FetchCallback done) {
  ++stats_.fetches;
  hedge_budget_.on_attempt();
  std::vector<net::Address> ranked = rank(std::move(sources));
  if (ranked.empty()) {
    done(net::make_response(504, "no sources"), Result{});
    return;
  }
  auto state = std::make_shared<detail::MultiFetchState>();
  state->fetcher = this;
  state->from = from;
  state->ranked = std::move(ranked);
  state->request = std::move(request);
  state->sink = std::move(sink);
  state->exec = exec;
  state->done = std::move(done);
  state->start_race();
}

std::vector<net::Address> MultiSourceFetcher::rank(
    std::vector<net::Address> sources) {
  // Dedupe preserving caller order (metalink mirrors + NRS rows overlap).
  std::vector<net::Address> unique;
  unique.reserve(sources.size());
  for (net::Address& source : sources) {
    if (std::find(unique.begin(), unique.end(), source) == unique.end()) {
      unique.push_back(std::move(source));
    }
  }
  const std::uint64_t now = net_->now_ms();
  struct Key {
    bool open;
    std::uint64_t rtt_us;
    std::size_t tie;
  };
  std::vector<std::pair<Key, net::Address>> keyed;
  keyed.reserve(unique.size());
  {
    const MutexLock lock(mutex_);
    for (std::size_t i = 0; i < unique.size(); ++i) {
      DestState& d = dest_locked(unique[i]);
      keyed.push_back({Key{d.breaker.state(now) == CircuitBreaker::State::Open,
                           d.est.ranking_rtt_us(), i},
                       std::move(unique[i])});
    }
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) {
              if (a.first.open != b.first.open) return !a.first.open;
              if (a.first.rtt_us != b.first.rtt_us) {
                return a.first.rtt_us < b.first.rtt_us;
              }
              return a.first.tie < b.first.tie;
            });
  std::vector<net::Address> ranked;
  ranked.reserve(keyed.size());
  for (auto& [key, address] : keyed) ranked.push_back(std::move(address));
  return ranked;
}

std::vector<MultiSourceFetcher::SourceSnapshot> MultiSourceFetcher::snapshot() {
  const std::uint64_t now = net_->now_ms();
  std::vector<SourceSnapshot> out;
  const MutexLock lock(mutex_);
  out.reserve(dests_.size());
  for (const auto& [address, dest] : dests_) {
    SourceSnapshot snap;
    snap.address = address;
    snap.srtt_us = dest->est.srtt_us();
    snap.rtt_p95_us = dest->est.quantile_us(kHedgeQuantile);
    snap.backoff_shift = dest->est.backoff_shift();
    snap.window = dest->window.window();
    snap.in_flight = dest->in_flight;
    snap.breaker = dest->breaker.state(now);
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.address < b.address;
  });
  return out;
}

MultiSourceFetcher::DestState& MultiSourceFetcher::dest_locked(
    const net::Address& address) {
  auto it = dests_.find(address);
  if (it == dests_.end()) {
    it = dests_.emplace(address, std::make_unique<DestState>()).first;
  }
  return *it->second;
}

std::size_t MultiSourceFetcher::pick_primary(
    const std::vector<net::Address>& ranked) {
  const std::uint64_t now = net_->now_ms();
  const MutexLock lock(mutex_);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    DestState& d = dest_locked(ranked[i]);
    if (d.breaker.state(now) != CircuitBreaker::State::Open &&
        d.in_flight < d.window.allowance()) {
      return i;
    }
  }
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (dest_locked(ranked[i]).breaker.state(now) !=
        CircuitBreaker::State::Open) {
      // Every healthy source is over its window: the primary is admitted
      // anyway (the proxy bounds its own concurrency).
      return i;
    }
  }
  return 0;  // every breaker open: gate() refuses the dial, nothing is sent
}

std::optional<std::size_t> MultiSourceFetcher::pick_hedge(
    const std::vector<net::Address>& ranked, const std::vector<bool>& tried) {
  const std::uint64_t now = net_->now_ms();
  const MutexLock lock(mutex_);
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    if (tried[i]) continue;
    DestState& d = dest_locked(ranked[i]);
    if (d.breaker.state(now) == CircuitBreaker::State::Open) continue;
    if (d.in_flight >= d.window.allowance()) continue;  // hedges need room
    return i;
  }
  return std::nullopt;
}

std::size_t MultiSourceFetcher::pick_leg_source(
    const std::vector<net::Address>& ranked, std::size_t& cursor) {
  const std::uint64_t now = net_->now_ms();
  const MutexLock lock(mutex_);
  // First choice: a non-open source with window capacity, round-robin so
  // legs spread across the replica set instead of piling on the best.
  for (std::size_t step = 0; step < ranked.size(); ++step) {
    const std::size_t i = (cursor + step) % ranked.size();
    DestState& d = dest_locked(ranked[i]);
    if (d.breaker.state(now) == CircuitBreaker::State::Open) continue;
    if (d.in_flight >= d.window.allowance()) continue;
    cursor = (i + 1) % ranked.size();
    return i;
  }
  for (std::size_t step = 0; step < ranked.size(); ++step) {
    const std::size_t i = (cursor + step) % ranked.size();
    if (dest_locked(ranked[i]).breaker.state(now) !=
        CircuitBreaker::State::Open) {
      // Capacity-starved but healthy: admit (a stalled leg would wedge the
      // in-order join).
      cursor = (i + 1) % ranked.size();
      return i;
    }
  }
  const std::size_t i = cursor % ranked.size();
  cursor = (i + 1) % ranked.size();
  return i;
}

bool MultiSourceFetcher::gate(const net::Address& address) {
  CircuitBreaker* breaker = nullptr;
  {
    const MutexLock lock(mutex_);
    breaker = &dest_locked(address).breaker;
  }
  return breaker->allow(net_->now_ms());
}

std::uint64_t MultiSourceFetcher::hedge_delay_ms(const net::Address& address) {
  std::uint64_t delay_us = 0;
  int shift = 0;
  {
    const MutexLock lock(mutex_);
    DestState& d = dest_locked(address);
    shift = d.est.backoff_shift();
    delay_us = d.est.has_sample()
                   ? d.est.quantile_us(kHedgeQuantile)
                   : options_.initial_hedge_delay_ms * 1000;
  }
  for (int i = 0; i < shift; ++i) {
    if (delay_us > kHedgeMaxDelayMs * 1000) break;
    delay_us <<= 1;
  }
  return std::clamp(delay_us / 1000, options_.hedge_min_delay_ms,
                    kHedgeMaxDelayMs);
}

void MultiSourceFetcher::note_start(const net::Address& address) {
  const MutexLock lock(mutex_);
  ++dest_locked(address).in_flight;
}

void MultiSourceFetcher::note_clean(const net::Address& address,
                                    std::uint64_t rtt_us, std::uint64_t now_ms) {
  {
    const MutexLock lock(mutex_);
    DestState& d = dest_locked(address);
    d.est.on_sample(rtt_us);
    d.window.on_ack(now_ms);
    if (d.in_flight > 0) --d.in_flight;
    d.breaker.record_success(now_ms);
  }
}

void MultiSourceFetcher::note_ambiguous(const net::Address& address) {
  const MutexLock lock(mutex_);
  DestState& d = dest_locked(address);
  d.est.on_retransmit();
  if (d.in_flight > 0) --d.in_flight;
}

void MultiSourceFetcher::note_failure(const net::Address& address,
                                      std::uint64_t now_ms) {
  {
    const MutexLock lock(mutex_);
    DestState& d = dest_locked(address);
    d.window.on_loss(now_ms);
    if (d.in_flight > 0) --d.in_flight;
    d.breaker.record_failure(now_ms);
  }
  // Real failures burn hedge tokens too, so hedging self-disables while
  // the budget pays for genuine faults (the bounded-aggression contract).
  (void)hedge_budget_.try_spend();
}

void MultiSourceFetcher::note_straggler(const net::Address& address) {
  const MutexLock lock(mutex_);
  dest_locked(address).est.on_retransmit();
}

}  // namespace idicn::runtime

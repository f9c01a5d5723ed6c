#include "idicn/proxy.hpp"

#include <algorithm>
#include <functional>

#include "core/hot_path.hpp"
#include "crypto/sha256.hpp"
#include "idicn/nrs.hpp"
#include "net/http_internal.hpp"
#include "net/uri.hpp"

namespace idicn::idicn {
namespace {

/// BodyProducer over a Transit: yields the chunks that have arrived so
/// far, reports Pending while the upstream fetch is still filling the
/// transit, Done once it completed, and Error if it failed (upstream died
/// or verification rejected the content) — the serving runtime then
/// closes the connection without completing the body.
class TransitReader final : public net::BodyProducer {
public:
  explicit TransitReader(std::shared_ptr<detail::Transit> transit)
      : transit_(std::move(transit)) {}

  [[nodiscard]] std::optional<std::uint64_t> total_size() const override {
    return transit_->expected_size;
  }

  Pull pull(core::Chunk* out) override {
    const core::sync::MutexLock lock(transit_->mutex);
    const auto& chunks = transit_->chunks.chunks();
    if (index_ < chunks.size()) {
      *out = chunks[index_++];
      return Pull::Ready;
    }
    if (transit_->failed) return Pull::Error;
    if (transit_->complete) return Pull::Done;
    return Pull::Pending;
  }

private:
  std::shared_ptr<detail::Transit> transit_;
  std::size_t index_ = 0;  ///< cursor into the transit's chunk list
};

/// Receives an upstream body chunk by chunk: on a 200 head it builds a
/// Transit and hands it to `publish` (which makes it visible to
/// concurrent requests), then appends each chunk under the transit lock
/// while hashing incrementally. Error bodies are drained and discarded.
///
/// Cancellation boundary: when `halted` flips (the requesting client
/// disconnected) *before* the head arrives, on_head refuses the transfer —
/// nobody wants the bytes yet. Once the transit is published, concurrent
/// joined readers may be consuming it, so the transfer always runs to
/// completion regardless of the original requester.
class FetchSink final : public net::ChunkSink {
public:
  using Publish = std::function<void(const std::shared_ptr<detail::Transit>&)>;

  explicit FetchSink(Publish publish, std::shared_ptr<const bool> halted = {})
      : publish_(std::move(publish)), halted_(std::move(halted)) {}

  bool on_head(const net::HttpResponse& head) override {
    if (halted_ != nullptr && *halted_) return false;  // client gone pre-head
    if (!head.ok()) return true;  // drain and ignore the error body
    auto transit = std::make_shared<detail::Transit>();
    transit->content_type =
        head.headers.get("Content-Type").value_or("text/plain");
    transit->etag = head.headers.get("ETag").value_or("");
    transit->metadata = ContentMetadata::from_headers(head.headers);
    std::size_t content_length = 0;
    if (head.headers.contains("Content-Length") &&
        net::detail::parse_content_length(head.headers, content_length,
                                          nullptr)) {
      transit->expected_size = content_length;
    }
    transit_ = std::move(transit);
    publish_(transit_);
    return true;
  }

  bool on_chunk(core::Chunk chunk) override {
    if (transit_ == nullptr) return true;  // error body: not ours to keep
    bytes_ += chunk.size();
    hasher_.update(chunk.view());
    const core::sync::MutexLock lock(transit_->mutex);
    transit_->chunks.append(std::move(chunk));
    return true;
  }

  [[nodiscard]] const std::shared_ptr<detail::Transit>& transit() const {
    return transit_;
  }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] crypto::Sha256Digest digest() { return hasher_.finish(); }

private:
  Publish publish_;
  std::shared_ptr<const bool> halted_;  ///< may be null (no cancellation)
  std::shared_ptr<detail::Transit> transit_;
  crypto::Sha256 hasher_;
  std::uint64_t bytes_ = 0;
};

/// X-IdICN-Hops value, defaulting to 0 (a client-originated request) on
/// absence or garbage; clamped so a hostile header cannot overflow.
std::size_t parse_hops(const net::HeaderMap& headers) {
  const auto value = headers.get_view(kHopsHeader);
  if (!value || value->empty()) return 0;
  std::size_t hops = 0;
  for (const char c : *value) {
    if (c < '0' || c > '9') return 0;
    hops = hops * 10 + static_cast<std::size_t>(c - '0');
    if (hops > 64) return 64;
  }
  return hops;
}

}  // namespace

Proxy::Proxy(net::Transport* net, net::Address self, net::Address nrs,
             const net::DnsService* dns, Options options)
    : net_(net),
      self_(std::move(self)),
      nrs_(std::move(nrs)),
      dns_(dns),
      options_(options),
      fetcher_(std::make_unique<runtime::MultiSourceFetcher>(net_,
                                                             options.fetch)) {
  const std::size_t count = std::max<std::size_t>(1, options_.cache_shards);
  const std::uint64_t base = options_.capacity_bytes / count;
  const std::uint64_t remainder = options_.capacity_bytes % count;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<CacheShard>(base + (i < remainder ? 1 : 0)));
  }
}

// std::hash<std::string_view> equals std::hash<std::string> on the same
// characters, so a borrowed host picks the shard its stored key lives in.
Proxy::CacheShard& Proxy::shard_for(std::string_view host) {
  return *shards_[std::hash<std::string_view>{}(host) % shards_.size()];
}

const Proxy::CacheShard& Proxy::shard_for(std::string_view host) const {
  return *shards_[std::hash<std::string_view>{}(host) % shards_.size()];
}

std::uint64_t Proxy::cached_bytes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    const core::sync::MutexLock lock(shard->mutex);
    total += shard->lru.used_units();
  }
  return total;
}

std::size_t Proxy::cached_objects() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const core::sync::MutexLock lock(shard->mutex);
    total += shard->entries.size();
  }
  return total;
}

bool Proxy::is_cached(const std::string& host) const {
  const CacheShard& shard = shard_for(host);
  const core::sync::MutexLock lock(shard.mutex);
  return shard.entries.find(host) != shard.entries.end();
}

bool Proxy::cache_store(CacheShard& shard, const std::string& host,
                        Entry& entry) {
  const std::uint64_t size = entry.body.size();
  if (size > shard.lru.capacity_units() || size > cache::LruCache::kMaxSize) {
    return false;  // too large
  }
  const auto existing = shard.entries.find(host);
  if (existing != shard.entries.end()) {
    shard.lru.erase(existing->second.id);
    shard.free_ids.push_back(existing->second.id);
    shard.entries.erase(existing);
  }
  entry.hit_headers = std::move(entry_response(entry, true, false).headers);
  auto id = static_cast<cache::ObjectId>(shard.by_id.size());
  if (shard.free_ids.empty()) {
    shard.by_id.emplace_back();
  } else {
    id = shard.free_ids.back();
    shard.free_ids.pop_back();
  }
  shard.evicted.clear();
  shard.lru.insert(id, size, shard.evicted);
  for (const cache::ObjectId victim : shard.evicted) {
    shard.entries.erase(shard.by_id[victim]);
    shard.free_ids.push_back(victim);
    ++stats_.evictions;
  }
  entry.id = id;
  shard.by_id[id] = shard.entries.emplace(host, std::move(entry)).first;
  return true;
}

net::HttpResponse Proxy::entry_response(const Entry& entry, bool hit,
                                        bool full_metadata) const {
  // References the entry's chunks — no body copy per response; N
  // concurrent readers of one cached object share one copy of the bytes.
  net::HttpResponse response =
      net::make_stream_response(200, entry.body, entry.content_type);
  // The multi-kilobyte proof (publisher key + one-time signature) is
  // attached only when the caller asked for it: verifying clients and
  // fetching proxies send kWantMetadataHeader, plain browsers trust this
  // proxy's own verification and get the cheap name+digest hint.
  if (entry.metadata) entry.metadata->apply_to(response.headers, full_metadata);
  if (!entry.etag.empty()) response.headers.set("ETag", entry.etag);
  response.headers.set("X-Cache", hit ? "HIT" : "MISS");
  response.headers.set("Via", self_);
  return response;
}

IDICN_HOT_PATH net::HttpResponse Proxy::serve_entry(CacheShard& shard,
                                                    Entry& entry, bool hit,
                                                    bool full_metadata) {
  stats_.bytes_served += entry.body.size();
  if (!hit) return entry_response(entry, false, full_metadata);
  (void)shard.lru.lookup(entry.id);  // the entry becomes the most recent
  if (full_metadata) return entry_response(entry, true, true);
  // A HIT only ever serves an admitted entry, whose fields cache_store
  // built: one exact-size copy, no per-field scans or re-encoding.
  net::HttpResponse response;
  response.headers = entry.hit_headers;
  response.stream_body = entry.body;
  return response;
}

net::HttpResponse Proxy::store_and_serve(CacheShard& shard,
                                         const std::string& host, Entry entry,
                                         bool full_metadata) {
  // Where the bytes actually came from (origin, mirror, or sibling proxy):
  // exposed so the testbed's driver can charge the transfer to the real
  // core-graph path rather than assuming proxy→origin.
  const net::Address source = entry.fetched_from;
  const core::sync::MutexLock lock(shard.mutex);
  net::HttpResponse response =
      cache_store(shard, host, entry)
          ? serve_entry(shard, shard.entries.find(host)->second, false,
                        full_metadata)
          // Larger than the shard's slice: serve the fetched copy uncached.
          : serve_entry(shard, entry, false, full_metadata);
  if (!source.empty()) response.headers.set(kSourceHeader, source);
  return response;
}

net::HttpResponse Proxy::serve_hint(const net::HttpRequest& request) {
  const auto sender = request.headers.get(kHintHeader);
  if (!sender || sender->empty()) {
    return net::make_response(400, "hint without sender address");
  }
  std::vector<std::string> hosts;
  for (const auto& [key, value] : parse_form_lines(request.body)) {
    if (key != "host") continue;
    // Digest bound on the ingest side too: a misbehaving sibling cannot
    // bloat the directory past what this proxy agreed to hold.
    if (hosts.size() >= options_.max_hint_entries) break;
    hosts.push_back(value);
  }
  ++stats_.hints_received;
  if (directory_ != nullptr) directory_->ingest(*sender, hosts);
  return net::make_response(204, "");
}

std::vector<std::string> Proxy::hint_digest() const {
  std::vector<std::string> digest;
  std::vector<cache::ObjectId> ids;
  for (const auto& shard : shards_) {
    if (digest.size() >= options_.max_hint_entries) break;
    const core::sync::MutexLock lock(shard->mutex);
    ids.clear();
    shard->lru.most_recent(options_.max_hint_entries - digest.size(), ids);
    for (const cache::ObjectId id : ids) digest.push_back(shard->by_id[id]->first);
  }
  return digest;
}

void Proxy::push_hints() {
  if (siblings_.empty()) return;
  std::string body;
  for (const std::string& host : hint_digest()) {
    body += "host=" + host + "\n";
  }
  net::HttpRequest post;
  post.method = "POST";
  post.target = kHintPath;
  post.headers.set(kHintHeader, self_);
  post.headers.set("Content-Length", std::to_string(body.size()));
  post.body = std::move(body);
  for (const net::Address& sibling : siblings_) {
    // Best-effort soft state: an unreachable sibling just misses this
    // round of hints and catches the next.
    (void)net_->send(self_, sibling, post);
    ++stats_.hints_sent;
  }
}

net::HttpResponse Proxy::serve_transit(
    const std::shared_ptr<detail::Transit>& transit, bool full_metadata) {
  ++stats_.stream_joins;
  net::HttpResponse response;
  response.status = 200;
  response.reason = "OK";
  response.headers.set("Content-Type", transit->content_type);
  if (!transit->etag.empty()) response.headers.set("ETag", transit->etag);
  // The metadata is not verified yet — it rides along so an end-to-end
  // verifying client can still check what it streamed. If verification
  // fails proxy-side when the fetch completes, every joined stream aborts
  // before its body terminator (fail-closed), so a non-verifying client
  // never receives corrupt content framed as complete.
  if (transit->metadata) transit->metadata->apply_to(response.headers, full_metadata);
  response.headers.set("X-Cache", "STREAM");
  response.headers.set("Via", self_);
  // Framing follows the producer: Content-Length when the upstream
  // declared a size, chunked otherwise (see serialize_head()).
  response.producer = std::make_shared<TransitReader>(transit);
  return response;
}

std::optional<net::HttpResponse> Proxy::serve_stale(CacheShard& shard,
                                                    const std::string& host,
                                                    bool full_metadata) {
  const core::sync::MutexLock lock(shard.mutex);
  const auto cached = shard.entries.find(host);
  if (cached == shard.entries.end()) return std::nullopt;  // evicted meanwhile
  ++stats_.stale_served;
  net::HttpResponse response =
      serve_entry(shard, cached->second, true, full_metadata);
  // RFC 7234 §5.5.1 stale warning plus an explicit idICN marker so clients
  // (and the chaos harness) can tell degraded service from a fresh hit.
  response.headers.set("Warning", "110 - \"Response is Stale\"");
  response.headers.set("X-IdICN-Stale", "1");
  return response;
}

// The serving state machine: one heap object per request carrying the
// entire serve flow — routing, cache fast path, revalidation, peer query,
// sibling redirect, NRS resolution, location fetches, legacy forward — as
// uniquely-named continuations. Revalidation, resolution and the legacy
// forward are buffered Transport::send_async exchanges; every object
// transfer — peer, sibling, location, direct refetch, race — is one
// streaming GET that ends in finish_fetch. With a real executor each
// upstream exchange parks the machine and the loop thread returns to its
// poller; with a null executor every transport hop completes inline and
// the machine settles before dispatch() returns (the synchronous
// handle_http contract).
//
// Lifetime: completion lambdas hold shared_ptr self-references, so the
// machine lives exactly as long as work is outstanding. Cancellation
// (abort(), from the serving worker when the client disconnects) never
// interrupts an exchange mid-flight — it stops *new* upstream work, makes
// a pre-head streaming fetch refuse its transfer, and suppresses the
// respond; a post-head fetch still completes, verifies, and admits to the
// cache because joined readers may be streaming from its transit.
class Proxy::FetchOp final : public net::AsyncOp,
                             public std::enable_shared_from_this<FetchOp> {
public:
  FetchOp(Proxy* proxy, net::HttpRequest request, net::Executor* exec,
          std::function<void(net::HttpResponse)> respond)
      : proxy_(proxy),
        request_(std::move(request)),
        exec_(exec),
        respond_(std::move(respond)) {}

  /// Route the request and run until the next park point (or settle
  /// inline). Call exactly once.
  void dispatch() {
    // Control channel: a sibling pushing its content digest.
    if (request_.method == "POST" && request_.target == kHintPath) {
      settle(proxy_->serve_hint(request_));
      return;
    }
    if (request_.method != "GET") {
      settle(net::make_response(400, "proxy supports GET only"));
      return;
    }
    if (const auto authority = net::absolute_form_host(request_.target)) {
      host_.resize(authority->size());  // absolute-form proxy request
      std::transform(authority->begin(), authority->end(), host_.begin(),
                     net::ascii_lower);
    } else if (const auto host_header = request_.headers.get("Host")) {
      host_ = *host_header;  // transparent / origin-form fallback
    } else {
      settle(net::make_response(400, "cannot determine host"));
      return;
    }
    name_ = SelfCertifyingName::parse_host(host_);
    if (!name_) {
      legacy_forward();
      return;
    }
    host_ = name_->host();
    apply_range_ = !request_.headers.contains(kIcpQueryHeader);
    begin_idicn();
  }

  void abort() override {
    cancelled_ = true;
    // A streaming fetch that has not yet published a transit refuses its
    // head; one that has keeps filling for joined readers (see FetchSink).
    *halt_flag_ = true;
  }

  [[nodiscard]] bool settled() const noexcept { return settled_; }

private:
  /// Where an object transfer goes: a same-AD peer's cache, a sibling
  /// PoP's cache, or an upstream location (NRS row, mirror, the expired
  /// copy's source). The tier sets the request's cooperation header, the
  /// counter and X-Cache mark of a delivered copy, and whether its bytes
  /// count as origin load.
  enum class Tier { Peer, Sibling, Origin };
  /// What a transfer that yields no verified entry runs next.
  using Resume = void (FetchOp::*)();

  /// Exactly-once completion: applies the Range rewrite (idICN path only)
  /// and the PoP attribution header, then fires the respond — unless the
  /// client disconnected, in which case the response is dropped.
  void settle(net::HttpResponse response) {
    if (settled_) return;
    settled_ = true;
    auto respond = std::move(respond_);
    respond_ = nullptr;
    if (cancelled_ || respond == nullptr) return;
    // Ranged reads ride the cached-object path: a complete 200 is
    // rewritten into the requested 206 (slices share the cache entry's
    // chunk blocks — no copy). Cooperative fetches always need the whole
    // object (they verify and cache it), so their Range headers — which
    // they never send — would be ignored here anyway; producer-backed
    // STREAM joins fall back to the full 200 (apply_byte_range declines).
    if (apply_range_) {
      if (const auto range = request_.headers.get_view("Range")) {
        net::apply_byte_range(*range, response);
      }
    }
    // Serving-PoP attribution on every response (testbed observability).
    if (!proxy_->options_.pop_name.empty()) {
      response.headers.set(kPopHeader, proxy_->options_.pop_name);
    }
    respond(std::move(response));
  }

  /// The client is gone: park the machine permanently instead of starting
  /// another upstream exchange nobody will read. Returns true when halted.
  bool halt_if_cancelled() {
    if (!cancelled_) return false;
    settle(net::HttpResponse{});
    return true;
  }

  void begin_idicn() {
    peer_query_ = request_.headers.contains(kIcpQueryHeader);
    // Peer proxies re-verify what they pull, so they always get the proof.
    full_metadata_ =
        peer_query_ || request_.headers.contains(kWantMetadataHeader);
    // Sibling-redirect forwarding depth (0 = client-originated). A request
    // already at the hop limit is answered strictly from cache — hops only
    // ever increment, so redirect chains terminate here no matter what the
    // directories claim.
    hops_ = parse_hops(request_.headers);
    sibling_query_ = hops_ > 0;
    cache_only_ = peer_query_ || hops_ >= kSiblingHopLimit;

    CacheShard& shard = proxy_->shard_for(host_);

    // Step 7 fast path under the shard lock: fresh cached copy. A stale
    // entry only donates its validators here — the conditional refresh is
    // network I/O and must run with the lock dropped so sibling requests
    // on this shard keep flowing. The settled response leaves the lock
    // scope before respond fires (respond drives the client socket).
    std::optional<net::HttpResponse> immediate;
    {
      const core::sync::MutexLock lock(shard.mutex);
      const auto cached = shard.entries.find(host_);
      if (cached != shard.entries.end()) {
        const bool fresh = proxy_->net_->now_ms() -
                               cached->second.stored_at_ms <=
                           proxy_->options_.freshness_ms;
        if (fresh) {
          ++proxy_->stats_.hits;
          immediate = proxy_->serve_entry(shard, cached->second, true,
                                          full_metadata_);
        } else {
          ++proxy_->stats_.expired;
          stale_ = true;
          stale_etag_ = cached->second.etag;
          stale_fetched_from_ = cached->second.fetched_from;
          // The expired copy's metalink mirrors join the multi-source
          // candidate set — replicas we learned about the last time the
          // object verified.
          if (cached->second.metadata) {
            stale_mirrors_ = cached->second.metadata->mirrors;
          }
        }
      }
      // Another worker is already fetching this object: join its stream
      // and serve the arrived prefix now, the tail as it lands — no second
      // upstream fetch, no waiting for the whole object. Stale-entry
      // holders join too (the in-flight refetch supersedes revalidation —
      // without this they raced a duplicate upstream fetch and reported
      // MISS while every sibling connection reported STREAM). Cache-only
      // queries stay out: an in-flight fetch is not a cached object yet.
      if (!immediate && !cache_only_) {
        const auto streaming = shard.transit.find(host_);
        if (streaming != shard.transit.end()) {
          immediate = proxy_->serve_transit(streaming->second, full_metadata_);
        }
      }
    }
    if (immediate) {
      settle(std::move(*immediate));
      return;
    }
    if (stale_ && !cache_only_ && !stale_etag_.empty() &&
        !stale_fetched_from_.empty()) {
      // Conditional refresh against the snapshotted validators.
      ++proxy_->stats_.revalidations;
      net::HttpRequest conditional;
      conditional.method = "GET";
      conditional.target = "/";
      conditional.headers.set("Host", host_);
      conditional.headers.set("If-None-Match", stale_etag_);
      auto self = shared_from_this();
      proxy_->net_->send_async(proxy_->self_, stale_fetched_from_, conditional,
                               exec_, [self](net::HttpResponse answer) {
                                 self->after_revalidate(std::move(answer));
                               });
      return;
    }
    after_fast_path();
  }

  void after_revalidate(net::HttpResponse answer) {
    if (answer.status == 304) {
      // 304: the body is still authentic. Re-lock and renew — unless a
      // concurrent worker evicted the entry meanwhile, in which case fall
      // through to a full refetch.
      ++proxy_->stats_.revalidated_304;
      CacheShard& shard = proxy_->shard_for(host_);
      std::optional<net::HttpResponse> renewed_response;
      {
        const core::sync::MutexLock lock(shard.mutex);
        const auto renewed = shard.entries.find(host_);
        if (renewed != shard.entries.end()) {
          renewed->second.stored_at_ms = proxy_->net_->now_ms();  // fresh again
          ++proxy_->stats_.hits;
          renewed_response = proxy_->serve_entry(shard, renewed->second,
                                                 true, full_metadata_);
        }
      }
      if (renewed_response) {
        settle(std::move(*renewed_response));
        return;
      }
    }
    after_fast_path();
  }

  void after_fast_path() {
    // Cooperative queries are strictly cache-only: never trigger a fetch.
    if (cache_only_) {
      settle(net::make_response(404, "not cached here"));
      return;
    }
    ++proxy_->stats_.misses;
    // Scoped cooperation first: a same-AD peer may already hold the object
    // (forwarded sibling fetches skip this — their requester runs its own
    // cooperation round).
    peer_index_ = 0;
    query_next_peer();
  }

  void query_next_peer() {
    if (halt_if_cancelled()) return;
    if (sibling_query_ || peer_index_ >= proxy_->peers_.size()) {
      begin_sibling_redirect();
      return;
    }
    fetch_from(Tier::Peer, proxy_->peers_[peer_index_++],
               &FetchOp::query_next_peer);
  }

  // Cross-PoP cooperation: the directory claims a sibling PoP holds the
  // object — fetch it from there (nearest first) instead of the origin.
  // Responses served this way are marked X-Cache: SIBLING so clients (and
  // the testbed's driver) can attribute the transfer to the cache tier.
  void begin_sibling_redirect() {
    holders_.clear();
    holder_index_ = 0;
    holders_tried_ = 0;
    // Forwarding would push the chain past the hop limit: stop here (the
    // receiving side enforces the same bound, so both ends agree).
    if (proxy_->directory_ != nullptr && hops_ + 1 <= kSiblingHopLimit) {
      holders_ = proxy_->directory_->holders(host_);
    }
    query_next_sibling();
  }

  void query_next_sibling() {
    if (halt_if_cancelled()) return;
    while (holder_index_ < holders_.size() &&
           holders_tried_ < proxy_->options_.sibling_fanout) {
      const net::Address& holder = holders_[holder_index_++];
      if (holder == proxy_->self_) continue;
      ++holders_tried_;  // stale-hint damage control: bounded candidates
      fetch_from(Tier::Sibling, holder, &FetchOp::query_next_sibling);
      return;
    }
    after_siblings();
  }

  void after_siblings() {
    // A forwarded sibling fetch never recurses into name resolution: on a
    // stale hint the *requester* falls through to the origin path itself,
    // so a redirect can make things better but never reshape the upstream
    // route.
    if (sibling_query_) {
      settle(net::make_response(404, "not cached here"));
      return;
    }
    // Step 3: resolve the name, following at most one P-delegation hop. A
    // resolver that *errors* (unreachable NRS, 5xx) is an upstream failure
    // eligible for degradation; a resolver that cleanly answers "no such
    // name" is not.
    resolve_failed_ = false;
    locations_.clear();
    resolver_ = proxy_->nrs_;
    resolver_hop_ = 0;
    resolve_next_hop();
  }

  void resolve_next_hop() {
    if (halt_if_cancelled()) return;
    if (resolver_hop_ >= 2 || !locations_.empty()) {
      weigh_resolution();
      return;
    }
    ++resolver_hop_;
    net::HttpRequest query;
    query.method = "GET";
    query.target = "/resolve?name=" + host_;
    auto self = shared_from_this();
    proxy_->net_->send_async(proxy_->self_, resolver_, query, exec_,
                             [self](net::HttpResponse answer) {
                               self->weigh_resolver_answer(std::move(answer));
                             });
  }

  void weigh_resolver_answer(net::HttpResponse answer) {
    if (!answer.ok()) {
      resolve_failed_ = answer.status >= 500;
      weigh_resolution();
      return;
    }
    std::optional<net::Address> delegate;
    for (const auto& [key, value] : parse_form_lines(answer.body)) {
      if (key == "location") locations_.push_back(value);
      if (key == "resolver") delegate = value;
    }
    if (!locations_.empty() || !delegate) {
      weigh_resolution();
      return;
    }
    resolver_ = *delegate;
    resolve_next_hop();
  }

  void weigh_resolution() {
    if (!locations_.empty()) {
      // Step 4: fetch from the first location that yields authentic
      // content.
      fetch_failed_ = false;
      location_index_ = 0;
      // DESIGN.md §13: with ≥2 known replicas the fetch becomes a
      // congestion-aware race instead of a serial ladder.
      std::vector<net::Address> sources = multi_sources();
      if (sources.size() >= 2) {
        race(std::move(sources));
        return;
      }
      fetch_next_location();
      return;
    }
    if (!resolve_failed_) {
      settle(net::make_response(404, "name did not resolve"));
      return;
    }
    // NRS outage. With an expired copy in hand we still know where it came
    // from — sidestep resolution and refetch directly (origin may be fine).
    if (stale_ && !stale_fetched_from_.empty()) {
      if (halt_if_cancelled()) return;
      fetch_from(Tier::Origin, stale_fetched_from_,
                 &FetchOp::upstream_exhausted);
      return;
    }
    upstream_exhausted();
  }

  /// The candidate replica set for a multi-source MISS: every NRS row,
  /// mirrors remembered from the expired copy's metalink metadata, and
  /// the address the expired copy originally came from — deduped
  /// preserving that priority order.
  [[nodiscard]] std::vector<net::Address> multi_sources() const {
    std::vector<net::Address> sources;
    sources.reserve(locations_.size() + stale_mirrors_.size() + 1);
    const auto push = [&sources](const net::Address& candidate) {
      if (candidate.empty()) return;
      if (std::find(sources.begin(), sources.end(), candidate) !=
          sources.end()) {
        return;
      }
      sources.push_back(candidate);
    };
    for (const auto& location : locations_) push(location);
    for (const auto& mirror : stale_mirrors_) push(mirror);
    if (stale_) push(stale_fetched_from_);
    return sources;
  }

  /// DESIGN.md §13: race the fetch across every known replica through the
  /// proxy's MultiSourceFetcher (RTT-ranked primary, hedged duplicate past
  /// the straggler threshold, parallel range legs on large objects). The
  /// fetcher synthesizes a plain 200 head even when the body arrives as
  /// joined ranges, so the request, sink and finish are fetch_from's. If
  /// the race fails — every source errored, or the winner's content did
  /// not verify — the serial location ladder takes over, skipping the
  /// replica the race blamed: multi-source may make a MISS faster, it must
  /// never make one less available.
  void race(std::vector<net::Address> sources) {
    if (halt_if_cancelled()) return;
    auto sink = make_sink();
    auto self = shared_from_this();
    proxy_->fetcher_->fetch_from_best(
        proxy_->self_, std::move(sources), object_request(Tier::Origin), sink,
        exec_,
        [self, sink](net::HttpResponse head,
                     const runtime::MultiSourceFetcher::Result& result) {
          // The winning replica is where revalidations should go back to.
          self->race_source_ = !result.source.empty()
                                   ? result.source
                                   : self->locations_.front();
          self->finish_fetch(*sink, Tier::Origin, self->race_source_,
                             std::move(head), &FetchOp::fetch_next_location);
        });
  }

  void fetch_next_location() {
    if (halt_if_cancelled()) return;
    // A source the multi-source race already consumed (and whose content
    // failed to deliver or verify) is not retried serially.
    while (location_index_ < locations_.size() &&
           locations_[location_index_] == race_source_) {
      ++location_index_;
    }
    if (location_index_ >= locations_.size()) {
      upstream_exhausted();
      return;
    }
    fetch_from(Tier::Origin, locations_[location_index_++],
               &FetchOp::fetch_next_location);
  }

  /// The serve-stale tail: every upstream path is spent. An NRS outage, or
  /// a location that failed at the transport layer (vs content that merely
  /// failed verification), degrades to the expired copy when this proxy
  /// holds one rather than surfacing the error.
  void upstream_exhausted() {
    const bool resolved = !locations_.empty();
    if (!resolved || fetch_failed_) {
      ++proxy_->stats_.upstream_errors;
      if (stale_) {
        if (auto degraded = proxy_->serve_stale(proxy_->shard_for(host_),
                                                host_, full_metadata_)) {
          settle(std::move(*degraded));
          return;
        }
      }
    }
    settle(resolved
               ? net::make_response(502, "no location provided authentic content")
               : net::make_response(504, "name resolution unavailable"));
  }

  void legacy_forward() {
    ++proxy_->stats_.legacy_forwards;
    const auto address = proxy_->dns_ != nullptr
                             ? proxy_->dns_->resolve_with_wildcards(host_)
                             : std::optional<std::string>{};
    if (!address) {
      settle(net::make_response(502, "legacy host did not resolve"));
      return;
    }
    net::HttpRequest forward = request_;
    const auto uri = net::parse_uri(request_.target);
    forward.target = uri ? uri->target() : "/";
    forward.headers.set("Host", host_);
    forward.headers.set("Via", proxy_->self_);
    auto self = shared_from_this();
    proxy_->net_->send_async(proxy_->self_, *address, forward, exec_,
                             [self](net::HttpResponse response) {
                               response.headers.set("Via", self->proxy_->self_);
                               self->settle(std::move(response));
                             });
  }

  /// Every object GET, whatever the tier: origin-form `/` with `Host`,
  /// asking for the proof (this proxy verifies). A peer query is cache-only
  /// (kIcpQueryHeader); a sibling fetch carries its forwarding depth so
  /// the receiving proxy can enforce kSiblingHopLimit (loop safety).
  [[nodiscard]] net::HttpRequest object_request(Tier tier) const {
    net::HttpRequest fetch;
    fetch.method = "GET";
    fetch.target = "/";
    fetch.headers.set("Host", host_);
    fetch.headers.set(kWantMetadataHeader, "1");
    if (tier == Tier::Peer) fetch.headers.set(kIcpQueryHeader, "1");
    if (tier == Tier::Sibling) {
      fetch.headers.set(kHopsHeader, std::to_string(hops_ + 1));
    }
    return fetch;
  }

  /// The sink of every transfer: a 200 head's Transit goes into the
  /// shard's transit map, where concurrent requests join it (STREAM).
  [[nodiscard]] std::shared_ptr<FetchSink> make_sink() const {
    return std::make_shared<FetchSink>(
        [proxy = proxy_, host = host_](
            const std::shared_ptr<detail::Transit>& transit) {
          CacheShard& shard = proxy->shard_for(host);
          const core::sync::MutexLock lock(shard.mutex);
          shard.transit[host] = transit;
        },
        halt_flag_);
  }

  /// Streaming GET of `host_` from one `source`, chunks accumulating in a
  /// Transit that concurrent requests join mid-flight while the digest is
  /// computed incrementally — the body is never reassembled into one
  /// contiguous buffer. A transfer that yields no verified entry continues
  /// with `resume`.
  void fetch_from(Tier tier, net::Address source, Resume resume) {
    auto sink = make_sink();
    auto self = shared_from_this();
    // Built before the send call: capturing `source` here by move while
    // also passing it as the destination would read a moved-from string
    // (argument evaluation order is unspecified).
    net::SendCallback done = [self, sink, tier, source,
                              resume](net::HttpResponse head) {
      self->finish_fetch(*sink, tier, source, std::move(head), resume);
    };
    proxy_->net_->send_streaming_async(proxy_->self_, source,
                                       object_request(tier), sink, exec_,
                                       std::move(done));
  }

  /// Where every transfer ends: one verification — digest, the proof's
  /// name against the requested one, signature — whichever tier delivered
  /// the bytes, since no source is trusted more than another.
  void finish_fetch(FetchSink& sink, Tier tier, const net::Address& source,
                    net::HttpResponse head, Resume resume) {
    CacheShard& shard = proxy_->shard_for(host_);
    // Retire the transit from the shard map (if this fetch published one
    // and it was not replaced by a competing fetch) and resolve its end
    // state. `failed` is the fail-closed switch: joined readers abort,
    // their connections close mid-body, nobody receives a
    // cleanly-terminated copy.
    const auto retire = [&](bool failed) {
      const std::shared_ptr<detail::Transit>& transit = sink.transit();
      if (transit == nullptr) return;
      {
        const core::sync::MutexLock lock(transit->mutex);
        transit->failed = failed;
        transit->complete = !failed;
      }
      const core::sync::MutexLock lock(shard.mutex);
      const auto it = shard.transit.find(host_);
      if (it != shard.transit.end() && it->second == transit) {
        shard.transit.erase(it);
      }
    };
    // No verified entry: a sibling answered 404 (hint stale — the copy was
    // evicted), failed verification, or is down, so its hint is forgotten
    // and the next miss does not chase the same dead end. A transport
    // failure (unreachable, 5xx) of a location makes the ladder's end
    // eligible for serve-stale; a clean negative or bad content does not.
    const auto give_up = [&](bool transport_failure) {
      retire(/*failed=*/true);
      if (tier == Tier::Sibling) proxy_->directory_->forget(source, host_);
      if (tier == Tier::Origin && transport_failure) fetch_failed_ = true;
      (this->*resume)();
    };

    if (!head.ok()) {
      // Either the upstream answered non-2xx, or the transport synthesized
      // a failure — possibly *after* body delivery began (mid-body death).
      give_up(head.status >= 500);
      return;
    }
    // Peer and sibling transfers stay inside the cache tier — only true
    // upstream (origin/mirror) fetches count toward origin byte load.
    if (tier == Tier::Origin) proxy_->stats_.bytes_from_origin += sink.bytes();

    Entry entry;
    entry.content_type =
        head.headers.get("Content-Type").value_or("text/plain");
    entry.etag = head.headers.get("ETag").value_or("");
    entry.fetched_from = source;
    entry.stored_at_ms = proxy_->net_->now_ms();
    // Verify with the metadata on_head parsed from the head whose body the
    // sink hashed; no transit means no body was taken, so nothing verifies.
    if (const auto& transit = sink.transit()) entry.metadata = transit->metadata;

    if (proxy_->options_.verify) {
      if (!entry.metadata || entry.metadata->name != *name_ ||
          verify_content(*entry.metadata, sink.digest()) != VerifyResult::Ok) {
        ++proxy_->stats_.verification_failures;
        give_up(false);
        return;
      }
    }
    // The entry shares the transit's chunks — admission costs reference
    // bumps, not a body copy, and joiners keep streaming from the same
    // bytes the cache now holds.
    if (const auto& transit = sink.transit()) {
      const core::sync::MutexLock lock(transit->mutex);
      entry.body = transit->chunks;
    }
    retire(/*failed=*/false);
    deliver_entry(tier, std::move(entry));
  }

  /// Admit a verified entry and answer the client; a copy from the cache
  /// tier counts as a peer or sibling hit, and a sibling's is marked
  /// X-Cache: SIBLING. A cancelled request still admits — joined readers
  /// and future requests keep the bytes — but skips the serve (settle
  /// drops the response anyway).
  void deliver_entry(Tier tier, Entry entry) {
    if (tier == Tier::Peer) ++proxy_->stats_.peer_hits;
    if (tier == Tier::Sibling) ++proxy_->stats_.sibling_hits;
    CacheShard& shard = proxy_->shard_for(host_);
    if (cancelled_) {
      {
        const core::sync::MutexLock lock(shard.mutex);
        proxy_->cache_store(shard, host_, entry);
      }
      settle(net::HttpResponse{});
      return;
    }
    net::HttpResponse response =
        proxy_->store_and_serve(shard, host_, std::move(entry), full_metadata_);
    if (tier == Tier::Sibling) response.headers.set("X-Cache", "SIBLING");
    settle(std::move(response));
  }

  Proxy* proxy_;
  net::HttpRequest request_;
  net::Executor* exec_;  ///< null ⇒ every transport hop completes inline
  std::function<void(net::HttpResponse)> respond_;

  std::string host_;
  std::optional<SelfCertifyingName> name_;
  bool apply_range_ = false;
  bool peer_query_ = false;
  bool full_metadata_ = false;
  std::size_t hops_ = 0;
  bool sibling_query_ = false;
  bool cache_only_ = false;

  bool stale_ = false;  ///< an expired-but-verified copy is in the cache
  std::string stale_etag_;
  net::Address stale_fetched_from_;
  std::vector<std::string> stale_mirrors_;  ///< metalink mirrors of the stale copy
  net::Address race_source_;  ///< the race's winner; the ladder skips it

  std::size_t peer_index_ = 0;
  std::vector<net::Address> holders_;
  std::size_t holder_index_ = 0;
  std::size_t holders_tried_ = 0;
  net::Address resolver_;
  int resolver_hop_ = 0;
  bool resolve_failed_ = false;
  std::vector<std::string> locations_;
  std::size_t location_index_ = 0;
  bool fetch_failed_ = false;

  bool settled_ = false;
  bool cancelled_ = false;
  /// Shared with in-flight FetchSinks: flipped by abort() so a pre-head
  /// transfer refuses its body (see FetchSink's cancellation boundary).
  std::shared_ptr<bool> halt_flag_ = std::make_shared<bool>(false);
};

net::HttpResponse Proxy::handle_http(const net::HttpRequest& request,
                                     const net::Address& from) {
  // Null executor: every transport hop falls back to its synchronous path
  // inline, so the machine settles before handle_http_async returns.
  net::HttpResponse response = net::make_response(500, "proxy did not settle");
  handle_http_async(request, from, nullptr,
                    [&response](net::HttpResponse settled) {
                      response = std::move(settled);
                    });
  return response;
}

std::optional<net::HttpResponse> Proxy::serve_if_fresh_hit(
    const net::HttpRequest& request) {
  if (request.method != "GET") return std::nullopt;
  auto host = net::absolute_form_host(request.target);
  if (!host) host = request.headers.get_view("Host");
  if (!host) return std::nullopt;  // 400 — the machine words the error
  // Store keys are canonical SelfCertifyingName::host()s — lowercase
  // ASCII, at most 126 characters — and parse_host accepts a host exactly
  // when its lowercase form is one. So a longer host is never cached, and
  // a host whose lowercase form is not a key falls through to FetchOp,
  // which parses it exactly as before.
  char lowered[128];
  if (host->size() > sizeof(lowered)) return std::nullopt;
  std::transform(host->begin(), host->end(), lowered, net::ascii_lower);
  const std::string_view key(lowered, host->size());
  const bool peer_query = request.headers.contains(kIcpQueryHeader);
  const bool full_metadata =
      peer_query || request.headers.contains(kWantMetadataHeader);

  CacheShard& shard = shard_for(key);
  std::optional<net::HttpResponse> response;
  {
    const core::sync::MutexLock lock(shard.mutex);
    const auto cached = shard.entries.find(key);
    if (cached == shard.entries.end()) return std::nullopt;
    const bool fresh =
        net_->now_ms() - cached->second.stored_at_ms <= options_.freshness_ms;
    if (!fresh) return std::nullopt;  // stale: revalidation is upstream I/O
    ++stats_.hits;
    response = serve_entry(shard, cached->second, true, full_metadata);
  }
  // Mirrors FetchOp::settle: Range rewrite on the idICN path (cooperative
  // queries never carry one), then PoP attribution.
  if (!peer_query) {
    if (const auto range = request.headers.get_view("Range")) {
      net::apply_byte_range(*range, *response);
    }
  }
  if (!options_.pop_name.empty()) {
    response->headers.set(kPopHeader, options_.pop_name);
  }
  return response;
}

std::shared_ptr<net::AsyncOp> Proxy::handle_http_async(
    const net::HttpRequest& request, const net::Address& /*from*/,
    net::Executor* exec, std::function<void(net::HttpResponse)> respond) {
  if (auto hit = serve_if_fresh_hit(request)) {
    respond(std::move(*hit));
    return nullptr;
  }
  auto op =
      std::make_shared<FetchOp>(this, request, exec, std::move(respond));
  op->dispatch();
  return op->settled() ? nullptr : op;
}

}  // namespace idicn::idicn

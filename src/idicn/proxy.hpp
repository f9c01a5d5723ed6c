// Edge proxy cache (§6, steps 2–4 and 7).
//
// The AD-operated HTTP proxy clients are auto-configured to use. Per
// request (absolute-form target, classic proxy semantics):
//   * a fresh cached copy is served immediately (step 7, X-Cache: HIT);
//   * otherwise an idICN name is resolved through the NRS (step 3,
//     following one level of P-delegation), fetched from a
//     location/mirror (step 4), VERIFIED against the self-certifying name
//     (the proxy-authenticates-content deployment mode of §6.1), cached,
//     and served (X-Cache: MISS);
//   * legacy hosts are resolved through DNS and forwarded transparently —
//     idICN leaves the existing web intact.
// Verification failures are never cached or served; the proxy falls back
// to the next known location and answers 502 when none verifies.
//
// Degradation (DESIGN.md §"Failure model & degradation"): when every
// upstream path fails at the transport/HTTP layer — NRS unreachable, all
// locations down — the proxy first tries a direct refetch from wherever the
// expired copy originally came from (sidestepping a dead NRS), and failing
// that serves the verified-but-expired entry with `Warning: 110` and
// `X-IdICN-Stale: 1` rather than erroring (serve-stale-on-error). Clean
// negatives (NRS says the name does not exist, content fails verification)
// never serve stale.
//
// Threading: handle_http / handle_http_async are safe to call from any
// number of runtime::ServerGroup workers concurrently. The entire serving
// flow is one continuation-passing state machine (FetchOp): every upstream
// exchange parks until the executor resumes it, so a worker's event loop
// is never blocked on upstream I/O (a cache HIT on the same worker keeps
// flowing while a MISS fetch is in flight). Revalidation, NRS resolution
// and the legacy forward are buffered Transport::send_async exchanges.
// Every object transfer — same-AD peer query, sibling redirect, location
// fetch, direct refetch, multi-source race — is one streaming GET into a
// Transit that concurrent requests join, verified once on arrival. The
// synchronous handle_http drives the identical machine with a null
// executor, where every transport hop completes inline. The content store
// is striped across Options::cache_shards shards (host-hashed, each behind
// its own Mutex). A shard is a host→entry map plus a cache::LruCache, the
// LRU the simulator runs: it holds the shard's slice of the byte budget
// (capacity_bytes/S with S shards) and picks every victim. Shard locks are
// never held across network I/O or a client respond — a stale hit
// snapshots its validators, revalidates unlocked, then re-locks to renew.
// Stats is relaxed-atomic, so any thread may sample it while workers serve.
// add_peer() is setup-time only — call it before serving starts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/lru_cache.hpp"
#include "core/buffer.hpp"
#include "core/sync.hpp"
#include "idicn/metalink.hpp"
#include "idicn/name.hpp"
#include "net/dns.hpp"
#include "net/sim_net.hpp"
#include "net/transport.hpp"
#include "runtime/multi_source_fetcher.hpp"

namespace idicn::idicn {

namespace detail {

/// An object currently streaming through the proxy: the fetching worker
/// appends chunks as they arrive off the wire while any number of
/// concurrent requests for the same object read the growing prefix
/// through producer-backed responses (X-Cache: STREAM) instead of issuing
/// duplicate upstream fetches. Visibility is managed under the owning
/// cache shard's lock (the shard's transit map); the chunk list has its
/// own mutex so appends and reads never contend with the shard's serving
/// fast path. The identity fields below the mutex are set by the fetcher
/// before the transit is published and immutable afterwards.
struct Transit {
  mutable core::sync::Mutex mutex;
  core::ChunkedBody chunks IDICN_GUARDED_BY(mutex);
  bool complete IDICN_GUARDED_BY(mutex) = false;
  /// Fail-closed: set when the upstream died mid-body or the completed
  /// content failed verification — joined readers surface an error and
  /// their connections close without ever completing the body, so a
  /// client can never mistake corrupt content for a clean transfer.
  bool failed IDICN_GUARDED_BY(mutex) = false;

  std::string content_type;
  std::string etag;
  std::optional<ContentMetadata> metadata;     ///< unverified until complete
  std::optional<std::uint64_t> expected_size;  ///< from Content-Length
};

}  // namespace detail

/// Who-has-what directory for cross-PoP cache cooperation (EDGE-Coop over
/// real links). Proxies feed it digests of sibling content stores (hint
/// ingestion) and consult it on a local miss (nearest-replica redirect);
/// the topology-aware implementation lives in src/testbed/ (it ranks
/// holders by core-graph distance through core::HolderIndex). Hints are
/// soft state: a directory answer may be stale, so the proxy treats a
/// sibling 404 as "forget and fall through", never as an error.
///
/// Implementations must be internally thread-safe — ingest arrives on
/// whichever worker carries the hint POST while holders() runs on every
/// serving worker.
class SiblingDirectory {
public:
  virtual ~SiblingDirectory() = default;

  /// Replace `sibling`'s advertised content set with `hosts` (a full
  /// digest: anything previously advertised but now absent is dropped).
  virtual void ingest(const net::Address& sibling,
                      const std::vector<std::string>& hosts) = 0;
  /// Drop one advertised entry (a redirect found the copy gone — the hint
  /// was stale).
  virtual void forget(const net::Address& sibling, const std::string& host) = 0;
  /// Sibling proxies advertising `host`, nearest first. Never includes the
  /// owning proxy itself.
  [[nodiscard]] virtual std::vector<net::Address> holders(const std::string& host) = 0;
};

class Proxy : public net::SimHost {
public:
  struct Options {
    std::uint64_t capacity_bytes = 1 << 20;
    std::uint64_t freshness_ms = 3'600'000;  ///< cached copies stay fresh this long
    bool verify = true;  ///< authenticate content before caching/serving
    std::size_t cache_shards = 1;  ///< content-store lock stripes (≥ 1)
    /// When non-empty, every response carries `X-IdICN-PoP: <pop_name>` so
    /// testbed clients (and curious humans) can tell which PoP served them.
    std::string pop_name;
    /// Digest-size bound, both directions: push_hints() advertises at most
    /// this many hosts and hint ingestion truncates anything longer, so a
    /// misbehaving (or enormous) sibling cannot bloat the directory.
    std::size_t max_hint_entries = 256;
    /// Stale-hint damage control: at most this many directory candidates
    /// are tried per miss before falling through to the NRS/origin path.
    std::size_t sibling_fanout = 2;
    /// Tuning of the congestion-aware multi-source MISS path (DESIGN.md
    /// §13): when a name resolves to ≥2 distinct sources (NRS rows,
    /// metalink mirrors remembered from an expired copy, the stale copy's
    /// origin), the fetch races through a runtime::MultiSourceFetcher —
    /// RTT-ranked replica choice, hedged requests past the straggler
    /// threshold, parallel range legs on large objects — with the serial
    /// location ladder as fallback, so availability never regresses. One
    /// source takes the ladder alone.
    runtime::MultiSourceFetcher::Options fetch;
  };

  Proxy(net::Transport* net, net::Address self, net::Address nrs,
        const net::DnsService* dns, Options options);
  Proxy(net::Transport* net, net::Address self, net::Address nrs,
        const net::DnsService* dns)
      : Proxy(net, std::move(self), std::move(nrs), dns, Options{}) {}

  /// Observer counters. Bumped by whichever worker thread is driving
  /// handle_http and sampled by bench and test threads while the proxy is
  /// live — hence relaxed atomics, not plain integers (TSan-clean
  /// cross-thread reads, no ordering promised between counters).
  struct Stats {
    core::sync::RelaxedCounter hits;
    core::sync::RelaxedCounter misses;
    core::sync::RelaxedCounter expired;             ///< stale entries refreshed
    core::sync::RelaxedCounter verification_failures;
    core::sync::RelaxedCounter legacy_forwards;
    core::sync::RelaxedCounter evictions;
    core::sync::RelaxedCounter peer_hits;           ///< served via cooperating proxies
    core::sync::RelaxedCounter revalidations;       ///< conditional refreshes attempted
    core::sync::RelaxedCounter revalidated_304;     ///< …answered Not Modified
    core::sync::RelaxedCounter bytes_served;        ///< response body bytes to clients (goodput)
    core::sync::RelaxedCounter bytes_from_origin;   ///< body bytes fetched upstream on misses
    core::sync::RelaxedCounter stale_served;        ///< expired entries served on upstream failure
    core::sync::RelaxedCounter upstream_errors;     ///< exhausted upstream paths (transport/5xx)
    core::sync::RelaxedCounter stream_joins;        ///< requests joined to an in-flight fetch
    core::sync::RelaxedCounter sibling_hits;        ///< served via directory-guided sibling fetch
    core::sync::RelaxedCounter hints_sent;          ///< digests pushed to siblings
    core::sync::RelaxedCounter hints_received;      ///< digests ingested from siblings
  };
  /// Register a cooperating sibling proxy in the same AD (the
  /// application-layer analogue of the simulator's EDGE-Coop): on a local
  /// miss, peers are asked — cache-only, no recursive fetch — before the
  /// name is resolved upstream. Setup-time only (not guarded): call before
  /// the hosting server starts serving.
  void add_peer(net::Address peer) { peers_.push_back(std::move(peer)); }

  /// Cross-PoP cooperation wiring (both setup-time only, like add_peer):
  /// the directory answers "which sibling holds this object, nearest
  /// first", and the sibling list receives this proxy's periodic content
  /// digests. The directory must outlive the proxy.
  void set_sibling_directory(SiblingDirectory* directory) { directory_ = directory; }
  void add_sibling(net::Address sibling) { siblings_.push_back(std::move(sibling)); }

  /// The content digest this proxy advertises: cached hosts in
  /// most-recently-used-first order per shard, truncated to
  /// Options::max_hint_entries. Safe from any thread (locks each shard in
  /// turn).
  [[nodiscard]] std::vector<std::string> hint_digest() const;

  /// POST the current digest to every registered sibling (the periodic
  /// hint exchange; the testbed's driver calls this between trace batches).
  /// Unreachable siblings are skipped — hints are best-effort soft state.
  void push_hints();

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// The congestion-aware multi-source fetch engine: hedging/range-split
  /// counters and per-destination RTT snapshots for the bench exporters.
  [[nodiscard]] runtime::MultiSourceFetcher& fetcher() noexcept {
    return *fetcher_;
  }
  [[nodiscard]] std::uint64_t cached_bytes() const;
  [[nodiscard]] std::size_t cached_objects() const;
  [[nodiscard]] bool is_cached(const std::string& host) const;

  net::HttpResponse handle_http(const net::HttpRequest& request,
                                const net::Address& from) override;

  /// Loop-native entry point: the serving state machine parks on upstream
  /// I/O via `exec` and answers through `respond` (inline for cache hits,
  /// later from the loop for misses). Returns the cancellation handle while
  /// the request is parked — abort() marks the client gone, stops new
  /// upstream work, and suppresses the respond (an in-flight streaming
  /// fetch that already published its transit still runs to completion so
  /// joined readers and the cache keep the bytes).
  std::shared_ptr<net::AsyncOp> handle_http_async(
      const net::HttpRequest& request, const net::Address& from,
      net::Executor* exec,
      std::function<void(net::HttpResponse)> respond) override;

private:
  /// The continuation-passing serving machine (defined in proxy.cpp).
  class FetchOp;
  struct Entry {
    /// Chunk-granular body: the same shared chunks the object arrived in
    /// (and that any concurrent stream-joiners are reading). Serving a hit
    /// references them — N concurrent readers of one cached object cost
    /// one copy of the bytes.
    core::ChunkedBody body;
    std::string content_type;
    std::optional<ContentMetadata> metadata;
    std::string etag;          ///< validator for conditional refreshes
    net::Address fetched_from; ///< where a revalidation should go
    std::uint64_t stored_at_ms = 0;
    cache::ObjectId id = 0;  ///< this entry's id in its shard's LRU
    /// The header fields of a plain-client HIT (no proof), built once at
    /// admission by the same code that heads every other response: a HIT
    /// copies them instead of re-encoding metadata and re-scanning fields.
    net::HeaderMap hit_headers;
  };

  /// One lock stripe of the content store: a private host→entry map and
  /// an LRU over shard-local ids, sized to the shard's capacity slice. All
  /// of it is guarded by `mutex`. Every key is a canonical
  /// SelfCertifyingName::host() (FetchOp admits nothing else), so a key
  /// found by a request's lowercased host proves that host a valid name;
  /// the transparent comparator looks it up without a copy.
  struct CacheShard {
    using Entries = std::map<std::string, Entry, std::less<>>;

    explicit CacheShard(std::uint64_t slice_bytes) : lru(slice_bytes) {}

    mutable core::sync::Mutex mutex;
    Entries entries IDICN_GUARDED_BY(mutex);
    /// Recency and the byte budget: each entry is its id, sized by its
    /// body, and insert's victims are the entries to erase.
    cache::LruCache lru IDICN_GUARDED_BY(mutex);
    std::vector<Entries::iterator> by_id IDICN_GUARDED_BY(mutex);  ///< id → entry
    std::vector<cache::ObjectId> free_ids IDICN_GUARDED_BY(mutex);  ///< ids to reuse
    std::vector<cache::ObjectId> evicted IDICN_GUARDED_BY(mutex);  ///< insert's, reused
    /// Objects currently being fetched through this shard: later requests
    /// for the same host join the in-flight stream instead of fetching
    /// again. Retired (erased) when the fetch completes or fails.
    std::map<std::string, std::shared_ptr<detail::Transit>> transit
        IDICN_GUARDED_BY(mutex);
  };

  [[nodiscard]] CacheShard& shard_for(std::string_view host);
  [[nodiscard]] const CacheShard& shard_for(std::string_view host) const;

  /// Ingest a sibling's content digest (POST /idicn-hint).
  net::HttpResponse serve_hint(const net::HttpRequest& request);

  /// Serve-stale-on-error (RFC 5861 flavor): re-lock the shard and serve
  /// the expired-but-verified entry with `Warning: 110` + `X-IdICN-Stale`.
  /// nullopt when the entry was evicted meanwhile. The entry's freshness is
  /// NOT renewed — the next request tries upstream again.
  std::optional<net::HttpResponse> serve_stale(CacheShard& shard,
                                               const std::string& host,
                                               bool full_metadata)
      IDICN_EXCLUDES(shard.mutex);

  /// Admit a fetched entry into `shard` (evicting as needed) and serve it.
  /// An entry too large for the shard's slice is served without being
  /// admitted.
  net::HttpResponse store_and_serve(CacheShard& shard, const std::string& host,
                                    Entry entry, bool full_metadata)
      IDICN_EXCLUDES(shard.mutex);

  /// Serve `entry` (a HIT also refreshes its LRU position). A plain-client
  /// HIT copies the entry's prebuilt hit_headers; every other response is
  /// built by entry_response.
  net::HttpResponse serve_entry(CacheShard& shard, Entry& entry, bool hit,
                                bool full_metadata)
      IDICN_REQUIRES(shard.mutex);
  /// The 200 for `entry`: body chunks, metadata (with the proof only when
  /// `full_metadata`), ETag, X-Cache and Via.
  [[nodiscard]] net::HttpResponse entry_response(const Entry& entry, bool hit,
                                                 bool full_metadata) const;
  /// Allocation-light step-7 fast path shared by both entry points: a GET
  /// whose host, ASCII-lowercased as is, keys a fresh cached copy is served
  /// with one keyed lookup — no URI, no name parse, no FetchOp machine (the
  /// hot-path-alloc ratchet counts every heap allocation on the hit chain).
  /// nullopt falls through to the full machine, which parses — misses,
  /// stale entries, transit joins, hints, legacy and malformed hosts.
  std::optional<net::HttpResponse> serve_if_fresh_hit(
      const net::HttpRequest& request);
  /// Join a request to an in-flight fetch: a producer-backed response that
  /// serves the already-arrived prefix immediately and the tail as it
  /// streams from upstream (X-Cache: STREAM).
  net::HttpResponse serve_transit(const std::shared_ptr<detail::Transit>& transit,
                                  bool full_metadata);
  /// True when admitted (entry moved into the shard, the LRU's victims
  /// erased); false when the body exceeds the shard's capacity slice or an
  /// LRU entry's 32-bit size (entry untouched).
  bool cache_store(CacheShard& shard, const std::string& host, Entry& entry)
      IDICN_REQUIRES(shard.mutex);

  net::Transport* net_;
  net::Address self_;
  net::Address nrs_;
  const net::DnsService* dns_;
  Options options_;
  Stats stats_;
  std::unique_ptr<runtime::MultiSourceFetcher> fetcher_;

  /// Sized by the constructor, never resized: the vector and each shard's
  /// identity are immutable; only guarded shard innards mutate.
  std::vector<std::unique_ptr<CacheShard>> shards_;
  std::vector<net::Address> peers_;  ///< setup-time only (see add_peer)

  /// Cross-PoP cooperation (both setup-time only, see add_sibling):
  SiblingDirectory* directory_ = nullptr;  ///< not owned; may stay null
  std::vector<net::Address> siblings_;     ///< digest push targets
};

/// The request header marking a cache-only cooperative query (a proxy must
/// answer it from its cache or 404 — never by fetching upstream, which
/// would loop).
inline constexpr const char* kIcpQueryHeader = "X-IdICN-Peer-Query";

/// Proxy→proxy forwarding depth for sibling (cross-PoP) fetches. Absent
/// means 0 (a client-originated request); each sibling hop forwards with
/// the value incremented. A receiving proxy at or past kSiblingHopLimit
/// answers cache-only — the loop-safety valve of the EDGE-Coop redirect
/// scheme.
inline constexpr const char* kHopsHeader = "X-IdICN-Hops";

/// The longest proxy→proxy chain of sibling fetches: a request whose
/// X-IdICN-Hops already reaches it is answered cache-only (404 on miss),
/// and hops only ever increment, so redirect loops die here. At 2 a proxy
/// serving a sibling fetch may redirect one hop further, closer to the
/// simulator's NearestReplica oracle than a limit of 1. That is safe over
/// real sockets because upstream fetches park on the event loop: a worker
/// keeps serving inbound sibling queries while its own fetch is in flight.
inline constexpr std::size_t kSiblingHopLimit = 2;

/// Identifies a digest POST's sender (its transport address), so the
/// receiver can attribute the advertised content set in its directory.
inline constexpr const char* kHintHeader = "X-IdICN-Hint";

/// Response header naming the PoP whose proxy served the response (set
/// whenever Options::pop_name is configured).
inline constexpr const char* kPopHeader = "X-IdICN-PoP";

/// Response header naming the transport address the body was actually
/// fetched from on a miss (origin/mirror or sibling proxy). The testbed's
/// driver uses it to charge core-link transfers to the real path taken.
inline constexpr const char* kSourceHeader = "X-IdICN-Source";

/// Target path of the sibling digest exchange (POST body: `host=<h>` lines).
inline constexpr const char* kHintPath = "/idicn-hint";

}  // namespace idicn::idicn

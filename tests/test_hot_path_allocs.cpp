// Runtime complement to tools/analysis' hot-path-alloc rule: count real
// operator-new calls per request on the 1 KB cache-hit serving chain and
// ratchet the number as a regression bound (ROADMAP item 1 drives it to
// zero; this test makes every step down permanent). The simulator's prefill
// and per-request replay counts are ratcheted the same way (bottom of file).
//
// The measured chain is the single-threaded core of what ServerWorker does
// per keep-alive request: HttpDecoder::feed on the raw bytes →
// next_request → Proxy::handle_http (cache HIT) → serialize_head +
// take_body_chunks. Measuring in-process keeps the count exact — no
// cross-thread noise, no socket buffers — so the bound can be tight.
//
// History of the measured number (1 KB object, libstdc++ 12, worst/avg):
//   pre PR 8 fixes:  41 / 39 — header-map vector growth (1→2→4→8 per
//                    response), per-field heap temporaries in the head
//                    serializers, optional<string> header copies, and a
//                    redundant HeaderMap reset per decoded message.
//   post PR 8 fixes: 22 / 20 — HeaderMap::reserve(8) + get_view,
//                    piecewise serialize_fields, reserved serialize_head.
//   before the parse-free HIT: 25 / 23 — three more than the line above,
//                    grown in between without a history line.
//   parse-free HIT:  14 / 12 — the proxy looks the request's host up as
//                    written (no Uri, no SelfCertifyingName, no base32
//                    vector), copies the entry's prebuilt HIT header
//                    fields, and splices its LRU node instead of
//                    allocating a new one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <string>

#include "core/bound_workload.hpp"
#include "core/design.hpp"
#include "core/origin_map.hpp"
#include "core/simulator.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/http_decoder.hpp"
#include "net/http_message.hpp"
#include "topology/pop_topology.hpp"

namespace {

// --- global operator-new counting hook ------------------------------------
//
// Replaces the global allocation functions for this test binary. Every
// form funnels through counted_alloc so nothing escapes the count; frees
// go straight to std::free (our pointers always come from std::malloc).

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace idicn;
using namespace ::idicn::idicn;

// The ratcheted bound: allocations per request on the 1 KB cache-hit chain.
// Measured worst-case 14 on libstdc++ 12 since the parse-free HIT path
// (history above); the bound leaves slack of 3 for stdlib variance across
// CI images, not for regressions. Lower it when you lower the count — it
// must never go back up.
constexpr std::uint64_t kAllocRatchet = 17;

struct HotPathDeployment {
  net::SimNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer{2024, 6};
  NameResolutionSystem nrs{&dns};
  OriginServer origin;
  ReverseProxy reverse_proxy{&net, "rp.pub", "origin.pub", "nrs", &signer};
  Proxy proxy{&net, "cache.ad1", "nrs", &dns};

  HotPathDeployment() {
    net.attach("nrs", &nrs);
    net.attach("origin.pub", &origin);
    net.attach("rp.pub", &reverse_proxy);
    net.attach("cache.ad1", &proxy);
  }

  SelfCertifyingName publish(const std::string& label,
                             const std::string& body) {
    origin.put(label, body);
    const auto name = reverse_proxy.publish(label);
    EXPECT_TRUE(name.has_value());
    return *name;
  }
};

/// One keep-alive request through the serving chain; returns the response
/// status so the caller can sanity-check outside the measured window.
int serve_once(HotPathDeployment& d, net::HttpDecoder& decoder,
               const std::string& wire_request) {
  decoder.feed(wire_request);
  auto request = decoder.next_request();
  if (!request.has_value()) return -1;
  net::HttpResponse response = d.proxy.handle_http(*request, "client");
  const std::string head = response.serialize_head();
  auto chunks = response.take_body_chunks();
  if (head.empty() || chunks.empty()) return -2;
  return response.status;
}

TEST(HotPathAllocs, CacheHitAllocationsStayUnderRatchet) {
  HotPathDeployment d;
  const auto name = d.publish("obj", std::string(1024, 'x'));
  const std::string wire =
      "GET http://" + name.host() + "/ HTTP/1.1\r\n\r\n";

  net::HttpDecoder decoder{net::HttpDecoder::Mode::Request};
  // Warm up: the first request is a MISS (fetch + verify + cache fill);
  // a few more let any lazily-grown buffers reach steady state.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(serve_once(d, decoder, wire), 200);
  }

  constexpr int kRequests = 16;
  std::uint64_t worst = 0;
  std::uint64_t total = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::uint64_t before = allocation_count();
    const int status = serve_once(d, decoder, wire);
    const std::uint64_t per_request = allocation_count() - before;
    ASSERT_EQ(status, 200);
    worst = std::max(worst, per_request);
    total += per_request;
  }
  const std::uint64_t average = total / kRequests;
  RecordProperty("allocs_per_request_worst", static_cast<int>(worst));
  RecordProperty("allocs_per_request_avg", static_cast<int>(average));
  std::printf("[hot-path] allocations/request on 1 KB cache hit: "
              "avg %llu, worst %llu (ratchet %llu)\n",
              static_cast<unsigned long long>(average),
              static_cast<unsigned long long>(worst),
              static_cast<unsigned long long>(kAllocRatchet));
  EXPECT_GT(worst, 0u) << "a zero count means the counting hook is not "
                          "linked in — the ratchet would be vacuous";
  EXPECT_LE(worst, kAllocRatchet)
      << "the cache-hit serving chain allocates more than the ratcheted "
         "bound; run tools/analysis/idicn_analysis.py --rule hot-path-alloc "
         "to find the new allocation, fix it, and only then touch "
         "kAllocRatchet (downward)";
}

// Failing-by-construction proof that the hook detects an injected hot-path
// allocation: the same measured window with one extra heap allocation must
// read exactly one count higher. If this test fails, the ratchet above is
// not actually guarding anything.
TEST(HotPathAllocs, CountingHookDetectsInjectedAllocation) {
  HotPathDeployment d;
  const auto name = d.publish("obj2", std::string(1024, 'y'));
  const std::string wire =
      "GET http://" + name.host() + "/ HTTP/1.1\r\n\r\n";
  net::HttpDecoder decoder{net::HttpDecoder::Mode::Request};
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(serve_once(d, decoder, wire), 200);
  }

  const std::uint64_t before_clean = allocation_count();
  ASSERT_EQ(serve_once(d, decoder, wire), 200);
  const std::uint64_t clean = allocation_count() - before_clean;

  const std::uint64_t before_injected = allocation_count();
  ASSERT_EQ(serve_once(d, decoder, wire), 200);
  // The "bug": one extra allocation smuggled into the serving window.
  // volatile defeats heap elision (C++14 allows new-expressions to be
  // optimized out; a volatile read of the pointer does not).
  int* volatile injected = new int(42);
  delete injected;
  const std::uint64_t with_injection =
      allocation_count() - before_injected;

  EXPECT_EQ(with_injection, clean + 1)
      << "the counting hook missed an injected allocation — every form of "
         "operator new must funnel through it";
  EXPECT_GT(with_injection, clean);
}

// --- simulator: prefill and replay ----------------------------------------
//
// The six designs of the sim-att benchmark, replayed on Géant (k=2, d=5)
// with 40k requests over 4k objects. Prefill counts operator-new calls from
// Simulator::run entry to the first request-observer call; replay counts
// them per request from that call to the last one.
//
// History of the measured numbers (libstdc++ 12; prefill allocations /
// replay allocations per request):
//   hash-node indexes:  NO-CACHE 19 / 11.57, ICN-SP 294310 / 4.92,
//                       ICN-NR 605095 / 7.27, EDGE 149715 / 3.56,
//                       EDGE-Coop 149715 / 3.83, EDGE-Norm 287444 / 2.60 —
//                       one hash node per cached (object, node) pair in
//                       HolderIndex's membership set and in every LRU index,
//                       plus fresh path and sibling vectors per request.
//   flat indexes:       NO-CACHE 12 / 0.000, ICN-SP 18915 / 0.035,
//                       ICN-NR 52966 / 1.382, EDGE 9619 / 0.018,
//                       EDGE-Coop 9619 / 0.018, EDGE-Norm 11028 / 0.018 —
//                       membership lives in HolderIndex's sorted buckets,
//                       LRU indexes are open-addressing tables, and replay
//                       reuses scratch paths. What is left is warm-up growth
//                       (slot, table and free-list vectors) and, for ICN-NR,
//                       HolderIndex's per-PoP bucket churn.
//   presized warm start: NO-CACHE 12 / 0.000, ICN-SP 2791 / 0.035,
//                       ICN-NR 6049 / 0.310, EDGE 1427 / 0.018,
//                       EDGE-Coop 1427 / 0.018, EDGE-Norm 1428 / 0.018 —
//                       prefill presizes each LRU cache (one slot vector and
//                       one table allocation per cache), and HolderIndex
//                       keeps one vector of per-PoP bitmask records per
//                       object, so ICN-NR's churn only allocates when an
//                       object gains a PoP record or a map entry.
//   warm start by copy: NO-CACHE 12 / 0.000, ICN-SP 2793 / 0.035,
//                       ICN-NR 6059 / 0.310, EDGE 1428 / 0.018,
//                       EDGE-Coop 1428 / 0.018, EDGE-Norm 1428 / 0.018 —
//                       one cache per group of identical caches is filled
//                       by inserts and the rest copy it (a copy allocates
//                       its slot vector and table once, as presize did),
//                       and ICN-NR records each group's holders with one
//                       HolderIndex::add_group per object. The few extra
//                       allocations are prefill's group and member lists.
//   entries in the index: NO-CACHE 12 / 0.000, ICN-SP 1344 / 0.000,
//                       ICN-NR 4610 / 0.275, EDGE 692 / 0.000,
//                       EDGE-Coop 692 / 0.000, EDGE-Norm 724 / 0.000 —
//                       LruCache keeps its entries in its index table, so
//                       presize and copy_from allocate one table per cache
//                       (no slot vector), and evictions no longer push
//                       freed slots onto a free list during replay.
//   warm start by reference: NO-CACHE 14 / 0.000, ICN-SP 26 / 0.000,
//                       ICN-NR 3292 / 0.275, EDGE 25 / 0.000,
//                       EDGE-Coop 25 / 0.000, EDGE-Norm 25 / 0.000 —
//                       a group's first LruCache keeps a reference to its
//                       order's shared popularity image plus a bitset, and
//                       every LruCache takes its table and bitset from one
//                       pool the Simulator owns, so thousands of small
//                       tables, and their growth during replay, reach
//                       operator new as a few chunks. What is left is the
//                       pool's chunks, tables too large for its blocks
//                       (the PoP roots'), prefill's own lists and, for
//                       ICN-NR, HolderIndex's records.
//                       NO-CACHE's two more are the shared size array's
//                       control block and the list of images.
// The bounds below leave small slack for stdlib variance across CI images,
// not for regressions. Lower them when you lower the counts.
struct SimRatchet {
  const char* design;
  std::uint64_t prefill;      ///< allocations, whole prefill
  double replay_per_request;  ///< allocations per replayed request
};
constexpr SimRatchet kSimRatchets[] = {
    {"NO-CACHE", 16, 0.01},  {"ICN-SP", 32, 0.01},
    {"ICN-NR", 3'550, 0.31}, {"EDGE", 32, 0.01},
    {"EDGE-Coop", 32, 0.01}, {"EDGE-Norm", 32, 0.01},
};

TEST(HotPathAllocs, SimulatorPrefillAndReplayStayUnderRatchet) {
  const topology::HierarchicalNetwork network(topology::make_geant(),
                                              topology::AccessTreeShape(2, 5));
  core::SyntheticWorkloadSpec spec;
  spec.request_count = 40'000;
  spec.object_count = 4'000;
  spec.seed = 13;
  const core::BoundWorkload workload = core::bind_synthetic(network, spec);
  const core::OriginMap origins(network, spec.object_count,
                                core::OriginAssignment::PopulationProportional, 13);

  for (const core::DesignSpec& design :
       {core::no_cache(), core::icn_sp(), core::icn_nr(), core::edge(),
        core::edge_coop(), core::edge_norm()}) {
    core::Simulator simulator(network, origins, design, core::SimulationConfig{});
    std::uint64_t first = 0, last = 0;
    std::size_t calls = 0;
    simulator.set_request_observer([&](std::size_t) {
      last = allocation_count();
      if (calls++ == 0) first = last;
    });
    const std::uint64_t start = allocation_count();
    const core::SimulationMetrics metrics = simulator.run(workload);
    ASSERT_EQ(calls, workload.requests.size());
    ASSERT_GT(metrics.request_count, 0u);

    const std::uint64_t prefill = first - start;
    const double per_request =
        static_cast<double>(last - first) / static_cast<double>(calls - 1);
    std::printf("[hot-path] %-9s prefill %llu allocations, replay %.3f "
                "allocations/request\n",
                design.name.c_str(), static_cast<unsigned long long>(prefill),
                per_request);
    const auto ratchet =
        std::find_if(std::begin(kSimRatchets), std::end(kSimRatchets),
                     [&](const SimRatchet& r) { return design.name == r.design; });
    ASSERT_NE(ratchet, std::end(kSimRatchets)) << design.name;
    EXPECT_LE(prefill, ratchet->prefill) << design.name;
    EXPECT_LE(per_request, ratchet->replay_per_request) << design.name;
  }
}

}  // namespace

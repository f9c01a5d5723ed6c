// Google-benchmark microbenchmarks for the hot primitives: cache policies,
// Zipf sampling, SHA-256/signatures, the proof-carrying MISS reply's header
// and decode costs, and the simulator's end-to-end request rate.
#include <benchmark/benchmark.h>

#include <random>
#include <stdexcept>
#include <string>

#include "cache/cache.hpp"
#include "core/experiment.hpp"
#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "idicn/metalink.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/dns.hpp"
#include "net/http_decoder.hpp"
#include "net/sim_net.hpp"
#include "topology/pop_topology.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace idicn;
namespace app = ::idicn::idicn;

/// A reverse proxy's reply to the ranged, proof-requesting GET a verifying
/// proxy sends on a MISS: a 16 KB 206 of a 48 KB object carrying the
/// Metalink headers and the ~50 KB hex signature.
struct MetalinkReply {
  std::string proof;  ///< the X-IdICN-Signature value
  std::string wire;   ///< the whole serialized reply
};

const MetalinkReply& metalink_reply() {
  static const MetalinkReply reply = [] {
    net::SimNet network;
    net::DnsService dns;
    crypto::MerkleSigner signer(17, 10);
    app::NameResolutionSystem nrs(&dns);
    app::OriginServer origin;
    app::ReverseProxy reverse_proxy(&network, "rp.pub", "origin.pub", "nrs.consortium",
                                    &signer);
    network.attach("nrs.consortium", &nrs);
    network.attach("origin.pub", &origin);
    network.attach("rp.pub", &reverse_proxy);
    origin.put("object", std::string(48 * 1024, 'x'));
    const auto name = reverse_proxy.publish("object");
    if (!name) throw std::runtime_error("publishing the benchmark object failed");

    net::HttpRequest get;
    get.headers.set("Host", name->host());
    get.headers.set(app::kWantMetadataHeader, "1");
    get.headers.set("Range", "bytes=0-16383");
    const net::HttpResponse response = reverse_proxy.handle_http(get, "cache.ad1");
    if (response.status != 206) throw std::runtime_error("expected a 206 reply");
    return MetalinkReply{*response.headers.get("X-IdICN-Signature"), response.serialize()};
  }();
  return reply;
}

void BM_CacheInsertLookup(benchmark::State& state) {
  const auto kind = static_cast<cache::PolicyKind>(state.range(0));
  auto cache = cache::make_cache(kind, 1000, 1);
  std::mt19937_64 rng(3);
  std::vector<cache::ObjectId> evicted;
  for (auto _ : state) {
    const auto object = static_cast<cache::ObjectId>(rng() % 10000);
    if (!cache->lookup(object)) {
      evicted.clear();
      cache->insert(object, 1, evicted);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheInsertLookup)
    ->Arg(static_cast<int>(cache::PolicyKind::Lru))
    ->Arg(static_cast<int>(cache::PolicyKind::Lfu))
    ->Arg(static_cast<int>(cache::PolicyKind::Fifo))
    ->Arg(static_cast<int>(cache::PolicyKind::Random));

void BM_ZipfSample(benchmark::State& state) {
  const workload::ZipfDistribution zipf(static_cast<std::uint32_t>(state.range(0)),
                                        1.0);
  std::mt19937_64 rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_Sha256(benchmark::State& state) {
  const std::string message(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(message));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(64)->Arg(1024)->Arg(65536);

// The one-block hash Lamport keygen and verification run per secret.
void BM_Sha256Hash32(benchmark::State& state) {
  crypto::Sha256Digest value{};
  for (auto _ : state) {
    value = crypto::Sha256::hash32(value);
    benchmark::DoNotOptimize(value);
  }
  state.SetBytesProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Sha256Hash32);

// One HeaderMap::add of a real proof: the copy plus the CR/LF/NUL scan, as
// ContentMetadata::apply_to and the upstream decoder each pay per MISS.
void BM_HeaderMapAddProof(benchmark::State& state) {
  const std::string& proof = metalink_reply().proof;
  for (auto _ : state) {
    net::HeaderMap headers;
    headers.add("X-IdICN-Signature", proof);
    benchmark::DoNotOptimize(headers);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(proof.size()));
}
BENCHMARK(BM_HeaderMapAddProof);

// Decode the whole reply from 16 KB pieces, the size AsyncHttpClient
// reads per recv, with the body streamed out as it is for a MISS.
void BM_DecodeMetalinkReply(benchmark::State& state) {
  const std::string& wire = metalink_reply().wire;
  constexpr std::size_t kPiece = 16 * 1024;
  net::HttpDecoder decoder(net::HttpDecoder::Mode::Response);
  std::size_t body_bytes = 0;
  net::HttpDecoder::StreamHooks hooks;
  hooks.on_head = [](const net::HttpResponse&) {};
  hooks.on_chunk = [&body_bytes](core::Chunk chunk) { body_bytes += chunk.size(); };
  decoder.set_stream_hooks(std::move(hooks));
  for (auto _ : state) {
    for (std::size_t at = 0; at < wire.size(); at += kPiece) {
      decoder.feed(std::string_view(wire).substr(at, kPiece));
    }
    auto head = decoder.next_response();
    if (!head) state.SkipWithError("the reply did not decode");
    benchmark::DoNotOptimize(head);
  }
  benchmark::DoNotOptimize(body_bytes);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_DecodeMetalinkReply);

void BM_MerkleSign(benchmark::State& state) {
  crypto::MerkleSigner signer(11, 12);  // 4096 signatures available
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(signer.sign("message " + std::to_string(i++)));
    if (signer.remaining() == 0) state.SkipWithError("signer exhausted");
  }
}
BENCHMARK(BM_MerkleSign)->Iterations(256);

void BM_MerkleVerify(benchmark::State& state) {
  crypto::MerkleSigner signer(12, 4);
  const crypto::MerkleSignature signature = signer.sign("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::MerkleSigner::verify(signer.root(), "benchmark message", signature));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MerkleVerify);

void BM_SimulatorRequestRate(benchmark::State& state) {
  const topology::HierarchicalNetwork network(topology::make_topology("Sprint"),
                                              topology::AccessTreeShape(2, 5));
  core::SyntheticWorkloadSpec spec;
  spec.request_count = 50'000;
  spec.object_count = 5'000;
  spec.alpha = 1.0;
  spec.seed = 9;
  const core::BoundWorkload workload = core::bind_synthetic(network, spec);
  const core::OriginMap origins(network, spec.object_count,
                                core::OriginAssignment::PopulationProportional, 3);
  core::SimulationConfig config;
  const core::DesignSpec design =
      state.range(0) == 0 ? core::edge() : core::icn_nr();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_design(network, origins, design, config, workload));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.request_count));
}
BENCHMARK(BM_SimulatorRequestRate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

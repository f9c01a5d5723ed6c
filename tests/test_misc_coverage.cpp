// Coverage for remaining paths: the parallel experiment runner's
// determinism, non-verifying proxies, and design factory naming.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "topology/pop_topology.hpp"

namespace {

using namespace idicn;
using namespace ::idicn::core;

TEST(ParallelRunner, MatchesSerialExactly) {
  topology::HierarchicalNetwork network(topology::make_abilene(),
                                        topology::AccessTreeShape(2, 3));
  SyntheticWorkloadSpec spec;
  spec.request_count = 20'000;
  spec.object_count = 2'000;
  spec.alpha = 1.0;
  spec.seed = 5;
  const BoundWorkload workload = bind_synthetic(network, spec);
  const OriginMap origins(network, spec.object_count,
                          OriginAssignment::PopulationProportional, 77);
  SimulationConfig config;
  const std::vector<DesignSpec> designs = {icn_sp(), icn_nr(), edge(), edge_norm()};

  const ComparisonResult serial =
      compare_designs(network, origins, designs, config, workload, 1);
  const ComparisonResult parallel =
      compare_designs(network, origins, designs, config, workload, 4);

  EXPECT_EQ(serial.baseline.total_hops, parallel.baseline.total_hops);
  ASSERT_EQ(serial.designs.size(), parallel.designs.size());
  for (std::size_t i = 0; i < serial.designs.size(); ++i) {
    EXPECT_EQ(serial.designs[i].design.name, parallel.designs[i].design.name);
    EXPECT_EQ(serial.designs[i].metrics.total_hops,
              parallel.designs[i].metrics.total_hops);
    EXPECT_EQ(serial.designs[i].metrics.cache_hits,
              parallel.designs[i].metrics.cache_hits);
    EXPECT_EQ(serial.designs[i].metrics.max_link_transfers,
              parallel.designs[i].metrics.max_link_transfers);
    EXPECT_DOUBLE_EQ(serial.designs[i].improvements.latency_pct,
                     parallel.designs[i].improvements.latency_pct);
  }
}

TEST(DesignFactories, NamesEncodeParameters) {
  EXPECT_EQ(icn_scoped_nr(5.0).name, "ICN-ScopedNR-5");
  EXPECT_EQ(icn_sp_prob(0.25).name, "ICN-SP-Prob25");
  EXPECT_EQ(edge_partial(0.5).name, "EDGE-50pct");
  EXPECT_EQ(icn_sp_lcd().cache_decision, CacheDecision::LeaveCopyDown);
  EXPECT_DOUBLE_EQ(no_cache().extra_budget_multiplier, 0.0);
}

TEST(NonVerifyingProxy, ServesContentWithoutMetadata) {
  // A proxy with verification off acts like a plain HTTP cache: it serves
  // (and caches) bodies from registered locations even without idICN
  // metadata — the legacy-interop posture.
  using namespace ::idicn::idicn;
  net::SimNet net;
  net::DnsService dns;
  NameResolutionSystem nrs(&dns);
  net.attach("nrs", &nrs);

  class BareHost : public net::SimHost {
  public:
    net::HttpResponse handle_http(const net::HttpRequest&,
                                  const net::Address&) override {
      return net::make_response(200, "no metadata here");
    }
  } bare;
  net.attach("bare.host", &bare);

  crypto::MerkleSigner signer(7, 3);
  const SelfCertifyingName name("plain", SelfCertifyingName::publisher_id(signer.root()));
  const auto signature = signer.sign(
      NameResolutionSystem::registration_signing_input(name, "bare.host"));
  ASSERT_EQ(nrs.register_name(name, "bare.host", signer.root(), signature),
            RegisterResult::Ok);

  Proxy::Options lax;
  lax.verify = false;
  Proxy proxy(&net, "cache", "nrs", &dns, lax);
  net.attach("cache", &proxy);

  net::HttpRequest request;
  request.method = "GET";
  request.target = "http://" + name.host() + "/";
  const net::HttpResponse first = proxy.handle_http(request, "c");
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.full_body(), "no metadata here");
  EXPECT_EQ(proxy.handle_http(request, "c").headers.get("X-Cache"), "HIT");
  EXPECT_EQ(proxy.stats().verification_failures, 0u);
}

TEST(Metrics, PopLatencyBreakdownSumsToTotal) {
  topology::HierarchicalNetwork network(topology::make_abilene(),
                                        topology::AccessTreeShape(2, 2));
  SyntheticWorkloadSpec spec;
  spec.request_count = 10'000;
  spec.object_count = 1'000;
  spec.seed = 5;
  const BoundWorkload workload = bind_synthetic(network, spec);
  const OriginMap origins(network, spec.object_count,
                          OriginAssignment::PopulationProportional, 77);
  const SimulationMetrics m =
      run_design(network, origins, edge(), SimulationConfig{}, workload);

  double latency_sum = 0.0;
  std::uint64_t request_sum = 0;
  for (topology::PopId pop = 0; pop < network.pop_count(); ++pop) {
    latency_sum += m.pop_latency[pop];
    request_sum += m.pop_requests[pop];
  }
  EXPECT_NEAR(latency_sum, m.total_latency, 1e-6);
  EXPECT_EQ(request_sum, m.request_count);
}

}  // namespace

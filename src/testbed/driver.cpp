#include "testbed/driver.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "runtime/http_client.hpp"

namespace idicn::testbed {
namespace {

/// Cap on TestbedMetrics::error_samples — enough to see a pattern.
constexpr std::size_t kMaxErrorSamples = 8;

}  // namespace

core::BoundWorkload TraceDriver::bind() const {
  core::SyntheticWorkloadSpec spec;
  spec.request_count = options_.request_count;
  spec.object_count = cluster_.options().object_count;
  spec.alpha = options_.alpha;
  spec.spatial_skew = options_.spatial_skew;
  spec.seed = options_.seed;
  return core::bind_synthetic(cluster_.network(), spec);
}

TestbedMetrics TraceDriver::run(const core::BoundWorkload& workload) {
  const topology::HierarchicalNetwork& network = cluster_.network();
  const topology::PopId pops = network.pop_count();

  TestbedMetrics metrics;
  metrics.scenario = cluster_.options().cooperation ? "EDGE-Coop" : "EDGE";
  metrics.topology = cluster_.options().topology;
  metrics.core_link_transfers.assign(network.core().link_count(), 0);
  metrics.pops.resize(pops);
  for (topology::PopId p = 0; p < pops; ++p) {
    metrics.pops[p].name = cluster_.pop_name(p);
  }

  // One keep-alive client per PoP, dialing that PoP's proxy — the "home
  // proxy" every request of the PoP flows through.
  std::vector<std::unique_ptr<runtime::HttpClient>> clients;
  clients.reserve(pops);
  for (topology::PopId p = 0; p < pops; ++p) {
    clients.push_back(std::make_unique<runtime::HttpClient>(
        "127.0.0.1", cluster_.proxy_port(p)));
  }

  // Ranged-read coin flips ride a private RNG so enabling them never
  // perturbs the workload binding itself.
  std::mt19937_64 range_rng(options_.seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const std::uint64_t object_bytes = cluster_.options().object_bytes;
  const std::uint64_t range_first = object_bytes / 3;
  const std::uint64_t range_last =
      std::max<std::uint64_t>(range_first, (2 * object_bytes) / 3);

  std::vector<topology::NodeId> path;  // core path of one response
  const auto run_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < workload.requests.size(); ++i) {
    if (options_.hint_interval != 0 && i != 0 &&
        i % options_.hint_interval == 0) {
      cluster_.exchange_hints();
    }

    const core::BoundRequest& bound = workload.requests[i];
    const std::string& host = cluster_.object_host(bound.object);
    net::HttpRequest request;
    request.method = "GET";
    request.target = "http://" + host + "/";

    const bool ranged = options_.ranged_fraction > 0.0 &&
                        coin(range_rng) < options_.ranged_fraction;
    if (ranged) {
      request.headers.set("Range", "bytes=" + std::to_string(range_first) +
                                       "-" + std::to_string(range_last));
      ++metrics.ranged_requests;
    }

    PopMetrics& pop = metrics.pops[bound.pop];
    ++pop.requests;
    ++metrics.request_count;

    const auto sent = std::chrono::steady_clock::now();
    std::string transport_error;
    const auto response = clients[bound.pop]->request(request, &transport_error);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - sent)
            .count();
    pop.wall_latency_ms += elapsed_ms;
    metrics.wall_latency_ms += elapsed_ms;

    if (!response || (response->status != 200 && response->status != 206)) {
      ++pop.errors;
      ++metrics.errors;
      if (metrics.error_samples.size() < kMaxErrorSamples) {
        metrics.error_samples.push_back(
            pop.name + " #" + std::to_string(i) + " " +
            (response ? "status " + std::to_string(response->status)
                      : transport_error));
      }
      continue;
    }
    if (ranged && response->status == 206) ++metrics.ranged_206;

    const std::string cache = response->headers.get("X-Cache").value_or("");
    if (cache == "HIT") {
      ++pop.hits;
      ++metrics.hits;
    } else if (cache == "STREAM") {
      ++pop.stream_joins;
      ++metrics.stream_joins;
    } else if (cache == "SIBLING") {
      ++pop.sibling_serves;
      ++metrics.sibling_serves;
    } else {
      ++pop.misses;
      ++metrics.misses;
    }

    // Model-unit accounting off the serving source: a response fetched
    // from another PoP (origin tier or sibling proxy) costs the core path
    // between the two PoPs; locally-served responses cost 0.
    if (const auto source = response->headers.get(idicn::kSourceHeader)) {
      const auto source_pop = cluster_.source_pop(*source);
      if (source_pop && *source_pop != bound.pop) {
        const double cost = network.core_cost(bound.pop, *source_pop);
        pop.core_cost += cost;
        metrics.core_cost += cost;
        network.core_paths().path(*source_pop, bound.pop, path);
        for (std::size_t hop = 0; hop + 1 < path.size(); ++hop) {
          const topology::LinkId link =
              network.core().link_between(path[hop], path[hop + 1]);
          ++metrics.core_link_transfers[link];
        }
      }
    }
  }
  metrics.duration_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - run_start)
                           .count();

  for (topology::PopId p = 0; p < pops; ++p) {
    const auto& stats = cluster_.proxy(p).stats();
    metrics.hints_sent += stats.hints_sent;
    metrics.hints_received += stats.hints_received;
  }
  const auto served = cluster_.origin_served_per_pop();
  for (topology::PopId p = 0; p < pops; ++p) {
    metrics.pops[p].origin_served = served[p];
    metrics.origin_served += served[p];
  }
  for (const std::uint64_t transfers : metrics.core_link_transfers) {
    metrics.max_link_transfers = std::max(metrics.max_link_transfers, transfers);
  }
  return metrics;
}

}  // namespace idicn::testbed

// Testbed cluster: an entire PoP topology as a real-socket deployment.
//
// Cluster instantiates one edge proxy (idicn::Proxy behind a
// runtime::ServerGroup) per PoP of a core topology (Abilene, Géant, …),
// a per-PoP reverse-proxy/origin tier, and a shared NRS — all talking TCP
// over loopback through one runtime::SocketNet. Link latency is modelled by
// wrapping each proxy's upstream transport in a net::FaultInjector with one
// Latency rule per destination, delayed by (core hops × ms_per_hop) — the
// same decorator the chaos harness uses, repurposed as a topology emulator.
//
// The deployment is constructed to be the exact socket-level counterpart of
// a simulator configuration, so its outputs can be diffed against
// core::Simulator numbers on the identical bound workload:
//   * counterpart network: each PoP carries an arity-1 depth-1 access tree
//     whose lone leaf is the edge proxy and whose root is the (cacheless)
//     PoP router; the leaf uplink costs 0 and core hops cost 1, so model
//     latency is pure core-hop distance;
//   * EDGE           = core::edge() (leaf caches, shortest path);
//   * EDGE-Coop      = core::edge() with Routing::NearestReplica — the
//     testbed's hint-fed redirect is the lagged, bounded version of that
//     oracle (see sibling_directory.hpp);
//   * origin tier: each PoP's reverse proxy serves the objects that PoP
//     owns under core::OriginMap, so per-PoP origin load is comparable;
//   * budgets: cache::compute_budget(Uniform) per leaf, converted to bytes.
//     Every object is exactly object_bytes long, so the proxy's
//     cache::LruCache, counting bytes, evicts object for object like the
//     simulator's, which counts objects.
// See comparison.hpp for the diff harness itself.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/budget.hpp"
#include "core/origin_map.hpp"
#include "crypto/lamport.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "net/dns.hpp"
#include "net/fault_injector.hpp"
#include "runtime/server_group.hpp"
#include "runtime/socket_net.hpp"
#include "testbed/sibling_directory.hpp"
#include "topology/network.hpp"

namespace idicn::testbed {

/// The simulation network a testbed deployment corresponds to: the named
/// core topology with an arity-1 depth-1 access tree per PoP (leaf = edge
/// proxy), zero-cost tree edges, unit core hops.
[[nodiscard]] topology::HierarchicalNetwork counterpart_network(
    std::string_view topology_name);

struct ClusterOptions {
  std::string topology = "Abilene";
  std::uint32_t object_count = 60;
  std::size_t object_bytes = 2048;
  /// Per-proxy capacity as a fraction of the object universe (the
  /// simulator's budget fraction F, split uniformly).
  double cache_fraction = 0.05;
  /// Wire the EDGE-Coop machinery (sibling directory + digest push). Off =
  /// plain EDGE: every miss goes to the origin tier.
  bool cooperation = true;
  /// Per-core-hop latency injected on proxy↔proxy and proxy↔origin-tier
  /// sends (0 = no injection; NRS resolution is always latency-free, the
  /// paper's conservatively-generous lookup assumption).
  std::uint64_t ms_per_hop = 0;
  std::uint64_t seed = 42;
};

/// How the catalog's objects are spread over the origin tier, both in the
/// cluster and in its simulator counterpart.
inline constexpr core::OriginAssignment kOriginAssignment =
    core::OriginAssignment::PopulationProportional;

/// The running deployment. Construction builds, publishes, and starts
/// everything (origin → NRS → reverse proxies → edge proxies); destruction
/// stops it in reverse. One Cluster per scenario — like core::Simulator,
/// cache state is not reusable across runs.
class Cluster {
public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] const ClusterOptions& options() const noexcept { return options_; }
  [[nodiscard]] const topology::HierarchicalNetwork& network() const noexcept {
    return network_;
  }
  [[nodiscard]] const core::OriginMap& origins() const noexcept { return origins_; }
  [[nodiscard]] topology::PopId pop_count() const noexcept {
    return network_.pop_count();
  }
  [[nodiscard]] const std::string& pop_name(topology::PopId pop) const {
    return network_.core().node(pop).name;
  }

  /// The TCP port PoP `pop`'s edge proxy listens on (clients dial
  /// 127.0.0.1:<port>).
  [[nodiscard]] std::uint16_t proxy_port(topology::PopId pop) const;
  /// The published self-certifying host of object `object`.
  [[nodiscard]] const std::string& object_host(std::uint32_t object) const {
    return object_hosts_.at(object);
  }

  [[nodiscard]] idicn::Proxy& proxy(topology::PopId pop) {
    return *proxies_.at(pop);
  }
  [[nodiscard]] ClusterDirectory& directory() noexcept { return directory_; }

  /// One full round of digest exchange: every proxy pushes its current
  /// content digest to every sibling (the trace driver calls this between
  /// request batches — the testbed's "periodic" hint timer).
  void exchange_hints();

  /// The PoP a response's X-IdICN-Source address belongs to (proxy or
  /// origin-tier addresses), if known.
  [[nodiscard]] std::optional<topology::PopId> source_pop(
      const net::Address& address) const;

  /// Requests served by each PoP's origin tier since the cluster started
  /// serving (publication traffic excluded).
  [[nodiscard]] std::vector<std::uint64_t> origin_served_per_pop() const;
  [[nodiscard]] std::uint64_t origin_served_total() const;

private:
  [[nodiscard]] static std::string proxy_address(topology::PopId pop);
  [[nodiscard]] static std::string rp_address(topology::PopId pop);
  [[nodiscard]] std::string object_body(std::uint32_t object) const;
  void publish_catalog();
  void start_proxies();

  ClusterOptions options_;
  topology::HierarchicalNetwork network_;
  core::OriginMap origins_;
  cache::BudgetPlan budget_;

  runtime::SocketNet net_;
  net::DnsService dns_;
  idicn::NameResolutionSystem nrs_{&dns_};
  idicn::OriginServer origin_;
  ClusterDirectory directory_;

  std::vector<std::unique_ptr<crypto::MerkleSigner>> signers_;
  std::vector<std::unique_ptr<idicn::ReverseProxy>> reverse_proxies_;
  std::vector<std::unique_ptr<net::FaultInjector>> injectors_;
  std::vector<std::unique_ptr<PopDirectoryView>> views_;
  std::vector<std::unique_ptr<idicn::Proxy>> proxies_;

  std::unique_ptr<runtime::ServerGroup> origin_server_;
  std::unique_ptr<runtime::ServerGroup> nrs_server_;
  std::vector<std::unique_ptr<runtime::ServerGroup>> rp_servers_;
  std::vector<std::unique_ptr<runtime::ServerGroup>> proxy_servers_;

  std::vector<std::string> object_hosts_;
  std::vector<std::uint64_t> rp_baseline_;  ///< origin-tier counters at start
  std::map<net::Address, topology::PopId> source_pops_;
};

}  // namespace idicn::testbed

#include "testbed/cluster.hpp"

#include <stdexcept>
#include <utility>

#include "topology/pop_topology.hpp"

namespace idicn::testbed {

namespace {

/// Socket knobs for a many-server loopback deployment: modest connect
/// timeouts (everything is local), default retry/breaker behavior.
runtime::SocketNet::Options testbed_net_options() {
  runtime::SocketNet::Options options;
  options.client.connect_timeout_ms = 2'000;
  options.client.io_timeout_ms = 15'000;
  return options;
}

/// ServerGroup worker threads per proxy. Upstream fetches park on the
/// worker's event loop rather than blocking it, so two workers are pure
/// serving parallelism (inbound sibling queries and hint POSTs keep
/// flowing even while one worker drains a burst).
constexpr std::size_t kWorkersPerPop = 2;

/// How long a proxy's cached copy stays fresh: long, so nothing is
/// revalidated mid-run.
constexpr std::uint64_t kFreshnessMs = 3'600'000;

}  // namespace

topology::HierarchicalNetwork counterpart_network(std::string_view topology_name) {
  // Arity-1 depth-1 trees: tree index 0 is the (cacheless) PoP router, tree
  // index 1 the lone leaf standing in for the PoP's edge proxy. The leaf
  // uplink costs 0 and core hops cost 1, so distance(leaf, leaf) across
  // PoPs equals the core hop count — the latency unit the testbed's
  // X-IdICN-Source accounting reports.
  return topology::HierarchicalNetwork(
      topology::make_topology(topology_name), topology::AccessTreeShape(1, 1),
      topology::LatencyModel{{0.0}, 1.0});
}

std::string Cluster::proxy_address(topology::PopId pop) {
  return "pop" + std::to_string(pop) + ".proxy.testbed";
}

std::string Cluster::rp_address(topology::PopId pop) {
  return "rp" + std::to_string(pop) + ".testbed";
}

std::string Cluster::object_body(std::uint32_t object) const {
  std::string body = "obj-" + std::to_string(object) + ":";
  body.resize(options_.object_bytes,
              static_cast<char>('a' + static_cast<char>(object % 26)));
  return body;
}

Cluster::Cluster(ClusterOptions options)
    : options_(std::move(options)),
      network_(counterpart_network(options_.topology)),
      origins_(network_, options_.object_count, kOriginAssignment,
               options_.seed),
      budget_(cache::compute_budget(network_, options_.cache_fraction,
                                    options_.object_count,
                                    cache::BudgetSplit::Uniform)),
      net_(testbed_net_options()),
      // The proxies keep their default digest bound; the directory
      // enforces the same bound per PoP.
      directory_(network_, idicn::Proxy::Options{}.max_hint_entries) {
  if (options_.object_bytes == 0) {
    throw std::invalid_argument("Cluster: object_bytes must be > 0");
  }

  // Shared tier first: the origin store and the NRS, each behind its own
  // single-worker server (resolution and publication volume are tiny next
  // to proxy traffic).
  origin_server_ =
      std::make_unique<runtime::ServerGroup>(&origin_, "origin.testbed");
  origin_server_->start();
  net_.register_endpoint(*origin_server_);
  nrs_server_ = std::make_unique<runtime::ServerGroup>(&nrs_, "nrs.testbed");
  nrs_server_->start();
  net_.register_endpoint(*nrs_server_);

  // Per-PoP origin tier: one reverse proxy + signer per PoP, sized so each
  // signer has one-time keys for its owned objects (publish consumes two
  // signatures per object: one for the content, one for the registration).
  const topology::PopId pops = network_.pop_count();
  const auto owned = origins_.objects_per_pop(pops);
  for (topology::PopId p = 0; p < pops; ++p) {
    unsigned height = 4;
    while ((1ull << height) < 2ull * owned[p] + 2) ++height;
    signers_.push_back(std::make_unique<crypto::MerkleSigner>(
        options_.seed + 17 * (p + 1), height));
    reverse_proxies_.push_back(std::make_unique<idicn::ReverseProxy>(
        &net_, rp_address(p), "origin.testbed", "nrs.testbed",
        signers_.back().get()));
  }

  publish_catalog();

  for (topology::PopId p = 0; p < pops; ++p) {
    rp_servers_.push_back(std::make_unique<runtime::ServerGroup>(
        reverse_proxies_[p].get(), rp_address(p)));
    rp_servers_.back()->start();
    net_.register_endpoint(*rp_servers_.back());
    source_pops_[rp_address(p)] = p;
  }

  start_proxies();

  // Serving starts here: snapshot the origin tier's counters so published
  // traffic (one origin fetch per object) never counts as origin load.
  rp_baseline_.resize(pops);
  for (topology::PopId p = 0; p < pops; ++p) {
    rp_baseline_[p] = reverse_proxies_[p]->cache_hits() +
                      reverse_proxies_[p]->origin_fetches();
  }
}

void Cluster::publish_catalog() {
  for (std::uint32_t object = 0; object < options_.object_count; ++object) {
    const topology::PopId pop = origins_.origin_pop(object);
    const std::string label = "obj-" + std::to_string(object);
    origin_.put(label, object_body(object));
    const auto name = reverse_proxies_[pop]->publish(label);
    if (!name) {
      throw std::runtime_error("Cluster: publishing " + label + " failed");
    }
    object_hosts_.push_back(name->host());
    directory_.set_origin(object_hosts_.back(), pop);
  }
}

void Cluster::start_proxies() {
  const topology::PopId pops = network_.pop_count();
  for (topology::PopId p = 0; p < pops; ++p) {
    // Each proxy's upstream transport: the shared SocketNet, behind a
    // per-proxy FaultInjector when topology latency is requested (rules are
    // per *destination*; the per-source view is what makes the delay a
    // function of the core path between the two PoPs).
    net::Transport* transport = &net_;
    if (options_.ms_per_hop > 0) {
      injectors_.push_back(std::make_unique<net::FaultInjector>(&net_));
      for (topology::PopId q = 0; q < pops; ++q) {
        const unsigned hops = network_.core_paths().hop_count(p, q);
        if (hops == 0) continue;
        net::FaultInjector::Rule rule;
        rule.kind = net::FaultInjector::FaultKind::Latency;
        rule.latency_ms = options_.ms_per_hop * hops;
        rule.to = rp_address(q);
        injectors_.back()->add_rule(rule);
        rule.to = proxy_address(q);
        injectors_.back()->add_rule(rule);
      }
      transport = injectors_.back().get();
    }

    idicn::Proxy::Options popt;
    popt.capacity_bytes =
        budget_.per_node[network_.leaf(p, 0)] * options_.object_bytes;
    popt.freshness_ms = kFreshnessMs;
    popt.verify = true;
    popt.pop_name = pop_name(p);
    proxies_.push_back(std::make_unique<idicn::Proxy>(
        transport, proxy_address(p), "nrs.testbed", &dns_, popt));
    directory_.set_address(p, proxy_address(p));
  }

  if (options_.cooperation) {
    for (topology::PopId p = 0; p < pops; ++p) {
      views_.push_back(std::make_unique<PopDirectoryView>(&directory_, p));
      proxies_[p]->set_sibling_directory(views_.back().get());
      for (topology::PopId q = 0; q < pops; ++q) {
        if (q != p) proxies_[p]->add_sibling(proxy_address(q));
      }
    }
  }

  runtime::ServerGroup::Options server_options;
  server_options.workers = kWorkersPerPop;
  for (topology::PopId p = 0; p < pops; ++p) {
    proxy_servers_.push_back(std::make_unique<runtime::ServerGroup>(
        proxies_[p].get(), proxy_address(p), server_options));
    proxy_servers_.back()->start();
    net_.register_endpoint(*proxy_servers_.back());
    source_pops_[proxy_address(p)] = p;
  }
}

Cluster::~Cluster() {
  // Edge tier first (it still fetches from the origin tier), shared tier
  // last — the reverse of construction.
  for (auto& server : proxy_servers_) server->stop();
  for (auto& server : rp_servers_) server->stop();
  if (nrs_server_) nrs_server_->stop();
  if (origin_server_) origin_server_->stop();
}

std::uint16_t Cluster::proxy_port(topology::PopId pop) const {
  return proxy_servers_.at(pop)->port();
}

void Cluster::exchange_hints() {
  for (auto& proxy : proxies_) proxy->push_hints();
}

std::optional<topology::PopId> Cluster::source_pop(
    const net::Address& address) const {
  const auto it = source_pops_.find(address);
  if (it == source_pops_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::uint64_t> Cluster::origin_served_per_pop() const {
  std::vector<std::uint64_t> served(network_.pop_count());
  for (topology::PopId p = 0; p < served.size(); ++p) {
    served[p] = reverse_proxies_[p]->cache_hits() +
                reverse_proxies_[p]->origin_fetches() - rp_baseline_[p];
  }
  return served;
}

std::uint64_t Cluster::origin_served_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t served : origin_served_per_pop()) total += served;
  return total;
}

}  // namespace idicn::testbed

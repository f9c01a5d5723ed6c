// idicn_serve: the §6 prototype on real TCP ports, for stock HTTP clients.
//
// Boots a complete single-AD idICN deployment in one process — consortium
// NRS, publisher origin + reverse proxy, and an AD edge proxy — each on
// its own loopback port behind a runtime::HostServer, publishes a few
// demo objects, and prints ready-to-paste curl commands.
//
// The edge proxy runs `workers` reactor threads (multi-reactor
// ServerGroup with a matching number of content-store lock stripes).
// SIGINT/SIGTERM triggers an ordered graceful shutdown: stop accepting,
// drain in-flight requests (bounded grace period), stop the workers.
//
// Usage: idicn_serve [proxy_port] [workers]
//   proxy_port  default 8642; 0 = ephemeral
//   workers     default $IDICN_SERVE_WORKERS or 1
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "runtime/host_server.hpp"
#include "runtime/socket_net.hpp"

namespace {
std::atomic<bool> interrupted{false};
void on_signal(int) { interrupted.store(true); }
}  // namespace

int main(int argc, char** argv) {
  using namespace idicn;
  using namespace ::idicn::idicn;

  std::uint16_t proxy_port = 8642;
  if (argc > 1) proxy_port = static_cast<std::uint16_t>(std::atoi(argv[1]));
  std::size_t workers = 1;
  if (const char* env = std::getenv("IDICN_SERVE_WORKERS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) workers = static_cast<std::size_t>(parsed);
  }
  if (argc > 2) {
    const int parsed = std::atoi(argv[2]);
    if (parsed > 0) workers = static_cast<std::size_t>(parsed);
  }

  runtime::SocketNet net;
  net::DnsService dns;
  crypto::MerkleSigner signer(20130812, 8);  // SIGCOMM'13 vintage seed
  NameResolutionSystem nrs(&dns);
  OriginServer origin;
  ReverseProxy reverse_proxy(&net, "rp.pub", "origin.pub", "nrs.consortium",
                             &signer);
  Proxy::Options proxy_options;
  proxy_options.cache_shards = workers;  // one lock stripe per reactor
  Proxy proxy(&net, "cache.ad1", "nrs.consortium", &dns, proxy_options);

  runtime::HostServer::Options server_options;
  server_options.workers = workers;

  runtime::HostServer nrs_server(&nrs, "nrs.consortium");
  runtime::HostServer origin_server(&origin, "origin.pub");
  runtime::HostServer rp_server(&reverse_proxy, "rp.pub");
  runtime::HostServer proxy_server(&proxy, "cache.ad1", server_options);
  try {
    nrs_server.start();
    origin_server.start();
    rp_server.start();
    proxy_server.start(proxy_port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "startup failed: %s\n", e.what());
    return 1;
  }
  net.register_endpoint(nrs_server);
  net.register_endpoint(origin_server);
  net.register_endpoint(rp_server);
  net.register_endpoint(proxy_server);

  // Publish demo content.
  struct Object {
    const char* label;
    const char* body;
  };
  const std::vector<Object> catalog = {
      {"hello", "Hello from an incrementally deployable ICN.\n"},
      {"paper", "Less pain, most of the gain. SIGCOMM 2013.\n"},
      {"readme", "Names are L.P.idicn.org; P certifies the publisher key.\n"},
  };
  std::vector<std::string> hosts;
  for (const auto& object : catalog) {
    // The servers are live: the origin and reverse proxy belong to their
    // worker threads, so publish on those threads via run_on_loop.
    origin_server.run_on_loop([&] { origin.put(object.label, object.body); });
    std::optional<SelfCertifyingName> name;
    rp_server.run_on_loop([&] { name = reverse_proxy.publish(object.label); });
    if (!name) {
      std::fprintf(stderr, "publish failed for %s\n", object.label);
      return 1;
    }
    hosts.push_back(name->host());
  }

  std::printf("idICN deployment is up (single AD, loopback):\n");
  std::printf("  NRS            127.0.0.1:%u\n", nrs_server.port());
  std::printf("  origin server  127.0.0.1:%u\n", origin_server.port());
  std::printf("  reverse proxy  127.0.0.1:%u\n", rp_server.port());
  std::printf("  edge proxy     127.0.0.1:%u   <- point your client here\n",
              proxy_server.port());
  std::printf("                 %zu worker(s)\n\n",
              proxy_server.worker_count());
  std::printf("Fetch by self-certifying name through the proxy:\n");
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    std::printf("  curl -x http://127.0.0.1:%u \"http://%s/\"   # %s\n",
                proxy_server.port(), hosts[i].c_str(), catalog[i].label);
  }
  std::printf(
      "\nRepeat a fetch and watch X-Cache flip MISS -> HIT (curl -v).\n"
      "Add -H \"X-IdICN-Want-Metadata: 1\" to receive the publisher key and\n"
      "one-time signature for end-to-end verification.\n"
      "Resolve a name directly against the NRS:\n"
      "  curl \"http://127.0.0.1:%u/resolve?name=%s\"\n\nCtrl-C to stop.\n",
      nrs_server.port(), hosts[0].c_str());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!interrupted.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  // Ordered graceful shutdown (ServerGroup::stop): each server stops
  // accepting, drains in-flight requests up to its drain deadline, then
  // stops and joins its workers — front of the chain first so upstream
  // servers stay reachable while the proxy drains.
  std::printf("\ndraining in-flight requests...\n");
  std::fflush(stdout);
  proxy_server.stop();
  rp_server.stop();
  origin_server.stop();
  nrs_server.stop();

  const auto stats = proxy_server.stats();
  std::printf("shut down cleanly: %llu connections, %llu requests served\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.requests_served));
  return 0;
}

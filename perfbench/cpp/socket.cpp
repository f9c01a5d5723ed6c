// hit-1k and miss-mixed: the §6 idICN stack on loopback under open-loop load.
//
// Deploys NRS, origin, two reverse proxies (one signer, so every object has
// one self-certifying name and two NRS location rows) and an edge proxy
// with nproc-2 workers, each behind its own runtime::HostServer. Proxy
// workers, the other servers and the load generator are pinned to
// disjoint CPUs. Traffic crosses the loopback interface only.
//
// One measurement = ten reference-rate windows (p50/p90 at a fixed rate
// well under the workload's capacity) plus an offered-rate ramp whose
// highest step that keeps up within the latency limit is max_rps. The traced
// run measures twice, with the tracing decorators off and then on; the
// per-layer metrics come from the first pass's counters and the second
// pass's spans, and the difference is the tracing overhead.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "crypto/lamport.hpp"
#include "crypto/sha256.hpp"
#include "idicn/metalink.hpp"
#include "idicn/nrs.hpp"
#include "idicn/origin_server.hpp"
#include "idicn/proxy.hpp"
#include "idicn/reverse_proxy.hpp"
#include "loadgen.hpp"
#include "net/dns.hpp"
#include "net/fault_injector.hpp"
#include "net/http_decoder.hpp"
#include "report.hpp"
#include "runtime/host_server.hpp"
#include "runtime/socket_net.hpp"
#include "tracing.hpp"
#include "workload/size_model.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace app = ::idicn::idicn;
namespace inet = ::idicn::net;
namespace rt = ::idicn::runtime;

struct Spec {
  std::size_t objects;
  bool mixed_sizes;          ///< lognormal sizes (else 1 KiB each)
  double capacity_fraction;  ///< proxy capacity / catalog bytes (0: no limit)
  double ref_rps;            ///< reference rate for p50/p90
  double ramp_start_rps;     ///< first step of the offered-rate ramp
  double limit_us;           ///< latency limit of a passing ramp step
  int ref_windows;
  double ref_window_s;
  double step_s;             ///< one ramp step: kSubWindows equal sub-windows
  CacheExpectation expect;
};

constexpr Spec kHit1k{256, false, 0.0, 25'000, 120'000, 1'000, 10, 0.5, 0.75,
                      CacheExpectation::AllHits};
constexpr Spec kMissMixed{512, true, 1.0 / 8.0, 350, 1'200, 25'000, 10, 0.8, 1.5,
                          CacheExpectation::Any};
constexpr double kRampFactor = 1.10;
constexpr int kSubWindows = 5;  ///< per ramp step; a majority must pass

// --- catalog --------------------------------------------------------------

struct Catalog {
  std::vector<std::string> labels;
  std::vector<std::string> bodies;
  std::uint64_t bytes = 0;
};

std::string seeded_bytes(std::uint64_t seed, std::size_t size) {
  std::string out(size, '\0');
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < size; i += 8) {
    state += 0x9e3779b97f4a7c15ULL;  // splitmix64
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    for (std::size_t b = 0; b < 8 && i + b < size; ++b) {
      out[i + b] = static_cast<char>((z >> (8 * b)) & 0xff);
    }
  }
  return out;
}

/// Inverse error function (Giles' single-precision approximation, refined
/// by two Newton steps), for lognormal quantiles.
double inverse_erf(double x) {
  const double w0 = -std::log((1.0 - x) * (1.0 + x));
  double p = 0.0;
  if (w0 < 5.0) {
    const double w = w0 - 2.5;
    p = 2.81022636e-08;
    for (const double c : {3.43273939e-07, -3.5233877e-06, -4.39150654e-06, 0.00021858087,
                           -0.00125372503, -0.00417768164, 0.246640727, 1.50140941}) {
      p = c + p * w;
    }
  } else {
    const double w = std::sqrt(w0) - 3.0;
    p = -0.000200214257;
    for (const double c : {0.000100950558, 0.00134934322, -0.00367342844, 0.00573950773,
                           -0.0076224613, 0.00943887047, 1.00167406, 2.83297682}) {
      p = c + p * w;
    }
  }
  double y = p * x;
  for (int i = 0; i < 2; ++i) {
    y -= (std::erf(y) - x) / (2.0 / std::sqrt(M_PI) * std::exp(-y * y));
  }
  return y;
}

Catalog make_catalog(const Spec& spec, std::uint64_t seed) {
  Catalog catalog;
  std::vector<std::size_t> sizes(spec.objects, 1024);
  if (spec.mixed_sizes) {
    // Lognormal sizes (sigma 1, as workload::SizeModel) taken at evenly
    // spaced quantiles and rescaled to a 16 KiB mean, so every seed serves
    // the same multiset of sizes; the seed decides which object gets which.
    // The largest is raised past the decoder's 256 KiB body slab.
    const double mu = std::log(16.0 * 1024) - 0.5;
    double total = 0.0;
    std::vector<double> drawn;
    for (std::size_t i = 0; i < spec.objects; ++i) {
      const double q = (static_cast<double>(i) + 0.5) / static_cast<double>(spec.objects);
      drawn.push_back(std::exp(mu + std::sqrt(2.0) * inverse_erf(2.0 * q - 1.0)));
      total += drawn.back();
    }
    const double scale = static_cast<double>(spec.objects) * 16.0 * 1024 / total;
    for (std::size_t i = 0; i < spec.objects; ++i) {
      sizes[i] = std::max<std::size_t>(1, static_cast<std::size_t>(drawn[i] * scale));
    }
    sizes.back() = std::max<std::size_t>(sizes.back(), 320 * 1024);
    std::mt19937_64 rng(seed ^ 0x51e5ULL);
    std::shuffle(sizes.begin(), sizes.end(), rng);
  }
  for (std::size_t i = 0; i < spec.objects; ++i) {
    catalog.labels.push_back("obj-" + std::to_string(i));
    catalog.bodies.push_back(seeded_bytes(seed * 1'000'003ULL + i, sizes[i]));
    catalog.bytes += sizes[i];
  }
  return catalog;
}

std::string get_request(const std::string& host) {
  return "GET http://" + host + "/ HTTP/1.1\r\nHost: " + host + "\r\n\r\n";
}

// --- CPU plan ---------------------------------------------------------------

struct CpuPlan {
  std::vector<int> proxy;  ///< one per proxy worker
  int others = 0;          ///< NRS, origin, reverse proxies
  int generator = 0;       ///< load generator (this thread)
};

CpuPlan plan_cpus() {
  std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) cpus.push_back(0);
  CpuPlan plan;
  plan.generator = cpus.back();
  const std::size_t n = cpus.size();
  if (n >= 3) {
    plan.others = cpus[n - 2];
    plan.proxy.assign(cpus.begin(), cpus.end() - 2);
  } else {
    plan.others = cpus.front();
    plan.proxy.push_back(cpus.front());
  }
  return plan;
}

std::string cpu_list(const std::vector<int>& cpus) {
  std::string out;
  for (const int cpu : cpus) out += (out.empty() ? "" : ",") + std::to_string(cpu);
  return out;
}

// --- the deployed stack ---------------------------------------------------

class Stack {
 public:
  Stack(const Spec& spec, const Catalog& catalog, std::uint64_t seed, const CpuPlan& cpus,
        Tracer* tracer, bool fault_injection, std::size_t spare_objects)
  {
    inet::Transport* upstream = &net;
    if (fault_injection) {
      faults = std::make_unique<inet::FaultInjector>(upstream);
      upstream = faults.get();
    }
    if (tracer != nullptr) {
      timed_upstream = std::make_unique<TimingTransport>(upstream, tracer);
      upstream = timed_upstream.get();
      for (const char* to : {"nrs.consortium", "rp.pub", "rp2.pub", "origin.pub"}) {
        tracer->layer(std::string("up:") + to);
      }
    }

    // Each object is published on two replicas; each publish burns two
    // one-time keys (content signature + NRS registration).
    const std::size_t keys = 4 * (catalog.labels.size() + spare_objects);
    unsigned height = 1;
    while ((std::size_t{1} << height) < keys) ++height;
    const auto keygen_start = Clock::now();
    signer = std::make_unique<::idicn::crypto::MerkleSigner>(seed ^ 0xbe9cULL, height);
    keygen_s = seconds_since(keygen_start);

    nrs = std::make_unique<app::NameResolutionSystem>(&dns);
    rp1 = std::make_unique<app::ReverseProxy>(&net, "rp.pub", "origin.pub",
                                              "nrs.consortium", signer.get());
    rp2 = std::make_unique<app::ReverseProxy>(&net, "rp2.pub", "origin.pub",
                                              "nrs.consortium", signer.get());
    app::Proxy::Options options;
    options.cache_shards = cpus.proxy.size();
    options.capacity_bytes = spec.capacity_fraction > 0.0
                                 ? static_cast<std::uint64_t>(
                                       static_cast<double>(catalog.bytes) *
                                       spec.capacity_fraction)
                                 : catalog.bytes * 4 + (1u << 20);
    proxy = std::make_unique<app::Proxy>(upstream, "cache.ad1", "nrs.consortium", &dns,
                                         options);

    const auto host_for = [&](inet::SimHost* host, const std::string& name) {
      if (tracer == nullptr) return host;
      timing_hosts.push_back(std::make_unique<TimingHost>(host, tracer, name));
      return static_cast<inet::SimHost*>(timing_hosts.back().get());
    };
    nrs_server = start(host_for(nrs.get(), "nrs"), "nrs.consortium", 1, {cpus.others});
    origin_server = start(host_for(&origin, "origin"), "origin.pub", 1, {cpus.others});
    rp1_server = start(host_for(rp1.get(), "rp"), "rp.pub", 1, {cpus.others});
    rp2_server = start(host_for(rp2.get(), "rp2"), "rp2.pub", 1, {cpus.others});
    const auto before = list_tasks();
    proxy_server = start(host_for(proxy.get(), "proxy"), "cache.ad1", cpus.proxy.size(),
                         cpus.proxy);
    for (const int tid : list_tasks()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) proxy_tids.push_back(tid);
    }

    for (std::size_t i = 0; i < catalog.labels.size(); ++i) {
      const auto host = publish(catalog.labels[i], catalog.bodies[i]);
      if (!host) throw std::runtime_error("publishing " + catalog.labels[i] + " failed");
      objects.push_back(CatalogObject{get_request(*host), catalog.bodies[i]});
      hosts.push_back(*host);
    }
  }

  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Publish `body` under `label` on both reverse proxies; the name's host.
  std::optional<std::string> publish(const std::string& label, const std::string& body) {
    origin_server->run_on_loop([&] { origin.put(label, body); });
    std::optional<app::SelfCertifyingName> name, twin;
    rp1_server->run_on_loop([&] { name = rp1->publish(label); });
    rp2_server->run_on_loop([&] { twin = rp2->publish(label); });
    if (!name || !twin || name->flat() != twin->flat()) return std::nullopt;
    return name->host();
  }

  void stop() {
    for (auto* server : {proxy_server.get(), rp2_server.get(), rp1_server.get(),
                         origin_server.get(), nrs_server.get()}) {
      if (server != nullptr) server->stop();
    }
  }

  rt::SocketNet net;
  std::unique_ptr<inet::FaultInjector> faults;
  std::unique_ptr<TimingTransport> timed_upstream;
  inet::DnsService dns;
  std::unique_ptr<::idicn::crypto::MerkleSigner> signer;
  double keygen_s = 0.0;
  std::unique_ptr<app::NameResolutionSystem> nrs;
  app::OriginServer origin;
  std::unique_ptr<app::ReverseProxy> rp1, rp2;
  std::unique_ptr<app::Proxy> proxy;
  std::vector<std::unique_ptr<TimingHost>> timing_hosts;
  std::unique_ptr<rt::HostServer> nrs_server, origin_server, rp1_server, rp2_server,
      proxy_server;
  std::vector<int> proxy_tids;
  std::vector<CatalogObject> objects;  ///< what the generator asks for and expects
  std::vector<std::string> hosts;

 private:
  /// Start a server and pin its new worker threads.
  std::unique_ptr<rt::HostServer> start(inet::SimHost* host, const std::string& address,
                                        std::size_t workers, const std::vector<int>& cpus) {
    rt::HostServer::Options options;
    options.workers = workers;
    auto server = std::make_unique<rt::HostServer>(host, address, options);
    const auto before = list_tasks();
    server->start();
    std::size_t next = 0;
    for (const int tid : list_tasks()) {
      if (std::binary_search(before.begin(), before.end(), tid)) continue;
      pin_thread(tid, cpus[next++ % cpus.size()]);
    }
    net.register_endpoint(*server);
    return server;
  }

};

// --- open-loop measurement ---------------------------------------------------

/// Server-side counters sampled around the reference windows.
struct Counters {
  std::vector<TaskSample> tasks;
  std::vector<std::uint64_t> worker_served;
  rt::ServerGroup::Stats server;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  std::uint64_t attempts = 0, hedges = 0;
  std::uint64_t upstream_sends = 0, proof_bytes = 0;
};

Counters sample_counters(Stack& stack, const Tracer* tracer) {
  Counters c;
  std::vector<int> tids = list_tasks();
  c.tasks = sample_tasks(tids);
  for (std::size_t w = 0; w < stack.proxy_server->worker_count(); ++w) {
    c.worker_served.push_back(stack.proxy_server->worker_stats(w).requests_served);
  }
  c.server = stack.proxy_server->stats();
  const auto& stats = stack.proxy->stats();
  c.hits = stats.hits.value();
  c.misses = stats.misses.value();
  c.evictions = stats.evictions.value();
  const auto& fetch = stack.proxy->fetcher().stats();
  c.attempts = fetch.fetches.value() + fetch.hedges_sent.value() +
               fetch.source_failovers.value() + fetch.range_failovers.value();
  c.hedges = fetch.hedges_sent.value();
  if (tracer != nullptr) {
    c.upstream_sends = tracer->upstream_sends.load();
    c.proof_bytes = tracer->proof_bytes.load();
  }
  return c;
}

struct Totals {
  std::uint64_t server_cpu_ns = 0, proxy_cpu_ns = 0, proxy_switches = 0;
  std::vector<std::uint64_t> worker_served;
  std::uint64_t requests = 0, bytes_out = 0;
  std::uint64_t hits = 0, misses = 0, evictions = 0, attempts = 0, hedges = 0;
  std::uint64_t upstream_sends = 0, proof_bytes = 0;
  std::uint64_t generated = 0;  ///< requests the generator completed

  /// Fold in the deltas between two samples; `benchmark_tids` (generator,
  /// pollers) are not server threads.
  void add(const Counters& a, const Counters& b, const std::vector<int>& proxy_tids,
           const std::vector<int>& benchmark_tids) {
    for (const TaskSample& end : b.tasks) {
      const auto start = std::find_if(a.tasks.begin(), a.tasks.end(),
                                      [&](const TaskSample& s) { return s.tid == end.tid; });
      if (start == a.tasks.end() ||
          std::find(benchmark_tids.begin(), benchmark_tids.end(), end.tid) !=
              benchmark_tids.end()) {
        continue;
      }
      const std::uint64_t cpu = end.cpu_ns - start->cpu_ns;
      server_cpu_ns += cpu;
      if (std::find(proxy_tids.begin(), proxy_tids.end(), end.tid) != proxy_tids.end()) {
        proxy_cpu_ns += cpu;
        proxy_switches += end.voluntary_switches - start->voluntary_switches;
      }
    }
    worker_served.resize(b.worker_served.size(), 0);
    for (std::size_t w = 0; w < b.worker_served.size(); ++w) {
      worker_served[w] += b.worker_served[w] - a.worker_served[w];
    }
    requests += b.server.requests_served - a.server.requests_served;
    bytes_out += b.server.bytes_out - a.server.bytes_out;
    hits += b.hits - a.hits;
    misses += b.misses - a.misses;
    evictions += b.evictions - a.evictions;
    attempts += b.attempts - a.attempts;
    hedges += b.hedges - a.hedges;
    upstream_sends += b.upstream_sends - a.upstream_sends;
    proof_bytes += b.proof_bytes - a.proof_bytes;
  }
};

struct E2E {
  double max_rps = 0.0;
  double p50_us = 0.0, p90_us = 0.0, p99_us = 0.0;
  std::size_t ref_samples = 0;
  double late_p99_us = 0.0;
  /// Peak RSS when the reference windows end: what serving the workload
  /// costs, before the ramp's deliberate overload queues requests.
  double peak_rss_mb = 0.0;
  std::size_t backlog_max = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t hits = 0, misses = 0, streams = 0;
  std::uint64_t refused = 0;  ///< 5xx answers, all during ramp steps
  Totals totals;
};

/// Fold a step into the totals. Wrong answers always fail the run; 5xx
/// refusals fail it only where the rate is not a deliberate overload probe.
void account(const StepResult& step, bool ramp, E2E& e2e, Report& report) {
  e2e.attempted += step.sent;
  e2e.failed += step.failed + (ramp ? 0 : step.refused);
  e2e.refused += step.refused;
  if (step.refused > 0 && !ramp) {
    report.check(false, "reference window: " + std::to_string(step.refused) +
                            " refused requests, first: " + step.first_error);
  }
  e2e.hits += step.hits;
  e2e.misses += step.misses;
  e2e.streams += step.streams;
  if (step.failed > 0) {
    report.check(false, "step at " + std::to_string(static_cast<long>(step.offered_rps)) +
                            " req/s: " + std::to_string(step.failed) +
                            " failed responses, first: " + step.first_error);
  }
}

E2E measure(Stack& stack, LoadGenerator& gen, const Spec& spec, double budget_s,
            std::mt19937_64& rng, const Tracer* tracer, const std::vector<int>& benchmark_tids,
            Report& report) {
  E2E e2e;
  const auto start = Clock::now();
  const double drain_s = 1.0 + 4.0 * spec.limit_us / 1e6;

  // Reference windows: latency at a fixed rate, plus the server-side counters.
  std::vector<double> p50s, late, pooled;
  for (int w = 0; w < spec.ref_windows; ++w) {
    const Counters before = sample_counters(stack, tracer);
    StepResult step = gen.run(spec.ref_rps, spec.ref_window_s, drain_s, rng);
    const Counters after = sample_counters(stack, tracer);
    e2e.totals.add(before, after, stack.proxy_tids, benchmark_tids);
    e2e.totals.generated += step.completed + step.failed + step.refused;
    account(step, false, e2e, report);
    e2e.ref_samples += step.latency_us.size();
    e2e.backlog_max = std::max(e2e.backlog_max, step.backlog_max);
    late.insert(late.end(), step.late_us.begin(), step.late_us.end());
    pooled.insert(pooled.end(), step.latency_us.begin(), step.latency_us.end());
    p50s.push_back(percentile(step.latency_us, 0.50));
  }
  // The median of the windows' medians shrugs off a window the host
  // stalled; the (ungated) tail is taken over all samples.
  e2e.p50_us = median(p50s);
  e2e.p90_us = percentile(pooled, 0.90);
  e2e.p99_us = percentile(pooled, 0.99);
  e2e.late_p99_us = percentile(late, 0.99);
  e2e.peak_rss_mb = peak_rss_mb();

  // Offered-rate ramp: geometric steps up from ramp_start_rps (down first
  // if that already fails), one more step after the first failure, then
  // two bisections between the highest pass and the lowest failure. A
  // sub-window passes when every request is answered, the backlog left
  // when it closes is under one latency limit's worth of arrivals (it is
  // not growing) and the median stays inside the limit; a step passes when
  // most of its sub-windows do. The median, not the p99: on a shared host
  // the p99 at every rate is set by how long the host deschedules a
  // virtual CPU (see runtime.p99_us), not by the server's capacity.
  struct Outcome {
    bool pass = false;
    double achieved_rps = 0.0;
  };
  const auto run_step = [&](double rate) {
    Outcome outcome;
    int passed = 0;
    std::uint64_t completed = 0;
    for (int k = 0; k < kSubWindows; ++k) {
      StepResult step = gen.run(rate, spec.step_s / kSubWindows, drain_s, rng);
      account(step, true, e2e, report);
      completed += step.completed;
      const double backlog_bound = rate * spec.limit_us / 1e6;
      if (step.failed == 0 && step.refused == 0 && step.completed == step.sent &&
          static_cast<double>(step.backlog_end) <= std::max(16.0, backlog_bound) &&
          percentile(step.latency_us, 0.50) <= spec.limit_us) {
        ++passed;
      }
    }
    outcome.pass = 2 * passed > kSubWindows;
    outcome.achieved_rps = static_cast<double>(completed) / spec.step_s;
    return outcome;
  };
  const auto time_left = [&] { return budget_s - seconds_since(start) >= spec.step_s; };
  double highest_pass = 0.0, pass_rps = 0.0, lowest_fail = 0.0;
  double rate = spec.ramp_start_rps;
  int failures_above = 0;  // consecutive failures above the highest pass
  while (time_left() && failures_above < 2) {
    const Outcome step = run_step(rate);
    const bool descending = highest_pass == 0.0 && lowest_fail > 0.0;
    if (step.pass) {
      if (rate > highest_pass) {
        highest_pass = rate;
        pass_rps = step.achieved_rps;
      }
      if (descending) break;  // found a passing rate below the start
      if (rate >= lowest_fail) lowest_fail = 0.0;  // that failure was noise
      failures_above = 0;
      rate *= kRampFactor;
    } else if (highest_pass == 0.0) {
      lowest_fail = rate;
      rate /= kRampFactor;
      if (rate < spec.ref_rps / 2) break;
    } else {
      if (lowest_fail == 0.0 || rate < lowest_fail) lowest_fail = rate;
      ++failures_above;
      rate *= kRampFactor;
    }
  }
  for (int i = 0; i < 2 && highest_pass > 0.0 && lowest_fail > highest_pass && time_left();
       ++i) {
    const double mid = std::sqrt(highest_pass * lowest_fail);
    const Outcome step = run_step(mid);
    if (step.pass) {
      highest_pass = mid;
      pass_rps = step.achieved_rps;
    } else {
      lowest_fail = mid;
    }
  }
  e2e.max_rps = pass_rps;
  std::printf("    ref %.0f req/s: p50 %.1f us, p90 %.1f us, p99 %.1f us (%zu samples), "
              "late p99 %.1f us; max_rps %.0f (offered %.0f, first failing %.0f)\n",
              spec.ref_rps, e2e.p50_us, e2e.p90_us, e2e.p99_us, e2e.ref_samples,
              e2e.late_p99_us, e2e.max_rps, highest_pass, lowest_fail);
  return e2e;
}

/// Spread pipelined keep-alive connections evenly over the proxy's
/// workers: a probe request on each fresh connection shows (through the
/// per-worker counters) which worker accepted it; surplus ones are closed.
void connect_cover(LoadGenerator& gen, Stack& stack, std::size_t count, Report& report) {
  const std::size_t workers = stack.proxy_server->worker_count();
  const std::size_t per_worker = std::max<std::size_t>(1, count / workers);
  std::vector<std::size_t> owned(workers, 0);
  std::size_t kept = 0;
  for (int attempt = 0; attempt < 256 && kept < per_worker * workers; ++attempt) {
    std::vector<std::uint64_t> before;
    for (std::size_t w = 0; w < workers; ++w) {
      before.push_back(stack.proxy_server->worker_stats(w).requests_served);
    }
    const std::size_t index = gen.connect(stack.proxy_server->port());
    if (gen.probe(index, 0).completed != 1) {
      gen.close(index);
      continue;
    }
    std::size_t worker = workers;
    for (std::size_t w = 0; w < workers; ++w) {
      if (stack.proxy_server->worker_stats(w).requests_served != before[w]) worker = w;
    }
    if (worker < workers && owned[worker] < per_worker) {
      ++owned[worker];
      ++kept;
    } else {
      gen.close(index);
    }
  }
  report.check(kept == per_worker * workers,
               "could not spread " + std::to_string(per_worker * workers) +
                   " connections over " + std::to_string(workers) + " proxy workers");
}

// --- direct layer timings ------------------------------------------------------

/// Nanoseconds per call of `fn`: median of five runs of at least 20 ms.
template <typename Fn>
double ns_per_call(Fn&& fn) {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    std::size_t calls = 0;
    std::size_t batch = 1;
    const auto start = Clock::now();
    do {
      for (std::size_t i = 0; i < batch; ++i) fn();
      calls += batch;
      batch *= 2;
    } while (seconds_since(start) < 0.02);
    runs.push_back(seconds_since(start) * 1e9 / static_cast<double>(calls));
  }
  return median(runs);
}

void layer_timings(Stack& stack, const Catalog& catalog, Report& report) {
  // The smallest object, so it is admitted (and then HIT) on every workload.
  std::size_t object = 0;
  for (std::size_t i = 1; i < catalog.bodies.size(); ++i) {
    if (catalog.bodies[i].size() < catalog.bodies[object].size()) object = i;
  }
  const std::string& request_text = stack.objects[object].request;
  const auto request = inet::parse_request(request_text);
  report.check(request.has_value(), "the workload's request does not parse");
  if (!request) return;

  // net: request decode over the workload's own request bytes.
  std::string pipelined;
  for (int i = 0; i < 64; ++i) pipelined += request_text;
  std::size_t decoded = 0;
  const double decode_ns = ns_per_call([&] {
    inet::HttpDecoder decoder(inet::HttpDecoder::Mode::Request);
    decoder.feed(pipelined);
    while (decoder.next_request()) ++decoded;
  });
  report.check(decoded % 64 == 0, "HttpDecoder lost pipelined requests");
  report.set("net.request_decode_ns", decode_ns / 64.0, "ns");

  // net: head serialization of a captured HIT response.
  inet::HttpResponse hit = stack.proxy->handle_http(*request, "perfbench");
  hit = stack.proxy->handle_http(*request, "perfbench");
  report.check(hit.status == 200 && hit.headers.get("X-Cache") == std::string("HIT"),
               "captured proxy response is not a HIT");
  std::size_t head_bytes = 0;
  report.set("net.response_head_serialize_ns",
             ns_per_call([&] { head_bytes += hit.serialize_head().size(); }), "ns");

  // An upstream reply as the proxy receives it: proof requested.
  inet::HttpRequest fetch;
  fetch.target = "/";
  fetch.headers.set("Host", stack.hosts[object]);
  fetch.headers.set(app::kWantMetadataHeader, "1");
  const inet::HttpResponse reply = stack.net.send("perfbench", "rp.pub", fetch);
  report.check(reply.status == 200, "reverse proxy refused the captured fetch");
  const std::string wire = reply.serialize();
  const double upstream_ns = ns_per_call([&] {
    inet::HttpDecoder decoder(inet::HttpDecoder::Mode::Response);
    decoder.feed(wire);
    if (!decoder.next_response()) std::abort();
  });
  report.set("net.upstream_decode_us", upstream_ns / 1e3, "us");

  // crypto, on the metadata captured above.
  const auto metadata = app::ContentMetadata::from_headers(reply.headers);
  report.check(metadata.has_value(), "captured reply carries no idICN metadata");
  if (!metadata) return;
  report.check(app::verify_content(*metadata, reply.full_body()) == app::VerifyResult::Ok,
               "captured reply does not verify");
  report.set("crypto.metadata_parse_us", ns_per_call([&] {
               if (!app::ContentMetadata::from_headers(reply.headers)) std::abort();
             }) / 1e3,
             "us");
  const std::string message = metadata->signing_input();
  report.set("crypto.verify_us", ns_per_call([&] {
               if (!::idicn::crypto::MerkleSigner::verify(metadata->publisher_key, message,
                                                          metadata->signature)) {
                 std::abort();
               }
             }) / 1e3,
             "us");
  std::size_t encoded = 0;
  report.set("crypto.signature_encode_us",
             ns_per_call([&] { encoded += metadata->signature.encode().size(); }) / 1e3, "us");
  std::string mib;
  for (std::size_t i = 0; mib.size() < (1u << 20); i = (i + 1) % catalog.bodies.size()) {
    mib += catalog.bodies[i];
  }
  mib.resize(1u << 20);
  const double hash_ns = ns_per_call([&] {
    const auto digest = ::idicn::crypto::Sha256::hash(std::string_view(mib));
    encoded += digest[0];
  });
  report.set("crypto.sha256_mb_per_s", static_cast<double>(mib.size()) / hash_ns * 1e3,
             "MB/s");
}

// --- span analysis ---------------------------------------------------------------

void span_metrics(const Tracer& tracer, Report& report) {
  const std::vector<Span> spans = tracer.collect();
  const auto& names = tracer.layer_names();
  const auto layer_is = [&](const Span& s, std::initializer_list<const char*> wanted) {
    for (const char* name : wanted) {
      if (names[s.layer] == name) return true;
    }
    return false;
  };
  const auto us = [](const Span& s) { return static_cast<double>(s.end_ns - s.start_ns) / 1e3; };
  std::vector<double> hit, miss, nrs, rp_fetch, rp_service, miss_self;
  std::vector<const Span*> upstream;
  for (const Span& s : spans) {
    if (layer_is(s, {"proxy"}) && s.mark == kHit) hit.push_back(us(s));
    if (layer_is(s, {"proxy"}) && s.mark == kMiss) miss.push_back(us(s));
    if (layer_is(s, {"up:nrs.consortium"})) nrs.push_back(us(s));
    if (layer_is(s, {"up:rp.pub", "up:rp2.pub"})) rp_fetch.push_back(us(s));
    if (layer_is(s, {"rp", "rp2"})) rp_service.push_back(us(s));
    if (names[s.layer].rfind("up:", 0) == 0) upstream.push_back(&s);
  }
  // Self time of a MISS: its span minus the union of the upstream spans its
  // worker started for the same object inside it.
  std::sort(upstream.begin(), upstream.end(), [](const Span* a, const Span* b) {
    return std::tie(a->thread, a->object, a->start_ns) <
           std::tie(b->thread, b->object, b->start_ns);
  });
  for (const Span& s : spans) {
    if (!layer_is(s, {"proxy"}) || s.mark != kMiss || s.object == 0) continue;
    Span key;
    key.thread = s.thread;
    key.object = s.object;
    key.start_ns = s.start_ns;
    auto it = std::lower_bound(upstream.begin(), upstream.end(), &key,
                               [](const Span* a, const Span* b) {
                                 return std::tie(a->thread, a->object, a->start_ns) <
                                        std::tie(b->thread, b->object, b->start_ns);
                               });
    std::uint64_t covered = 0, cursor = s.start_ns;
    for (; it != upstream.end() && (*it)->thread == s.thread && (*it)->object == s.object &&
           (*it)->start_ns <= s.end_ns;
         ++it) {
      const std::uint64_t from = std::max(cursor, (*it)->start_ns);
      const std::uint64_t to = std::min(s.end_ns, (*it)->end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    miss_self.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  report.set("idicn.proxy_hit_us", median(hit), "us");
  report.set("idicn.proxy_miss_p50_us", percentile(miss, 0.50), "us");
  report.set("idicn.proxy_miss_p99_us", percentile(miss, 0.99), "us");
  report.set("idicn.nrs_rtt_us", median(nrs), "us");
  report.set("idicn.rp_fetch_us", median(rp_fetch), "us");
  report.set("idicn.rp_service_us", median(rp_service), "us");
  report.set("idicn.proxy_miss_self_us", median(miss_self), "us");
  std::printf("  spans: %zu total, %zu HIT, %zu MISS, %zu upstream\n", spans.size(),
              hit.size(), miss.size(), upstream.size());
}

double ratio(std::uint64_t part, std::uint64_t base) {
  return base ? static_cast<double>(part) / static_cast<double>(base) : 0.0;
}

void counter_metrics(const E2E& e2e, Report& report) {
  const Totals& t = e2e.totals;
  report.set("runtime.server_cpu_us_per_req", ratio(t.server_cpu_ns, t.generated) / 1e3,
             "us");
  report.set("runtime.proxy_cpu_us_per_req", ratio(t.proxy_cpu_ns, t.generated) / 1e3, "us");
  report.set("runtime.proxy_ctx_switches_per_req", ratio(t.proxy_switches, t.generated),
             "count");
  report.set("runtime.wire_bytes_per_resp", ratio(t.bytes_out, t.requests), "B");
  report.set("runtime.fetch_attempts_per_miss", ratio(t.attempts, t.misses), "count");
  report.set("runtime.hedges_per_miss", ratio(t.hedges, t.misses), "count");
  report.set("idicn.hit_ratio", ratio(t.hits, t.hits + t.misses), "ratio");
  report.set("idicn.evictions_per_req", ratio(t.evictions, t.requests), "count");
  report.set("idicn.upstream_sends_per_miss", ratio(t.upstream_sends, t.misses), "count");
  report.set("idicn.proof_bytes_per_miss", ratio(t.proof_bytes, t.misses), "B");
  report.set("runtime.gen_late_p99_us", e2e.late_p99_us, "us");
  report.set("runtime.backlog_max", static_cast<double>(e2e.backlog_max), "count");
}

double worker_share_min(const Totals& totals) {
  if (totals.worker_served.empty()) return 0.0;
  std::uint64_t sum = 0;
  for (const auto served : totals.worker_served) sum += served;
  const double even = static_cast<double>(sum) / static_cast<double>(totals.worker_served.size());
  double low = 1e300;
  for (const auto served : totals.worker_served) {
    low = std::min(low, static_cast<double>(served) / even);
  }
  return even > 0.0 ? low : 0.0;
}

/// The generator's own ceiling: the same connection count against a
/// server that answers instantly with a canned 1 KiB HIT.
double generator_ceiling(const CpuPlan& cpus, std::size_t connections, std::uint64_t seed) {
  const std::string body = seeded_bytes(seed, 1024);
  std::vector<CatalogObject> canned{
      CatalogObject{get_request("canned.idicn.org"), body}};
  CannedServer server("HTTP/1.1 200 OK\r\nContent-Length: 1024\r\nX-Cache: HIT\r\n\r\n" + body);
  LoadGenerator gen(&canned, CacheExpectation::AllHits);
  for (std::size_t i = 0; i < connections; ++i) gen.connect(server.port());
  server.serve(connections, cpus.proxy);
  std::mt19937_64 rng(seed);
  const StepResult step = gen.run(0.0, 0.5, 1.0, rng, 64 * connections);
  server.stop();
  return step.failed == 0 ? step.achieved_rps : 0.0;
}

/// Corrupt every replica of one fresh object: the proxy must refuse the
/// body (the generator counts an error), then serve it intact once the
/// replicas are healthy again.
void corrupt_replica_check(Stack& stack, Report& report, std::uint64_t seed) {
  const std::string body = seeded_bytes(seed ^ 0xbadULL, 4096);
  const auto host = stack.publish("corrupt-probe", body);
  report.check(host.has_value(), "publishing the corrupt-probe object failed");
  if (!host) return;
  std::vector<CatalogObject> probe_catalog{CatalogObject{get_request(*host), body}};
  LoadGenerator gen(&probe_catalog, CacheExpectation::Any);
  const std::size_t conn = gen.connect(stack.proxy_server->port());

  for (const char* replica : {"rp.pub", "rp2.pub"}) {
    inet::FaultInjector::Rule rule;
    rule.to = replica;
    rule.kind = inet::FaultInjector::FaultKind::CorruptBody;
    stack.faults->add_rule(rule);
  }
  const StepResult corrupted = gen.probe(conn, 0);
  stack.faults->clear_rules();
  report.check(corrupted.completed == 0 && corrupted.failed + corrupted.refused == 1,
               "a corrupted replica body was served as a success");
  const std::size_t fresh = gen.connect(stack.proxy_server->port());
  const StepResult healthy = gen.probe(fresh, 0);
  report.check(healthy.completed == 1 && healthy.failed == 0,
               "the object was not served intact after the replicas recovered: " +
                   healthy.first_error);
  std::printf("  corrupt-replica check: %" PRIu64 " corrupted fetches refused (%s), "
              "%" PRIu64 " clean fetches served\n",
              corrupted.failed + corrupted.refused, corrupted.first_error.c_str(),
              healthy.completed);
}

}  // namespace

void run_socket(const RunOptions& options, Report& report) {
  const bool hit_workload = options.workload == "hit-1k";
  Spec spec = hit_workload ? kHit1k : kMissMixed;
  if (options.selftest) {
    spec.ref_windows = 3;
    spec.ref_window_s = 0.2;
    spec.step_s = 0.25;
  }
  const std::size_t nproc = allowed_cpus().size();
  const CpuPlan cpus = plan_cpus();
  pin_thread(0, cpus.generator);
  const std::size_t connections = std::min<std::size_t>(std::max<std::size_t>(nproc, 1),
                                                        2 * cpus.proxy.size());
  std::printf("%s: proxy workers %zu on CPUs {%s}, other servers on CPU %d, generator on "
              "CPU %d, %zu connections, idle CPUs busy-polled, loopback only\n",
              options.workload.c_str(), cpus.proxy.size(), cpu_list(cpus.proxy).c_str(),
              cpus.others, cpus.generator, connections);

  std::vector<int> server_cpus = cpus.proxy;
  if (std::find(server_cpus.begin(), server_cpus.end(), cpus.others) == server_cpus.end()) {
    server_cpus.push_back(cpus.others);
  }
  server_cpus.erase(std::remove(server_cpus.begin(), server_cpus.end(), cpus.generator),
                    server_cpus.end());
  const IdlePollers pollers(server_cpus);
  std::vector<int> benchmark_tids = pollers.tids();
  benchmark_tids.push_back(static_cast<int>(gettid()));

  const double ceiling = generator_ceiling(cpus, connections, options.seed);
  const Catalog catalog = make_catalog(spec, options.seed);
  std::unique_ptr<Tracer> tracer;

  // --- setup, three times (setup_s is the median) -----------------------------
  std::vector<double> setup_s, keygen_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < 3; ++i) {
    stack.reset();
    if (options.trace) tracer = std::make_unique<Tracer>();
    const auto start = Clock::now();
    stack = std::make_unique<Stack>(spec, catalog, options.seed, cpus, tracer.get(),
                                    options.selftest, options.selftest ? 1 : 0);
    if (hit_workload) {  // warm: every object fetched once, so all are HITs
      LoadGenerator warm(&stack->objects, CacheExpectation::Any);
      const std::size_t conn = warm.connect(stack->proxy_server->port());
      for (std::size_t o = 0; o < stack->objects.size(); ++o) {
        const StepResult fetched = warm.probe(conn, o);
        report.check(fetched.completed == 1,
                     "warming object " + std::to_string(o) + " failed: " + fetched.first_error);
      }
    }
    setup_s.push_back(seconds_since(start));
    keygen_s.push_back(stack->keygen_s);
  }
  if (options.trace) {
    std::unordered_map<std::string, std::uint32_t> object_ids;
    for (std::size_t i = 0; i < stack->hosts.size(); ++i) {
      object_ids.emplace(stack->hosts[i], static_cast<std::uint32_t>(i + 1));
    }
    tracer->set_objects(std::move(object_ids));
  }
  std::printf("  catalog %zu objects, %.1f KiB mean, proxy capacity %s; setup %.3f s "
              "(keygen %.3f s)\n",
              catalog.bodies.size(), static_cast<double>(catalog.bytes) / 1024.0 /
                                         static_cast<double>(catalog.bodies.size()),
              spec.capacity_fraction > 0 ? "1/8 of the catalog" : "whole catalog",
              median(setup_s), median(keygen_s));

  LoadGenerator gen(&stack->objects, spec.expect);
  connect_cover(gen, *stack, connections, report);
  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ULL + 7);
  if (!hit_workload) {  // fill the cache to its steady state first
    const StepResult warm = gen.run(spec.ref_rps, options.selftest ? 0.3 : 1.5, 2.0, rng);
    report.check(warm.failed == 0, "warm-up failed: " + warm.first_error);
  }

  E2E e2e;
  if (!options.trace) {
    e2e = measure(*stack, gen, spec, options.seconds, rng, nullptr, benchmark_tids, report);
  } else {
    layer_timings(*stack, catalog, report);
    std::printf("  untraced pass:\n");
    e2e = measure(*stack, gen, spec, options.seconds, rng, tracer.get(), benchmark_tids, report);
    tracer->set_enabled(true);
    std::printf("  traced pass:\n");
    const E2E traced = measure(*stack, gen, spec, options.seconds, rng, tracer.get(),
                               benchmark_tids, report);
    tracer->set_enabled(false);
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    counter_metrics(e2e, report);
    // Counts that only the decorators see come from the traced pass.
    report.set("idicn.upstream_sends_per_miss",
               ratio(traced.totals.upstream_sends, traced.totals.misses), "count");
    report.set("idicn.proof_bytes_per_miss",
               ratio(traced.totals.proof_bytes, traced.totals.misses), "B");
    span_metrics(*tracer, report);
    report.set("trace_overhead.max_rps", traced.max_rps - e2e.max_rps, "1/s");
    report.set("trace_overhead.p50_us", traced.p50_us - e2e.p50_us, "us");
    report.set("trace_overhead.p90_us", traced.p90_us - e2e.p90_us, "us");
    report.set("crypto.keygen_s", median(keygen_s), "s");
    report.set("runtime.worker_share_min", worker_share_min(e2e.totals), "ratio");
    report.set("runtime.gen_ceiling_rps", ceiling, "1/s");
    if (!options.trace_dir.empty()) {
      const std::string path = options.trace_dir + "/spans-" + options.workload + "-" +
                               std::to_string(options.seed) + ".csv";
      std::printf("  wrote %zu spans to %s\n", tracer->write_csv(path), path.c_str());
    }
  }
  report.attempted += e2e.attempted;
  report.failed += e2e.failed;

  // --- output checks and run validity -------------------------------------------
  const std::uint64_t served = e2e.hits + e2e.misses + e2e.streams;
  if (!hit_workload) {
    const double hit_ratio = ratio(e2e.hits, served);
    std::printf("  X-Cache: %" PRIu64 " HIT, %" PRIu64 " MISS, %" PRIu64
                " STREAM (hit ratio %.3f)\n",
                e2e.hits, e2e.misses, e2e.streams, hit_ratio);
    report.check(hit_ratio > 0.03 && hit_ratio < 0.30,
                 "miss-mixed hit ratio " + std::to_string(hit_ratio) +
                     " is far from the expected ~0.12");
  }
  const double share = worker_share_min(e2e.totals);
  std::printf("  generator ceiling %.0f req/s, worker share min %.2f of even\n", ceiling,
              share);
  report.check(share >= 0.25, "a proxy worker served under a quarter of an even share");
  // Lateness depends on the host (CPU steal hits the generator's core
  // too): past a tenth of the latency limit the run is reported invalid.
  const bool on_time = e2e.late_p99_us <= 0.1 * spec.limit_us;
  std::printf("  validity: %s (generator late p99 %.1f us, bound %.1f us); "
              "%" PRIu64 " 5xx answers during ramp overload\n",
              on_time ? "valid" : "INVALID", e2e.late_p99_us, 0.1 * spec.limit_us,
              e2e.refused);
  report.check(e2e.max_rps > 0.0, "no ramp step met the latency limit");
  if (hit_workload) {
    report.check(ceiling >= 2.0 * e2e.max_rps,
                 "max_rps exceeds half the generator's own ceiling");
  }
  if (options.selftest) corrupt_replica_check(*stack, report, options.seed);

  report.set("max_rps", e2e.max_rps, "1/s");
  report.set("p50_us", e2e.p50_us, "us");
  report.set("setup_s", median(setup_s), "s");
  report.set("peak_rss_mb", e2e.peak_rss_mb, "MB");
  if (options.trace) {
    report.set("runtime.p90_us", e2e.p90_us, "us");
    report.set("runtime.p99_us", e2e.p99_us, "us");
  }
  stack->stop();
}

}  // namespace perfbench

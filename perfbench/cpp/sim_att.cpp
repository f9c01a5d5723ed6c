// sim-att: the §4 simulator's six representative designs on ATT.
//
// Every design replays one seeded Asia-profile trace bound to the ATT
// network (k=2, d=5), serially on this thread, repeated until the time
// budget is spent. ICN-NR spends most of its time in the HolderIndex; the
// path designs never touch the index and spend theirs in cache policies
// and the response-path walk.
//
// End-to-end metrics (simulation time is this thread's CPU time, so time
// the host takes the virtual CPU away is not charged to the simulator):
//   max_rps        simulated requests per CPU-second over the whole sweep
//                  (median over sweeps; prefill included)
//   p50_us         median per-request simulation time from 1024-request
//                  blocks across all designs (prefill excluded)
//   setup_s        topology build + trace generation + binding (median of 5)
// The traced run adds per-design prefill/replay/hit-ratio numbers and
// direct replays through HolderIndex and an LRU cache::Cache.
#include <time.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cache/budget.hpp"
#include "cache/cache.hpp"
#include "core/bound_workload.hpp"
#include "core/design.hpp"
#include "core/holder_index.hpp"
#include "core/origin_map.hpp"
#include "core/simulator.hpp"
#include "report.hpp"
#include "topology/pop_topology.hpp"
#include "workload/synthetic_cdn.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace idicn;

constexpr std::size_t kBlock = 1024;
constexpr double kScale = 0.05;  // the repository benches' default scale

/// Results of the default seed: FNV-1a over (hit count, origin serves, max
/// origin load) of each design in sweep order.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kDefaultSeedDigest = 0x57fdf6b092032917ULL;

struct Setup {
  std::optional<topology::HierarchicalNetwork> network;
  std::optional<core::BoundWorkload> workload;
  std::optional<core::OriginMap> origins;
  double topology_s = 0.0;
  double bind_s = 0.0;
};

void build(Setup& setup, std::uint64_t seed) {
  auto start = Clock::now();
  setup.network.emplace(topology::make_topology("ATT"),
                        topology::AccessTreeShape(2, 5));
  setup.topology_s = seconds_since(start);

  start = Clock::now();
  workload::RegionProfile profile = workload::paper_region_profile("Asia", kScale);
  profile.seed = seed;
  const workload::Trace trace = workload::generate_trace(profile);
  setup.workload.emplace(core::bind_trace(*setup.network, trace, seed ^ 0xa51aULL));
  setup.origins.emplace(*setup.network, setup.workload->object_count,
                        core::OriginAssignment::PopulationProportional,
                        seed ^ 0x0419ULL);
  setup.bind_s = seconds_since(start);
}

/// CPU seconds this thread has run.
double thread_cpu_s() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

struct DesignRun {
  std::string name;
  double total_s = 0.0;    ///< run() CPU time, bookkeeping excluded
  double prefill_s = 0.0;  ///< run() entry to the first request callback
  std::size_t requests = 0;
  core::SimulationMetrics metrics;
};

std::string metric_key(std::string name) {
  for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return name;
}

/// Time one design; per-request block times go to `block_us`. `on_prefilled`
/// (untimed) runs once, right after prefill, with the simulator.
DesignRun run_design(const Setup& setup, const core::DesignSpec& design,
                     std::vector<double>& block_us,
                     const std::function<void(const core::Simulator&)>& on_prefilled) {
  DesignRun run;
  run.name = design.name;
  core::Simulator simulator(*setup.network, *setup.origins, design,
                            core::SimulationConfig{});
  double start = 0.0;
  double block_start = 0.0;
  double untimed_s = 0.0;
  bool prefilled = false;
  simulator.set_request_observer([&](std::size_t index) {
    if (!prefilled) {
      prefilled = true;
      block_start = thread_cpu_s();
      run.prefill_s = block_start - start;
      if (on_prefilled) {
        on_prefilled(simulator);
        untimed_s = thread_cpu_s() - block_start;
        block_start = thread_cpu_s();
      }
      return;
    }
    if (index % kBlock == 0) {
      const double now = thread_cpu_s();
      block_us.push_back((now - block_start) * 1e6 / static_cast<double>(kBlock));
      block_start = now;
    }
  });
  start = thread_cpu_s();
  run.metrics = simulator.run(*setup.workload);
  run.total_s = thread_cpu_s() - start - untimed_s;
  run.requests = setup.workload->requests.size();
  return run;
}

std::uint64_t fnv(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xff;
    hash *= 1099511628211ULL;
  }
  return hash;
}

double mops(std::size_t ops, double seconds) {
  return seconds > 0.0 ? static_cast<double>(ops) / seconds / 1e6 : 0.0;
}

/// HolderIndex replay of an op stream taken from the ICN-NR run: every
/// (object, holder) pair present after prefill is added, the request
/// stream is queried (nearest, then a bounded walk of up to 3
/// candidates), and every pair is removed again.
void holder_index_replay(
    const Setup& setup,
    const std::vector<std::pair<std::uint32_t, topology::GlobalNodeId>>& pairs,
    Report& report) {
  const auto& network = *setup.network;
  const auto& requests = setup.workload->requests;
  core::HolderIndex index(network);

  auto start = Clock::now();
  for (const auto& [object, node] : pairs) index.add(object, node);
  const double add_s = seconds_since(start);

  struct Query {
    std::uint32_t object;
    topology::GlobalNodeId leaf;
    double bound;
  };
  std::vector<Query> queries;
  queries.reserve(requests.size());
  for (const auto& request : requests) {
    const auto leaf = network.leaf(request.pop, request.leaf);
    const auto origin = network.pop_root(setup.origins->origin_pop(request.object));
    queries.push_back(Query{request.object, leaf, network.distance(leaf, origin)});
  }

  // Node + 1 of the nearest replica within the bound, 0 for none.
  std::vector<topology::GlobalNodeId> nearest(queries.size(), 0);
  start = Clock::now();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto best = index.nearest(queries[i].object, queries[i].leaf, queries[i].bound);
    nearest[i] = best && best->cost <= queries[i].bound ? best->node + 1 : 0;
  }
  const double nearest_s = seconds_since(start);

  std::size_t mismatches = 0;
  start = Clock::now();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    auto walk = index.walk(queries[i].object, queries[i].leaf, queries[i].bound);
    int taken = 0;
    while (const auto candidate = walk.next()) {
      if (taken == 0 && candidate->node + 1 != nearest[i]) ++mismatches;
      if (++taken == 3) break;
    }
    if (taken == 0 && nearest[i] != 0) ++mismatches;
  }
  const double walk_s = seconds_since(start);

  start = Clock::now();
  for (const auto& [object, node] : pairs) index.remove(object, node);
  const double remove_s = seconds_since(start);

  report.check(mismatches == 0, "HolderIndex walk disagrees with nearest() on " +
                                    std::to_string(mismatches) + " queries");
  report.check(index.size() == 0, "HolderIndex not empty after removing every pair");
  report.set("core.holder_index.add_mops", mops(pairs.size(), add_s), "Mops");
  report.set("core.holder_index.remove_mops", mops(pairs.size(), remove_s), "Mops");
  report.set("core.holder_index.nearest_mops", mops(queries.size(), nearest_s), "Mops");
  report.set("core.holder_index.walk_mops", mops(queries.size(), walk_s), "Mops");
  std::printf("  holder index replay: %zu pairs, %zu queries\n", pairs.size(),
              queries.size());
}

/// LRU replay of the bound stream at the median EDGE (leaf) budget.
void lru_replay(const Setup& setup, Report& report) {
  const auto& network = *setup.network;
  const core::SimulationConfig config;
  const auto plan = cache::compute_budget(network, config.budget_fraction,
                                          setup.workload->object_count, config.split);
  std::vector<double> leaf_budgets;
  for (topology::PopId pop = 0; pop < network.pop_count(); ++pop) {
    for (std::uint32_t j = 0; j < network.tree().leaf_count(); ++j) {
      leaf_budgets.push_back(static_cast<double>(plan.per_node[network.leaf(pop, j)]));
    }
  }
  const auto capacity = static_cast<std::uint64_t>(median(leaf_budgets));
  auto lru = cache::make_cache(cache::PolicyKind::Lru, capacity);
  std::vector<cache::ObjectId> evicted;
  // Per-op timing: discount the cost of the clock reads themselves.
  const std::uint64_t calibrate = now_ns();
  for (int i = 0; i < 1000; ++i) (void)now_ns();
  const double clock_ns = static_cast<double>(now_ns() - calibrate) / 1001.0;

  std::uint64_t lookup_ns = 0, insert_ns = 0;
  std::size_t inserts = 0;
  const auto& requests = setup.workload->requests;
  for (const auto& request : requests) {
    const std::uint64_t t0 = now_ns();
    const bool hit = lru->lookup(request.object);
    const std::uint64_t t1 = now_ns();
    lookup_ns += t1 - t0;
    if (!hit) {
      evicted.clear();
      lru->insert(request.object, request.size, evicted);
      insert_ns += now_ns() - t1;
      ++inserts;
    }
  }
  const auto rate = [&](std::size_t ops, std::uint64_t ns) {
    return mops(ops, (static_cast<double>(ns) - clock_ns * static_cast<double>(ops)) / 1e9);
  };
  report.check(lru->used_units() <= lru->capacity_units(), "LRU replay over capacity");
  report.set("cache.lru_lookup_mops", rate(requests.size(), lookup_ns), "Mops");
  report.set("cache.lru_insert_mops", rate(inserts, insert_ns), "Mops");
  std::printf("  lru replay: capacity %" PRIu64 " objects, %zu lookups, %zu inserts\n",
              capacity, requests.size(), inserts);
}

}  // namespace

void run_sim_att(const RunOptions& options, Report& report) {
  // --- setup (five times; the median is setup_s) --------------------------
  std::vector<double> setup_s, topology_s, bind_s;
  Setup setup;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    Setup fresh;
    build(fresh, options.seed);
    setup_s.push_back(seconds_since(start));
    topology_s.push_back(fresh.topology_s);
    bind_s.push_back(fresh.bind_s);
    setup = std::move(fresh);
  }
  std::printf("sim-att: ATT %u nodes, %zu requests, %u objects (Asia profile, scale %.2f)\n",
              setup.network->node_count(), setup.workload->requests.size(),
              setup.workload->object_count, kScale);

  const std::vector<core::DesignSpec> designs = {core::no_cache(), core::icn_sp(),
                                                 core::icn_nr(),   core::edge(),
                                                 core::edge_coop(), core::edge_norm()};
  const auto is_path_design = [](const std::string& name) {
    return name == "ICN-SP" || name == "EDGE" || name == "EDGE-Coop" ||
           name == "EDGE-Norm";
  };

  // --- measured sweeps ----------------------------------------------------
  const auto budget_start = Clock::now();
  std::vector<double> block_us;
  std::vector<double> sweep_rps, nr_rps, path_rps;
  std::vector<std::vector<DesignRun>> sweeps;
  std::vector<std::pair<std::uint32_t, topology::GlobalNodeId>> prefill_pairs;
  do {
    std::vector<DesignRun> sweep;
    double sweep_s = 0.0, path_s = 0.0;
    std::size_t sweep_requests = 0, path_requests = 0;
    for (const auto& design : designs) {
      std::function<void(const core::Simulator&)> snapshot;
      if (options.trace && design.name == "ICN-NR" && sweeps.empty()) {
        snapshot = [&](const core::Simulator& simulator) {
          const core::HolderIndex* index = simulator.holder_index();
          const auto leaf = setup.network->leaf(0, 0);
          for (std::uint32_t object = 0; object < setup.workload->object_count; ++object) {
            for (const auto& candidate : index->candidates_by_cost(object, leaf)) {
              prefill_pairs.emplace_back(object, candidate.node);
            }
          }
        };
      }
      DesignRun run = run_design(setup, design, block_us, snapshot);
      sweep_s += run.total_s;
      sweep_requests += run.requests;
      if (design.name == "ICN-NR") {
        nr_rps.push_back(static_cast<double>(run.requests) / run.total_s);
      }
      if (is_path_design(design.name)) {
        path_s += run.total_s;
        path_requests += run.requests;
      }
      sweep.push_back(std::move(run));
    }
    sweep_rps.push_back(static_cast<double>(sweep_requests) / sweep_s);
    path_rps.push_back(static_cast<double>(path_requests) / path_s);
    sweeps.push_back(std::move(sweep));
    // Stop when another sweep of average length would overrun the budget.
  } while (seconds_since(budget_start) *
               (1.0 + 1.0 / static_cast<double>(sweeps.size())) <=
           options.seconds);

  // --- output checks --------------------------------------------------------
  std::uint64_t digest = 1469598103934665603ULL;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto& first = sweeps.front()[d].metrics;
    report.check(first.request_count > 0 &&
                     first.cache_hits + first.total_origin_served == first.request_count,
                 designs[d].name + ": cache hits + origin serves != measured requests");
    for (const auto& sweep : sweeps) {
      const auto& again = sweep[d].metrics;
      report.check(again.cache_hits == first.cache_hits &&
                       again.total_origin_served == first.total_origin_served,
                   designs[d].name + ": repeated run is not deterministic");
    }
    digest = fnv(digest, first.cache_hits);
    digest = fnv(digest, first.total_origin_served);
    digest = fnv(digest, first.max_origin_served);
  }
  report.check(sweeps.front()[0].metrics.cache_hits == 0, "NO-CACHE reported cache hits");
  std::printf("  result digest %016" PRIx64 "\n", digest);
  if (options.seed == kDefaultSeed) {
    report.check(digest == kDefaultSeedDigest,
                 "per-design hit/origin digest differs from the default seed's");
  }
  report.attempted = sweeps.size() * designs.size();

  for (std::size_t d = 0; d < designs.size(); ++d) {
    const auto& run = sweeps.front()[d];
    std::printf("  %-10s %8.3f s  prefill %6.3f s  hit ratio %.4f\n", run.name.c_str(),
                run.total_s, run.prefill_s, run.metrics.cache_hit_ratio());
  }
  const double nr = median(nr_rps), path = median(path_rps);
  std::printf("  sim_nr_req_per_s %.1f 1/s, sim_path_req_per_s %.1f 1/s, "
              "%zu sweeps, %zu blocks\n",
              nr, path, sweeps.size(), block_us.size());

  report.set("max_rps", median(sweep_rps), "1/s");
  report.set("p50_us", percentile(block_us, 0.50), "us");

  report.set("setup_s", median(setup_s), "s");

  if (!options.trace) return;

  // --- per-layer metrics (traced run) --------------------------------------
  report.set("core.sim_nr_req_per_s", nr, "1/s");
  report.set("core.block_p90_us", percentile(block_us, 0.90), "us");
  report.set("core.block_p99_us", percentile(block_us, 0.99), "us");
  report.set("core.sim_path_req_per_s", path, "1/s");
  for (std::size_t d = 0; d < designs.size(); ++d) {
    std::vector<double> prefill, replay;
    for (const auto& sweep : sweeps) {
      prefill.push_back(sweep[d].prefill_s);
      replay.push_back(static_cast<double>(sweep[d].requests) /
                       (sweep[d].total_s - sweep[d].prefill_s));
    }
    const std::string key = "core." + metric_key(designs[d].name);
    report.set(key + ".prefill_s", median(prefill), "s");
    report.set(key + ".replay_req_per_s", median(replay), "1/s");
    report.set(key + ".hit_ratio", sweeps.front()[d].metrics.cache_hit_ratio(), "ratio");
  }
  const auto& perf = sweeps.front()[2].metrics.perf;
  const std::uint64_t queries = perf.nearest_queries + perf.candidate_walks;
  report.set("core.holder_index.candidates_per_query",
             queries ? static_cast<double>(perf.candidates_visited) /
                           static_cast<double>(queries)
                     : 0.0,
             "count");
  holder_index_replay(setup, prefill_pairs, report);
  lru_replay(setup, report);
  report.set("workload.bind_s", median(bind_s), "s");
  report.set("topology.build_s", median(topology_s), "s");
}

}  // namespace perfbench

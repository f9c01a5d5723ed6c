// simulate_cli — run a custom caching-design experiment from the command
// line, no C++ required. The knobs mirror the paper's §4–§5 configuration
// space. For example (one command line, wrapped here):
//
//   $ ./examples/simulate_cli --topology ATT --alpha 1.04 --budget 0.05
//         --requests 100000 --objects 11000 --skew 0 --arity 2 --depth 5
//         --designs ICN-SP,ICN-NR,EDGE,EDGE-Coop,EDGE-Norm
//
// Prints the improvement of every requested design over the no-cache
// baseline on the paper's three metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "topology/pop_topology.hpp"

namespace {

using namespace idicn;

core::DesignSpec design_by_name(const std::string& name) {
  if (name == "ICN-SP") return core::icn_sp();
  if (name == "ICN-NR") return core::icn_nr();
  if (name == "ICN-SP-LCD") return core::icn_sp_lcd();
  if (name == "EDGE") return core::edge();
  if (name == "EDGE-Coop") return core::edge_coop();
  if (name == "EDGE-Norm") return core::edge_norm();
  if (name == "2-Levels") return core::two_levels();
  if (name == "2-Levels-Coop") return core::two_levels_coop();
  if (name == "Norm-Coop") return core::norm_coop();
  if (name == "Double-Budget-Coop") return core::double_budget_coop();
  throw std::invalid_argument("unknown design: " + name);
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --topology NAME     Abilene|Geant|Telstra|Sprint|Verio|Tiscali|Level3|ATT\n"
      "  --alpha A           Zipf exponent (default 1.04)\n"
      "  --skew S            spatial skew in [0,1] (default 0)\n"
      "  --budget F          per-router budget fraction (default 0.05)\n"
      "  --requests N        request count (default 100000)\n"
      "  --objects N         object universe (default requests/9)\n"
      "  --arity K --depth D access-tree shape (default 2, 5)\n"
      "  --split uniform|proportional   budget split (default proportional)\n"
      "  --seed N            workload seed (default 42)\n"
      "  --designs A,B,...   comma-separated design names\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> options;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) usage(argv[0]);
    options[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) usage(argv[0]);

  const auto get = [&options](const char* key, const std::string& fallback) {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  };

  try {
    const std::string topology_name = get("topology", "ATT");
    const double alpha = std::stod(get("alpha", "1.04"));
    const double skew = std::stod(get("skew", "0"));
    const double budget = std::stod(get("budget", "0.05"));
    const auto requests = static_cast<std::uint64_t>(std::stoull(get("requests", "100000")));
    const auto objects = static_cast<std::uint32_t>(
        std::stoull(get("objects", std::to_string(std::max<std::uint64_t>(1000, requests / 9)))));
    const unsigned arity = static_cast<unsigned>(std::stoul(get("arity", "2")));
    const unsigned depth = static_cast<unsigned>(std::stoul(get("depth", "5")));
    const std::uint64_t seed = std::stoull(get("seed", "42"));
    const std::string split_name = get("split", "proportional");

    std::vector<core::DesignSpec> designs;
    std::stringstream list(get("designs", "ICN-SP,ICN-NR,EDGE,EDGE-Coop,EDGE-Norm"));
    std::string item;
    while (std::getline(list, item, ',')) designs.push_back(design_by_name(item));

    const topology::HierarchicalNetwork network(
        topology::make_topology(topology_name), topology::AccessTreeShape(arity, depth));
    core::SyntheticWorkloadSpec spec;
    spec.request_count = requests;
    spec.object_count = objects;
    spec.alpha = alpha;
    spec.spatial_skew = skew;
    spec.seed = seed;
    const core::BoundWorkload workload = core::bind_synthetic(network, spec);

    core::SimulationConfig config;
    config.budget_fraction = budget;
    config.split = split_name == "uniform" ? cache::BudgetSplit::Uniform
                                           : cache::BudgetSplit::PopulationProportional;
    const core::OriginMap origins(network, objects,
                                  core::OriginAssignment::PopulationProportional,
                                  seed ^ 0x0419);

    const core::ComparisonResult cmp =
        core::compare_designs(network, origins, designs, config, workload);

    std::printf("topology=%s arity=%u depth=%u alpha=%.2f skew=%.2f F=%.3g "
                "requests=%llu objects=%u split=%s\n",
                topology_name.c_str(), arity, depth, alpha, skew, budget,
                static_cast<unsigned long long>(requests), objects,
                split_name.c_str());
    std::printf("no-cache baseline: %.3f mean hops, max-link %llu, max-origin %llu\n\n",
                cmp.baseline.mean_hops(),
                static_cast<unsigned long long>(cmp.baseline.max_link_transfers),
                static_cast<unsigned long long>(cmp.baseline.max_origin_served));
    std::printf("%-20s %10s %12s %12s %10s\n", "design", "latency%", "congestion%",
                "origin%", "hit-ratio");
    for (const core::DesignResult& r : cmp.designs) {
      std::printf("%-20s %10.2f %12.2f %12.2f %10.3f\n", r.design.name.c_str(),
                  r.improvements.latency_pct, r.improvements.congestion_pct,
                  r.improvements.origin_load_pct, r.metrics.cache_hit_ratio());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// The benchmark's workloads: one function per workload family.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measurement budget (setup excluded)
  bool trace = false;     ///< per-layer run: decorators, spans, replays
  /// Short self-test mode: tiny budgets, plus the corrupted-replica check
  /// on the socket workloads.
  bool selftest = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// sim-att: Simulator::run for six designs on ATT.
void run_sim_att(const RunOptions& options, Report& report);
/// hit-1k and miss-mixed: the §6 stack on loopback under open-loop load.
void run_socket(const RunOptions& options, Report& report);

}  // namespace perfbench

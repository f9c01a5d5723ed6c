// idICN benchmark program (built and run by perfbench/run.py).
//
//   idicn_perfbench --workload <sim-att|hit-1k|miss-mixed> --seed N
//                   --seconds S --trace 0|1 [--selftest] [--trace-dir DIR]
//
// Prints human-readable progress, a run record, and as its last line
// `RESULT {"correct", "attempted", "failed", "metrics"}`. Exits non-zero
// when any output check failed.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

#ifndef IDICN_BUILD_TYPE
#define IDICN_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload sim-att|hit-1k|miss-mixed --seed N --seconds S "
               "--trace 0|1 [--selftest] [--trace-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-dir" && has_value) {
      options.trace_dir = argv[++i];
    } else if (arg == "--selftest") {
      options.selftest = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.seconds <= 0.0) return usage(argv[0]);

#ifdef IDICN_PERF_COUNTERS_ON
  const char* perf_counters = "on";
#else
  const char* perf_counters = "off";
#endif
  std::printf("record: {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
              "\"build_type\": \"%s\", \"IDICN_PERF_COUNTERS\": \"%s\", "
              "\"trace\": %s}\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              std::thread::hardware_concurrency(), IDICN_BUILD_TYPE, perf_counters,
              options.trace ? "true" : "false");

  perfbench::Report report;
  try {
    if (options.workload == "sim-att") {
      perfbench::run_sim_att(options, report);
    } else if (options.workload == "hit-1k" || options.workload == "miss-mixed") {
      perfbench::run_socket(options, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "benchmark aborted: %s\n", error.what());
    return 1;
  }
  if (report.metrics.count("peak_rss_mb") == 0) {
    report.set("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  }
  std::printf("RESULT %s\n", report.json().c_str());
  std::fflush(stdout);
  // Skip static destructors: every server was stopped and joined already.
  _exit(report.correct() ? 0 : 1);
}

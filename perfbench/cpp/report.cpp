#include "report.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  check_failures.push_back(what);
}

std::string Report::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<int> list_tasks() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    tids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

std::vector<TaskSample> sample_tasks(const std::vector<int>& tids) {
  std::vector<TaskSample> samples;
  samples.reserve(tids.size());
  for (const int tid : tids) {
    TaskSample sample;
    sample.tid = tid;
    const std::string base = "/proc/self/task/" + std::to_string(tid);
    std::ifstream schedstat(base + "/schedstat");
    schedstat >> sample.cpu_ns;
    std::ifstream status(base + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("voluntary_ctxt_switches:", 0) == 0) {
        sample.voluntary_switches =
            std::strtoull(line.c_str() + std::strlen("voluntary_ctxt_switches:"),
                          nullptr, 10);
      }
    }
    samples.push_back(sample);
  }
  return samples;
}

bool pin_thread(int tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

IdlePollers::IdlePollers(const std::vector<int>& cpus) : tids_(cpus.size(), 0) {
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    threads_.emplace_back([this, i, cpu = cpus[i]] {
      pin_thread(0, cpu);
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      tids_[i] = static_cast<int>(gettid());
      started_.fetch_add(1);
      while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
    });
  }
  while (started_.load() < static_cast<int>(cpus.size())) std::this_thread::yield();
}

IdlePollers::~IdlePollers() {
  stop_.store(true);
  for (std::thread& thread : threads_) thread.join();
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

}  // namespace perfbench

// Metric collection, order statistics and /proc probes shared by the
// benchmark's workloads.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile of `values` (p in [0, 1]); reorders the input.
double percentile(std::vector<double>& values, double p);
double median(std::vector<double> values);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: named metrics with units, the operation
/// counts, and the output-check failures (any failure makes the run
/// incorrect and the process exit non-zero).
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed output check; prints it to stderr at once.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const {
    return check_failures.empty() && failed == 0;
  }
  /// The result object: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;
};

/// Peak resident set size of this process, in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// One kernel task (thread) of this process.
struct TaskSample {
  int tid = 0;
  std::uint64_t cpu_ns = 0;              ///< schedstat run time
  std::uint64_t voluntary_switches = 0;  ///< status voluntary_ctxt_switches
};

/// Thread ids currently in /proc/self/task.
std::vector<int> list_tasks();
/// CPU time and voluntary switches of each task in `tids`.
std::vector<TaskSample> sample_tasks(const std::vector<int>& tids);
/// Pin one thread (or the caller when tid == 0) to one CPU; false on error.
bool pin_thread(int tid, int cpu);
/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// One SCHED_IDLE busy-poll thread per listed CPU, for the object's
/// lifetime: the CPUs never go idle, so a thread woken there (a server
/// worker on a new request) runs at once instead of waiting for the host
/// to reschedule a halted virtual CPU — the per-CPU equivalent of booting
/// with idle=poll. Any runnable thread preempts a poller immediately.
class IdlePollers {
 public:
  explicit IdlePollers(const std::vector<int>& cpus);
  ~IdlePollers();
  IdlePollers(const IdlePollers&) = delete;
  IdlePollers& operator=(const IdlePollers&) = delete;

  /// Kernel thread ids of the pollers (excluded from server CPU time).
  [[nodiscard]] const std::vector<int>& tids() const { return tids_; }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> started_{0};
  std::vector<int> tids_;
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

// Multi-reactor SimHost server: N event-loop workers behind one port.
//
// ServerGroup generalizes the one-reactor-per-server HostServer to an
// N-worker multi-reactor. Each worker owns its own EventLoop + Poller, its
// own connection table and its own listening socket, and accepts only on
// that listener. With more than one worker every listener sets
// SO_REUSEPORT and binds the same port, so the kernel load-balances
// accepted connections across workers and accept/decode/serve scales with
// cores instead of being pinned to one thread. A one-worker group leaves
// the option off, so a second server on its port fails to bind. A failed
// bind throws from start(). A worker whose accept() runs out of
// descriptors or memory stops reading its listener for a fixed pause
// instead of spinning on it; the waiting connection stays in the kernel
// backlog until the pause ends.
//
// Threading (DESIGN.md §"Multi-reactor runtime"): per-connection state is
// owned by exactly one worker (IDICN_GUARDED_BY its loop role), but the
// hosted net::SimHost is now *shared by all workers* — its handle_http must
// be thread-safe when `workers > 1` (Proxy/NRS/OriginServer/ReverseProxy
// are; see their headers). Other threads interact through four doors:
//   * stats() / worker_stats(i)    — snapshots of per-worker relaxed
//     counters, safe live; the aggregate survives stop(), one worker's
//     counters only while it runs;
//   * run_on_all_workers(fn)       — stop-the-world door replacing
//     HostServer::run_on_loop(): every worker parks at a rendezvous, `fn`
//     runs with exclusive access to the hosted SimHost, then all workers
//     resume. Use it to publish content or inspect host state while the
//     group serves traffic;
//   * stop()                       — ordered, idempotent shutdown:
//     stop accepting → drain in-flight requests (bounded by
//     Options::drain_timeout_ms; idle keep-alive connections close
//     immediately) → stop and join every worker;
//   * EventLoop-level post() via the workers (internal).
// Lifecycle calls (start/stop/run_on_all_workers) must come from one
// controlling thread at a time — exactly the contract HostServer had.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/sync.hpp"
#include "net/sim_net.hpp"

namespace idicn::runtime {

class ServerWorker;

class ServerGroup {
 public:
  struct Options {
    std::uint64_t idle_timeout_ms = 30'000;     ///< close quiet keep-alive conns
    std::uint64_t request_timeout_ms = 10'000;  ///< partial request must finish
    std::size_t max_connections = 1024;         ///< per worker; beyond: 503+close
    /// Retry-After hint (seconds) on over-capacity 503s, so well-behaved
    /// clients back off instead of hammering a saturated worker.
    unsigned retry_after_s = 1;
    std::size_t workers = 1;      ///< reactor threads (0 is clamped to 1)
    std::uint64_t drain_timeout_ms = 5'000;  ///< stop(): in-flight grace period
  };

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t connections_rejected = 0;  ///< over max_connections
    std::uint64_t requests_served = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t timeouts = 0;              ///< idle + request deadline closes
  };

  /// `host` (non-owning) must outlive the group and must be thread-safe
  /// when `options.workers > 1` — every worker calls handle_http on it.
  ServerGroup(net::SimHost* host, std::string address);
  ServerGroup(net::SimHost* host, std::string address, Options options);
  ~ServerGroup();

  ServerGroup(const ServerGroup&) = delete;
  ServerGroup& operator=(const ServerGroup&) = delete;

  /// Bind one listener per worker to 127.0.0.1:`port` (0 = ephemeral),
  /// start the worker threads, and return the bound port. Throws
  /// std::runtime_error when any bind fails; the group then stays stopped.
  std::uint16_t start(std::uint16_t port = 0);

  /// Ordered, idempotent shutdown: close every listener (no new
  /// connections), give in-flight requests up to Options::drain_timeout_ms
  /// to finish (idle keep-alive connections close immediately), then stop
  /// every loop and join every worker.
  void stop() IDICN_EXCLUDES(drain_mutex_);

  /// Execute `fn` once with every worker parked at a barrier — exclusive
  /// access to the hosted SimHost while the group is live (the
  /// generalization of HostServer::run_on_loop). When the group is not
  /// running, `fn` runs inline. Must not be called from a worker thread.
  void run_on_all_workers(const std::function<void()>& fn);

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const std::string& address() const noexcept { return address_; }
  [[nodiscard]] bool running() const noexcept { return !workers_.empty(); }
  [[nodiscard]] std::size_t worker_count() const noexcept;

  /// Aggregate across workers (safe while serving).
  [[nodiscard]] Stats stats() const;
  /// One running worker's counters (for per-worker throughput / balance
  /// reports). Throws std::out_of_range for an index past the running
  /// workers, so for every index once stop() has retired them.
  [[nodiscard]] Stats worker_stats(std::size_t worker) const;

 private:
  friend class ServerWorker;

  /// Worker connection teardown signal — wakes a drain wait in stop().
  void notify_connection_closed() IDICN_EXCLUDES(drain_mutex_);
  [[nodiscard]] std::size_t total_active_connections() const;

  net::SimHost* host_;  ///< shared by all workers; thread-safe when workers > 1
  std::string address_;
  Options options_;
  /// Created by start() before any worker thread exists, destroyed by
  /// stop() after every join; never mutated while workers run.
  std::vector<std::unique_ptr<ServerWorker>> workers_;
  std::uint16_t port_ = 0;  ///< written by start() before workers exist

  mutable core::sync::Mutex drain_mutex_;
  core::sync::CondVar drain_cv_;  ///< signalled on every connection close

  /// Counters survive stop() (HostServer always kept its totals): stop()
  /// folds each retiring worker in here under lifecycle_mutex_, which also
  /// orders stats() snapshots against that retirement.
  mutable core::sync::Mutex lifecycle_mutex_;
  Stats retired_total_ IDICN_GUARDED_BY(lifecycle_mutex_);
};

}  // namespace idicn::runtime

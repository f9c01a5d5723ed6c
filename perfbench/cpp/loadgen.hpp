// Single-thread open-loop load generator for the proxy on loopback.
//
// Requests are due at Poisson arrival times; each is written (pipelined)
// on the next of a few keep-alive connections when due, whether or not
// earlier requests were answered, and timed from its *intended* send
// time, so a stall of the server is charged to every request queued
// behind it. Responses are framed here (Content-Length and chunked), not
// with the program's own HTTP decoder, and every body is compared with
// the object's seeded bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

struct CatalogObject {
  std::string request;  ///< the full GET for this object
  std::string body;     ///< the bytes the response must carry
};

/// What the X-Cache header of each response may say.
enum class CacheExpectation { AllHits, Any };

struct StepResult {
  double offered_rps = 0.0;
  double window_s = 0.0;       ///< send window length
  double achieved_rps = 0.0;   ///< completions / send window
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;    ///< wrong status, bad framing/bytes, lost
  /// 5xx answers: the proxy refused or could not fetch (overload). They
  /// fail a ramp step; anywhere else they fail the run.
  std::uint64_t refused = 0;
  std::uint64_t hits = 0, misses = 0, streams = 0;
  std::size_t backlog_max = 0;  ///< most requests in flight at once
  std::size_t backlog_end = 0;  ///< in flight when the send window closed
  std::vector<double> latency_us;  ///< per completed request, from intended time
  std::vector<double> late_us;     ///< per sent request: write time - intended time
  std::string first_error;
};

class LoadGenerator {
 public:
  LoadGenerator(const std::vector<CatalogObject>* catalog, CacheExpectation expect);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Open one keep-alive connection to 127.0.0.1:`port`; returns its index.
  std::size_t connect(std::uint16_t port);
  /// Send one request for `object` on connection `index` and wait (up to
  /// 5 s) for its response; the result counts it completed or failed.
  StepResult probe(std::size_t index, std::size_t object);
  void close(std::size_t index);
  [[nodiscard]] std::size_t connections() const { return conns_.size(); }

  /// Run one open-loop step: Poisson arrivals at `rate_rps` for
  /// `seconds`, then wait up to `drain_s` for the answers. With
  /// `max_inflight` set, requests are instead sent as fast as the window
  /// of outstanding requests allows (the saturation probe). The
  /// generator spins on its own core between arrivals.
  StepResult run(double rate_rps, double seconds, double drain_s, std::mt19937_64& rng,
                 std::size_t max_inflight = 0);

 private:
  struct Pending {
    std::uint64_t intended_ns;
    std::uint32_t object;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t out_pos = 0;
    std::string in;
    std::size_t in_pos = 0;
    std::deque<Pending> inflight;
    bool dead = false;
  };
  enum class Parse { NeedMore, Done, Bad };
  struct Response {
    int status = 0;
    std::string_view cache;
    std::string_view body;
    std::string chunked_body;  ///< reassembled body of a chunked response
  };

  Parse parse(Conn& conn, Response& response);
  bool flush(Conn& conn);
  /// Read what is available; completes parsed responses into `step`.
  void pump(Conn& conn, std::uint64_t now, StepResult& step);
  void complete(const Pending& pending, const Response& response, std::uint64_t now,
                StepResult& step);
  void fail_connection(Conn& conn, StepResult& step, const std::string& why);

  const std::vector<CatalogObject>* catalog_;
  CacheExpectation expect_;
  /// Keep per-request samples (off for the saturation probe, whose
  /// millions of samples nobody reads and would only inflate peak RSS).
  bool record_samples_ = true;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  std::string scratch_;
};

/// A trivial server answering every request on its connections with one
/// canned response, on its own threads: it bounds what the generator
/// itself can drive through the same connection count.
class CannedServer {
 public:
  /// Listens on an ephemeral loopback port.
  explicit CannedServer(std::string response);
  ~CannedServer();
  CannedServer(const CannedServer&) = delete;
  CannedServer& operator=(const CannedServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Accept `count` pending connections and serve them on one thread per
  /// entry of `cpus` (connection i on thread i mod cpus).
  void serve(std::size_t count, const std::vector<int>& cpus);
  void stop();

 private:
  std::string response_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<int> fds_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stopping_{false};
};

}  // namespace perfbench

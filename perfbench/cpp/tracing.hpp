// Spans recorded from outside the program: a timing net::SimHost decorator
// around each hosted server and a timing net::Transport decorator around
// the proxy's upstream. Spans stay in per-thread memory while the run
// lasts and are written out once at the end.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/sim_net.hpp"
#include "net/transport.hpp"

namespace perfbench {

/// One timed call at a layer boundary. `layer` names the host or upstream
/// destination; spans of one request share `object` (the idICN name links
/// the proxy's span to its upstream hops); `thread` is the recording
/// thread's slot, so a proxy MISS span's children are the upstream spans
/// its worker started inside it.
struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t layer = 0;
  std::uint32_t object = 0;  ///< catalog index + 1; 0 = unknown
  std::uint32_t thread = 0;
  std::uint32_t mark = 0;    ///< Mark of a host span's response
  std::uint64_t request = 0; ///< per-host-span request id (0 for upstream)
};

enum Mark : std::uint32_t { kNone = 0, kHit, kMiss, kStream, kError };

class Tracer {
 public:
  Tracer() { layer("up:?"); }

  /// Map idICN host names to catalog index + 1 (setup time, before the
  /// tracer is enabled: names exist only once objects are published).
  void set_objects(std::unordered_map<std::string, std::uint32_t> objects) {
    objects_ = std::move(objects);
  }

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Layer id for a name (setup time only).
  std::uint32_t layer(const std::string& name);
  /// Layer id of the upstream destination `to` (registered at setup as
  /// "up:<to>"); the catch-all "up:?" otherwise. Safe while serving.
  [[nodiscard]] std::uint32_t upstream_layer(const std::string& to) const;
  [[nodiscard]] const std::vector<std::string>& layer_names() const { return layers_; }

  /// Catalog index + 1 of the object a request is about, 0 when unknown.
  [[nodiscard]] std::uint32_t object_of(const idicn::net::HttpRequest& request) const;

  /// The calling thread's slot (registers the thread on first use).
  std::uint32_t thread_slot() { return mine().slot; }
  void record(const Span& span);
  std::uint64_t next_request_id() { return next_request_.fetch_add(1) + 1; }

  /// Every span recorded so far (call when no traffic flows).
  [[nodiscard]] std::vector<Span> collect() const;
  /// Write all spans as CSV; returns the number written.
  std::size_t write_csv(const std::string& path) const;

  std::atomic<std::uint64_t> upstream_sends{0};
  std::atomic<std::uint64_t> proof_bytes{0};  ///< signature + key header bytes

 private:
  struct ThreadSpans {
    std::uint32_t slot = 0;
    std::vector<Span> spans;
  };
  ThreadSpans& mine();
  static constexpr std::size_t kMaxSpansPerThread = 1u << 20;
  static std::atomic<std::uint64_t> next_id_;

  /// Identifies this tracer to the threads' cached slots; unlike its
  /// address, never reused by a later tracer.
  const std::uint64_t id_ = next_id_.fetch_add(1) + 1;

  std::unordered_map<std::string, std::uint32_t> objects_;
  std::vector<std::string> layers_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_request_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadSpans>> threads_;  // guarded by mutex_
};

/// Times every request a hosted server answers.
class TimingHost final : public idicn::net::SimHost {
 public:
  TimingHost(idicn::net::SimHost* inner, Tracer* tracer, const std::string& name)
      : inner_(inner), tracer_(tracer), layer_(tracer->layer(name)) {}

  idicn::net::HttpResponse handle_http(const idicn::net::HttpRequest& request,
                                       const idicn::net::Address& from) override;
  std::shared_ptr<idicn::net::AsyncOp> handle_http_async(
      const idicn::net::HttpRequest& request, const idicn::net::Address& from,
      idicn::net::Executor* exec,
      std::function<void(idicn::net::HttpResponse)> respond) override;

 private:
  idicn::net::SimHost* inner_;
  Tracer* tracer_;
  std::uint32_t layer_;
};

/// Times every upstream exchange of the host it is handed to.
class TimingTransport final : public idicn::net::Transport {
 public:
  TimingTransport(idicn::net::Transport* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  idicn::net::HttpResponse send(const idicn::net::Address& from,
                                const idicn::net::Address& to,
                                const idicn::net::HttpRequest& request) override;
  idicn::net::HttpResponse send_streaming(const idicn::net::Address& from,
                                          const idicn::net::Address& to,
                                          const idicn::net::HttpRequest& request,
                                          idicn::net::ChunkSink& sink) override;
  void send_async(const idicn::net::Address& from, const idicn::net::Address& to,
                  const idicn::net::HttpRequest& request, idicn::net::Executor* exec,
                  idicn::net::SendCallback done) override;
  void send_streaming_async(const idicn::net::Address& from,
                            const idicn::net::Address& to,
                            const idicn::net::HttpRequest& request,
                            std::shared_ptr<idicn::net::ChunkSink> sink,
                            idicn::net::Executor* exec,
                            idicn::net::SendCallback done) override;
  std::vector<idicn::net::HttpResponse> multicast(
      const idicn::net::Address& from, const std::string& group,
      const idicn::net::HttpRequest& request) override {
    return inner_->multicast(from, group, request);
  }
  [[nodiscard]] std::uint64_t now_ms() const override { return inner_->now_ms(); }

 private:
  /// Span bookkeeping shared by the four send flavours; returns the
  /// completion that records the span and forwards the response.
  idicn::net::SendCallback timed(const idicn::net::Address& to,
                                 const idicn::net::HttpRequest& request,
                                 idicn::net::SendCallback done);

  idicn::net::Transport* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#include "tracing.hpp"

#include <cstdio>
#include <string_view>

#include "report.hpp"

namespace perfbench {

using idicn::net::HttpRequest;
using idicn::net::HttpResponse;

namespace {

std::uint32_t mark_of(const HttpResponse& response) {
  if (response.status != 200) return kError;
  const auto cache = response.headers.get_view("X-Cache");
  if (!cache) return kNone;
  if (*cache == "HIT") return kHit;
  if (*cache == "MISS") return kMiss;
  if (*cache == "STREAM") return kStream;
  return kNone;
}

std::uint64_t proof_bytes_of(const HttpResponse& response) {
  std::uint64_t bytes = 0;
  for (const char* name : {"X-IdICN-Signature", "X-IdICN-Publisher"}) {
    if (const auto value = response.headers.get_view(name)) bytes += value->size();
  }
  return bytes;
}

}  // namespace

std::uint32_t Tracer::layer(const std::string& name) {
  for (std::uint32_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i] == name) return i;
  }
  layers_.push_back(name);
  return static_cast<std::uint32_t>(layers_.size() - 1);
}

std::uint32_t Tracer::object_of(const HttpRequest& request) const {
  std::string_view host;
  if (const auto header = request.headers.get_view("Host")) host = *header;
  constexpr std::string_view kResolve = "/resolve?name=";
  if (std::string_view(request.target).substr(0, kResolve.size()) == kResolve) {
    host = std::string_view(request.target).substr(kResolve.size());
  }
  const auto found = objects_.find(std::string(host));
  return found == objects_.end() ? 0 : found->second;
}

std::uint32_t Tracer::upstream_layer(const std::string& to) const {
  for (std::uint32_t i = 0; i < layers_.size(); ++i) {
    const std::string& name = layers_[i];
    if (name.size() == to.size() + 3 && name.compare(0, 3, "up:") == 0 &&
        name.compare(3, std::string::npos, to) == 0) {
      return i;
    }
  }
  return 0;  // "up:?"
}

std::atomic<std::uint64_t> Tracer::next_id_{0};

Tracer::ThreadSpans& Tracer::mine() {
  thread_local std::uint64_t owner = 0;
  thread_local ThreadSpans* spans = nullptr;
  if (owner != id_) {
    const std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::make_unique<ThreadSpans>());
    spans = threads_.back().get();
    spans->slot = static_cast<std::uint32_t>(threads_.size() - 1);
    spans->spans.reserve(4096);
    owner = id_;
  }
  return *spans;
}

void Tracer::record(const Span& span) {
  ThreadSpans& spans = mine();
  if (spans.spans.size() < kMaxSpansPerThread) spans.spans.push_back(span);
}

std::vector<Span> Tracer::collect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> all;
  for (const auto& thread : threads_) {
    all.insert(all.end(), thread->spans.begin(), thread->spans.end());
  }
  return all;
}

std::size_t Tracer::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return 0;
  std::fprintf(out, "start_ns,end_ns,layer,object,thread,mark,request\n");
  const std::vector<Span> spans = collect();
  for (const Span& span : spans) {
    std::fprintf(out, "%llu,%llu,%s,%u,%u,%u,%llu\n",
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns),
                 layers_[span.layer].c_str(), span.object, span.thread, span.mark,
                 static_cast<unsigned long long>(span.request));
  }
  std::fclose(out);
  return spans.size();
}

HttpResponse TimingHost::handle_http(const HttpRequest& request,
                                     const idicn::net::Address& from) {
  if (!tracer_->enabled()) return inner_->handle_http(request, from);
  Span span;
  span.start_ns = now_ns();
  span.layer = layer_;
  span.object = tracer_->object_of(request);
  span.thread = tracer_->thread_slot();
  span.request = tracer_->next_request_id();
  HttpResponse response = inner_->handle_http(request, from);
  span.end_ns = now_ns();
  span.mark = mark_of(response);
  tracer_->record(span);
  return response;
}

std::shared_ptr<idicn::net::AsyncOp> TimingHost::handle_http_async(
    const HttpRequest& request, const idicn::net::Address& from,
    idicn::net::Executor* exec, std::function<void(HttpResponse)> respond) {
  if (!tracer_->enabled()) {
    return inner_->handle_http_async(request, from, exec, std::move(respond));
  }
  Span span;
  span.start_ns = now_ns();
  span.layer = layer_;
  span.object = tracer_->object_of(request);
  span.thread = tracer_->thread_slot();
  span.request = tracer_->next_request_id();
  return inner_->handle_http_async(
      request, from, exec,
      [tracer = tracer_, span, respond = std::move(respond)](HttpResponse response) mutable {
        span.end_ns = now_ns();
        span.mark = mark_of(response);
        tracer->record(span);
        respond(std::move(response));
      });
}

idicn::net::SendCallback TimingTransport::timed(const idicn::net::Address& to,
                                                const HttpRequest& request,
                                                idicn::net::SendCallback done) {
  if (!tracer_->enabled()) return done;
  tracer_->upstream_sends.fetch_add(1, std::memory_order_relaxed);
  Span span;
  span.start_ns = now_ns();
  span.layer = tracer_->upstream_layer(to);
  span.object = tracer_->object_of(request);
  span.thread = tracer_->thread_slot();
  return [tracer = tracer_, span, done = std::move(done)](HttpResponse response) mutable {
    span.end_ns = now_ns();
    span.mark = mark_of(response);
    tracer->proof_bytes.fetch_add(proof_bytes_of(response), std::memory_order_relaxed);
    tracer->record(span);
    done(std::move(response));
  };
}

HttpResponse TimingTransport::send(const idicn::net::Address& from,
                                   const idicn::net::Address& to,
                                   const HttpRequest& request) {
  HttpResponse result;
  timed(to, request, [&](HttpResponse response) { result = std::move(response); })(
      inner_->send(from, to, request));
  return result;
}

HttpResponse TimingTransport::send_streaming(const idicn::net::Address& from,
                                             const idicn::net::Address& to,
                                             const HttpRequest& request,
                                             idicn::net::ChunkSink& sink) {
  HttpResponse result;
  timed(to, request, [&](HttpResponse response) { result = std::move(response); })(
      inner_->send_streaming(from, to, request, sink));
  return result;
}

void TimingTransport::send_async(const idicn::net::Address& from,
                                 const idicn::net::Address& to,
                                 const HttpRequest& request, idicn::net::Executor* exec,
                                 idicn::net::SendCallback done) {
  inner_->send_async(from, to, request, exec, timed(to, request, std::move(done)));
}

void TimingTransport::send_streaming_async(const idicn::net::Address& from,
                                           const idicn::net::Address& to,
                                           const HttpRequest& request,
                                           std::shared_ptr<idicn::net::ChunkSink> sink,
                                           idicn::net::Executor* exec,
                                           idicn::net::SendCallback done) {
  inner_->send_streaming_async(from, to, request, std::move(sink), exec,
                               timed(to, request, std::move(done)));
}

}  // namespace perfbench

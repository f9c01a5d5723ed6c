#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kReadChunk = 256 * 1024;
constexpr std::size_t kMaxHead = 64 * 1024;

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view value) {
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
    value.remove_prefix(1);
  }
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t')) {
    value.remove_suffix(1);
  }
  return value;
}

/// Parse an unsigned number in `base`; false on junk or overflow.
bool parse_number(std::string_view text, int base, std::uint64_t& out) {
  if (text.empty() || text.size() > 15) return false;
  out = 0;
  for (const char c : text) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    if (digit < 0) return false;
    out = out * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(digit);
  }
  return true;
}

void set_nonblocking(int fd) { fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK); }

}  // namespace

LoadGenerator::LoadGenerator(const std::vector<CatalogObject>* catalog,
                             CacheExpectation expect)
    : catalog_(catalog), expect_(expect), epoll_fd_(epoll_create1(EPOLL_CLOEXEC)) {
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  scratch_.resize(kReadChunk);
}

LoadGenerator::~LoadGenerator() {
  for (std::size_t i = 0; i < conns_.size(); ++i) close(i);
  ::close(epoll_fd_);
}

std::size_t LoadGenerator::connect(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect failed: ") + std::strerror(errno));
  }
  set_nonblocking(fd);
  const std::size_t index = conns_.size();
  conns_.emplace_back();
  conns_.back().fd = fd;
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = index;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  return index;
}

void LoadGenerator::close(std::size_t index) {
  Conn& conn = conns_[index];
  if (conn.fd < 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  conn.fd = -1;
  conn.dead = true;
}

bool LoadGenerator::flush(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  conn.out.clear();
  conn.out_pos = 0;
  return true;
}

LoadGenerator::Parse LoadGenerator::parse(Conn& conn, Response& response) {
  const std::string_view view(conn.in.data() + conn.in_pos, conn.in.size() - conn.in_pos);
  const std::size_t head_end = view.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    return view.size() > kMaxHead ? Parse::Bad : Parse::NeedMore;
  }
  const std::size_t line_end = view.find("\r\n");
  const std::string_view status_line = view.substr(0, line_end);
  std::uint64_t status = 0;
  if (status_line.size() < 12 || status_line.substr(0, 5) != "HTTP/" ||
      !parse_number(status_line.substr(9, 3), 10, status)) {
    return Parse::Bad;
  }
  response.status = static_cast<int>(status);
  response.cache = {};
  std::uint64_t content_length = 0;
  bool has_length = false;
  bool chunked = false;
  for (std::size_t pos = line_end + 2; pos < head_end;) {
    const std::size_t end = view.find("\r\n", pos);
    const std::string_view line = view.substr(pos, end - pos);
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return Parse::Bad;
    const std::string_view name = line.substr(0, colon);
    const std::string_view value = trim(line.substr(colon + 1));
    if (iequals(name, "Content-Length")) {
      if (!parse_number(value, 10, content_length)) return Parse::Bad;
      has_length = true;
    } else if (iequals(name, "Transfer-Encoding")) {
      chunked = iequals(value, "chunked");
    } else if (iequals(name, "X-Cache")) {
      response.cache = value;
    }
    pos = end + 2;
  }

  const std::size_t body_start = head_end + 4;
  if (chunked) {
    response.chunked_body.clear();
    std::size_t pos = body_start;
    while (true) {
      const std::size_t size_end = view.find("\r\n", pos);
      if (size_end == std::string_view::npos) return Parse::NeedMore;
      std::string_view size_text = view.substr(pos, size_end - pos);
      size_text = trim(size_text.substr(0, size_text.find(';')));
      std::uint64_t size = 0;
      if (!parse_number(size_text, 16, size)) return Parse::Bad;
      pos = size_end + 2;
      if (size == 0) {  // optional trailers, then the empty line
        while (true) {
          const std::size_t end = view.find("\r\n", pos);
          if (end == std::string_view::npos) return Parse::NeedMore;
          const bool empty_line = end == pos;
          pos = end + 2;
          if (empty_line) break;
        }
        break;
      }
      if (view.size() < pos + size + 2) return Parse::NeedMore;
      if (view.substr(pos + size, 2) != "\r\n") return Parse::Bad;
      response.chunked_body.append(view.substr(pos, size));
      pos += size + 2;
    }
    response.body = response.chunked_body;
    conn.in_pos += pos;
    return Parse::Done;
  }
  if (!has_length) return Parse::Bad;  // every response must be framed
  if (view.size() < body_start + content_length) return Parse::NeedMore;
  response.body = view.substr(body_start, content_length);
  conn.in_pos += body_start + content_length;
  return Parse::Done;
}

void LoadGenerator::complete(const Pending& pending, const Response& response,
                             std::uint64_t now, StepResult& step) {
  const CatalogObject& object = (*catalog_)[pending.object];
  std::string error;
  if (response.status >= 500) {
    ++step.refused;
    if (step.first_error.empty()) step.first_error = "status " + std::to_string(response.status);
    return;
  }
  if (response.status != 200) {
    error = "status " + std::to_string(response.status);
  } else if (response.body.size() != object.body.size()) {
    error = "body length " + std::to_string(response.body.size()) + " != " +
            std::to_string(object.body.size());
  } else if (std::memcmp(response.body.data(), object.body.data(), object.body.size()) != 0) {
    error = "body bytes differ from the object's";
  } else if (response.cache == "HIT") {
    ++step.hits;
  } else if (response.cache == "MISS") {
    ++step.misses;
  } else if (response.cache == "STREAM") {
    ++step.streams;
  } else {
    error = "unexpected X-Cache '" + std::string(response.cache) + "'";
  }
  if (error.empty() && expect_ == CacheExpectation::AllHits && response.cache != "HIT") {
    error = "X-Cache " + std::string(response.cache) + " on a warmed object";
  }
  if (!error.empty()) {
    ++step.failed;
    if (step.first_error.empty()) step.first_error = error;
    return;
  }
  ++step.completed;
  if (record_samples_) {
    step.latency_us.push_back(static_cast<double>(now - pending.intended_ns) / 1e3);
  }
}

void LoadGenerator::fail_connection(Conn& conn, StepResult& step, const std::string& why) {
  step.failed += conn.inflight.size();
  if (step.first_error.empty()) step.first_error = why;
  conn.inflight.clear();
  close(static_cast<std::size_t>(&conn - conns_.data()));
}

void LoadGenerator::pump(Conn& conn, std::uint64_t now, StepResult& step) {
  while (true) {
    const ssize_t n = ::recv(conn.fd, scratch_.data(), scratch_.size(), MSG_DONTWAIT);
    if (n > 0) {
      conn.in.append(scratch_.data(), static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < scratch_.size()) break;
      continue;
    }
    if (n == 0) {
      fail_connection(conn, step, "connection closed by the server");
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    fail_connection(conn, step, std::string("recv: ") + std::strerror(errno));
    return;
  }
  Response response;
  while (conn.in_pos < conn.in.size()) {
    if (conn.inflight.empty()) {
      fail_connection(conn, step, "response without a request");
      return;
    }
    const Parse result = parse(conn, response);
    if (result == Parse::NeedMore) break;
    if (result == Parse::Bad) {
      fail_connection(conn, step, "malformed response framing");
      return;
    }
    complete(conn.inflight.front(), response, now, step);
    conn.inflight.pop_front();
  }
  if (conn.in_pos == conn.in.size()) {
    conn.in.clear();
    conn.in_pos = 0;
  } else if (conn.in_pos > (1u << 20)) {
    conn.in.erase(0, conn.in_pos);
    conn.in_pos = 0;
  }
}

StepResult LoadGenerator::probe(std::size_t index, std::size_t object) {
  Conn& conn = conns_[index];
  conn.out.append((*catalog_)[object].request);
  conn.inflight.push_back(Pending{now_ns(), static_cast<std::uint32_t>(object)});
  StepResult step;
  step.sent = 1;
  const std::uint64_t deadline = now_ns() + 5'000'000'000ULL;
  while (!conn.dead && !conn.inflight.empty() && now_ns() < deadline) {
    if (!flush(conn)) {
      fail_connection(conn, step, "send failed");
      break;
    }
    pollfd pfd{conn.fd, POLLIN, 0};
    if (poll(&pfd, 1, 100) > 0) pump(conn, now_ns(), step);
  }
  if (!conn.dead && !conn.inflight.empty()) fail_connection(conn, step, "no answer in 5 s");
  return step;
}

StepResult LoadGenerator::run(double rate_rps, double seconds, double drain_s,
                              std::mt19937_64& rng, std::size_t max_inflight) {
  StepResult step;
  step.offered_rps = rate_rps;
  step.window_s = seconds;
  const bool saturating = max_inflight > 0;
  record_samples_ = !saturating;
  if (record_samples_) {
    const auto expected = static_cast<std::size_t>(rate_rps * seconds * 1.2 + 16);
    step.latency_us.reserve(expected);
    step.late_us.reserve(expected);
  }

  std::exponential_distribution<double> gap_ns(saturating ? 1.0 : rate_rps / 1e9);
  std::uniform_int_distribution<std::size_t> pick(0, catalog_->size() - 1);
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t drain_deadline = end + static_cast<std::uint64_t>(drain_s * 1e9);
  double next_due = static_cast<double>(start) + (saturating ? 0.0 : gap_ns(rng));
  std::size_t cursor = 0;
  bool window_closed = false;
  epoll_event events[16];
  const auto flush_all = [&] {
    for (Conn& conn : conns_) {
      if (!conn.dead && conn.out_pos < conn.out.size() && !flush(conn)) {
        fail_connection(conn, step, "send failed");
      }
    }
  };

  while (true) {
    const std::uint64_t now = now_ns();
    std::size_t backlog = step.sent - step.completed - step.failed - step.refused;
    while (now < end &&
           (saturating ? backlog < max_inflight : next_due <= static_cast<double>(now))) {
      Conn* conn = nullptr;
      for (std::size_t k = 0; k < conns_.size() && conn == nullptr; ++k) {
        Conn& candidate = conns_[cursor++ % conns_.size()];
        if (!candidate.dead) conn = &candidate;
      }
      if (conn == nullptr) break;
      const auto object = static_cast<std::uint32_t>(pick(rng));
      const std::uint64_t intended = saturating ? now : static_cast<std::uint64_t>(next_due);
      conn->out.append((*catalog_)[object].request);
      conn->inflight.push_back(Pending{intended, object});
      if (record_samples_) step.late_us.push_back(static_cast<double>(now - intended) / 1e3);
      ++step.sent;
      ++backlog;
      if (!saturating) next_due += gap_ns(rng);
    }
    // New requests and writes that earlier hit a full socket buffer.
    flush_all();
    step.backlog_max = std::max(step.backlog_max, backlog);
    if (now >= end && !window_closed) {
      window_closed = true;
      step.backlog_end = backlog;
    }
    if (now >= end && backlog == 0) break;
    const bool all_dead =
        std::all_of(conns_.begin(), conns_.end(), [](const Conn& c) { return c.dead; });
    if (now >= drain_deadline || all_dead) {
      for (Conn& conn : conns_) {
        if (!conn.inflight.empty()) {
          fail_connection(conn, step, "no answer before the drain deadline");
        }
      }
      break;
    }
    const int ready = epoll_wait(epoll_fd_, events, 16, 0);
    if (ready > 0) {
      const std::uint64_t received = now_ns();
      for (int i = 0; i < ready; ++i) {
        Conn& conn = conns_[events[i].data.u64];
        if (!conn.dead) pump(conn, received, step);
      }
    }
  }
  step.achieved_rps = static_cast<double>(step.completed) / seconds;
  return step;
}

CannedServer::CannedServer(std::string response) : response_(std::move(response)) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listen_fd_ < 0 ||
      bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0 ||
      getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error("canned server: cannot listen");
  }
  port_ = ntohs(addr.sin_port);
}

CannedServer::~CannedServer() {
  stop();
  ::close(listen_fd_);
}

void CannedServer::serve(std::size_t count, const std::vector<int>& cpus) {
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) throw std::runtime_error("canned server: accept failed");
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    set_nonblocking(fd);
    fds_.push_back(fd);
  }
  for (std::size_t t = 0; t < cpus.size(); ++t) {
    std::vector<int> mine;
    for (std::size_t i = t; i < fds_.size(); i += cpus.size()) mine.push_back(fds_[i]);
    threads_.emplace_back([this, mine, cpu = cpus[t]] {
      pin_thread(0, cpu);
      struct Peer {
        int fd;
        std::string in, out;
      };
      std::vector<Peer> peers;
      for (const int fd : mine) peers.push_back(Peer{fd, {}, {}});
      std::string buffer(kReadChunk, '\0');
      while (!stopping_.load(std::memory_order_relaxed)) {
        bool busy = false;
        for (Peer& peer : peers) {
          const ssize_t n = ::recv(peer.fd, buffer.data(), buffer.size(), MSG_DONTWAIT);
          if (n > 0) {
            busy = true;
            peer.in.append(buffer.data(), static_cast<std::size_t>(n));
            std::size_t pos = 0;
            std::size_t end = 0;
            while ((end = peer.in.find("\r\n\r\n", pos)) != std::string::npos) {
              peer.out += response_;
              pos = end + 4;
            }
            peer.in.erase(0, pos);
          }
          if (!peer.out.empty()) {
            const ssize_t sent = ::send(peer.fd, peer.out.data(), peer.out.size(),
                                        MSG_DONTWAIT | MSG_NOSIGNAL);
            if (sent > 0) peer.out.erase(0, static_cast<std::size_t>(sent));
          }
        }
        if (!busy) {
          std::vector<pollfd> wait;
          for (const Peer& peer : peers) {
            const short events = peer.out.empty() ? POLLIN : POLLIN | POLLOUT;
            wait.push_back(pollfd{peer.fd, events, 0});
          }
          poll(wait.data(), wait.size(), 5);
        }
      }
    });
  }
}

void CannedServer::stop() {
  stopping_.store(true);
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
  for (const int fd : fds_) ::close(fd);
  fds_.clear();
}

}  // namespace perfbench

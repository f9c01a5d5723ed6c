#include "net/sim_net.hpp"

#include <stdexcept>

namespace idicn::net {

void SimNet::attach(const Address& address, SimHost* host) {
  if (host == nullptr) throw std::invalid_argument("SimNet::attach: null host");
  if (!hosts_.emplace(address, host).second) {
    throw std::invalid_argument("SimNet::attach: address in use: " + address);
  }
}

void SimNet::detach(const Address& address) {
  hosts_.erase(address);
  unreachable_.erase(address);
  for (auto& [group, members] : groups_) members.erase(address);
}

bool SimNet::is_attached(const Address& address) const {
  return hosts_.find(address) != hosts_.end();
}

void SimNet::set_reachable(const Address& address, bool reachable) {
  if (reachable) {
    unreachable_.erase(address);
  } else {
    unreachable_.insert(address);
  }
}

std::uint64_t SimNet::latency_to(const Address& to) const {
  const auto it = latency_override_.find(to);
  return it != latency_override_.end() ? it->second : default_latency_ms_;
}

// idicn-analysis: allow(*): message-oriented transport completes inline whatever the executor; no loop-native path runs on SimNet
void SimNet::send_streaming_async(const Address& from, const Address& to,
                                  const HttpRequest& request,
                                  std::shared_ptr<ChunkSink> sink,
                                  Executor* /*exec*/, SendCallback done) {
  ++messages_sent_;
  bytes_sent_ += request.serialize().size();
  clock_ms_ += latency_to(to);

  HttpResponse response;
  const auto it = hosts_.find(to);
  if (it == hosts_.end() || unreachable_.count(to) != 0) {
    response = make_response(504, "unreachable: " + to);
  } else {
    ++pair_messages_[{from, to}];
    response = it->second->handle_http(request, from);
    // Response trip.
    clock_ms_ += latency_to(from);
    bytes_sent_ += response.serialize().size();
  }
  if (sink != nullptr) replay_to_sink(response, *sink);
  done(std::move(response));
}

void SimNet::join_group(const std::string& group, const Address& member) {
  groups_[group].insert(member);
}

void SimNet::leave_group(const std::string& group, const Address& member) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  it->second.erase(member);
  if (it->second.empty()) groups_.erase(it);
}

std::vector<Address> SimNet::group_members(const std::string& group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  return std::vector<Address>(it->second.begin(), it->second.end());
}

std::vector<HttpResponse> SimNet::multicast(const Address& from, const std::string& group,
                                            const HttpRequest& request) {
  std::vector<HttpResponse> responses;
  for (const Address& member : group_members(group)) {
    if (member == from) continue;
    if (unreachable_.count(member) != 0) continue;
    responses.push_back(send(from, member, request));
  }
  return responses;
}

std::uint64_t SimNet::messages_between(const Address& from, const Address& to) const {
  const auto it = pair_messages_.find({from, to});
  return it != pair_messages_.end() ? it->second : 0;
}

}  // namespace idicn::net

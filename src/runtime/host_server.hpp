// SimHost → real-socket adapter (single-reactor spelling).
//
// HostServer takes any net::SimHost (Proxy, NameResolutionSystem,
// OriginServer, ReverseProxy, …) and serves it over real loopback TCP.
// Since PR 4 it is a thin shell over runtime::ServerGroup — the N-worker
// multi-reactor — fixed at the group's defaults (one worker unless
// Options::workers says otherwise). A one-worker server accepts on one
// listener without SO_REUSEPORT, so a second server on its port fails to
// bind, and start() throws. Everything HostServer historically
// promised (keep-alive, pipelining, backpressure, idle/request timeouts,
// per-connection single-thread ownership) now lives in server_group.cpp;
// see server_group.hpp for the threading contract.
#pragma once

#include "runtime/server_group.hpp"

namespace idicn::runtime {

class HostServer : public ServerGroup {
 public:
  using Options = ServerGroup::Options;
  using Stats = ServerGroup::Stats;

  HostServer(net::SimHost* host, std::string address)
      : ServerGroup(host, std::move(address)) {}
  HostServer(net::SimHost* host, std::string address, Options options)
      : ServerGroup(host, std::move(address), options) {}

  /// Historic name for the cross-thread door: execute `fn` with exclusive
  /// access to the hosted SimHost and wait. With one worker this is
  /// exactly the old post-and-wait semantics; with several it parks the
  /// whole group (run_on_all_workers).
  void run_on_loop(const std::function<void()>& fn) { run_on_all_workers(fn); }
};

}  // namespace idicn::runtime

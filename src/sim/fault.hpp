// Deterministic fault injection for crash-restart scenarios.
//
// The paper's soft-state design (§5) only pays off if servers actually
// crash: a FaultPlan is a virtual-time schedule of node crashes and restarts
// plus per-link fault knobs (drop / duplicate / delay / jitter), driven two
// ways:
//  * run() -- over the deterministic SimNetwork: deliveries, maintenance
//    ticks and fault events interleave at exact virtual times, so the whole
//    faulted execution is bit-identical run to run;
//  * take_due() -- the wall-clock harness hook: a UDP driver polls for due
//    events and applies them itself (see tests/test_udp_stress.cpp).
//
// The plan does not know HOW to crash a node -- the hooks do (typically
// core::Deployment::crash / restart, which destroy and rebuild the reactor;
// pair with SimNetwork::set_node_down to also blackhole in-flight traffic).
#pragma once

#include <functional>
#include <tuple>
#include <vector>

#include "net/sim_network.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace locs::sim {

class FaultPlan {
 public:
  struct Event {
    TimePoint at = 0;
    enum class Kind { kCrash, kRestart } kind = Kind::kCrash;
    NodeId node;
  };

  struct Hooks {
    std::function<void(NodeId)> crash;
    std::function<void(NodeId)> restart;
    /// Periodic maintenance (Deployment::tick_all, coalescer ticks, ...)
    /// interleaved with deliveries every tick_every of virtual time.
    std::function<void(TimePoint)> tick;
    Duration tick_every = 0;
  };

  FaultPlan& crash_at(TimePoint at, NodeId node);
  FaultPlan& restart_at(TimePoint at, NodeId node);
  /// Installed on the network when run() starts (UDP harnesses apply their
  /// own loss; the knobs are SimNetwork-only).
  FaultPlan& link_fault(NodeId from, NodeId to, net::SimNetwork::LinkFault f);

  /// Drives `net` to `deadline`, firing ticks and crash/restart events at
  /// their exact virtual times. Events scheduled past the deadline stay
  /// pending (a later run() continues the plan). Deterministic: identical
  /// plans over identical networks yield identical executions.
  void run(net::SimNetwork& net, const Hooks& hooks, TimePoint deadline);

  /// Wall-clock harness hook: pops every not-yet-fired event with at <= now
  /// (in schedule order) for the caller to apply. `now` is whatever clock
  /// the harness drives -- e.g. milliseconds since soak start.
  std::vector<Event> take_due(TimePoint now);

  std::size_t pending_events() const { return events_.size() - next_; }

 private:
  void sort_events();

  std::vector<Event> events_;
  std::size_t next_ = 0;
  bool sorted_ = false;
  std::vector<std::tuple<NodeId, NodeId, net::SimNetwork::LinkFault>> link_faults_;
};

}  // namespace locs::sim

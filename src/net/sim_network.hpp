// Deterministic in-process network simulation.
//
// Messages are serialized through the real wire codec, delayed by a
// configurable latency model (base + per-byte + jitter), optionally dropped
// or blocked (failure injection), and delivered in virtual time from a
// single event queue. Identical seeds yield identical executions; buffer
// pooling recycles payloads after delivery and is trace-invariant (the
// determinism tests compare pooled vs unpooled runs byte for byte).
//
// Fault injection (sim/fault.hpp drives this): per-link drop / duplicate /
// delay / jitter knobs and whole-node blackouts. All fault randomness draws
// from a DEDICATED rng stream, so installing a fault on one link never
// perturbs the latency jitter of the others -- and with no faults installed
// the delivery path performs no extra rng draws, keeping no-fault traces
// bit-identical to fault-free builds.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "net/transport.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace locs::net {

class SimNetwork : public Transport {
 public:
  struct Options {
    Duration base_latency = microseconds(250);  // one-way LAN-ish latency
    Duration per_kilobyte = microseconds(80);   // ~100 Mbit/s serialization
    double jitter_frac = 0.1;                   // +/- fraction of the latency
    double loss_prob = 0.0;
    std::uint64_t seed = 42;
  };

  SimNetwork() : SimNetwork(Options{}) {}
  explicit SimNetwork(Options opts)
      : opts_(opts),
        rng_(opts.seed),
        fault_rng_(opts.seed ^ 0x9e3779b97f4a7c15ULL) {}

  using Transport::attach;
  void attach(NodeId node, DatagramHandler handler) override {
    handlers_[node] = std::move(handler);
  }

  /// Queued messages addressed to a detached node are dropped at delivery.
  void detach(NodeId node) override { handlers_.erase(node); }

  using Transport::send;
  void send(NodeId from, NodeId to, PooledBuffer bytes) override;

  /// Delivers the next pending message (advancing virtual time). Returns
  /// false if the queue is empty. The delivered payload returns to the
  /// buffer pool afterwards.
  bool step();

  /// Runs until no messages are pending (or `max_events` deliveries).
  /// Returns the number of messages delivered.
  std::size_t run_until_idle(std::size_t max_events = SIZE_MAX);

  /// Runs until virtual time reaches `deadline` (messages scheduled later
  /// stay queued).
  std::size_t run_until(TimePoint deadline);

  ManualClock& clock() { return clock_; }
  const ManualClock& clock() const { return clock_; }
  TimePoint now() const { return clock_.now(); }

  /// Failure injection: return true to drop the message.
  using DropFn = std::function<bool(NodeId from, NodeId to)>;
  void set_drop_fn(DropFn fn) { drop_fn_ = std::move(fn); }

  /// Per-link fault knobs (fault subsystem; see the header note).
  struct LinkFault {
    double drop_prob = 0.0;  // lose the datagram
    double dup_prob = 0.0;   // deliver a second, independently delayed copy
    Duration extra_delay = 0;  // fixed skew (reorders vs other links)
    double jitter_frac = 0.0;  // extra +/- latency fraction on this link
  };
  void set_link_fault(NodeId from, NodeId to, LinkFault fault) {
    link_faults_[{from.value, to.value}] = fault;
  }

  /// Transport-level blackout: while down, every datagram to or from the
  /// node is dropped (counted in messages_dropped). Crash emulation pairs
  /// this with destroying the reactor (core::Deployment::crash).
  void set_node_down(NodeId node, bool down) {
    if (down) {
      down_nodes_.insert(node);
    } else {
      down_nodes_.erase(node);
    }
  }

  /// Observer for every delivered message (Fig-6 hop tracing in tests).
  using Tracer =
      std::function<void(TimePoint at, NodeId from, NodeId to, const wire::Buffer&)>;
  void set_tracer(Tracer t) { tracer_ = std::move(t); }

  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    NodeId from, to;
    PooledBuffer bytes;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  /// Queues one delivery event after the fault/latency model ran.
  void enqueue(NodeId from, NodeId to, PooledBuffer bytes, Duration delay);

  Options opts_;
  Rng rng_;
  Rng fault_rng_;  // dedicated stream for fault decisions (see header)
  ManualClock clock_;
  // Binary heap over a plain vector (std::push_heap/pop_heap) instead of
  // std::priority_queue: the top event can be MOVED out (priority_queue::top
  // is const&, forcing a payload copy), and the vector's capacity is reused
  // across the run -- both matter on the zero-allocation delivery path.
  std::vector<Event> queue_;
  std::unordered_map<NodeId, DatagramHandler> handlers_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, LinkFault> link_faults_;
  std::unordered_set<NodeId> down_nodes_;
  DropFn drop_fn_;
  Tracer tracer_;
  std::uint64_t seq_ = 0;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_dropped_ = 0;
};

}  // namespace locs::net

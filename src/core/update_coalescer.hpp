// Client-side update coalescing stage.
//
// Under millions of tracked objects, many UpdateReqs target the same leaf
// within one latency window, and each one pays a full envelope + syscall +
// per-message dispatch. An UpdateCoalescer sits between the update sources
// (TrackedObjects, sensor gateways, simulators) and the transport: it packs
// sightings bound for the same agent leaf into wire::BatchedUpdateReq
// datagrams, amortizing that per-message cost by the batching factor.
//
// Flush policy (the wire format itself carries no timing state; see the
// framing note in wire/messages.hpp):
//  * size    -- a pending batch reaching max_batch sightings flushes,
//  * bytes   -- a pending batch whose packed payload reaches max_bytes
//               flushes (keeps batches inside one datagram / MTU budget),
//  * deadline-- tick() flushes any batch whose OLDEST sighting has waited
//               max_delay (bounds the extra latency coalescing adds),
//  * forced  -- flush_all() drains everything (shutdown, simulation sync).
//
// The coalescer owns a NodeId: the leaf replies to the envelope source, so
// acks, agent changes, unknown-object answers and refresh requests arrive
// HERE and are fanned back out to the per-object owners through the
// registered callbacks. Thread safety matches QueryClient: enqueue/tick/flush
// may run on one thread while the transport's receive context invokes
// handle(); callbacks are invoked WITHOUT the internal lock held (they
// typically lock a TrackedObject that may itself be mid-enqueue on another
// thread).
#pragma once

#include <functional>
#include <mutex>
#include <unordered_map>

#include "core/types.hpp"
#include "net/transport.hpp"
#include "util/clock.hpp"
#include "wire/messages.hpp"

namespace locs::core {

class UpdateCoalescer {
 public:
  struct Options {
    /// Flush a pending batch at this many sightings. 1 degenerates to one
    /// datagram per update (useful for A/B runs; still batch-framed).
    std::size_t max_batch = 16;
    /// Flush when the packed payload reaches this many bytes (datagram /
    /// MTU budget).
    std::size_t max_bytes = 1200;
    /// Deadline flush: the oldest buffered sighting waits at most this long
    /// (enforced by tick(); the added update latency is bounded by it).
    Duration max_delay = milliseconds(5);
  };

  struct Stats {
    std::uint64_t sightings_enqueued = 0;
    std::uint64_t batches_sent = 0;
    std::uint64_t flushes_size = 0;      // max_batch reached
    std::uint64_t flushes_bytes = 0;     // max_bytes reached
    std::uint64_t flushes_deadline = 0;  // max_delay elapsed (tick)
    std::uint64_t flushes_forced = 0;    // flush_all
    std::uint64_t acks_received = 0;  // (oid, acc) entries across packed acks
  };

  using AckFn = std::function<void(ObjectId, double offered_acc)>;
  using AgentChangedFn =
      std::function<void(ObjectId, NodeId new_agent, double offered_acc)>;
  using RefreshFn = std::function<void(ObjectId)>;
  using UnknownObjectFn = std::function<void(ObjectId, NodeId leaf)>;

  UpdateCoalescer(NodeId self, net::Transport& net, Clock& clock, Options opts);
  /// Flushes every pending batch, then detaches from the transport.
  ~UpdateCoalescer();

  UpdateCoalescer(const UpdateCoalescer&) = delete;
  UpdateCoalescer& operator=(const UpdateCoalescer&) = delete;

  /// Fan-out of the leaf's replies; set during setup, before traffic.
  void set_on_ack(AckFn fn) { on_ack_ = std::move(fn); }
  void set_on_agent_changed(AgentChangedFn fn) {
    on_agent_changed_ = std::move(fn);
  }
  /// Fan-out of refresh requests (wire::BatchedRefreshReq): a restarted
  /// leaf asks the registering instance -- this node, for gateway-style
  /// setups -- to refresh each listed object, in a recovery sweep or for a
  /// waiting position query; the owner typically re-feeds the object's last
  /// position through enqueue().
  void set_on_refresh(RefreshFn fn) { on_refresh_ = std::move(fn); }
  /// Fan-out of wire::UnknownObject: `leaf` has no record of the object an
  /// update named. The owner registers the object again if `leaf` is its
  /// agent (TrackedObject::apply_unknown_object).
  void set_on_unknown_object(UnknownObjectFn fn) {
    on_unknown_object_ = std::move(fn);
  }

  /// Buffers one sighting bound for `agent`; may flush (size / byte budget).
  void enqueue(NodeId agent, const Sighting& s);

  /// Deadline sweep; call from the owner's periodic tick.
  void tick(TimePoint now);

  /// Drains every pending batch immediately.
  void flush_all();

  NodeId node() const { return self_; }
  const Options& options() const { return opts_; }
  Stats stats() const;
  std::size_t pending_sightings() const;

 private:
  struct Pending {
    wire::BatchedUpdateReq batch;  // packed in place; capacity reused
    TimePoint oldest = 0;          // enqueue time of the oldest sighting
  };

  void handle(const std::uint8_t* data, std::size_t len);
  void flush_locked(NodeId agent, Pending& p);

  NodeId self_;
  net::Transport& net_;
  Clock& clock_;
  Options opts_;

  mutable std::mutex mu_;  // guards pending_ and stats_
  std::unordered_map<NodeId, Pending> pending_;
  Stats stats_;

  wire::Envelope rx_scratch_;  // receive-side decode scratch (handle())
  AckFn on_ack_;
  AgentChangedFn on_agent_changed_;
  RefreshFn on_refresh_;
  UnknownObjectFn on_unknown_object_;
};

}  // namespace locs::core

// ShardedLocationServer -- one leaf NodeId, N LocationServer shards.
//
// The paper's leaf servers absorb the overwhelming share of update and query
// traffic (§7.2). This class shards a leaf's OBJECT SPACE across N
// LocationServer instances behind the same NodeId and service area:
//
//   * routing -- every incoming datagram is peeked (wire::peek_object_key)
//     without a full decode; object-keyed messages go to shard
//     shard_of(ObjectId, N), area-keyed messages (range / NN / events) go to
//     shard 0, the coordinator shard (see the routing invariant in
//     core/location_server.hpp). shard_of is a pure function, so there is
//     no routing state to keep consistent and no soft state ever moves
//     between shards: its splitmix64 key mix already spreads the strided id
//     blocks that would alias under a raw modulo;
//   * state -- each shard owns a partition of the visitor records and a
//     SightingDb slice with its OWN spatial index;
//   * query fan-out -- the coordinator shard's range/NN/event paths read a
//     store::SightingsView spanning every slice and merge sub-results in the
//     existing query scratch state, so the leaf emits exactly one sub-result
//     per probe, like an unsharded leaf;
//   * events -- leaf predicates live on the coordinator shard; sibling
//     shards fan their sighting presence changes in through a hook (skipped
//     while no predicate is installed).
//
// Execution: handle() runs the owning shard inline, on the thread that
// delivers the datagram (the SimNetwork delivery loop or the node's
// UdpNetwork receive thread). Delivery order is exactly the unsharded order,
// and with shards = 1 the whole message trace is BIT-IDENTICAL to a plain
// LocationServer. The class takes no lock: callers serialize handle(),
// tick() and the accessors per node (Deployment holds one mutex per node).
//
// The hierarchy protocol above the leaf is unchanged: parents, siblings and
// clients see one NodeId sending exactly the messages an unsharded leaf
// would send. The §6.5 caches are SHARED across the shards (one
// LeafAreaCache / ObjectAgentCache / PositionCache per leaf), so cache hit
// patterns -- and with them message counts -- also match an unsharded leaf
// with caches enabled.
//
// Fault tolerance: a restarted sharded leaf announces recovery once (shard 0
// sends the RecoveryHello); the parent's BatchedRefreshReq sweep is split
// per owning shard exactly like batched updates (split_by_owner), so each
// shard refreshes only the visitors of its own slice.
#pragma once

#include <memory>
#include <vector>

#include "core/location_server.hpp"
#include "store/sighting_view.hpp"

namespace locs::core {

class ShardedLocationServer {
 public:
  struct Options {
    /// Number of shards (1 behaves exactly like a LocationServer).
    std::uint32_t shards = 1;
    /// Options forwarded to every shard's LocationServer.
    LocationServer::Options server;
  };

  /// Persistent visitorDB factory, called once per (node, shard): each
  /// shard persists only its own objects (default: in-memory).
  using VisitorDbFactory =
      std::function<store::VisitorDb(NodeId, std::uint32_t shard)>;

  ShardedLocationServer(NodeId self, ConfigRecord cfg, net::Transport& net,
                        Clock& clock, Options opts,
                        const VisitorDbFactory& visitor_db_factory = {},
                        spatial::IndexFactory index_factory = nullptr);

  ShardedLocationServer(const ShardedLocationServer&) = delete;
  ShardedLocationServer& operator=(const ShardedLocationServer&) = delete;

  /// Transport entry point: runs the owning shard(s) on the calling thread,
  /// forwarding the Datagram (and with it the pin escape hatch; see
  /// net/transport.hpp) so the coordinator's merge paths can pin the receive
  /// buffer exactly like an unsharded server.
  void handle(const net::Datagram& dg);

  /// Borrow-only convenience overload (tests, synthesized datagrams).
  void handle(const std::uint8_t* data, std::size_t len) {
    handle(net::Datagram(data, len));
  }

  /// Sweeps soft-state expiry and pending-operation timeouts on every shard.
  void tick(TimePoint now);

  /// Recovery hook: see LocationServer::request_refresh_all.
  void request_refresh_all();

  /// Crash-restart announcement: shard 0 sends the single RecoveryHello for
  /// this leaf NodeId (the parent's reply sweep is split per owning shard).
  /// A root leaf sweeps every shard's persisted visitors locally instead.
  void announce_recovery();

  /// Hot-standby wiring (Deployment::Config::leaf_standby): every shard tees
  /// its accepted sightings to `standby`; the replica side splits the tee per
  /// owning shard (handle()), so each standby shard mirrors exactly its own
  /// slice and promotion happens per-shard.
  void set_standby(NodeId standby);
  /// Replica role: every shard mirrors `primary` (ReplicaTee entries route to
  /// the shard owning each ObjectId; StandbyPromote/Demote broadcast to all).
  void set_standby_role(NodeId primary);

  /// The shard owning an object id: splitmix64(oid) % shard_count. The same
  /// for every node and for the object's whole lifetime, so a handover
  /// re-routes the object to the owning shard of the new agent.
  static std::uint32_t shard_of(ObjectId oid, std::uint32_t shard_count);

  /// Point-in-time per-shard occupancy snapshot.
  struct ShardLoad {
    std::uint32_t shard = 0;
    std::size_t sightings = 0;     // slice SightingDb records
    std::size_t visitors = 0;      // slice visitorDB records
    std::uint64_t msgs_handled = 0;  // shard lifetime message count
  };
  std::vector<ShardLoad> shard_loads() const;

  NodeId id() const { return self_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Aggregated statistics across shards.
  LocationServer::Stats stats() const;

  /// Direct access to one shard (tests / introspection).
  LocationServer& shard(std::uint32_t index) { return *shards_[index]; }
  const LocationServer& shard(std::uint32_t index) const { return *shards_[index]; }

  /// Copies the sighting record for `oid` out of its owning slice. Returns
  /// false if unknown.
  bool find_sighting(ObjectId oid, store::SightingDb::Record& out) const {
    return merged_view_.lookup(oid, out);
  }

 private:
  std::uint32_t route(const std::uint8_t* data, std::size_t len) const;
  /// Splits a datagram of M -- a message whose only field is a packed list
  /// of object-keyed entries: BatchedUpdateReq, BatchedRefreshReq,
  /// ReplicaTee -- per owning shard (wire::list_items delimits each entry
  /// without a full envelope decode). A list whose entries all belong to one
  /// shard is forwarded unchanged; a straddling list is re-framed into
  /// per-shard sub-lists under the original envelope header (ascending shard
  /// order, keeping SimNetwork execution deterministic). Returns false
  /// if the datagram is not a well-formed M (caller falls back to shard 0).
  template <typename M>
  bool split_by_owner(const std::uint8_t* data, std::size_t len);

  NodeId self_;
  std::vector<std::unique_ptr<LocationServer>> shards_;
  store::SightingsView merged_view_;  // coordinator's cross-slice query view

  // Shared §6.5 caches (one set per leaf; every shard points here via
  // LocationServer::share_caches).
  LeafAreaCache shared_leaf_cache_;
  ObjectAgentCache shared_agent_cache_;
  PositionCache shared_position_cache_;

  // List-split scratch: per-shard packed regions / counts, and the sub-list
  // datagram under construction.
  std::vector<wire::Buffer> split_packed_;
  std::vector<std::uint64_t> split_counts_;
  wire::Buffer split_datagram_;
};

}  // namespace locs::core

// ShardedLocationServer -- one leaf NodeId, N single-threaded shard reactors.
//
// The paper's leaf servers absorb the overwhelming share of update and query
// traffic (§7.2), and a LocationServer is a single-threaded reactor, so one
// hot leaf is capped at one core. This class shards a leaf's OBJECT SPACE
// across N LocationServer instances behind the same NodeId and service area:
//
//   * routing -- every incoming datagram is peeked (wire::peek_object_key)
//     without a full decode; object-keyed messages go to shard
//     shard_of(ObjectId, N), area-keyed messages (range / NN / events) go to
//     shard 0, the coordinator shard (see the routing invariant in
//     core/location_server.hpp). shard_of is a pure function, so there is
//     no routing state to keep consistent and no soft state ever moves
//     between shards: its splitmix64 key mix already spreads the strided id
//     blocks that would alias under a raw modulo;
//   * state -- each shard owns a partition of the visitor records, a
//     SightingDb slice with its OWN spatial index, and a PRIVATE send
//     BufferPool (net/buffer_pool.hpp) so concurrent shards never contend on
//     the transport's shared free list;
//   * query fan-out -- the coordinator shard's range/NN/event paths read a
//     store::SightingsView spanning every slice (one slice lock at a time)
//     and merge sub-results in the existing query scratch state, so the leaf
//     emits exactly one sub-result per probe, like an unsharded leaf;
//   * events -- leaf predicates live on the coordinator shard; sibling
//     shards fan their sighting presence changes in through a hook (skipped
//     lock-free while no predicate is installed).
//
// Execution modes:
//   * inline (threaded = false): handle() runs the owning shard on the
//     calling thread. Used over the deterministic SimNetwork -- delivery
//     order is exactly the unsharded order, and with shards = 1 the whole
//     message trace is BIT-IDENTICAL to a plain LocationServer.
//   * threaded (threaded = true): handle() -- invoked from the node's single
//     transport receive context -- copies the datagram into the owning
//     shard's SPSC inbox (net/spsc_inbox.hpp); one reactor thread per shard
//     drains it. Used over UdpNetwork so a hot leaf scales across cores.
//
// The hierarchy protocol above the leaf is unchanged: parents, siblings and
// clients see one NodeId sending exactly the messages an unsharded leaf
// would send. The §6.5 caches are SHARED across the shard reactors (one
// LeafAreaCache / ObjectAgentCache / PositionCache per leaf, mutex-guarded
// only in threaded mode), so cache hit patterns -- and with them message
// counts -- also match an unsharded leaf with caches enabled.
//
// Fault tolerance: a restarted sharded leaf announces recovery once (shard 0
// sends the RecoveryHello); the parent's BatchedRefreshReq sweep is split
// per owning shard exactly like batched updates (split_by_owner), so each
// shard refreshes only the visitors of its own slice.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/location_server.hpp"
#include "net/spsc_inbox.hpp"
#include "store/sighting_view.hpp"

namespace locs::core {

class ShardedLocationServer {
 public:
  struct Options {
    /// Number of shard reactors (1 behaves exactly like a LocationServer).
    std::uint32_t shards = 1;
    /// Spawn one reactor thread per shard and deliver through SPSC inboxes.
    /// Leave false over SimNetwork (inline execution keeps delivery
    /// deterministic); set true over UdpNetwork.
    bool threaded = false;
    /// Options forwarded to every shard's LocationServer.
    LocationServer::Options server;
  };

  /// Per-shard persistent visitorDB factory (default: in-memory).
  using ShardVisitorDbFactory = std::function<store::VisitorDb(std::uint32_t)>;

  ShardedLocationServer(NodeId self, ConfigRecord cfg, net::Transport& net,
                        Clock& clock, Options opts,
                        ShardVisitorDbFactory visitor_db_factory = {},
                        spatial::IndexFactory index_factory = nullptr);

  /// Detaches from the transport, then joins the shard reactors (each drains
  /// its inbox before exiting).
  ~ShardedLocationServer();

  ShardedLocationServer(const ShardedLocationServer&) = delete;
  ShardedLocationServer& operator=(const ShardedLocationServer&) = delete;

  /// Transport entry point. Must be invoked from a single context per node
  /// (SimNetwork delivery loop / the node's UdpNetwork receive thread): the
  /// inboxes are single-producer. Inline mode forwards the Datagram (and
  /// with it the pin escape hatch) to the owning shard; threaded mode
  /// copies through the SPSC inbox, where a shard-side pin degrades to a
  /// pooled copy (see net/transport.hpp).
  void handle(const net::Datagram& dg);

  /// Borrow-only convenience overload (tests, synthesized datagrams).
  void handle(const std::uint8_t* data, std::size_t len) {
    handle(net::Datagram(data, len));
  }

  /// Opens one dedicated transmit channel per shard (Transport::open_sender)
  /// and routes each shard reactor's sends through it: over UdpNetwork every
  /// shard then owns its own SO_REUSEPORT socket + transmit ring, so N
  /// shards do N independent sendmmsg-batched sends with zero shared
  /// send-side state. No-op in inline mode (one delivery context -- nothing
  /// to decouple) and on transports without per-sender channels (SimNetwork
  /// returns nullptr). Call AFTER the leaf's NodeId is attached -- the
  /// channels can then join the node's SO_REUSEPORT group (Deployment does
  /// this) -- and before traffic.
  void open_tx_senders();

  /// Sweeps soft-state expiry and pending-operation timeouts on every shard
  /// (serialized against the shard reactors in threaded mode).
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

  /// Point-in-time per-shard load snapshot (queue depth + occupancy).
  /// Serialized against the shard reactors in threaded mode.
  struct ShardLoad {
    std::uint32_t shard = 0;
    std::size_t sightings = 0;     // slice SightingDb records
    std::size_t visitors = 0;      // slice visitorDB records
    std::uint64_t msgs_handled = 0;  // reactor lifetime message count
    std::size_t inbox_depth = 0;   // SPSC inbox backlog (threaded mode)
  };
  std::vector<ShardLoad> shard_loads() const;

  NodeId id() const { return self_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  /// Aggregated statistics across shards.
  LocationServer::Stats stats() const;

  /// Direct access to one shard reactor (tests / introspection). Do not
  /// mutate through this while shard threads run.
  LocationServer& shard(std::uint32_t index) { return *shards_[index]->server; }
  const LocationServer& shard(std::uint32_t index) const {
    return *shards_[index]->server;
  }

  /// Copies the sighting record for `oid` out of its owning slice (safe
  /// against concurrent shard reactors). Returns false if unknown.
  bool find_sighting(ObjectId oid, store::SightingDb::Record& out) const {
    return merged_view_.lookup(oid, out);
  }

  /// Datagrams dropped because a shard inbox stayed full (threaded mode).
  std::uint64_t inbox_dropped() const {
    return inbox_dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : inbox(capacity) {}

    std::uint32_t index = 0;
    std::shared_ptr<net::BufferPool> pool;  // private send pool (adopted by
                                            // the transport for lifetime)
    std::shared_ptr<net::Sender> tx;  // dedicated transmit channel (threaded
                                      // mode; see open_tx_senders)
    // Reactor-side view of `tx`: open_tx_senders() publishes here AFTER the
    // shard threads have started, so the loop reads an atomic instead of
    // racing the shared_ptr.
    std::atomic<net::Sender*> tx_raw{nullptr};
    std::unique_ptr<LocationServer> server;
    mutable std::mutex slice_mu;    // SightingDb slice vs. cross-shard reads
    mutable std::mutex reactor_mu;  // serializes handle()/tick() (threaded)
    net::SpscInbox inbox;
    std::thread thread;
    // Sleep/wake protocol: the consumer advertises `sleeping` before waiting
    // so producers only pay the wakeup syscall when someone actually sleeps.
    std::mutex wake_mu;
    std::condition_variable wake_cv;
    std::atomic<bool> sleeping{false};
  };

  struct SightingDelta {
    ObjectId oid;
    bool present;
    geo::Point pos;
  };

  std::uint32_t route(const std::uint8_t* data, std::size_t len) const;
  /// Delivers one datagram to a shard (inline call or SPSC inbox push).
  void deliver(Shard& sh, const net::Datagram& dg);
  /// Splits a datagram of M -- a message whose only field is a packed list
  /// of object-keyed entries: BatchedUpdateReq, BatchedRefreshReq,
  /// ReplicaTee -- per owning shard (wire::list_items delimits each entry
  /// without a full envelope decode). A list whose entries all belong to one
  /// shard is forwarded unchanged; a straddling list is re-framed into
  /// per-shard sub-lists under the original envelope header (ascending shard
  /// order, keeping inline SimNetwork execution deterministic). Returns false
  /// if the datagram is not a well-formed M (caller falls back to shard 0).
  template <typename M>
  bool split_by_owner(const std::uint8_t* data, std::size_t len);
  /// The reactor lock of `sh` in threaded mode; null (no locking) inline.
  std::mutex* reactor_lock(Shard& sh) const {
    return opts_.threaded ? &sh.reactor_mu : nullptr;
  }
  void shard_loop(Shard& sh);
  void wake(Shard& sh);
  /// Applies queued sibling-shard sighting deltas on the coordinator shard.
  bool drain_sighting_deltas();

  NodeId self_;
  net::Transport& net_;
  Options opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  store::SightingsView merged_view_;  // coordinator's cross-slice query view

  // Shared §6.5 caches (one set per leaf; every shard points here via
  // LocationServer::share_caches). cache_mu_ engages in threaded mode only.
  LeafAreaCache shared_leaf_cache_;
  ObjectAgentCache shared_agent_cache_;
  PositionCache shared_position_cache_;
  std::mutex cache_mu_;

  // Sibling-shard -> coordinator event fan-in (threaded mode; cold unless an
  // event predicate is installed).
  std::mutex delta_mu_;
  std::vector<SightingDelta> deltas_;
  std::vector<SightingDelta> delta_scratch_;  // coordinator-thread drain swap

  // List-split scratch (handle() runs in the node's single receive context,
  // so these are never touched concurrently): per-shard packed regions /
  // counts, and the sub-list datagram under construction.
  std::vector<wire::Buffer> split_packed_;
  std::vector<std::uint64_t> split_counts_;
  wire::Buffer split_datagram_;

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> inbox_dropped_{0};
};

}  // namespace locs::core

// Deployment: instantiates one LocationServer per hierarchy node over a
// Transport and wires the handlers. Works with SimNetwork (deterministic)
// and UdpNetwork (real sockets; enable handler locking so the receive
// thread and the bench driver can touch a server safely).
//
// Leaves can be sharded across N internal reactors (set Config::leaf_shards
// or stamp per-node hints with HierarchyBuilder::with_leaf_shards); such
// leaves are ShardedLocationServers behind the same NodeId -- the hierarchy
// protocol above them is unchanged. Set Config::shard_threads over
// UdpNetwork so each shard runs its own reactor thread.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/location_server.hpp"
#include "core/service_area.hpp"
#include "core/sharded_location_server.hpp"
#include "net/transport.hpp"

namespace locs::core {

class Deployment {
 public:
  struct Config {
    LocationServer::Options server;
    /// Per-server option overrides (e.g. heterogeneous sensor
    /// infrastructures: different min_supported_acc per leaf, §3.1). Applied
    /// on top of `server`; return the (possibly modified) options.
    std::function<LocationServer::Options(NodeId, const ConfigRecord&,
                                          LocationServer::Options)>
        options_fn;
    spatial::IndexFactory index_factory;  // default: point quadtree
    /// Per-server persistent visitorDB factory (recovery tests / durable
    /// deployments); default: in-memory. A node-keyed factory cannot be
    /// split across shard reactors, so a leaf with BOTH this set and a
    /// shard count > 1 stays a single reactor unless
    /// sharded_visitor_db_factory is also provided.
    std::function<store::VisitorDb(NodeId)> visitor_db_factory;
    /// Shard-aware variant for sharded leaves: one (node, shard) visitorDB
    /// per shard reactor (each shard persists only its own objects).
    std::function<store::VisitorDb(NodeId, std::uint32_t)> sharded_visitor_db_factory;
    /// Serialize handle()/tick() per server (required over UdpNetwork).
    bool lock_handlers = false;
    /// Shard every leaf's object space across this many internal reactors
    /// (core/sharded_location_server.hpp). A per-node HierarchySpec hint
    /// overrides this when larger than 1. 1 = plain LocationServer leaves.
    std::uint32_t leaf_shards = 1;
    /// Run one reactor thread per shard (UdpNetwork). Leave false over
    /// SimNetwork: inline shard execution keeps delivery deterministic.
    bool shard_threads = false;
    /// Build ShardedLocationServer leaves even at shards == 1. Used by the
    /// determinism tests: the single-shard wrapper must be pass-through
    /// (trace bit-identical to plain LocationServer leaves).
    bool force_leaf_sharding = false;
    /// Hot-standby replication: primary leaf NodeId -> standby NodeId. For
    /// each entry the deployment builds an EXTRA replica server (same
    /// service area and parent as the primary; not part of the
    /// HierarchySpec), tees the primary's accepted sightings to it, and
    /// registers it with the primary's parent as the failover target
    /// (promotion on miss-threshold suspicion, demotion on recovery).
    /// Empty (the default) changes nothing -- traces stay bit-identical.
    std::unordered_map<NodeId, NodeId> leaf_standby;
  };

  Deployment(net::Transport& net, Clock& clock, HierarchySpec spec);
  Deployment(net::Transport& net, Clock& clock, HierarchySpec spec, Config cfg);

  /// Detaches every server from the transport before the servers are
  /// destroyed (a UDP receive thread must not invoke a freed reactor).
  ~Deployment();

  // -- fault injection (crash-restart as a first-class scenario) --

  /// Crashes one node: detaches it from the transport and destroys its
  /// reactor(s). All volatile state (SightingDb, pending operations,
  /// caches) is LOST; a persistent visitorDB (visitor_db_factory) survives
  /// on disk, exactly like the paper's §5 crash model. In-flight datagrams
  /// addressed to the node are dropped at delivery. No-op if already down.
  void crash(NodeId id);

  /// Restarts a crashed node: rebuilds the reactor(s) from the same config
  /// (replaying the persistent visitorDB, if any) and re-attaches it. With
  /// `announce` a restarted leaf runs the recovery protocol -- RecoveryHello
  /// to the parent, whose BatchedRefreshReq sweep drives the batched
  /// soft-state rebuild. No-op if the node is up.
  void restart(NodeId id, bool announce = true);

  /// True while `id` is crashed (between crash() and restart()).
  bool is_down(NodeId id) const;

  /// The single reactor of an UNSHARDED node (shard 0 of a sharded leaf, so
  /// existing single-reactor call sites keep working; prefer sharded() /
  /// find_sighting() to inspect sharded leaves). Must not be called for a
  /// crashed node (see is_down()).
  LocationServer& server(NodeId id) {
    const Entry& entry = servers_.at(id);
    return entry.sharded != nullptr ? entry.sharded->shard(0) : *entry.server;
  }
  /// The sharded reactor group of a leaf, or nullptr if the node runs a
  /// plain LocationServer.
  ShardedLocationServer* sharded(NodeId id) {
    return servers_.at(id).sharded.get();
  }
  /// Copies the sighting record for `oid` at leaf `id`, looking through
  /// every shard slice. Returns false if unknown there.
  bool find_sighting(NodeId id, ObjectId oid, store::SightingDb::Record& out) const;

  const HierarchySpec& spec() const { return spec_; }

  NodeId root() const { return spec_.root; }
  std::vector<NodeId> leaf_ids() const { return spec_.leaves(); }
  NodeId entry_leaf_for(geo::Point p) const { return spec_.leaf_for(p); }

  /// Drives soft-state expiry and pending-operation timeout sweeps.
  void tick_all(TimePoint now);

  /// Aggregate server statistics across the hierarchy.
  LocationServer::Stats total_stats() const;

 private:
  struct Entry {
    std::unique_ptr<LocationServer> server;          // unsharded nodes
    std::unique_ptr<ShardedLocationServer> sharded;  // sharded leaves
    std::unique_ptr<std::mutex> mu;  // only when lock_handlers
    bool up() const { return server != nullptr || sharded != nullptr; }
  };

  /// Builds (or rebuilds, on restart) the reactor(s) of one node and
  /// attaches them to the transport.
  void make_entry(const HierarchySpec::Node& node, Entry& entry);

  /// (Re-)applies the hot-standby wiring of one leaf_standby pair: the
  /// primary tees to the standby, the standby mirrors the primary, and the
  /// primary's parent learns the failover target. Skips crashed entries, so
  /// it is safe to re-run after any restart().
  void wire_standby(NodeId primary, NodeId standby);

  net::Transport& net_;
  HierarchySpec spec_;
  Clock& clock_;
  Config cfg_;
  std::unordered_map<NodeId, Entry> servers_;
};

}  // namespace locs::core

// Deployment: instantiates one LocationServer per hierarchy node over a
// Transport and wires the handlers. Works with SimNetwork (deterministic)
// and UdpNetwork (real sockets). Each node has one mutex, taken around every
// handle(), tick(), find_sighting(), crash() and total_stats(), so a UDP
// receive thread and a driver thread can touch the same server safely; it is
// uncontended over SimNetwork.
//
// Leaves can be sharded across N internal LocationServers (set
// Config::leaf_shards or stamp per-node hints with
// HierarchyBuilder::with_leaf_shards); such leaves are
// ShardedLocationServers behind the same NodeId -- the hierarchy protocol
// above them is unchanged -- and run every shard on the thread that delivers
// the datagram.
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
    /// Persistent visitorDB factory (recovery tests / durable deployments),
    /// called once per (node, shard): a sharded leaf persists each shard's
    /// objects separately, an unsharded node asks for shard 0. Default:
    /// in-memory.
    ShardedLocationServer::VisitorDbFactory visitor_db_factory;
    /// Shard every leaf's object space across this many internal servers
    /// (core/sharded_location_server.hpp). A per-node HierarchySpec hint
    /// overrides this when larger than 1. 1 = plain LocationServer leaves.
    std::uint32_t leaf_shards = 1;
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

  /// The single server of an UNSHARDED node (shard 0 of a sharded leaf, so
  /// existing single-server call sites keep working; prefer sharded() /
  /// find_sighting() to inspect sharded leaves). Must not be called for a
  /// crashed node (see is_down()).
  LocationServer& server(NodeId id) {
    const Entry& entry = servers_.at(id);
    return entry.sharded != nullptr ? entry.sharded->shard(0) : *entry.server;
  }
  /// The sharded server group of a leaf, or nullptr if the node runs a
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
    mutable std::mutex mu;  // guards both servers (see the header comment)
    std::unique_ptr<LocationServer> server;          // unsharded nodes
    std::unique_ptr<ShardedLocationServer> sharded;  // sharded leaves
    bool up() const { return server != nullptr || sharded != nullptr; }
  };

  /// Builds (or rebuilds, on restart) the server(s) of one node and
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

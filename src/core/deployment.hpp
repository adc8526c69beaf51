// Deployment: instantiates one LocationServer per hierarchy node over a
// Transport and wires the handlers. Works with SimNetwork (deterministic)
// and UdpNetwork (real sockets). Every node, leaf or not, is exactly one
// LocationServer behind its NodeId; a hot spot is absorbed by giving it its
// own leaf service area (§6), not by splitting a leaf. Each node has one
// mutex, taken around every handle(), tick(), find_sighting(), crash() and
// total_stats(), so a UDP receive thread and a driver thread can touch the
// same server safely; it is uncontended over SimNetwork.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/location_server.hpp"
#include "core/service_area.hpp"
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
    /// Persistent visitorDB factory (recovery tests / durable deployments):
    /// the visitor log a node replays and appends to, opened once per node
    /// build (construction and every restart). Default: in-memory.
    std::function<store::VisitorLog(NodeId)> visitor_db_factory;
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
  /// server. All volatile state (SightingDb, pending operations,
  /// caches) is LOST; a persistent visitorDB (visitor_db_factory) survives
  /// on disk, exactly like the paper's §5 crash model. In-flight datagrams
  /// addressed to the node are dropped at delivery. No-op if already down.
  void crash(NodeId id);

  /// Restarts a crashed node: rebuilds the server from the same config
  /// (replaying the persistent visitorDB, if any) and re-attaches it. With
  /// `announce` a restarted leaf runs the recovery protocol -- RecoveryHello
  /// to the parent, whose BatchedRefreshReq sweep drives the batched
  /// soft-state rebuild. No-op if the node is up.
  void restart(NodeId id, bool announce = true);

  /// True while `id` is crashed (between crash() and restart()).
  bool is_down(NodeId id) const;

  /// The server of a node. Must not be called for a crashed node (see
  /// is_down()).
  LocationServer& server(NodeId id) { return *servers_.at(id).server; }
  /// Copies the leaf record for `oid` at leaf `id` under the node's lock.
  /// Returns false if it has no sighting there (or the node is down).
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
    mutable std::mutex mu;  // guards `server` (see the header comment)
    std::unique_ptr<LocationServer> server;  // null while crashed
    bool up() const { return server != nullptr; }
  };

  /// Builds (or rebuilds, on restart) the server of one node and attaches it
  /// to the transport.
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

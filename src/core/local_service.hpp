// LocalLocationService -- the synchronous single-process facade.
//
// Wraps a complete server hierarchy, a deterministic simulated network and
// the client machinery behind a blocking API: each call drives the network
// until its response arrives. This is the entry point for the quickstart
// example and for applications that want the paper's full semantics
// (accuracy negotiation, handover, range / NN queries, events, soft state)
// without operating a distributed deployment. An object whose sighting
// expired registers again on its next update, coalesced or not.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "core/update_coalescer.hpp"
#include "net/sim_network.hpp"

namespace locs::core {

class LocalLocationService {
 public:
  struct Config {
    /// Root service area (metres). Default: the paper's 10 km x 10 km
    /// data-storage experiment area.
    geo::Rect area = geo::Rect{{0.0, 0.0}, {10000.0, 10000.0}};
    int fanout_x = 2;
    int fanout_y = 2;
    int levels = 2;  // 0 = single (centralized) server
    LocationServer::Options server;
    net::SimNetwork::Options network;
    /// Route position updates through an UpdateCoalescer: updates are packed
    /// into BatchedUpdateReq datagrams per agent leaf and flushed by the
    /// `coalescing` policy (size / byte budget / deadline). Queries observe
    /// buffered updates only after a flush -- call flush_updates() or
    /// advance_time() past the deadline for read-your-writes.
    bool coalesce_updates = false;
    UpdateCoalescer::Options coalescing;
  };

  LocalLocationService() : LocalLocationService(Config()) {}
  explicit LocalLocationService(Config cfg);

  /// register(s, desAcc, minAcc) -> offeredAcc (§3.1). Fails if the service
  /// cannot provide an accuracy within [desired, minimum] or the position is
  /// outside the service area. A registration left unanswered returns
  /// kUnavailable and keeps the object: its next feed_position after the
  /// 2 s retry interval sends the registration again.
  Result<double> register_object(ObjectId oid, geo::Point pos, double sensor_acc,
                                 AccuracyRange range);

  /// Sensor feed for a tracked object; sends an update / triggers handover
  /// when the §6.2 threshold is exceeded. Returns true if an update message
  /// went out.
  bool feed_position(ObjectId oid, geo::Point pos);

  /// changeAcc(o, desAcc, minAcc) -> offeredAcc (§3.1).
  Result<double> change_accuracy(ObjectId oid, AccuracyRange range);

  void deregister(ObjectId oid);

  /// posQuery(o) -> ld (§3.2).
  std::optional<LocationDescriptor> position(ObjectId oid);

  /// rangeQuery(a, reqAcc, reqOverlap) -> objSet (§3.2).
  std::vector<ObjectResult> range_query(const geo::Polygon& area, double req_acc,
                                        double req_overlap);

  /// neighborQuery(p, reqAcc, nearQual) -> (nearestObj, nearObjSet) (§3.2).
  QueryClient::NNResult neighbor_query(geo::Point p, double req_acc,
                                       double near_qual);

  // -- event mechanism (§1 / §8) --
  std::uint64_t subscribe_area_count(const geo::Polygon& area,
                                     std::uint32_t threshold);
  std::uint64_t subscribe_proximity(ObjectId a, ObjectId b, double dist);
  void unsubscribe(std::uint64_t sub_id);
  std::vector<wire::EventNotify> poll_events();

  /// Advances virtual time (drives soft-state expiry, pending sweeps, and
  /// coalescer deadline flushes).
  void advance_time(Duration d);

  /// Forces out every buffered (coalesced) update and delivers it. No-op
  /// when coalescing is disabled.
  void flush_updates();

  /// The coalescing stage, if enabled (stats / tests).
  const UpdateCoalescer* coalescer() const { return coalescer_.get(); }

  TimePoint now() const { return clock().now(); }
  std::size_t tracked_count() const { return objects_.size(); }
  bool is_tracked(ObjectId oid) const;
  NodeId agent_of(ObjectId oid) const;
  double offered_acc_of(ObjectId oid) const;

  // Escape hatches for tests and benchmarks.
  net::SimNetwork& network() { return net_; }
  Deployment& deployment() { return *deployment_; }
  const Clock& clock() const { return net_.clock(); }

 private:
  NodeId alloc_node_id() { return NodeId{next_node_id_++}; }
  void run();  // drain the simulated network

  Config cfg_;
  net::SimNetwork net_;
  std::unique_ptr<Deployment> deployment_;
  std::uint32_t next_node_id_;
  std::unique_ptr<QueryClient> query_client_;
  std::unique_ptr<UpdateCoalescer> coalescer_;  // only when coalesce_updates
  std::unordered_map<ObjectId, std::unique_ptr<TrackedObject>> objects_;
};

}  // namespace locs::core

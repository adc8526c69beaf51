// Two-tier HLR/VLR-style baseline (related work §2: GSM location
// management [14], where "the location information of a mobile phone is
// stored in the Home Location Register it is assigned to and in a Visitor
// Location Register responsible for its current location area").
//
// A flat set of region servers partitions the service area. Every object is
// assigned a *home* server by hashing its id. The region server covering the
// object's position is its *serving* server (VLR analogue) and stores the
// sighting; the home server (HLR analogue) stores a pointer to the serving
// server. Compared with the paper's hierarchy:
//  * a region change always updates the (potentially distant) home server,
//  * position queries for non-local objects always detour via the home,
//  * range queries have no hierarchy to aggregate through -- the entry
//    contacts every overlapping region directly (it knows the flat map).
//
// Compared with the hierarchy by Architectures.SameLanSameWorkload in
// test_baseline (ablation A4). Reuses the same wire messages, stores and
// transports as the hierarchical system so message counts are comparable.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "geo/polygon.hpp"
#include "net/transport.hpp"
#include "store/sighting_db.hpp"
#include "store/visitor_db.hpp"
#include "util/clock.hpp"
#include "wire/messages.hpp"

namespace locs::baseline {

using core::AccuracyRange;
using core::LocationDescriptor;
using core::ObjectResult;
using core::RegInfo;
using core::Sighting;

/// The flat region map shared by all two-tier servers.
struct RegionMap {
  struct Region {
    NodeId id;
    geo::Polygon area;
  };
  std::vector<Region> regions;

  NodeId region_for(geo::Point p) const {
    for (const Region& r : regions) {
      if (r.area.contains(p)) return r.id;
    }
    return kNoNode;
  }

  NodeId home_for(ObjectId oid) const {
    return regions[std::hash<ObjectId>{}(oid) % regions.size()].id;
  }

  /// Splits `area` into a uniform cols x rows grid of regions with ids
  /// first_id, first_id+1, ...
  static RegionMap grid(const geo::Rect& area, int cols, int rows,
                        std::uint32_t first_id = 1);
};

class TwoTierServer {
 public:
  struct Stats {
    std::uint64_t msgs_handled = 0;
    std::uint64_t msgs_sent = 0;
    std::uint64_t updates_applied = 0;
    std::uint64_t handovers = 0;
    std::uint64_t home_updates = 0;  // pointer writes at the home server
    std::uint64_t pos_queries_served = 0;
    std::uint64_t range_sub_answered = 0;
  };

  TwoTierServer(NodeId self, RegionMap map, net::Transport& net, Clock& clock);

  void handle(const std::uint8_t* data, std::size_t len);
  void tick(TimePoint now);

  NodeId id() const { return self_; }
  const Stats& stats() const { return stats_; }

 private:
  void send_msg(NodeId to, const wire::Message& msg);
  const geo::Polygon& my_area() const;
  std::uint64_t next_req_id();

  // One overload per message type a region server receives; handle() calls
  // the overload of each decoded message.
  void on(NodeId src, const wire::RegisterReq& m);
  void on(NodeId src, const wire::UpdateReq& m);
  void on(NodeId src, const wire::HandoverReq& m);
  void on(NodeId src, const wire::HandoverRes& m);
  void on(NodeId src, const wire::CreatePath& m);  // home pointer
  void on(NodeId src, const wire::RemovePath& m);  // home pointer
  void on(NodeId src, const wire::PosQueryReq& m);
  void on(NodeId src, const wire::PosQueryFwd& m);
  void on(NodeId src, const wire::PosQueryRes& m);
  void on(NodeId src, const wire::RangeQueryReq& m);
  void on(NodeId src, const wire::RangeQueryFwd& m);
  void on(NodeId src, const wire::RangeQuerySubRes& m);
  void on(NodeId src, const wire::DeregisterReq& m);
  void try_complete_range(std::uint64_t key);

  NodeId self_;
  RegionMap map_;
  net::Transport& net_;
  Clock& clock_;
  Stats stats_;

  store::SightingDb sightings_;       // serving-role state
  store::VisitorDb home_pointers_;    // home-role state: oid -> serving region
  std::uint64_t req_counter_ = 0;

  struct PendingPos {
    NodeId client;
    std::uint64_t client_req_id;
  };
  std::unordered_map<std::uint64_t, PendingPos> pending_pos_;

  struct PendingRange {
    NodeId client;
    std::uint64_t client_req_id;
    double target = 0.0;
    double covered = 0.0;
    std::vector<ObjectResult> results;
    TimePoint deadline = 0;
  };
  std::unordered_map<std::uint64_t, PendingRange> pending_range_;

  struct PendingHandover {
    NodeId object_node;
    ObjectId oid;
  };
  std::unordered_map<std::uint64_t, PendingHandover> pending_handover_;
};

/// Instantiates one TwoTierServer per region and attaches handlers.
class TwoTierDeployment {
 public:
  TwoTierDeployment(net::Transport& net, Clock& clock, RegionMap map);
  /// Detaches every server before they are destroyed.
  ~TwoTierDeployment();

  TwoTierServer& server(NodeId id) { return *servers_.at(id); }
  const RegionMap& map() const { return map_; }
  NodeId entry_for(geo::Point p) const { return map_.region_for(p); }
  void tick_all(TimePoint now);
  TwoTierServer::Stats total_stats() const;

 private:
  net::Transport& net_;
  RegionMap map_;
  std::unordered_map<NodeId, std::unique_ptr<TwoTierServer>> servers_;
};

}  // namespace locs::baseline

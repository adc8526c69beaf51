#include "baseline/two_tier.hpp"

#include <algorithm>
#include <cassert>

namespace locs::baseline {

namespace wm = locs::wire;

namespace {

/// The same values as LocationServer's defaults, so A4 compares the two
/// architectures under one accuracy floor, sighting TTL (§5) and deadline.
constexpr double kMinSupportedAcc = 5.0;
constexpr Duration kSightingTtl = seconds(120);
constexpr Duration kPendingTimeout = seconds(5);

}  // namespace

RegionMap RegionMap::grid(const geo::Rect& area, int cols, int rows,
                          std::uint32_t first_id) {
  RegionMap map;
  const double w = area.width() / cols;
  const double h = area.height() / rows;
  std::uint32_t id = first_id;
  for (int iy = 0; iy < rows; ++iy) {
    for (int ix = 0; ix < cols; ++ix) {
      const geo::Rect r{{area.min.x + w * ix, area.min.y + h * iy},
                        {area.min.x + w * (ix + 1), area.min.y + h * (iy + 1)}};
      map.regions.push_back({NodeId{id++}, geo::Polygon::from_rect(r)});
    }
  }
  return map;
}

TwoTierServer::TwoTierServer(NodeId self, RegionMap map, net::Transport& net,
                             Clock& clock)
    : self_(self),
      map_(std::move(map)),
      net_(net),
      clock_(clock),
      sightings_([] { return spatial::make_point_quadtree(); }) {}

const geo::Polygon& TwoTierServer::my_area() const {
  for (const RegionMap::Region& r : map_.regions) {
    if (r.id == self_) return r.area;
  }
  assert(false && "server not in region map");
  static const geo::Polygon empty;
  return empty;
}

void TwoTierServer::send_msg(NodeId to, const wire::Message& msg) {
  if (!to.valid()) return;
  ++stats_.msgs_sent;
  net::send_message(net_, self_, to, msg);
}

std::uint64_t TwoTierServer::next_req_id() {
  return (static_cast<std::uint64_t>(self_.value) << 40) | ++req_counter_;
}

void TwoTierServer::handle(const std::uint8_t* data, std::size_t len) {
  auto decoded = wm::decode_envelope(data, len);
  if (!decoded.ok()) return;
  ++stats_.msgs_handled;
  const NodeId src = decoded.value().src;
  std::visit(
      [&](auto& m) {
        if constexpr (requires { on(src, m); }) on(src, m);
      },
      decoded.value().msg);
}

void TwoTierServer::on(NodeId src, const wire::RegisterReq& m) {
  (void)src;
  const NodeId serving = map_.region_for(m.s.pos);
  if (serving != self_) {
    if (serving.valid()) {
      send_msg(serving, m);  // one redirect to the right region
    } else {
      send_msg(m.reg_inst, wm::RegisterFailed{self_, -1.0, m.req_id});
    }
    return;
  }
  if (kMinSupportedAcc > m.acc_range.minimum) {
    send_msg(m.reg_inst, wm::RegisterFailed{self_, kMinSupportedAcc, m.req_id});
    return;
  }
  const double offered = std::max(kMinSupportedAcc, m.acc_range.desired);
  sightings_.upsert(m.s, offered, clock_.now() + kSightingTtl,
                    RegInfo{m.reg_inst, m.acc_range});
  // Install the home pointer (the HLR write).
  const NodeId home = map_.home_for(m.s.oid);
  if (home == self_) {
    ++stats_.home_updates;
    home_pointers_.set_forward(m.s.oid, self_);
  } else {
    send_msg(home, wm::CreatePath{m.s.oid});
  }
  send_msg(m.reg_inst, wm::RegisterRes{self_, offered, m.req_id});
}

void TwoTierServer::on(NodeId src, const wire::CreatePath& m) {
  ++stats_.home_updates;
  home_pointers_.set_forward(m.oid, src);
}

void TwoTierServer::on(NodeId, const wire::RemovePath& m) {
  home_pointers_.remove(m.oid);
}

void TwoTierServer::on(NodeId src, const wire::UpdateReq& m) {
  store::SightingDb::Record* rec = sightings_.find(m.s.oid);
  if (rec == nullptr) return;  // not serving this object
  if (my_area().contains(m.s.pos)) {
    sightings_.update(*rec, m.s, clock_.now() + kSightingTtl);
    ++stats_.updates_applied;
    send_msg(src, wm::UpdateAck{m.s.oid, rec->offered_acc});
    return;
  }
  // Region change: hand over directly to the new serving region (the flat
  // map is global knowledge) -- but the home must always be updated too.
  const NodeId target = map_.region_for(m.s.pos);
  if (!target.valid()) {
    // Left the service area entirely.
    sightings_.remove(*rec);
    const NodeId home = map_.home_for(m.s.oid);
    if (home == self_) {
      home_pointers_.remove(m.s.oid);
    } else {
      send_msg(home, wm::RemovePath{m.s.oid});
    }
    send_msg(src, wm::AgentChanged{m.s.oid, kNoNode, 0.0});
    return;
  }
  ++stats_.handovers;
  wm::HandoverReq req;
  req.s = m.s;
  req.reg_info = rec->reg_info;
  req.prev_offered_acc = rec->offered_acc;
  req.req_id = next_req_id();
  pending_handover_[req.req_id] = {src, m.s.oid};
  send_msg(target, req);
}

void TwoTierServer::on(NodeId src, const wire::HandoverReq& m) {
  const double offered = std::max(kMinSupportedAcc,
                                  m.reg_info.acc_range.desired);
  sightings_.upsert(m.s, offered, clock_.now() + kSightingTtl, m.reg_info);
  // HLR write on every region change.
  const NodeId home = map_.home_for(m.s.oid);
  if (home == self_) {
    ++stats_.home_updates;
    home_pointers_.set_forward(m.s.oid, self_);
  } else {
    send_msg(home, wm::CreatePath{m.s.oid});
  }
  send_msg(src, wm::HandoverRes{m.s.oid, self_, offered, m.req_id, std::nullopt});
}

void TwoTierServer::on(NodeId src, const wire::HandoverRes& m) {
  (void)src;
  const auto it = pending_handover_.find(m.req_id);
  if (it == pending_handover_.end()) return;
  const PendingHandover pending = it->second;
  pending_handover_.erase(it);
  sightings_.remove(pending.oid);
  send_msg(pending.object_node,
           wm::AgentChanged{pending.oid, m.new_agent, m.offered_acc});
}

void TwoTierServer::on(NodeId src, const wire::PosQueryReq& m) {
  const store::SightingDb::Record* rec = sightings_.find(m.oid);
  if (rec != nullptr) {
    ++stats_.pos_queries_served;
    send_msg(src, wm::PosQueryRes{m.oid, true,
                                  {rec->sighting.pos, rec->offered_acc}, self_,
                                  m.req_id, std::nullopt});
    return;
  }
  // Detour via the home server.
  const std::uint64_t internal = next_req_id();
  pending_pos_[internal] = {src, m.req_id};
  const NodeId home = map_.home_for(m.oid);
  if (home == self_) {
    const std::optional<NodeId> serving = home_pointers_.find(m.oid);
    if (!serving || !serving->valid()) {
      pending_pos_.erase(internal);
      send_msg(src, wm::PosQueryRes{m.oid, false, {}, kNoNode, m.req_id, std::nullopt});
      return;
    }
    send_msg(*serving, wm::PosQueryFwd{m.oid, self_, internal});
    return;
  }
  send_msg(home, wm::PosQueryFwd{m.oid, self_, internal});
}

void TwoTierServer::on(NodeId src, const wire::PosQueryFwd& m) {
  (void)src;
  const store::SightingDb::Record* rec = sightings_.find(m.oid);
  if (rec != nullptr) {
    send_msg(m.entry, wm::PosQueryRes{m.oid, true,
                                      {rec->sighting.pos, rec->offered_acc}, self_,
                                      m.req_id, std::nullopt});
    return;
  }
  // Acting as home: follow the pointer.
  const std::optional<NodeId> serving = home_pointers_.find(m.oid);
  if (serving && serving->valid() && *serving != self_) {
    send_msg(*serving, m);
    return;
  }
  send_msg(m.entry, wm::PosQueryRes{m.oid, false, {}, kNoNode, m.req_id, std::nullopt});
}

void TwoTierServer::on(NodeId src, const wire::PosQueryRes& m) {
  (void)src;
  const auto it = pending_pos_.find(m.req_id);
  if (it == pending_pos_.end()) return;
  const PendingPos pending = it->second;
  pending_pos_.erase(it);
  send_msg(pending.client, wm::PosQueryRes{m.oid, m.found, m.ld, m.agent,
                                           pending.client_req_id, std::nullopt});
}

void TwoTierServer::on(NodeId src, const wire::RangeQueryReq& m) {
  const geo::Polygon enlarged = geo::enlarge(m.area, std::max(m.req_acc, 0.0));
  const std::uint64_t internal = next_req_id();
  PendingRange pending;
  pending.client = src;
  pending.client_req_id = m.req_id;
  pending.target = enlarged.area();
  pending.deadline = clock_.now() + kPendingTimeout;

  double outside = enlarged.area();
  for (const RegionMap::Region& region : map_.regions) {
    const double inter = geo::intersection_area(enlarged, region.area);
    outside -= inter;
    if (inter <= 0.0) continue;
    if (region.id == self_) {
      sightings_.objects_in_area(m.area, m.req_acc, m.req_overlap, pending.results);
      pending.covered += inter;
    }
  }
  pending.covered += std::max(outside, 0.0);
  pending_range_.emplace(internal, std::move(pending));
  for (const RegionMap::Region& region : map_.regions) {
    if (region.id == self_) continue;
    if (geo::intersection_area(enlarged, region.area) > 0.0) {
      send_msg(region.id, wm::RangeQueryFwd{m.area, m.req_acc, m.req_overlap, self_,
                                            internal, true});
    }
  }
  try_complete_range(internal);
}

void TwoTierServer::on(NodeId src, const wire::RangeQueryFwd& m) {
  (void)src;
  const geo::Polygon enlarged = geo::enlarge(m.area, std::max(m.req_acc, 0.0));
  wm::RangeQuerySubRes sub;
  sub.req_id = m.req_id;
  sightings_.objects_in_area_emit(
      m.area, m.req_acc, m.req_overlap,
      [&](const core::ObjectResult& r) { sub.results.append(r); });
  sub.covered_size = geo::intersection_area(enlarged, my_area());
  ++stats_.range_sub_answered;
  send_msg(m.entry, sub);
}

void TwoTierServer::on(NodeId src, const wire::RangeQuerySubRes& m) {
  (void)src;
  const auto it = pending_range_.find(m.req_id);
  if (it == pending_range_.end()) return;
  it->second.covered += m.covered_size;
  auto results = m.results.items();
  while (const auto r = results.next()) it->second.results.push_back(r->value);
  try_complete_range(m.req_id);
}

void TwoTierServer::try_complete_range(std::uint64_t key) {
  const auto it = pending_range_.find(key);
  if (it == pending_range_.end()) return;
  PendingRange& pending = it->second;
  const double eps = std::max(1e-6, 1e-9 * pending.target);
  if (pending.covered < pending.target - eps) return;
  wm::RangeQueryRes res;
  res.req_id = pending.client_req_id;
  res.complete = true;
  res.results.assign(pending.results);
  const NodeId client = pending.client;
  pending_range_.erase(it);
  send_msg(client, res);
}

void TwoTierServer::on(NodeId src, const wire::DeregisterReq& m) {
  (void)src;
  if (sightings_.remove(m.oid)) {
    const NodeId home = map_.home_for(m.oid);
    if (home == self_) {
      home_pointers_.remove(m.oid);
    } else {
      send_msg(home, wm::RemovePath{m.oid});
    }
  } else {
    home_pointers_.remove(m.oid);
  }
}

void TwoTierServer::tick(TimePoint now) {
  for (const ObjectId oid : sightings_.expire_until(now)) {
    const NodeId home = map_.home_for(oid);
    if (home == self_) {
      home_pointers_.remove(oid);
    } else {
      send_msg(home, wm::RemovePath{oid});
    }
  }
  for (auto it = pending_range_.begin(); it != pending_range_.end();) {
    if (it->second.deadline > now) {
      ++it;
      continue;
    }
    wm::RangeQueryRes res;
    res.req_id = it->second.client_req_id;
    res.complete = false;
    res.results.assign(it->second.results);
    send_msg(it->second.client, res);
    it = pending_range_.erase(it);
  }
}

TwoTierDeployment::TwoTierDeployment(net::Transport& net, Clock& clock,
                                     RegionMap map)
    : net_(net), map_(std::move(map)) {
  for (const RegionMap::Region& region : map_.regions) {
    auto server = std::make_unique<TwoTierServer>(region.id, map_, net, clock);
    TwoTierServer* raw = server.get();
    net.attach(region.id, [raw](const std::uint8_t* data, std::size_t len) {
      raw->handle(data, len);
    });
    servers_.emplace(region.id, std::move(server));
  }
}

TwoTierDeployment::~TwoTierDeployment() {
  for (const auto& [id, server] : servers_) net_.detach(id);
}

void TwoTierDeployment::tick_all(TimePoint now) {
  for (auto& [id, server] : servers_) server->tick(now);
}

TwoTierServer::Stats TwoTierDeployment::total_stats() const {
  TwoTierServer::Stats total;
  for (const auto& [id, server] : servers_) {
    const TwoTierServer::Stats& s = server->stats();
    total.msgs_handled += s.msgs_handled;
    total.msgs_sent += s.msgs_sent;
    total.updates_applied += s.updates_applied;
    total.handovers += s.handovers;
    total.home_updates += s.home_updates;
    total.pos_queries_served += s.pos_queries_served;
    total.range_sub_answered += s.range_sub_answered;
  }
  return total;
}

}  // namespace locs::baseline

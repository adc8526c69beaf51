#include "core/location_server.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <type_traits>

namespace locs::core {

namespace wm = locs::wire;

namespace {

/// Sentinel best_acc in RegisterFailed meaning "position outside the
/// service area of the entire LS".
constexpr double kOutOfServiceArea = -1.0;

/// Give up expanding NN rings beyond this radius (empty database guard).
constexpr double kNNMaxRadius = 1e7;

/// Max ObjectIds packed into one BatchedRefreshReq datagram (recovery sweeps
/// are chunked per client node; keeps sweeps MTU-friendly).
constexpr std::size_t kRefreshBatchMax = 256;

/// Compact the persistent visitorDB log once it exceeds this many mutation
/// records (bounds recovery time; §5).
constexpr std::uint64_t kVisitorCompactThreshold = 1 << 18;

/// Sides of the polygon circumscribing NN probe circles.
constexpr int kNNProbeSides = 32;

/// Consecutive heartbeat probes a child may leave unanswered; at this many
/// the failure detector marks it suspect.
constexpr int kHeartbeatMissThreshold = 3;

/// The polygon an NN probe circle is routed and credited by.
geo::Polygon nn_probe_polygon(geo::Point p, double radius) {
  return geo::Polygon::circumscribed_circle(p, radius, kNNProbeSides);
}

double coverage_epsilon(double target) {
  return std::max(1e-6, 1e-9 * target);
}

/// The packed result list of a range or NN sub-result.
wm::PackedResults& share_items(wm::RangeQuerySubRes& sub) { return sub.results; }
wm::PackedResults& share_items(wm::NNProbeSubRes& sub) { return sub.candidates; }

}  // namespace

LocationServer::LocationServer(NodeId self, ConfigRecord cfg, net::Transport& net,
                               Clock& clock)
    : LocationServer(self, std::move(cfg), net, clock, Options{}) {}

LocationServer::LocationServer(NodeId self, ConfigRecord cfg, net::Transport& net,
                               Clock& clock, Options opts,
                               store::VisitorLog visitor_log,
                               spatial::IndexFactory index_factory)
    : self_(self),
      cfg_(std::move(cfg)),
      net_(net),
      clock_(clock),
      opts_(opts) {
  if (cfg_.is_leaf()) {
    if (!index_factory) index_factory = [] { return spatial::make_point_quadtree(); };
    sightings_.emplace(std::move(index_factory), std::move(visitor_log));
    origin_cache_ = wm::OriginArea{self_, cfg_.sa};
  } else {
    visitor_db_.emplace(std::move(visitor_log));
  }
}

void LocationServer::Stats::add(const Stats& other) {
  msgs_handled += other.msgs_handled;
  msgs_sent += other.msgs_sent;
  decode_errors += other.decode_errors;
  registrations += other.registrations;
  registration_failures += other.registration_failures;
  updates_applied += other.updates_applied;
  updates_unknown += other.updates_unknown;
  update_batches += other.update_batches;
  handovers_initiated += other.handovers_initiated;
  handovers_accepted += other.handovers_accepted;
  handovers_direct += other.handovers_direct;
  pos_queries_served += other.pos_queries_served;
  pos_query_cache_hits += other.pos_query_cache_hits;
  agent_cache_hits += other.agent_cache_hits;
  range_direct += other.range_direct;
  range_sub_answered += other.range_sub_answered;
  nn_rings += other.nn_rings;
  sightings_expired += other.sightings_expired;
  pending_timeouts += other.pending_timeouts;
  refresh_requests += other.refresh_requests;
  events_fired += other.events_fired;
  heartbeats_sent += other.heartbeats_sent;
  children_suspected += other.children_suspected;
  suspect_short_circuits += other.suspect_short_circuits;
  recovery_hellos += other.recovery_hellos;
  refresh_batches_sent += other.refresh_batches_sent;
  sub_res_pinned += other.sub_res_pinned;
  sub_res_copied += other.sub_res_copied;
  merge_dedup_dropped += other.merge_dedup_dropped;
  tee_datagrams_sent += other.tee_datagrams_sent;
  tee_entries_applied += other.tee_entries_applied;
  standby_promotions += other.standby_promotions;
  standby_demotions += other.standby_demotions;
  standbys_engaged += other.standbys_engaged;
  standby_routed_queries += other.standby_routed_queries;
}

// --------------------------------------------------------------------------
// dispatch

void LocationServer::handle(const net::Datagram& dg) {
  const std::uint8_t* data = dg.data();
  const std::size_t len = dg.size();
  // Zero-materialization fast path: packed query sub-results are consumed
  // through a view straight off the receive buffer -- no envelope decode,
  // no owned vectors (see the read-path invariants in the header). The view
  // itself validates the message type, so only the version byte is peeked.
  if (len > 1 && data[0] == wm::kWireVersionPacked) {
    wm::SubResView view(data, len);
    if (view.valid()) {
      ++stats_.msgs_handled;
      handle_sub_res_view(view, dg);
      return;
    }
    // Another packed type, or malformed (the view accepts every sub-result
    // the full decode accepts): fall through to the full decode, which
    // handles (or reports and counts) it exactly once.
  }
  // Decode into the scratch envelope: a steady stream of one message type
  // reuses its vectors' capacity, so dispatch allocates nothing.
  if (!wm::decode_envelope_into(rx_scratch_, data, len).is_ok()) {
    ++stats_.decode_errors;
    return;
  }
  ++stats_.msgs_handled;
  const NodeId src = rx_scratch_.src;
  wm::Message& msg = rx_scratch_.msg;
  std::visit(
      [&](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, wm::RegisterReq>) {
          on_register_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::CreatePath>) {
          on_create_path(src, m);
        } else if constexpr (std::is_same_v<T, wm::RemovePath>) {
          on_remove_path(src, m);
        } else if constexpr (std::is_same_v<T, wm::UpdateReq>) {
          on_update_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::BatchedUpdateReq>) {
          on_batched_update_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::HandoverReq>) {
          on_handover_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::HandoverRes>) {
          on_handover_res(src, m);
        } else if constexpr (std::is_same_v<T, wm::PosQueryReq>) {
          on_pos_query_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::PosQueryFwd>) {
          on_pos_query_fwd(src, m);
        } else if constexpr (std::is_same_v<T, wm::PosQueryRes>) {
          on_pos_query_res(src, m);
        } else if constexpr (std::is_same_v<T, wm::RangeQueryReq>) {
          on_range_query_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::RangeQueryFwd>) {
          on_range_query_fwd(src, m);
        } else if constexpr (std::is_same_v<T, wm::NNQueryReq>) {
          on_nn_query_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::NNProbeFwd>) {
          on_nn_probe_fwd(src, m);
        } else if constexpr (std::is_same_v<T, wm::ChangeAccReq>) {
          on_change_acc_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::DeregisterReq>) {
          on_deregister_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::EventSubscribe>) {
          on_event_subscribe(src, m);
        } else if constexpr (std::is_same_v<T, wm::EventInstall>) {
          on_event_install(src, m);
        } else if constexpr (std::is_same_v<T, wm::EventDelta>) {
          on_event_delta(src, m);
        } else if constexpr (std::is_same_v<T, wm::EventUnsubscribe>) {
          on_event_unsubscribe(src, m);
        } else if constexpr (std::is_same_v<T, wm::Heartbeat>) {
          on_heartbeat(src, m);
        } else if constexpr (std::is_same_v<T, wm::HeartbeatAck>) {
          on_heartbeat_ack(src, m);
        } else if constexpr (std::is_same_v<T, wm::RecoveryHello>) {
          on_recovery_hello(src, m);
        } else if constexpr (std::is_same_v<T, wm::BatchedRefreshReq>) {
          on_batched_refresh_req(src, m);
        } else if constexpr (std::is_same_v<T, wm::ReplicaTee>) {
          on_replica_tee(src, m);
        } else if constexpr (std::is_same_v<T, wm::StandbyPromote>) {
          on_standby_promote(src, m);
        } else if constexpr (std::is_same_v<T, wm::StandbyDemote>) {
          on_standby_demote(src, m);
        }
        // Other message types (responses to clients, UnknownObject, ...)
        // are not addressed to servers; ignore them defensively.
      },
      msg);
  // One tee datagram per handled datagram: every sighting the message above
  // accepted travels to the standby in the SAME apply order, so the replica's
  // index undergoes an identical mutation sequence (byte-equal answers).
  flush_tee();
}

// --------------------------------------------------------------------------
// helpers

std::uint64_t LocationServer::next_req_id() {
  return (static_cast<std::uint64_t>(self_.value) << 40) | ++req_counter_;
}

void LocationServer::learn_origin(const std::optional<wm::OriginArea>& origin) {
  if (!origin || !opts_.enable_leaf_area_cache) return;
  if (origin->leaf == self_) return;
  leaf_cache_.learn(origin->leaf, origin->area);
}

double LocationServer::negotiate_offered_acc(const AccuracyRange& range) const {
  // Alg 6-1 line 8: offeredAcc = max(acc, desAcc) -- the service never
  // promises better than its sensors support nor better than requested.
  return std::max(opts_.min_supported_acc, range.desired);
}

void LocationServer::put_sighting(store::SightingDb::Record& rec, const Sighting& s) {
  sightings_->update(rec, s, sighting_expiry());
  events_on_sighting(s.oid, true, s.pos);
  // Checked first so that an update without a standby reads no RegInfo. The
  // ORIGINAL absolute expiry: the replica must not extend the TTL (§5).
  if (standby_.valid()) {
    tee({wm::ReplicaTee::Op::kUpsert, s, rec.offered_acc, rec.expiry, rec.reg_info});
  }
}

// --------------------------------------------------------------------------
// registration (Algorithm 6-1)

void LocationServer::on_register_req(NodeId src, const wm::RegisterReq& m) {
  (void)src;
  if (cfg_.covers(m.s.pos)) {
    if (cfg_.is_leaf()) {
      if (standby_passive()) {
        // Stray registration at a passive replica: the primary owns
        // admission. RegisterReq carries reg_inst, so a plain forward keeps
        // the response path intact.
        send_msg(standby_primary_, m);
        return;
      }
      const double acc = opts_.min_supported_acc;
      if (acc <= m.acc_range.minimum) {
        // Registration successful: create the leaf records and the
        // forwarding path, then answer the registering instance.
        const double offered = negotiate_offered_acc(m.acc_range);
        send_path(true, m.s.oid);
        put_sighting(sightings_->set_visitor(m.s.oid, offered,
                                             RegInfo{m.reg_inst, m.acc_range}),
                     m.s);
        ++stats_.registrations;
        send_msg(m.reg_inst, wm::RegisterRes{self_, offered, m.req_id});
      } else {
        ++stats_.registration_failures;
        send_msg(m.reg_inst, wm::RegisterFailed{self_, acc, m.req_id});
      }
    } else {
      const NodeId child = cfg_.child_for(m.s.pos);
      if (child.valid()) {
        send_msg(child, m);
      } else {
        // Children must tile the parent area; treat a gap as failure.
        ++stats_.registration_failures;
        send_msg(m.reg_inst, wm::RegisterFailed{self_, kOutOfServiceArea, m.req_id});
      }
    }
  } else if (!cfg_.is_root()) {
    send_msg(cfg_.parent, m);
  } else {
    // Outside the root service area: the LS cannot track this object.
    ++stats_.registration_failures;
    send_msg(m.reg_inst, wm::RegisterFailed{self_, kOutOfServiceArea, m.req_id});
  }
}

void LocationServer::send_path(bool create, ObjectId oid) {
  if (cfg_.is_root()) return;
  if (create) {
    send_msg(cfg_.parent, wm::CreatePath{oid});
  } else {
    send_msg(cfg_.parent, wm::RemovePath{oid});
  }
}

// A leaf keeps no forwarding references: a path message delivered to one
// leaves its records as they are.
void LocationServer::on_create_path(NodeId src, const wm::CreatePath& m) {
  if (!visitor_db_) return;
  visitor_db_->set_forward(m.oid, src);
  send_path(true, m.oid);
}

void LocationServer::on_remove_path(NodeId src, const wm::RemovePath& m) {
  // Conditional prune: only remove if our pointer still leads toward the
  // sender. If a concurrent createPath already repointed this record to a
  // fresh branch, we are a common ancestor of old and new agent and the
  // prune must stop here.
  if (!visitor_db_ || visitor_db_->find(m.oid) != src) return;
  visitor_db_->remove(m.oid);
  send_path(false, m.oid);
}

// --------------------------------------------------------------------------
// position updates and handover (Algorithms 6-2 / 6-3)

void LocationServer::on_update_req(NodeId src, const wm::UpdateReq& m) {
  if (!cfg_.is_leaf()) return;  // updates always go to the agent (a leaf)
  if (standby_passive()) {
    bounce_sighting(m.s);
    flush_bounce();
    return;
  }
  if (const store::SightingDb::Record* rec = apply_update(src, m.s)) {
    send_msg(src, wm::UpdateAck{m.s.oid, rec->offered_acc});
    flush_awaiting_refresh(*rec);
  }
}

void LocationServer::on_batched_update_req(NodeId src, const wm::BatchedUpdateReq& m) {
  if (!cfg_.is_leaf()) return;  // updates always go to the agent (a leaf)
  if (standby_passive()) {
    auto bounced = m.sightings.items();
    while (const auto item = bounced.next()) bounce_sighting(item->value);
    flush_bounce();
    return;
  }
  ++stats_.update_batches;
  // Single lazy pass over the packed sightings (wire framing note): each one
  // takes the per-sighting path of on_update_req, and the acks travel back
  // as one packed BatchedUpdateAck to the coalescing sender.
  wm::BatchedUpdateAck& ack = batch_ack_scratch_;
  ack.acks.clear();
  auto sightings = m.sightings.items();
  while (const auto item = sightings.next()) {
    if (const store::SightingDb::Record* rec = apply_update(src, item->value)) {
      ack.acks.append({rec->sighting.oid, rec->offered_acc});
      if (!awaiting_refresh_.empty()) flush_awaiting_refresh(*rec);
    }
  }
  if (!ack.acks.empty()) send_msg(src, ack);
}

const store::SightingDb::Record* LocationServer::apply_update(NodeId src,
                                                              const Sighting& s) {
  store::SightingDb::Record* rec = sightings_->find(s.oid);
  if (rec == nullptr) {
    // Expired, lost with an in-memory visitorDB, or handed away before this
    // straggler arrived: the object re-registers only if we are still its
    // agent (see the header's lost-records note).
    ++stats_.updates_unknown;
    send_msg(src, wm::UnknownObject{s.oid});
    return nullptr;
  }
  if (!cfg_.covers(s.pos)) {
    initiate_handover(src, *rec, s);  // may erase the record (root leaf)
    return nullptr;
  }
  put_sighting(*rec, s);
  ++stats_.updates_applied;
  return rec;
}

void LocationServer::initiate_handover(NodeId object_node,
                                       store::SightingDb::Record& rec,
                                       const Sighting& s) {
  if (rec.in_handover) return;  // one at a time
  wm::HandoverReq req;
  req.s = s;
  req.reg_info = rec.reg_info;
  req.prev_offered_acc = rec.offered_acc;
  req.req_id = next_req_id();
  req.origin = origin_piggyback();

  PendingHandover pending;
  pending.reply_to = object_node;
  pending.oid = s.oid;
  pending.reply_to_object = true;
  pending.deadline = now() + opts_.pending_timeout;

  // §6.5 shortcut: if the leaf-area cache knows the leaf responsible for the
  // new position, hand over directly and repair the path explicitly.
  if (opts_.enable_leaf_area_cache) {
    const NodeId target = leaf_cache_.leaf_containing(s.pos);
    if (target.valid() && target != self_) {
      req.direct = true;
      pending.direct_prune = true;
      ++stats_.handovers_direct;
      ++stats_.handovers_initiated;
      rec.in_handover = true;
      pending_handover_.emplace(req.req_id, pending);
      send_msg(target, req);
      return;
    }
  }
  if (cfg_.is_root()) {
    // Single-server hierarchy: leaving our area means leaving the LS.
    drop_leaf_visitor(s.oid, &rec, /*prune_path=*/false);
    send_msg(object_node, wm::AgentChanged{s.oid, kNoNode, 0.0});
    return;
  }
  ++stats_.handovers_initiated;
  rec.in_handover = true;
  pending_handover_.emplace(req.req_id, pending);
  send_msg(cfg_.parent, req);
}

void LocationServer::accept_handover(NodeId src, const wm::HandoverReq& m) {
  const double offered = negotiate_offered_acc(m.reg_info.acc_range);
  put_sighting(sightings_->set_visitor(m.s.oid, offered, m.reg_info), m.s);
  ++stats_.handovers_accepted;
  // Direct handover bypassed the hierarchy: build the new path ourselves.
  if (m.direct) send_path(true, m.s.oid);
  wm::HandoverRes res;
  res.oid = m.s.oid;
  res.new_agent = self_;
  res.offered_acc = offered;
  res.req_id = m.req_id;
  res.origin = origin_piggyback();
  send_msg(src, res);
  if (offered != m.prev_offered_acc) {
    // §3.1: "Whenever the currently offered accuracy changes, the LS sends
    // a notification to the registering instance."
    send_msg(m.reg_info.reg_inst, wm::NotifyAvailAcc{m.s.oid, offered});
  }
}

void LocationServer::on_handover_req(NodeId src, const wm::HandoverReq& m) {
  learn_origin(m.origin);
  if (cfg_.covers(m.s.pos)) {
    if (cfg_.is_leaf()) {
      accept_handover(src, m);
      return;
    }
    const NodeId child = cfg_.child_for(m.s.pos);
    if (!child.valid()) return;  // tiling gap; drop (request times out)
    PendingHandover pending;
    pending.reply_to = src;
    pending.oid = m.s.oid;
    pending.child = child;
    pending.deadline = now() + opts_.pending_timeout;
    pending_handover_.emplace(m.req_id, pending);
    send_msg(child, m);
    return;
  }
  if (cfg_.is_root()) {
    // The object left the root service area: automatic deregistration (§4).
    if (visitor_db_) visitor_db_->remove(m.s.oid);
    send_msg(src, wm::HandoverRes{m.s.oid, kNoNode, 0.0, m.req_id, std::nullopt});
    return;
  }
  PendingHandover pending;
  pending.reply_to = src;
  pending.oid = m.s.oid;
  pending.remove_on_res = true;  // Alg 6-3 line 19
  pending.deadline = now() + opts_.pending_timeout;
  pending_handover_.emplace(m.req_id, pending);
  send_msg(cfg_.parent, m);
}

void LocationServer::on_handover_res(NodeId src, const wm::HandoverRes& m) {
  (void)src;
  const auto it = pending_handover_.find(m.req_id);
  if (it == pending_handover_.end()) return;  // timed out earlier
  const PendingHandover pending = it->second;
  pending_handover_.erase(it);
  learn_origin(m.origin);

  if (pending.reply_to_object) {
    // We are the old agent (Alg 6-2 lines 3-6); the in-flight flag goes
    // with the record.
    send_msg(pending.reply_to,
             wm::AgentChanged{pending.oid, m.new_agent, m.offered_acc});
    if (m.new_agent.valid() && pending.direct_prune) {
      send_path(false, pending.oid);
    }
    drop_leaf_visitor(pending.oid, sightings_->find(pending.oid),
                      /*prune_path=*/false);
    return;
  }
  // Intermediate server: repair or remove the forwarding pointer
  // (Alg 6-3 lines 11-14 / 18-20) and pass the response along. A leaf that
  // passed a misdirected handover upward keeps no pointer to repair.
  if (visitor_db_) {
    if (!m.new_agent.valid() || pending.remove_on_res) {
      visitor_db_->remove(pending.oid);
    } else {
      visitor_db_->set_forward(pending.oid, pending.child);
    }
  }
  send_msg(pending.reply_to, m);
}

void LocationServer::drop_leaf_visitor(ObjectId oid, store::SightingDb::Record* rec,
                                       bool prune_path) {
  if (rec != nullptr) {
    if (rec->has_sighting) events_on_sighting(oid, false, rec->sighting.pos);
    sightings_->remove(*rec);
  }
  tee({wm::ReplicaTee::Op::kRemove, Sighting{oid}});
  if (prune_path) send_path(false, oid);
}

// --------------------------------------------------------------------------
// leaf hot-standby replication (answer-complete failover)

void LocationServer::flush_tee() {
  if (!standby_.valid() || tee_scratch_.entries.empty()) return;
  ++stats_.tee_datagrams_sent;
  send_msg(standby_, tee_scratch_);
  tee_scratch_.entries.clear();
}

void LocationServer::bounce_sighting(const Sighting& s) {
  // A client refresh can race the demote fan-out and land on the passive
  // replica (the parent's BatchedRefreshReq reaches the client one hop
  // before the AgentChanged that re-points it). Dropping the update would
  // lose the freshest sighting until the next feed; applying it here would
  // shadow the recovered primary. Bounce it over the tee channel instead.
  // tee_scratch_ is unused in the replica role outside bounces.
  tee_scratch_.entries.append({wire::ReplicaTee::Op::kUpsert, s});
}

void LocationServer::flush_bounce() {
  if (tee_scratch_.entries.empty()) return;
  ++stats_.tee_datagrams_sent;
  send_msg(standby_primary_, tee_scratch_);
  tee_scratch_.entries.clear();
}

void LocationServer::on_replica_tee(NodeId src, const wm::ReplicaTee& m) {
  if (!cfg_.is_leaf() || !sightings_) return;
  if (standby_.valid() && src == standby_) {
    // Reconciliation return traffic: sightings a straggler client delivered
    // to the demoted replica (see bounce_sighting). Apply each against OUR
    // registration record -- the primary is authoritative for admission
    // state -- and re-tee it so the rebuilding mirror sees it too.
    auto entries = m.entries.items();
    while (const auto item = entries.next()) {
      const wire::ReplicaTee::Entry& e = item->value;
      if (e.op != wire::ReplicaTee::Op::kUpsert) continue;
      store::SightingDb::Record* rec = sightings_->find(e.s.oid);
      if (rec == nullptr) continue;
      ++stats_.tee_entries_applied;
      put_sighting(*rec, e.s);
      flush_awaiting_refresh(*rec);
    }
    return;  // the end-of-handle() flush_tee sends the re-tee batch
  }
  // Replica role: accept only from the one primary this server mirrors.
  if (!standby_primary_.valid() || src != standby_primary_) return;
  auto entries = m.entries.items();
  while (const auto item = entries.next()) {
    const wire::ReplicaTee::Entry& e = item->value;
    ++stats_.tee_entries_applied;
    switch (e.op) {
      case wire::ReplicaTee::Op::kRemove:
        sightings_->remove(e.s.oid);
        break;
      case wire::ReplicaTee::Op::kSetAcc:
        // Mirror of on_change_acc_req's store effect: the visitor part
        // changes WITHOUT any spatial-index operation (the primary performs
        // none, and byte-equal answers require identical index op sequences).
        sightings_->set_visitor(e.s.oid, e.offered_acc, e.reg);
        break;
      case wire::ReplicaTee::Op::kUpsert:
        // Insert-or-update exactly like put_sighting on the primary -- NOT
        // remove+reinsert -- so the index mutation sequence matches the
        // primary's and packed query emission is byte-identical.
        sightings_->upsert(e.s, e.offered_acc, e.expiry, e.reg);
        break;
    }
  }
}

void LocationServer::on_standby_promote(NodeId src, const wm::StandbyPromote& m) {
  // Only our parent may promote us, and only for the primary we mirror.
  if (src != cfg_.parent || !standby_primary_.valid() ||
      m.primary != standby_primary_ || standby_active_) {
    return;
  }
  standby_active_ = true;
  ++stats_.standby_promotions;
  // Clients keep sending updates to the dead primary until told otherwise;
  // the AgentChanged fan-out re-points every mirrored visitor at us NOW
  // instead of leaving each client's updates to time out.
  standby_fan_agent_changed(self_);
}

void LocationServer::on_standby_demote(NodeId src, const wm::StandbyDemote& m) {
  if (src != cfg_.parent || !standby_primary_.valid() ||
      m.primary != standby_primary_) {
    return;
  }
  if (!standby_active_) return;
  standby_active_ = false;
  ++stats_.standby_demotions;
  // Point the clients back at the recovered primary FIRST (while the mirror
  // still knows every visitor), then drop the mirrored state: the returning
  // primary rebuilds its volatile sightings via the RecoveryHello +
  // BatchedRefreshReq sweep, and a stale mirror here would shadow it.
  standby_fan_agent_changed(standby_primary_);
  std::vector<ObjectId> drop;
  sightings_->for_each(
      [&](ObjectId oid, const store::SightingDb::Record&) { drop.push_back(oid); });
  for (const ObjectId oid : drop) sightings_->remove(oid);
}

void LocationServer::standby_fan_agent_changed(NodeId agent) {
  // Deterministic fan-out: the leaf table iterates in slot order, so sort by
  // (reg_inst, oid) before emitting -- the trace does not depend on the
  // table's layout.
  std::vector<std::tuple<NodeId, ObjectId, double>> targets;
  sightings_->for_each([&](ObjectId oid, const store::SightingDb::Record& rec) {
    targets.emplace_back(rec.reg_info.reg_inst, oid, rec.offered_acc);
  });
  std::sort(targets.begin(), targets.end());
  for (const auto& [client, oid, offered_acc] : targets) {
    send_msg(client, wm::AgentChanged{oid, agent, offered_acc});
  }
}

void LocationServer::set_child_standby(NodeId child, NodeId standby) {
  if (!child.valid() || !standby.valid()) return;
  // Keep `engaged` as-is for a re-registration: restart-time re-wiring must
  // not mask a pending demotion of an engaged standby.
  child_standbys_[child].standby = standby;
}

NodeId LocationServer::standby_for(NodeId child) const {
  const auto it = child_standbys_.find(child);
  if (it == child_standbys_.end() || !it->second.engaged) return kNoNode;
  return it->second.standby;
}

void LocationServer::engage_standby(NodeId child) {
  const auto it = child_standbys_.find(child);
  if (it == child_standbys_.end() || it->second.engaged) return;
  it->second.engaged = true;
  ++stats_.standbys_engaged;
  send_msg(it->second.standby, wm::StandbyPromote{child, ++standby_incarnation_});
}

void LocationServer::disengage_standby(NodeId child) {
  const auto it = child_standbys_.find(child);
  if (it == child_standbys_.end() || !it->second.engaged) return;
  it->second.engaged = false;
  send_msg(it->second.standby, wm::StandbyDemote{child, ++standby_incarnation_});
}

// --------------------------------------------------------------------------
// position queries (Algorithm 6-4)

void LocationServer::on_pos_query_req(NodeId src, const wm::PosQueryReq& m) {
  // §6.5 cache 3: a still-valid cached descriptor answers immediately.
  if (opts_.enable_position_cache) {
    const auto cached = position_cache_.find(
        m.oid, now(), opts_.default_max_speed, opts_.position_cache_max_acc);
    if (cached) {
      ++stats_.pos_query_cache_hits;
      send_msg(src, wm::PosQueryRes{m.oid, true, *cached, kNoNode, m.req_id,
                                    std::nullopt});
      return;
    }
  }
  // Local answer (Alg 6-4 lines 1-4).
  if (const store::SightingDb::Record* rec =
          answer_pos_locally(m.oid, src, m.req_id, std::nullopt)) {
    if (rec->has_sighting) ++stats_.pos_queries_served;
    return;
  }

  const std::uint64_t internal_id = next_req_id();
  PendingPos pending{src, m.req_id, m.oid, false, now() + opts_.pending_timeout};

  // §6.5 cache 2: ask the cached agent directly; a negative answer or a
  // timeout falls back on the hierarchy.
  if (opts_.enable_agent_cache) {
    const auto agent = agent_cache_.find(m.oid, now());
    if (agent && *agent != self_) {
      ++stats_.agent_cache_hits;
      pending.via_agent_cache = true;
      pending_pos_.emplace(internal_id, pending);
      send_msg(*agent, wm::PosQueryFwd{m.oid, self_, internal_id});
      return;
    }
  }
  route_pos_query(internal_id, pending);
}

NodeId LocationServer::pos_query_next_hop(ObjectId oid) {
  // Down a forwarding pointer if this non-leaf server has one, otherwise
  // upwards (Alg 6-4 line 6).
  NodeId next = cfg_.is_root() ? kNoNode : cfg_.parent;
  if (visitor_db_) next = visitor_db_->find(oid).value_or(next);
  if (!next.valid() || !child_suspect(next)) return next;
  const NodeId standby = standby_for(next);
  if (standby.valid()) {
    // The crashed leaf has a promoted hot standby: its mirrored state
    // answers in place of the crashed child, so the answer stays complete.
    ++stats_.standby_routed_queries;
  } else {
    // The route leads into a crashed subtree: answer for it (not found)
    // instead of letting the entry wait out the pending timeout.
    ++stats_.suspect_short_circuits;
  }
  return standby;
}

void LocationServer::route_pos_query(std::uint64_t key, PendingPos pending) {
  if (pending.via_agent_cache) {
    // The cached agent no longer answers for the object: forget it.
    agent_cache_.invalidate(pending.oid);
    pending.via_agent_cache = false;
    pending.deadline = now() + opts_.pending_timeout;
  }
  const NodeId next = pos_query_next_hop(pending.oid);
  if (!next.valid()) {
    send_msg(pending.client, wm::PosQueryRes{pending.oid, false, {}, kNoNode,
                                             pending.client_req_id, std::nullopt});
    return;
  }
  pending_pos_.emplace(key, pending);
  send_msg(next, wm::PosQueryFwd{pending.oid, self_, key});
}

void LocationServer::on_pos_query_fwd(NodeId src, const wm::PosQueryFwd& m) {
  (void)src;
  if (cfg_.is_leaf()) {
    if (answer_pos_locally(m.oid, m.entry, m.req_id, origin_piggyback())) return;
    // Unknown at a leaf that was *sent* the query: a stale pointer or a
    // concurrent handover. Answer negatively rather than risk a routing
    // loop; the client may retry.
    send_msg(m.entry,
             wm::PosQueryRes{m.oid, false, {}, kNoNode, m.req_id, origin_piggyback()});
    return;
  }
  if (const NodeId next = pos_query_next_hop(m.oid); next.valid()) {
    send_msg(next, m);
    return;
  }
  // The root without a record (the object is not tracked), or a crashed
  // subtree on the way.
  send_msg(m.entry, wm::PosQueryRes{m.oid, false, {}, kNoNode, m.req_id, std::nullopt});
}

void LocationServer::on_pos_query_res(NodeId src, const wm::PosQueryRes& m) {
  (void)src;
  const auto it = pending_pos_.find(m.req_id);
  if (it == pending_pos_.end()) return;
  const PendingPos pending = it->second;
  pending_pos_.erase(it);
  learn_origin(m.origin);
  if (m.found) {
    if (opts_.enable_agent_cache && m.agent.valid()) {
      agent_cache_.learn(m.oid, m.agent, now());
    }
    if (opts_.enable_position_cache) position_cache_.learn(m.oid, m.ld, now());
  } else if (pending.via_agent_cache) {
    // A stale cached agent's not-found says nothing about the object: ask
    // the hierarchy, under a new key so a duplicate of this answer is
    // dropped.
    route_pos_query(next_req_id(), pending);
    return;
  }
  send_msg(pending.client, wm::PosQueryRes{m.oid, m.found, m.ld, m.agent,
                                           pending.client_req_id, std::nullopt});
}

const store::SightingDb::Record* LocationServer::answer_pos_locally(
    ObjectId oid, NodeId to, std::uint64_t req_id,
    const std::optional<wm::OriginArea>& origin) {
  const store::SightingDb::Record* rec = sightings_ ? sightings_->find(oid) : nullptr;
  if (rec == nullptr) return nullptr;
  if (rec->has_sighting) {
    const LocationDescriptor ld{rec->sighting.pos, rec->offered_acc};
    send_msg(to, wm::PosQueryRes{oid, true, ld, self_, req_id, origin});
    return rec;
  }
  // Visitor known persistently but sighting lost (recovery, §5): ask the
  // object for a refresh and answer when it arrives.
  refresh_targets_scratch_.assign(1, {rec->reg_info.reg_inst, oid});
  send_refresh_batches(refresh_targets_scratch_);
  awaiting_refresh_[oid].push_back({to, req_id, now() + opts_.pending_timeout});
  return rec;
}

void LocationServer::flush_awaiting_refresh(const store::SightingDb::Record& rec) {
  if (awaiting_refresh_.empty()) return;
  const ObjectId oid = rec.sighting.oid;
  const auto it = awaiting_refresh_.find(oid);
  if (it == awaiting_refresh_.end()) return;
  const LocationDescriptor ld{rec.sighting.pos, rec.offered_acc};
  for (const WaitingQuery& wq : it->second) {
    send_msg(wq.entry,
             wm::PosQueryRes{oid, true, ld, self_, wq.req_id, origin_piggyback()});
  }
  awaiting_refresh_.erase(it);
}

// --------------------------------------------------------------------------
// range queries and NN rings: one scatter-gather (Algorithm 6-5)

bool LocationServer::Gather::complete() const {
  return !(covered < target - coverage_epsilon(target));
}

bool LocationServer::credit_own_share(Gather& gather, const geo::Polygon& area) {
  const bool own = cfg_.is_leaf() && area.intersects(cfg_.sa);
  if (!own && !cfg_.is_root()) return false;
  const double inside = geo::intersection_area(area, cfg_.sa);
  if (own) gather.covered += inside;
  if (cfg_.is_root()) gather.covered += area.area() - inside;
  return own;
}

template <typename RangeQuery, typename Sink>
void LocationServer::emit_share(const RangeQuery& query, Sink&& sink) const {
  sightings_->objects_in_area_emit(query.area, query.req_acc, query.req_overlap,
                                   std::forward<Sink>(sink));
}

template <typename Sink>
void LocationServer::emit_share(const wm::NNProbeFwd& probe, Sink&& sink) const {
  // Only the objects the answer can use. With b the distance to this leaf's
  // own nearest qualifying object, the answer's d* is the smallest b of any
  // leaf, so d* <= b and no answer object here lies beyond b + near_qual.
  // The ring reads only d* and emptiness, so its decisions stay the same.
  const std::optional<ObjectResult> nearest = sightings_->nearest(probe.p, probe.req_acc);
  if (!nearest) return;
  // The slack keeps the cut at least as inclusive as finish_nn's nearObjSet
  // bound, d* + near_qual + 1e-9, after rounding. When b lies outside the
  // disk the radius wins, and the disk holds no qualifying object.
  const double b = geo::distance(nearest->ld.pos, probe.p);
  const double keep = (b + std::max(probe.near_qual, 0.0)) * (1 + 1e-9) + 1e-9;
  sightings_->objects_in_circle_emit({probe.p, std::min(probe.radius, keep)},
                                     probe.req_acc, std::forward<Sink>(sink));
}

template <typename SubRes, typename Fwd>
void LocationServer::fan_out(const Fwd& fwd, const geo::Polygon& area, NodeId entry,
                             NodeId from) {
  // Downwards: every child whose area intersects the request's and that did
  // not send it to us (Alg 6-5 fwd lines 8-11).
  for (const ChildRecord& child : cfg_.children) {
    if (child.id == from || !area.intersects(child.sa)) continue;
    if (!child_suspect(child.id)) {
      send_msg(child.id, fwd);
      continue;
    }
    if (const NodeId standby = standby_for(child.id); standby.valid()) {
      // Promoted hot standby: the mirror holds the crashed leaf's full
      // sighting set, so its sub-result (and the merged answer) is the
      // unfaulted run's. A range query goes `direct`: the standby answers
      // only the crashed leaf's share.
      ++stats_.standby_routed_queries;
      if constexpr (std::is_same_v<Fwd, wm::RangeQueryFwd>) {
        Fwd direct = fwd;
        direct.direct = true;
        send_msg(standby, direct);
      } else {
        send_msg(standby, fwd);
      }
      continue;
    }
    // Answer FOR the crashed subtree: credit its covered portion with no
    // results so the entry completes promptly (availability over
    // completeness -- the soft state below the crash is being rebuilt by
    // refreshes) instead of timing the whole request out.
    ++stats_.suspect_short_circuits;
    SubRes sub;
    sub.req_id = fwd.req_id;
    sub.covered_size = geo::intersection_area(area, child.sa);
    send_msg(entry, sub);
  }
  // Upwards: while part of the area lies outside our service area (Alg 6-5
  // fwd lines 13-14).
  if (!cfg_.is_root() && cfg_.parent != from &&
      !geo::convex_contains_polygon(cfg_.sa, area)) {
    send_msg(cfg_.parent, fwd);
  }
}

template <typename Fwd, typename SubRes>
void LocationServer::answer_share(const Fwd& fwd, const geo::Polygon& area,
                                  NodeId entry, SubRes& sub) {
  double credit = 0.0;
  if (cfg_.is_root()) credit = area.area() - geo::intersection_area(area, cfg_.sa);
  // A leaf answers any share it holds, another server only a root credit
  // above rounding noise.
  const bool leaf = cfg_.is_leaf();
  const bool answers = leaf ? area.intersects(cfg_.sa) || credit > 0.0
                            : credit > coverage_epsilon(area.area());
  if (!answers) return;
  // Scratch message: reusing the packed list and origin polygon capacity
  // makes a leaf's answer allocation-free in steady state.
  sub.req_id = fwd.req_id;
  wm::PackedResults& items = share_items(sub);
  items.clear();
  sub.covered_size = credit;
  if (leaf) {
    // Results stream straight from the spatial index into the packed wire
    // framing; no result vector exists between store and socket.
    emit_share(fwd, [&](const ObjectResult& r) { items.append(r); });
    sub.covered_size = geo::intersection_area(area, cfg_.sa) + credit;
    if constexpr (std::is_same_v<SubRes, wm::RangeQuerySubRes>) {
      ++stats_.range_sub_answered;
    }
  }
  sub.origin = origin_piggyback();  // none on a non-leaf server
  send_msg(entry, sub);
}

template <typename Table>
typename Table::mapped_type* LocationServer::credit_sub_res(Table& table,
                                                            wm::SubResView& view) {
  const auto it = table.find(view.req_id());
  if (it == table.end()) return nullptr;
  if (opts_.enable_leaf_area_cache && view.origin(origin_scratch_)) {
    learn_origin(origin_scratch_);
  }
  it->second.covered += view.covered_size();
  return &it->second;
}

void LocationServer::on_range_query_req(NodeId src, const wm::RangeQueryReq& m) {
  const geo::Polygon enlarged = geo::enlarge(m.area, std::max(m.req_acc, 0.0));
  const std::uint64_t internal_id = next_req_id();
  PendingRange pending;
  pending.client = src;
  pending.client_req_id = m.req_id;
  pending.target = enlarged.area();
  pending.deadline = now() + opts_.pending_timeout;

  if (credit_own_share(pending, enlarged)) {
    // Local contribution (Alg 6-5 lines 3-7): streamed from the store into a
    // packed segment -- already the merge input format -- so the entry's own
    // results never exist as a vector either.
    SubSegment local;
    local.buf = net_.make_buffer();
    {
      wm::Writer w(*local.buf);
      emit_share(m, [&](const ObjectResult& r) {
        wm::put(w, r);
        ++local.count;
      });
    }  // Writer flushes at scope exit
    local.data = local.buf->data();
    local.len = local.buf->size();
    if (local.count > 0) pending.segments.push_back(std::move(local));
  }

  const auto it = pending_range_.emplace(internal_id, std::move(pending)).first;
  PendingRange& gather = it->second;
  if (gather.complete()) {
    emit_range_result(gather, /*complete=*/true);
    pending_range_.erase(it);
    return;
  }
  if (opts_.enable_leaf_area_cache) {
    // §6.5 cache 1: if cached leaf areas cover the whole remainder, contact
    // those leaves directly instead of traversing the hierarchy.
    const LeafAreaCache::Coverage cov = leaf_cache_.coverage_of(enlarged);
    if (gather.covered + cov.covered_size >=
        gather.target - coverage_epsilon(gather.target)) {
      ++stats_.range_direct;
      const wm::RangeQueryFwd fwd{m.area, m.req_acc, m.req_overlap, self_, internal_id,
                                  /*direct=*/true};
      for (const NodeId leaf : cov.leaves) {
        if (leaf != self_) send_msg(leaf, fwd);
      }
      return;
    }
  }
  fan_out<wm::RangeQuerySubRes>(
      wm::RangeQueryFwd{m.area, m.req_acc, m.req_overlap, self_, internal_id,
                        /*direct=*/false},
      enlarged, self_, kNoNode);
}

void LocationServer::on_range_query_fwd(NodeId src, const wm::RangeQueryFwd& m) {
  const geo::Polygon enlarged = geo::enlarge(m.area, std::max(m.req_acc, 0.0));
  answer_share(m, enlarged, m.entry, range_sub_scratch_);
  if (!m.direct) fan_out<wm::RangeQuerySubRes>(m, enlarged, m.entry, src);
}

void LocationServer::handle_sub_res_view(wm::SubResView& view,
                                         const net::Datagram& dg) {
  if (view.type() == wm::MsgType::kRangeQuerySubRes) {
    PendingRange* pending = credit_sub_res(pending_range_, view);
    if (pending == nullptr) return;  // timed out earlier
    if (view.count() > 0) {
      // Pin the receive buffer for the duration of the merge: zero-copy on
      // both transports' native delivery paths; a borrow-only datagram (raw
      // injection) degrades to one pooled copy.
      if (dg.zero_copy()) {
        ++stats_.sub_res_pinned;
      } else {
        ++stats_.sub_res_copied;
      }
      net::Datagram::Taken taken = dg.take(net_.pool());
      SubSegment seg;
      seg.data = taken.data + (view.packed_data() - dg.data());
      seg.len = view.packed_size();
      seg.count = view.count();
      seg.buf = std::move(taken.buf);
      pending->segments.push_back(std::move(seg));
    }
    if (pending->complete()) {
      emit_range_result(*pending, /*complete=*/true);
      pending_range_.erase(view.req_id());
    }
    return;
  }
  // NN probe sub-result: candidates stream item-by-item off the datagram
  // into the pending ring's dedup map -- the map IS the merge state, so
  // nothing is pinned and no candidate vector ever exists.
  PendingNN* ring = credit_sub_res(pending_nn_, view);
  if (ring == nullptr) return;
  auto items = view.items();
  while (const auto item = items.next()) {
    ring->candidates[item->value.oid] = item->value.ld;
  }
  check_nn_ring(view.req_id());
}

void LocationServer::emit_range_result(PendingRange& pending, bool complete) {
  // Streaming merge: the final RangeQueryRes is written directly into an
  // outgoing pooled envelope by copying kept item byte ranges out of the
  // pinned segments -- the sub-results are never decoded. Dedup-on-emit:
  // the first occurrence of an ObjectId wins (arrival order), which equals
  // the historical plain concatenation whenever leaf areas tile (they do by
  // construction; direct/forwarded overlaps are the defensive case).
  //
  // Pass 1 sizes the answer (the dedup decisions are deterministic, so pass
  // 2 repeats them while copying); a lone segment skips the seen-set.
  const bool dedup = pending.segments.size() > 1;
  merge_seen_scratch_.clear();
  std::uint64_t kept = 0;
  std::size_t kept_bytes = 0;
  for (const SubSegment& seg : pending.segments) {
    wm::ItemView<ObjectResult> items(seg.data, seg.len);
    while (const auto item = items.next()) {
      if (dedup && !merge_seen_scratch_.try_emplace(item->value.oid).second) {
        ++stats_.merge_dedup_dropped;
        continue;
      }
      ++kept;
      kept_bytes += item->len;
    }
  }
  // Pass 2: emit. Byte-identical to encode_envelope_into of the equivalent
  // owned RangeQueryRes (pinned by test_query_merge).
  net::PooledBuffer out = net_.make_buffer();
  {
    wm::Writer w(*out);
    w.reserve(64 + kept_bytes);
    wm::begin_envelope(w, self_, wm::MsgType::kRangeQueryRes);
    w.u64(pending.client_req_id);
    w.boolean(complete);
    w.u64(kept);
    w.u64(kept_bytes);
    merge_seen_scratch_.clear();
    for (const SubSegment& seg : pending.segments) {
      wm::ItemView<ObjectResult> items(seg.data, seg.len);
      while (const auto item = items.next()) {
        if (dedup && !merge_seen_scratch_.try_emplace(item->value.oid).second) continue;
        w.bytes(item->data, item->len);
      }
    }
  }  // Writer flushes at scope exit
  pending.segments.clear();  // release the pinned receive buffers
  if (!pending.client.valid()) return;
  send_buffer(pending.client, std::move(out));
}

// Nearest-neighbor queries run as expanding rings of probe gathers (semantics
// of §3.2).

void LocationServer::on_nn_query_req(NodeId src, const wm::NNQueryReq& m) {
  PendingNN op;
  op.client = src;
  op.client_req_id = m.req_id;
  op.p = m.p;
  op.req_acc = m.req_acc;
  op.near_qual = std::max(m.near_qual, 0.0);
  if (!nn_map_pool_.empty()) {
    // Reuse a retired candidate map (bucket array intact) from an earlier
    // completed NN operation.
    op.candidates = std::move(nn_map_pool_.back());
    nn_map_pool_.pop_back();
    op.candidates.clear();
  }

  // Seed radius: the local nearest neighbor if we have one, else the size of
  // our own service area.
  const geo::Rect& own = cfg_.sa.bounding_box();
  double radius = std::max(own.width(), own.height());
  if (cfg_.is_leaf()) {
    if (const auto local = sightings_->nearest(m.p, m.req_acc)) {
      radius = std::max(geo::distance(local->ld.pos, m.p) * 1.001, 1.0);
    }
  }
  op.radius = std::max(radius, 1.0);
  launch_nn_ring(std::move(op));
}

void LocationServer::launch_nn_ring(PendingNN op) {
  ++stats_.nn_rings;
  const std::uint64_t ring_key = next_req_id();
  const geo::Polygon probe_poly = nn_probe_polygon(op.p, op.radius);
  op.target = probe_poly.area();
  op.covered = 0.0;
  op.deadline = now() + opts_.pending_timeout;
  const wm::NNProbeFwd probe{op.p, op.radius, op.req_acc, self_, ring_key, op.near_qual};

  // Local contribution: streamed from the store straight into the ring's
  // candidate map (no intermediate vector).
  if (credit_own_share(op, probe_poly)) {
    emit_share(probe, [&](const ObjectResult& r) { op.candidates[r.oid] = r.ld; });
  }
  pending_nn_.emplace(ring_key, std::move(op));
  fan_out<wm::NNProbeSubRes>(probe, probe_poly, self_, kNoNode);
  check_nn_ring(ring_key);
}

void LocationServer::on_nn_probe_fwd(NodeId src, const wm::NNProbeFwd& m) {
  const geo::Polygon probe_poly = nn_probe_polygon(m.p, m.radius);
  answer_share(m, probe_poly, m.coordinator, nn_sub_scratch_);
  fan_out<wm::NNProbeSubRes>(m, probe_poly, m.coordinator, src);
}

void LocationServer::check_nn_ring(std::uint64_t ring_key) {
  const auto it = pending_nn_.find(ring_key);
  if (it == pending_nn_.end() || !it->second.complete()) return;  // ring open
  PendingNN op = std::move(it->second);
  pending_nn_.erase(it);

  if (op.candidates.empty()) {
    if (op.radius >= kNNMaxRadius) {
      finish_nn(std::move(op));
      return;
    }
    op.radius = std::min(op.radius * 2.0, kNNMaxRadius);
    launch_nn_ring(std::move(op));
    return;
  }
  // d*: distance to the best candidate. The completed ring guarantees that
  // every leaf whose nearest qualifying object lies within op.radius sent
  // it, so d* is the global minimum. One more ring of radius d* + nearQual
  // completes nearObjSet: each leaf also sends its objects up to nearQual
  // farther from p than its own nearest, which covers d* + nearQual.
  double best = std::numeric_limits<double>::max();
  op.candidates.for_each([&](ObjectId, const LocationDescriptor& ld) {
    best = std::min(best, geo::distance(ld.pos, op.p));
  });
  const double needed = best + op.near_qual;
  if (op.final_ring || op.radius >= needed - 1e-9) {
    finish_nn(std::move(op));
    return;
  }
  op.radius = std::min(needed * 1.001, kNNMaxRadius);
  op.final_ring = true;
  launch_nn_ring(std::move(op));
}

void LocationServer::finish_nn(PendingNN op) {
  wm::NNQueryRes& res = nn_res_scratch_;
  res.req_id = op.client_req_id;
  res.found = false;
  res.nearest = {};
  res.near_set.clear();
  if (!op.candidates.empty()) {
    // Deterministic winner: smallest distance, ties by object id.
    ObjectId best_oid;
    LocationDescriptor best_ld;
    double best_d = std::numeric_limits<double>::max();
    op.candidates.for_each([&](ObjectId oid, const LocationDescriptor& ld) {
      const double d = geo::distance(ld.pos, op.p);
      if (d < best_d || (d == best_d && oid < best_oid)) {
        best_d = d;
        best_oid = oid;
        best_ld = ld;
      }
    });
    res.found = true;
    res.nearest = {best_oid, best_ld};
    // nearObjSet: the only place the candidates materialize, bounded by the
    // near-quality disk and sorted before packing into the final framing.
    nn_local_scratch_.clear();
    op.candidates.for_each([&](ObjectId oid, const LocationDescriptor& ld) {
      if (oid == best_oid) return;
      if (geo::distance(ld.pos, op.p) <= best_d + op.near_qual + 1e-9) {
        nn_local_scratch_.push_back({oid, ld});
      }
    });
    // (distance, id): a total order, so the packed nearObjSet is identical
    // no matter which container or arrival order fed the candidates.
    std::sort(nn_local_scratch_.begin(), nn_local_scratch_.end(),
              [&](const ObjectResult& a, const ObjectResult& b) {
                const double da = geo::distance(a.ld.pos, op.p);
                const double db = geo::distance(b.ld.pos, op.p);
                return da != db ? da < db : a.oid < b.oid;
              });
    for (const ObjectResult& r : nn_local_scratch_) res.near_set.append(r);
  }
  send_msg(op.client, res);
  nn_map_pool_.push_back(std::move(op.candidates));
}

// --------------------------------------------------------------------------
// accuracy management / lifecycle

void LocationServer::on_change_acc_req(NodeId src, const wm::ChangeAccReq& m) {
  store::SightingDb::Record* rec = sightings_ ? sightings_->find(m.oid) : nullptr;
  if (rec == nullptr) {
    send_msg(src, wm::ChangeAccRes{m.req_id, false, 0.0});
    return;
  }
  const double acc = opts_.min_supported_acc;
  if (acc > m.acc_range.minimum) {
    send_msg(src, wm::ChangeAccRes{m.req_id, false, rec->offered_acc});
    return;
  }
  const double offered = negotiate_offered_acc(m.acc_range);
  const double old_offered = rec->offered_acc;
  const NodeId reg_inst = rec->reg_info.reg_inst;
  sightings_->set_visitor(*rec, offered, RegInfo{reg_inst, m.acc_range});
  tee({wm::ReplicaTee::Op::kSetAcc, Sighting{m.oid}, offered, 0,
       RegInfo{reg_inst, m.acc_range}});
  send_msg(src, wm::ChangeAccRes{m.req_id, true, offered});
  if (offered != old_offered && reg_inst != src) {
    send_msg(reg_inst, wm::NotifyAvailAcc{m.oid, offered});
  }
}

void LocationServer::on_deregister_req(NodeId src, const wm::DeregisterReq& m) {
  (void)src;
  if (!cfg_.is_leaf()) return;
  store::SightingDb::Record* rec = sightings_->find(m.oid);
  if (rec == nullptr) return;
  drop_leaf_visitor(m.oid, rec, /*prune_path=*/true);
}

void LocationServer::request_refresh_all() {
  if (!cfg_.is_leaf()) return;
  refresh_targets_scratch_.clear();
  sightings_->for_each([&](ObjectId oid, const store::SightingDb::Record& rec) {
    if (!rec.has_sighting) refresh_targets_scratch_.emplace_back(rec.reg_info.reg_inst, oid);
  });
  send_refresh_batches(refresh_targets_scratch_);
}

void LocationServer::send_refresh_batches(
    std::vector<std::pair<NodeId, ObjectId>>& targets) {
  if (targets.empty()) return;
  // Sorting makes the sweep independent of the tables' slot order and
  // groups targets per client node.
  std::sort(targets.begin(), targets.end());
  wm::BatchedRefreshReq& batch = refresh_batch_scratch_;
  batch.oids.clear();
  NodeId current = targets.front().first;
  const auto flush = [&](NodeId to) {
    if (batch.oids.empty()) return;
    ++stats_.refresh_batches_sent;
    send_msg(to, batch);
    batch.oids.clear();
  };
  for (const auto& [client, oid] : targets) {
    if (client != current) {
      flush(current);
      current = client;
    }
    batch.oids.append(oid);
    ++stats_.refresh_requests;
    if (batch.oids.count >= kRefreshBatchMax) flush(current);
  }
  flush(current);
}

void LocationServer::announce_recovery() {
  if (!cfg_.is_leaf()) return;
  if (cfg_.is_root()) {
    // Single-server hierarchy: nobody holds forwarding paths for us; sweep
    // the persisted leaf visitors directly.
    request_refresh_all();
    return;
  }
  // The parent answers with the BatchedRefreshReq sweep of every object it
  // still forwards here (on_recovery_hello); the sweep itself happens when
  // that reply arrives, filtered against whatever sightings already exist.
  send_msg(cfg_.parent, wm::RecoveryHello{++recovery_incarnation_});
}

bool LocationServer::child_suspect(NodeId child) const {
  const auto it = child_health_.find(child);
  return it != child_health_.end() && it->second.suspect;
}

void LocationServer::on_heartbeat(NodeId src, const wm::Heartbeat& m) {
  send_msg(src, wm::HeartbeatAck{m.seq});
}

void LocationServer::on_heartbeat_ack(NodeId src, const wm::HeartbeatAck& m) {
  const auto it = child_health_.find(src);
  if (it == child_health_.end()) return;
  ChildHealth& h = it->second;
  // ANY ack is liveness evidence (even one reordered behind newer probes):
  // clear the miss counter and un-suspect without waiting for a hello.
  h.last_seq_acked = std::max(h.last_seq_acked, m.seq);
  if (h.suspect) disengage_standby(src);
  h.misses = 0;
  h.suspect = false;
}

void LocationServer::on_recovery_hello(NodeId src, const wm::RecoveryHello& m) {
  (void)m;  // the incarnation disambiguates log lines; protocol is idempotent
  ++stats_.recovery_hellos;
  disengage_standby(src);
  const auto it = child_health_.find(src);
  if (it != child_health_.end()) {
    it->second.suspect = false;
    it->second.misses = 0;
    it->second.last_seq_acked = it->second.last_seq_sent;
  }
  // Answer with every object we still forward to the restarted child; the
  // leaf intersects the list with its persisted records and sweeps refreshes
  // out to the registering instances.
  if (!visitor_db_) return;
  refresh_targets_scratch_.clear();
  visitor_db_->for_each([&](ObjectId oid, NodeId child) {
    if (child == src) refresh_targets_scratch_.emplace_back(src, oid);
  });
  send_refresh_batches(refresh_targets_scratch_);
}

void LocationServer::on_batched_refresh_req(NodeId src,
                                            const wm::BatchedRefreshReq& m) {
  (void)src;
  if (!cfg_.is_leaf()) return;  // sweeps target leaves (and, beyond, clients)
  // Parent-driven recovery sweep: refresh every listed object whose leaf
  // record survived (the persisted regInfo knows the registering instance)
  // but whose volatile sighting did not. Oids without a leaf record were
  // lost wholesale; their next update is answered with UnknownObject.
  refresh_targets_scratch_.clear();
  auto oids = m.oids.items();
  while (const auto item = oids.next()) {
    const ObjectId oid = item->value;
    const store::SightingDb::Record* rec = sightings_->find(oid);
    if (rec == nullptr || rec->has_sighting) continue;  // lost, or fresh
    refresh_targets_scratch_.emplace_back(rec->reg_info.reg_inst, oid);
  }
  send_refresh_batches(refresh_targets_scratch_);
}

// --------------------------------------------------------------------------
// event mechanism (extension)

void LocationServer::on_event_subscribe(NodeId src, const wm::EventSubscribe& m) {
  (void)src;
  const bool area_kind = m.kind == wm::PredicateKind::kAreaCount;
  const bool can_coordinate =
      cfg_.is_root() ||
      (area_kind && geo::convex_contains_polygon(cfg_.sa, m.area));
  if (!can_coordinate) {
    send_msg(cfg_.parent, m);
    return;
  }
  CoordinatorPred pred;
  pred.sub = m;
  coord_preds_[m.sub_id] = std::move(pred);
  wm::EventInstall inst;
  inst.sub_id = m.sub_id;
  inst.kind = m.kind;
  inst.area = m.area;
  inst.obj_a = m.obj_a;
  inst.obj_b = m.obj_b;
  inst.dist = m.dist;
  inst.coordinator = self_;
  if (cfg_.is_leaf()) install_event(inst);
  route_event_install(inst, kNoNode);
}

void LocationServer::route_event_install(const wm::EventInstall& inst, NodeId from) {
  for (const ChildRecord& child : cfg_.children) {
    if (child.id == from) continue;
    if (inst.kind == wm::PredicateKind::kAreaCount &&
        !inst.area.intersects(child.sa)) {
      continue;
    }
    send_msg(child.id, inst);
  }
}

void LocationServer::on_event_install(NodeId src, const wm::EventInstall& m) {
  if (cfg_.is_leaf()) {
    install_event(m);
  } else {
    route_event_install(m, src);
  }
}

void LocationServer::install_event(const wm::EventInstall& inst) {
  LeafPred& pred = leaf_preds_[inst.sub_id];
  pred.inst = inst;
  pred.members.clear();
  // Seed with objects already tracked here.
  if (!sightings_) return;
  std::vector<std::pair<ObjectId, geo::Point>> present;
  if (inst.kind == wm::PredicateKind::kAreaCount) {
    std::vector<ObjectResult> inside;
    sightings_->objects_in_area(inst.area, 1e18, 1e-9, inside);
    for (const ObjectResult& r : inside) {
      if (!inst.area.contains(r.ld.pos)) continue;  // membership by center
      pred.members.insert(r.oid);
      present.emplace_back(r.oid, r.ld.pos);
    }
  } else {
    for (const ObjectId oid : {inst.obj_a, inst.obj_b}) {
      const store::SightingDb::Record* rec = sightings_->find(oid);
      if (rec != nullptr && rec->has_sighting) present.emplace_back(oid, rec->sighting.pos);
    }
  }
  for (const auto& [oid, pos] : present) {
    wm::EventDelta delta{inst.sub_id, oid, true, pos};
    if (inst.coordinator == self_) {
      coordinator_handle_delta(self_, delta);
    } else {
      send_msg(inst.coordinator, delta);
    }
  }
}

void LocationServer::events_on_sighting(ObjectId oid, bool present, geo::Point pos) {
  for (auto& [sub_id, pred] : leaf_preds_) {
    const wm::EventInstall& inst = pred.inst;
    if (inst.kind == wm::PredicateKind::kAreaCount) {
      const bool was_in = pred.members.count(oid) > 0;
      const bool now_in = present && inst.area.contains(pos);
      if (was_in == now_in) continue;
      if (now_in) {
        pred.members.insert(oid);
      } else {
        pred.members.erase(oid);
      }
      wm::EventDelta delta{sub_id, oid, now_in, pos};
      if (inst.coordinator == self_) {
        coordinator_handle_delta(self_, delta);
      } else {
        send_msg(inst.coordinator, delta);
      }
    } else {
      if (oid != inst.obj_a && oid != inst.obj_b) continue;
      wm::EventDelta delta{sub_id, oid, present, pos};
      if (inst.coordinator == self_) {
        coordinator_handle_delta(self_, delta);
      } else {
        send_msg(inst.coordinator, delta);
      }
    }
  }
}

void LocationServer::on_event_delta(NodeId src, const wm::EventDelta& m) {
  coordinator_handle_delta(src, m);
}

void LocationServer::coordinator_handle_delta(NodeId reporting_leaf,
                                              const wm::EventDelta& m) {
  const auto it = coord_preds_.find(m.sub_id);
  if (it == coord_preds_.end()) return;
  CoordinatorPred& pred = it->second;
  bool now_fired = pred.fired;
  std::uint32_t count = 0;
  if (pred.sub.kind == wm::PredicateKind::kAreaCount) {
    if (m.entered) {
      pred.inside[m.oid] = reporting_leaf;
    } else {
      // Only the leaf currently responsible may remove the membership; a
      // stale "left" from the pre-handover agent is ignored.
      const auto member = pred.inside.find(m.oid);
      if (member != pred.inside.end() && member->second == reporting_leaf) {
        pred.inside.erase(member);
      }
    }
    count = static_cast<std::uint32_t>(pred.inside.size());
    now_fired = count >= pred.sub.threshold;
  } else {
    const auto apply = [&](std::optional<geo::Point>& pos, NodeId& src) {
      if (m.entered) {
        pos = m.pos;
        src = reporting_leaf;
      } else if (src == reporting_leaf) {
        pos.reset();
        src = kNoNode;
      }
    };
    if (m.oid == pred.sub.obj_a) apply(pred.pos_a, pred.src_a);
    if (m.oid == pred.sub.obj_b) apply(pred.pos_b, pred.src_b);
    now_fired = pred.pos_a && pred.pos_b &&
                geo::distance(*pred.pos_a, *pred.pos_b) <= pred.sub.dist;
  }
  if (now_fired != pred.fired) {
    pred.fired = now_fired;
    ++stats_.events_fired;
    send_msg(pred.sub.subscriber, wm::EventNotify{m.sub_id, now_fired, count});
  }
}

void LocationServer::on_event_unsubscribe(NodeId src, const wm::EventUnsubscribe& m) {
  leaf_preds_.erase(m.sub_id);
  const bool was_coordinator = coord_preds_.erase(m.sub_id) > 0;
  // Broadcast downwards so every leaf drops its local tracker; forward
  // upwards if we were not the coordinator (the coordinator is an ancestor).
  for (const ChildRecord& child : cfg_.children) {
    if (child.id != src) send_msg(child.id, m);
  }
  if (!was_coordinator && !cfg_.is_root() && cfg_.parent != src) {
    send_msg(cfg_.parent, m);
  }
}

// --------------------------------------------------------------------------
// maintenance

template <typename Table, typename OnTimeout>
void LocationServer::sweep(Table& table, TimePoint t, OnTimeout&& on_timeout) {
  // Expired keys first: a timeout may insert into `table` (a position query
  // retried under a new key).
  std::vector<std::uint64_t> expired;
  for (const auto& [key, op] : table) {
    if (op.deadline <= t) expired.push_back(key);
  }
  for (const std::uint64_t key : expired) {
    const auto it = table.find(key);
    typename Table::mapped_type op = std::move(it->second);
    table.erase(it);
    on_timeout(op);
  }
}

void LocationServer::tick(TimePoint t) {
  // Send-burst bracket: a tick can emit a storm (heartbeats to every child,
  // batch deadline flushes, expiry notifications), so cork the sender and
  // let the transport coalesce them into sendmmsg batches. SimNetwork
  // ignores the bracket (inline delivery, traces unchanged); the explicit
  // flush at the end guarantees nothing a tick produced outlives the tick.
  net_.cork(self_);
  tick_body(t);
  net_.uncork(self_);
  net_.flush(self_);
}

void LocationServer::tick_body(TimePoint t) {
  // Failure detection: probe every child each interval; a child that let
  // kHeartbeatMissThreshold whole intervals pass unanswered is suspect
  // (query routing then answers on its behalf; see the header invariants).
  if (opts_.heartbeat_interval > 0 && !cfg_.children.empty() &&
      t >= next_heartbeat_) {
    for (const ChildRecord& child : cfg_.children) {
      ChildHealth& h = child_health_[child.id];
      if (h.last_seq_sent > h.last_seq_acked) {
        if (++h.misses >= kHeartbeatMissThreshold && !h.suspect) {
          h.suspect = true;
          ++stats_.children_suspected;
          engage_standby(child.id);
        }
      }
      h.last_seq_sent = ++heartbeat_seq_;
      ++stats_.heartbeats_sent;
      send_msg(child.id, wm::Heartbeat{h.last_seq_sent});
    }
    next_heartbeat_ = t + opts_.heartbeat_interval;
  }
  // Bound the persistent log (and with it, recovery time).
  if (visitor_db_) visitor_db_->compact(kVisitorCompactThreshold);
  if (sightings_) sightings_->compact(kVisitorCompactThreshold);
  // Soft-state expiry (§5): deregister objects whose sightings lapsed
  // (expire_until persists the removals in one frame write). A PASSIVE
  // replica never expires on its own clock: the primary owns the TTL
  // decision and tees the removal, so the mirror stays byte-identical
  // instead of racing the primary's sweep.
  if (sightings_ && !standby_passive()) {
    for (const ObjectId oid : sightings_->expire_until(t)) {
      ++stats_.sightings_expired;
      events_on_sighting(oid, false, {});
      send_path(false, oid);
      tee({wm::ReplicaTee::Op::kRemove, Sighting{oid}});
    }
  }
  // Pending-operation timeouts.
  sweep(pending_pos_, t, [&](const PendingPos& pending) {
    // A query a cached agent left unanswered retries through the hierarchy.
    if (pending.via_agent_cache) {
      route_pos_query(next_req_id(), pending);
      return;
    }
    ++stats_.pending_timeouts;
    send_msg(pending.client, wm::PosQueryRes{pending.oid, false, {}, kNoNode,
                                             pending.client_req_id, std::nullopt});
  });
  sweep(pending_range_, t, [&](PendingRange& pending) {
    ++stats_.pending_timeouts;
    emit_range_result(pending, /*complete=*/false);
  });
  sweep(pending_nn_, t, [&](PendingNN& op) {
    ++stats_.pending_timeouts;
    finish_nn(std::move(op));  // best effort with whatever candidates arrived
  });
  sweep(pending_handover_, t, [&](const PendingHandover& pending) {
    ++stats_.pending_timeouts;
    if (pending.reply_to_object) {
      // The old agent may hand the object over again.
      if (store::SightingDb::Record* rec = sightings_->find(pending.oid)) {
        rec->in_handover = false;
      }
    }
  });
  for (auto it = awaiting_refresh_.begin(); it != awaiting_refresh_.end();) {
    auto& waiters = it->second;
    waiters.erase(std::remove_if(waiters.begin(), waiters.end(),
                                 [&](const WaitingQuery& wq) {
                                   if (wq.deadline > t) return false;
                                   ++stats_.pending_timeouts;
                                   send_msg(wq.entry,
                                            wm::PosQueryRes{it->first, false, {},
                                                            kNoNode, wq.req_id,
                                                            std::nullopt});
                                   return true;
                                 }),
                  waiters.end());
    it = waiters.empty() ? awaiting_refresh_.erase(it) : std::next(it);
  }
  // Anything the tick teed (expiry removals) rides out in one datagram.
  flush_tee();
}

}  // namespace locs::core

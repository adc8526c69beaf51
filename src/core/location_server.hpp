// The location server -- one node of the hierarchical architecture (§4-§6).
//
// A LocationServer is a single-threaded message reactor: handle() consumes
// one datagram and may emit datagrams through the Transport. The paper's
// blocking "receive ..." steps (Alg 6-2/6-3/6-5) become pending-operation
// tables swept by tick(). The same code runs over the deterministic
// SimNetwork and over real UDP. Every hierarchy node, leaf or not, is one
// LocationServer behind its NodeId (core/deployment.hpp); the hierarchy
// scales by adding leaf service areas (§6), not by splitting a leaf.
//
// Implemented behaviour:
//  * Algorithm 6-1  registration (incl. createPath) with accuracy
//    negotiation [desAcc, minAcc] -> offeredAcc,
//  * Algorithm 6-2  position updates, soft-state TTL extension,
//  * Algorithm 6-3  handover with hop-by-hop forwarding-path repair and
//    automatic deregistration when an object leaves the root service area,
//  * Algorithm 6-4  position queries (entry-server collection),
//  * Algorithm 6-5  range queries with Enlarge(area, reqAcc) routing and
//    covered-area completion accounting,
//  * nearest-neighbor queries (§3.2 semantics) via an expanding-ring search
//    whose probe replies carry only the answer's candidates; each ring is
//    gathered as a range query is (one scatter-gather, see Gather),
//  * the three §6.5 caches (leaf-area / object-agent / position descriptor),
//  * soft-state expiry and removePath pruning (§5),
//  * crash recovery: persistent visitorDB replay + refresh requests, and
//    re-registration of an object whose record was lost (§5),
//  * changeAcc / notifyAvailAcc (§3.1),
//  * the event mechanism sketched in §1/§8 (area-count and proximity
//    predicates with leaf-side membership deltas).
//
// Fault tolerance (recovery-protocol invariants; wire/messages.hpp has the
// framing side):
//  * failure detection -- with Options::heartbeat_interval > 0 a non-leaf
//    parent probes each child every interval (wire::Heartbeat) and counts
//    consecutive unanswered probes; at kHeartbeatMissThreshold (3) the child
//    is SUSPECT. Any HeartbeatAck (or a RecoveryHello) clears suspicion -- a
//    reordered stale ack is still liveness evidence. Disabled by default
//    (interval 0) so no-fault message traces stay bit-identical to seeds.
//  * routing around suspects -- a query that would be forwarded into a
//    suspect subtree is answered ON BEHALF of that subtree instead of timing
//    out: position queries get an immediate not-found, range/NN routing
//    credits the suspect child's covered area with zero results
//    (availability over completeness; the soft state below the crash is
//    being rebuilt by refreshes anyway). Updates/handovers are NOT
//    short-circuited -- their loss is already handled by client retry.
//  * batched soft-state recovery -- a restarted leaf announces itself with
//    RecoveryHello; the parent answers with BatchedRefreshReq sweeps listing
//    every object it still forwards to that leaf; the leaf intersects that
//    list with its (persisted) leaf records and sweeps BatchedRefreshReq
//    datagrams to the registering instances -- one datagram per client
//    chunk, not one per object. The resulting client updates write the
//    lost sightings back into the leaf records the restarted leaf replayed
//    from its visitor log.
//  * lost records -- a leaf answers every update for an object it has no
//    record of (expired, or lost with an in-memory visitorDB) with
//    UnknownObject to the update's sender. The object registers again
//    through that leaf only if the leaf is still its agent, so the leaf
//    keeps no memory of the objects it dropped on purpose.
//
// Zero-materialization query merge (read-path invariants; wire/messages.hpp
// has the framing side):
//  * sub-results never decode into owned lists. Every RangeQuerySubRes/
//    NNProbeSubRes datagram is consumed through wire::SubResView straight
//    off the receive buffer: NN candidates stream item-by-item into the
//    pending ring's candidate map; range sub-results PIN the datagram
//    (net::Datagram::take -- zero-copy on both transports) and the pending
//    operation holds just the packed byte range until the merge completes.
//    A sub-result the view rejects is malformed (the view accepts every
//    sub-result the full decode accepts) and counts as a decode error.
//  * the final RangeQueryRes is written DIRECTLY into an outgoing pooled
//    envelope: kept item byte ranges are memcpy'd from the pinned
//    sub-result buffers, deduplicated on emit (first occurrence of an
//    ObjectId wins, in arrival order -- identical to the historical
//    concatenation whenever leaf areas tile, which they do by
//    construction), and the pins are released as the segments drop.
//  * leaf-local answers stream from the store into the packed wire buffer
//    through the SightingDb *_emit sinks -- no intermediate result vector
//    exists anywhere between the spatial index and the socket.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "core/caches.hpp"
#include "core/service_area.hpp"
#include "core/types.hpp"
#include "net/transport.hpp"
#include "spatial/spatial_index.hpp"
#include "store/sighting_db.hpp"
#include "store/visitor_db.hpp"
#include "util/clock.hpp"
#include "util/oid_set.hpp"
#include "wire/messages.hpp"

namespace locs::core {

class LocationServer {
 public:
  struct Options {
    /// Best (smallest) accuracy this server's sensor infrastructure can
    /// manage -- Alg 6-1 line 3. Registration fails if this exceeds minAcc.
    double min_supported_acc = 5.0;
    /// Maximum object speed assumed when aging cached descriptors (m/s).
    double default_max_speed = 30.0;
    /// Soft-state TTL for sighting records (§5).
    Duration sighting_ttl = seconds(120);
    /// Deadline for distributed operations before they complete partially.
    Duration pending_timeout = seconds(5);
    /// §6.5 caches (the paper's prototype ran without them; benches toggle).
    bool enable_leaf_area_cache = false;
    bool enable_agent_cache = false;
    bool enable_position_cache = false;
    /// Worst aged accuracy a position-cache hit may report.
    double position_cache_max_acc = 200.0;
    /// Failure detection: probe interval for wire::Heartbeat sent to every
    /// child from tick(); three unanswered probes in a row
    /// (kHeartbeatMissThreshold) mark the child suspect. 0 disables the
    /// detector entirely (default; keeps no-fault traces bit-identical to
    /// heartbeat-free builds).
    Duration heartbeat_interval = 0;
  };

  struct Stats {
    std::uint64_t msgs_handled = 0;
    std::uint64_t msgs_sent = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t registrations = 0;
    std::uint64_t registration_failures = 0;
    std::uint64_t updates_applied = 0;
    std::uint64_t updates_unknown = 0;
    std::uint64_t update_batches = 0;  // BatchedUpdateReq datagrams handled
    std::uint64_t handovers_initiated = 0;
    std::uint64_t handovers_accepted = 0;  // this server became the new agent
    std::uint64_t handovers_direct = 0;    // via leaf-area cache shortcut
    std::uint64_t pos_queries_served = 0;  // answered from this entry server
    std::uint64_t pos_query_cache_hits = 0;
    std::uint64_t agent_cache_hits = 0;
    std::uint64_t range_direct = 0;  // range served via leaf-area cache
    std::uint64_t range_sub_answered = 0;
    std::uint64_t nn_rings = 0;
    std::uint64_t sightings_expired = 0;
    std::uint64_t pending_timeouts = 0;
    std::uint64_t refresh_requests = 0;
    std::uint64_t events_fired = 0;
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t children_suspected = 0;    // suspect transitions observed
    std::uint64_t suspect_short_circuits = 0;  // queries answered for suspects
    std::uint64_t recovery_hellos = 0;       // RecoveryHello received (parent)
    std::uint64_t refresh_batches_sent = 0;  // BatchedRefreshReq datagrams
    std::uint64_t sub_res_pinned = 0;    // sub-results merged without a copy
    std::uint64_t sub_res_copied = 0;    // sub-results merged via copy fallback
    std::uint64_t merge_dedup_dropped = 0;  // duplicate results dropped on emit
    std::uint64_t tee_datagrams_sent = 0;   // ReplicaTee datagrams to standby
    std::uint64_t tee_entries_applied = 0;  // tee entries mirrored (replica)
    std::uint64_t standby_promotions = 0;   // StandbyPromote handled (replica)
    std::uint64_t standby_demotions = 0;    // StandbyDemote handled (replica)
    std::uint64_t standbys_engaged = 0;     // suspicions routed to a standby
    std::uint64_t standby_routed_queries = 0;  // queries re-routed to standbys

    /// Accumulates `other` into this record (deployment-wide aggregation).
    void add(const Stats& other);
  };

  /// Result of one client-visible operation, delivered to the node that
  /// issued the request (see client.hpp for the client side).
  /// `visitor_log` is the node's persistent visitorDB: a leaf replays its
  /// leaf table's visitor part from it, any other server its references.
  LocationServer(NodeId self, ConfigRecord cfg, net::Transport& net, Clock& clock,
                 Options opts, store::VisitorLog visitor_log = {},
                 spatial::IndexFactory index_factory = nullptr);

  /// Default options.
  LocationServer(NodeId self, ConfigRecord cfg, net::Transport& net, Clock& clock);

  LocationServer(const LocationServer&) = delete;
  LocationServer& operator=(const LocationServer&) = delete;

  /// Transport entry point: decode + dispatch one datagram. Packed query
  /// sub-results take the zero-materialization view path (may pin the
  /// datagram; see the read-path invariants above); everything else goes
  /// through the scratch-envelope decode.
  void handle(const net::Datagram& dg);

  /// Borrow-only convenience overload (tests, synthesized datagrams):
  /// identical dispatch, but a pin degrades to a copy.
  void handle(const std::uint8_t* data, std::size_t len) {
    handle(net::Datagram(data, len));
  }

  /// Periodic maintenance: soft-state expiry, pending-operation timeouts.
  void tick(TimePoint now);

  /// Recovery hook (§5): after constructing the server from a replayed
  /// persistent visitorDB, asks every leaf visitor whose sighting is missing
  /// for a position refresh -- batched per registering instance
  /// (wire::BatchedRefreshReq; one datagram per client chunk).
  void request_refresh_all();

  /// Crash-restart announcement (fault subsystem): a restarted leaf sends
  /// RecoveryHello to its parent, which answers with the BatchedRefreshReq
  /// sweep of objects it still forwards here (see the header invariants). A
  /// root leaf (single-server hierarchy) has no parent and sweeps locally.
  void announce_recovery();

  /// True while the failure detector considers `child` crashed/unreachable.
  bool child_suspect(NodeId child) const;

  // -- hot-standby replication wiring (Deployment::Config::leaf_standby) --
  //
  // Replication invariants (wire/messages.hpp has the framing side):
  //  * primary role -- a leaf with a standby tees every accepted sighting
  //    mutation (upsert / remove / accuracy change, with the ORIGINAL
  //    absolute expiry) into one wire::ReplicaTee per handled datagram/tick
  //    (flush_tee), so replication costs ~1 extra datagram per update batch.
  //  * replica role -- tee entries apply with insert-or-update semantics IN
  //    BATCH ORDER, reproducing the primary's exact spatial-index mutation
  //    sequence; that is what makes a promoted standby's range/NN answers
  //    byte-equal to the unfaulted primary's. The passive replica never
  //    fires events, sends paths/acks, or expires its mirror (removals
  //    arrive via the tee).
  //  * parent routing -- when the failure detector trips for a child with a
  //    registered standby, the parent engages it: queries that would hit the
  //    PR 4 zero-result short-circuit are forwarded to the standby instead,
  //    and a StandbyPromote tells the replica to fan AgentChanged at its
  //    mirrored visitors. Liveness evidence (ack / RecoveryHello) disengages
  //    and demotes; the primary rebuilds via the RecoveryHello sweep and the
  //    tee re-mirrors the standby. All of this is inert by default -- with
  //    no standby registered, traces stay bit-identical.

  /// Primary role: tee accepted sighting mutations to this replica NodeId.
  void set_standby(NodeId standby) { standby_ = standby; }
  /// Replica role: mirror tee datagrams arriving from this primary NodeId.
  void set_standby_role(NodeId primary) { standby_primary_ = primary; }
  /// Replica role: promoted and answering for the primary right now.
  bool standby_active() const { return standby_active_; }
  /// Parent routing: remember `standby` as the failover target for `child`.
  void set_child_standby(NodeId child, NodeId standby);
  /// Parent routing: the engaged standby for a suspect child (kNoNode when
  /// the child has no standby or the standby is not engaged).
  NodeId standby_for(NodeId child) const;

  NodeId id() const { return self_; }
  const ConfigRecord& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  /// Forwarding references: null on a leaf, as sightings() is null on any
  /// other server.
  const store::VisitorDb* visitors() const {
    return visitor_db_ ? &*visitor_db_ : nullptr;
  }
  /// The leaf table: one record per visitor of this leaf.
  const store::SightingDb* sightings() const {
    return sightings_ ? &*sightings_ : nullptr;
  }
  const Options& options() const { return opts_; }
  const LeafAreaCache& leaf_area_cache() const { return leaf_cache_; }

 private:
  // -- pending distributed operations (the paper's blocking "receive ..."
  //    steps become continuation state swept by tick()) --
  /// One scatter-gather (Alg 6-5): the entry forwards a request over an
  /// area, every leaf answers its share with the size of the area it covers,
  /// and the entry answers `client` once those sizes add up to `target`.
  /// Range queries and NN probe rings both gather this way.
  struct Gather {
    NodeId client;
    std::uint64_t client_req_id = 0;
    double target = 0.0;   // size of the area the shares must cover
    double covered = 0.0;  // credited so far
    TimePoint deadline = 0;
    /// The shares cover the target (within coverage_epsilon).
    bool complete() const;
  };
  struct PendingNN : Gather {
    geo::Point p;
    double req_acc = 0.0;
    double near_qual = 0.0;
    double radius = 0.0;
    bool final_ring = false;  // radius already covers d* + nearQual
    // Flat candidate map (util/oid_set.hpp): streaming sub-result merge
    // with zero allocations at working size; retired maps recycle through
    // nn_map_pool_ with their slot arrays intact.
    util::OidMap<LocationDescriptor> candidates;
  };

  // -- message handlers (one per protocol message) --
  void on_register_req(NodeId src, const wire::RegisterReq& m);
  void on_create_path(NodeId src, const wire::CreatePath& m);
  void on_remove_path(NodeId src, const wire::RemovePath& m);
  void on_update_req(NodeId src, const wire::UpdateReq& m);
  void on_batched_update_req(NodeId src, const wire::BatchedUpdateReq& m);
  void on_handover_req(NodeId src, const wire::HandoverReq& m);
  void on_handover_res(NodeId src, const wire::HandoverRes& m);
  void on_pos_query_req(NodeId src, const wire::PosQueryReq& m);
  void on_pos_query_fwd(NodeId src, const wire::PosQueryFwd& m);
  void on_pos_query_res(NodeId src, const wire::PosQueryRes& m);
  void on_range_query_req(NodeId src, const wire::RangeQueryReq& m);
  void on_range_query_fwd(NodeId src, const wire::RangeQueryFwd& m);
  void on_nn_query_req(NodeId src, const wire::NNQueryReq& m);
  void on_nn_probe_fwd(NodeId src, const wire::NNProbeFwd& m);
  void on_change_acc_req(NodeId src, const wire::ChangeAccReq& m);
  void on_deregister_req(NodeId src, const wire::DeregisterReq& m);
  void on_event_subscribe(NodeId src, const wire::EventSubscribe& m);
  void on_event_install(NodeId src, const wire::EventInstall& m);
  void on_event_delta(NodeId src, const wire::EventDelta& m);
  void on_event_unsubscribe(NodeId src, const wire::EventUnsubscribe& m);
  void on_heartbeat(NodeId src, const wire::Heartbeat& m);
  void on_heartbeat_ack(NodeId src, const wire::HeartbeatAck& m);
  void on_recovery_hello(NodeId src, const wire::RecoveryHello& m);
  void on_batched_refresh_req(NodeId src, const wire::BatchedRefreshReq& m);
  void on_replica_tee(NodeId src, const wire::ReplicaTee& m);
  void on_standby_promote(NodeId src, const wire::StandbyPromote& m);
  void on_standby_demote(NodeId src, const wire::StandbyDemote& m);

  // -- helpers --
  /// Encodes into a pooled buffer (zero allocations in steady state) and
  /// sends it. Templated so concrete message types hit the per-type
  /// encode_envelope_into overloads -- no Message variant construction, no
  /// copy of embedded lists.
  template <typename M>
  void send_msg(NodeId to, const M& msg) {
    if (!to.valid()) return;
    net::PooledBuffer buf = net_.make_buffer();
    wire::encode_envelope_into(*buf, self_, msg);
    send_buffer(to, std::move(buf));
  }
  /// The one exit of every outgoing envelope.
  void send_buffer(NodeId to, net::PooledBuffer buf) {
    ++stats_.msgs_sent;
    net_.send(self_, to, std::move(buf));
  }
  std::uint64_t next_req_id();
  /// §6.5 piggyback, cached at construction (config is immutable): avoids
  /// re-copying the service-area polygon on every leaf response.
  const std::optional<wire::OriginArea>& origin_piggyback() const {
    return origin_cache_;
  }
  void learn_origin(const std::optional<wire::OriginArea>& origin);
  double negotiate_offered_acc(const AccuracyRange& range) const;
  TimePoint now() const { return clock_.now(); }
  TimePoint sighting_expiry() const { return now() + opts_.sighting_ttl; }

  /// Becomes the new agent for a handed-over object (Alg 6-3 lines 2-7).
  void accept_handover(NodeId src, const wire::HandoverReq& m);
  /// The per-sighting path of UpdateReq and BatchedUpdateReq (Alg 6-2): one
  /// lookup, then a write through the record found, a handover or an
  /// unknown. Returns the record written, or nullptr.
  const store::SightingDb::Record* apply_update(NodeId src, const Sighting& s);
  /// Initiates a handover for a locally tracked object that left our area.
  void initiate_handover(NodeId object_node, store::SightingDb::Record& rec,
                         const Sighting& s);
  /// Removes a leaf visitor (handover away, deregistration): its record
  /// `rec` (null when already gone), mirror entry and, with `prune_path`,
  /// its path.
  void drop_leaf_visitor(ObjectId oid, store::SightingDb::Record* rec,
                         bool prune_path);

  /// The fan-out of range queries and NN probes (Alg 6-5 fwd lines 8-14):
  /// sends `fwd` to every child whose service area intersects `area` except
  /// `from`, the node it arrived from (kNoNode at the entry server). A
  /// suspect child's share goes to its engaged standby or, without one, is
  /// credited to `entry` as an empty `SubRes` covering the child's part of
  /// `area`. `fwd` goes upward while `area` extends outside ours.
  template <typename SubRes, typename Fwd>
  void fan_out(const Fwd& fwd, const geo::Polygon& area, NodeId entry, NodeId from);
  /// The entry's own credit toward `gather` over `area`: its leaf share and,
  /// at the root, the part of `area` outside the entire service area, which
  /// no server will ever report. True when this leaf holds a share, which
  /// the caller then emits.
  bool credit_own_share(Gather& gather, const geo::Polygon& area);
  /// Answers a forwarded RangeQueryFwd or NNProbeFwd routed over `area`: a
  /// leaf sends `entry` its share, the root the credit for `area` outside
  /// the service area. `sub` is the scratch sub-result.
  template <typename Fwd, typename SubRes>
  void answer_share(const Fwd& fwd, const geo::Polygon& area, NodeId entry, SubRes& sub);
  /// This leaf's share of a range query (RangeQueryReq at the entry,
  /// RangeQueryFwd past it): every qualifying object in the query area.
  template <typename RangeQuery, typename Sink>
  void emit_share(const RangeQuery& query, Sink&& sink) const;
  /// This leaf's share of an NN probe: if its nearest qualifying object lies
  /// in the probe disk, at distance b, every qualifying object within
  /// min(radius, b + near_qual) of p; otherwise nothing.
  template <typename Sink>
  void emit_share(const wire::NNProbeFwd& probe, Sink&& sink) const;
  /// Credits a sub-result to the gather in `table` it answers; returns that
  /// gather, or nullptr when it is gone (timed out earlier).
  template <typename Table>
  typename Table::mapped_type* credit_sub_res(Table& table, wire::SubResView& view);
  /// Starts (or restarts with a larger radius) the expanding-ring probe for
  /// a pending NN operation.
  void launch_nn_ring(PendingNN op);
  void check_nn_ring(std::uint64_t ring_key);
  void finish_nn(PendingNN op);

  /// Writes an accepted sighting through its leaf record, then the event
  /// predicates and the standby's tee.
  void put_sighting(store::SightingDb::Record& rec, const Sighting& s);
  /// A leaf's answer to a position query for `oid` (Alg 6-4 lines 1-4), sent
  /// to `to` -- or, for a record still without its sighting (§5), a
  /// one-entry refresh request to the object and a waiting query. Returns
  /// the record, or nullptr when the object has none here.
  const store::SightingDb::Record* answer_pos_locally(
      ObjectId oid, NodeId to, std::uint64_t req_id,
      const std::optional<wire::OriginArea>& origin);
  /// Answers the position queries waiting for `rec`'s refresh (§5).
  void flush_awaiting_refresh(const store::SightingDb::Record& rec);
  /// The next hop of a position query for `oid` through the hierarchy (Alg
  /// 6-4 line 6): this server's forwarding reference if it has one,
  /// otherwise the parent. A suspect child is replaced by its engaged
  /// standby, or by kNoNode without one; kNoNode also when there is no
  /// next hop, and the query is then answered not-found.
  NodeId pos_query_next_hop(ObjectId oid);
  /// Sends a pending position query to its next hop under `key`, or answers
  /// the client not-found. A query that went to a cached agent first drops
  /// that agent from the cache (§6.5 cache 2's fallback).
  struct PendingPos;
  void route_pos_query(std::uint64_t key, PendingPos pending);

  /// Zero-materialization sub-result intake (see the header invariants):
  /// consumes a valid SubResView straight off the receive buffer, pinning
  /// the datagram for range merges / streaming candidates for NN rings.
  void handle_sub_res_view(wire::SubResView& view, const net::Datagram& dg);
  /// Streams the merged range answer directly into an outgoing pooled
  /// envelope (dedup-on-emit) and releases the pinned segments.
  struct PendingRange;
  void emit_range_result(PendingRange& pending, bool complete);

  /// Removes every operation of `table` whose deadline has passed at `t`,
  /// then hands each to `on_timeout`, in the table's iteration order.
  template <typename Table, typename OnTimeout>
  void sweep(Table& table, TimePoint t, OnTimeout&& on_timeout);

  /// CreatePath/RemovePath toward the parent (one per object, Alg 6-1/6-3).
  void send_path(bool create, ObjectId oid);

  /// tick() minus the send-burst bracket (tick corks, runs this, flushes).
  void tick_body(TimePoint t);

  /// Packs (client, oid) refresh targets into per-client BatchedRefreshReq
  /// chunks (sorted for deterministic traces) and sends them.
  void send_refresh_batches(std::vector<std::pair<NodeId, ObjectId>>& targets);

  // -- hot-standby replication helpers (no-ops without a standby wired) --
  /// Stages one tee entry; flush_tee (end of handle()/tick_body) sends the
  /// whole batch as ONE ReplicaTee datagram.
  void tee(const wire::ReplicaTee::Entry& e) {
    if (standby_.valid()) tee_scratch_.entries.append(e);
  }
  void flush_tee();
  /// True in the replica role while NOT promoted: the primary owns the
  /// visitor state, this server only mirrors it.
  bool standby_passive() const {
    return standby_primary_.valid() && !standby_active_;
  }
  /// Demote-race redirect: stages/sends straggler client sightings back to
  /// the primary over the tee channel (see on_replica_tee's primary branch).
  void bounce_sighting(const Sighting& s);
  void flush_bounce();
  /// Parent routing: engage/disengage the standby registered for `child`
  /// (suspicion trip -> StandbyPromote; liveness evidence -> StandbyDemote).
  void engage_standby(NodeId child);
  void disengage_standby(NodeId child);
  /// Replica role: fan AgentChanged{agent} at every mirrored leaf visitor,
  /// sorted by (client, oid) for deterministic traces.
  void standby_fan_agent_changed(NodeId agent);

  // -- leaf-side event predicate maintenance --
  void events_on_sighting(ObjectId oid, bool present, geo::Point pos);
  void install_event(const wire::EventInstall& inst);
  void route_event_install(const wire::EventInstall& inst, NodeId from);
  void coordinator_handle_delta(NodeId reporting_leaf, const wire::EventDelta& m);

  NodeId self_;
  ConfigRecord cfg_;
  net::Transport& net_;
  Clock& clock_;
  Options opts_;
  Stats stats_;

  std::optional<store::VisitorDb> visitor_db_;  // non-leaf servers only
  std::optional<store::SightingDb> sightings_;  // leaf servers only

  // §6.5 caches.
  LeafAreaCache leaf_cache_;
  ObjectAgentCache agent_cache_;
  PositionCache position_cache_;

  std::uint64_t req_counter_ = 0;
  std::optional<wire::OriginArea> origin_cache_;

  // -- fault-tolerance state (failure detector + recovery sweeps) --
  struct ChildHealth {
    std::uint64_t last_seq_sent = 0;
    std::uint64_t last_seq_acked = 0;
    int misses = 0;     // consecutive probe intervals without liveness
    bool suspect = false;
  };
  std::unordered_map<NodeId, ChildHealth> child_health_;
  TimePoint next_heartbeat_ = 0;
  std::uint64_t heartbeat_seq_ = 0;
  std::uint64_t recovery_incarnation_ = 0;
  // Recovery-sweep scratch (sorted targets + the batch under construction).
  std::vector<std::pair<NodeId, ObjectId>> refresh_targets_scratch_;
  wire::BatchedRefreshReq refresh_batch_scratch_;

  // -- hot-standby replication state (all inert while the NodeIds are
  //    invalid / the maps are empty; see the replication invariants above) --
  NodeId standby_;              // primary role: tee target
  NodeId standby_primary_;      // replica role: the primary being mirrored
  bool standby_active_ = false; // replica role: promoted, answering queries
  struct ChildStandby {
    NodeId standby;
    bool engaged = false;       // authoritative for query re-routing
  };
  std::unordered_map<NodeId, ChildStandby> child_standbys_;  // parent routing
  std::uint64_t standby_incarnation_ = 0;  // stamps promote/demote datagrams
  wire::ReplicaTee tee_scratch_;  // tee batch under construction (flush_tee)

  // -- hot-path scratch state, reused across operations --
  // Receive-side scratch envelope for handle(); see decode_envelope_into.
  wire::Envelope rx_scratch_;
  // Message scratch: field assignment into an already-sized message reuses
  // vector/polygon capacity, so answering a query allocates nothing once the
  // scratch has reached its working size.
  wire::RangeQuerySubRes range_sub_scratch_;
  wire::NNProbeSubRes nn_sub_scratch_;
  wire::NNQueryRes nn_res_scratch_;
  std::vector<ObjectResult> nn_local_scratch_;
  // The packed BatchedUpdateAck under construction.
  wire::BatchedUpdateAck batch_ack_scratch_;
  // Retired NN candidate maps (slot arrays intact) for the next ring.
  std::vector<util::OidMap<LocationDescriptor>> nn_map_pool_;
  // Merge scratch: dedup-on-emit seen set (flat table, capacity reused --
  // zero allocations at working size) and the origin piggyback decode
  // target for the sub-result view path (polygon capacity reused).
  util::OidMap<std::monostate> merge_seen_scratch_;
  std::optional<wire::OriginArea> origin_scratch_;

  // -- pending distributed operations --
  struct PendingHandover {
    NodeId reply_to;     // where the HandoverRes must be propagated
    ObjectId oid;
    NodeId child;        // the child we forwarded down to (pointer repair)
    bool remove_on_res = false;  // upward forwarding: drop record on response
    bool reply_to_object = false;  // reply_to is the tracked object itself
    bool direct_prune = false;  // direct handover: prune old branch ourselves
    TimePoint deadline = 0;
  };
  std::unordered_map<std::uint64_t, PendingHandover> pending_handover_;

  struct PendingPos {
    NodeId client;
    std::uint64_t client_req_id;
    ObjectId oid;
    bool via_agent_cache;  // not found / timeout: invalidate + retry via hierarchy
    TimePoint deadline;
  };
  std::unordered_map<std::uint64_t, PendingPos> pending_pos_;

  /// One contributed slice of a pending range merge: the raw packed-result
  /// bytes of a sub-result, held WITHOUT decoding. `buf` pins the receive
  /// buffer the bytes live in (zero-copy path) or owns a pooled copy
  /// (non-pinnable arrivals); (data, len) delimit the packed region.
  struct SubSegment {
    net::PooledBuffer buf;
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
    std::uint64_t count = 0;
  };
  struct PendingRange : Gather {
    std::vector<SubSegment> segments;  // local + sub-results, arrival order
  };
  std::unordered_map<std::uint64_t, PendingRange> pending_range_;

  std::unordered_map<std::uint64_t, PendingNN> pending_nn_;  // key: ring req id

  // Position queries waiting for a post-recovery refresh (§5).
  struct WaitingQuery {
    NodeId entry;
    std::uint64_t req_id;
    TimePoint deadline;
  };
  std::unordered_map<ObjectId, std::vector<WaitingQuery>> awaiting_refresh_;

  // -- event mechanism state --
  struct CoordinatorPred {
    wire::EventSubscribe sub;
    // Area predicates: member -> leaf that reported it. Tracking the
    // reporting leaf makes handovers safe: a stale "left" delta from the old
    // agent must not cancel the fresher "entered" from the new agent.
    std::unordered_map<ObjectId, NodeId> inside;
    bool fired = false;
    // Proximity predicates: last known positions + reporting leaves.
    std::optional<geo::Point> pos_a, pos_b;
    NodeId src_a, src_b;
  };
  std::unordered_map<std::uint64_t, CoordinatorPred> coord_preds_;

  struct LeafPred {
    wire::EventInstall inst;
    std::unordered_set<ObjectId> members;
  };
  std::unordered_map<std::uint64_t, LeafPred> leaf_preds_;
};

}  // namespace locs::core

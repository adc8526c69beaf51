// Protocol messages of the location service.
//
// One struct per message named in §6 of the paper (registerReq/Res/Failed,
// createPath, update, handoverReq/Res, posQueryReq/Fwd/Res,
// rangeQueryReq/Fwd/SubRes/Res), plus:
//  * neighborQuery messages and internal NN probes (the paper defines the
//    semantics in §3.2 but no distributed algorithm; see core/location_server),
//  * accuracy management (changeAcc, notifyAvailAcc) of §3.1,
//  * soft-state / recovery messages (removePath, refresh, unknownObject) of §5,
//  * the event mechanism sketched in §1/§8 (subscribe/delta/notify).
//
// Each message is declared once: a struct, its field list
// (LOCS_WIRE_FIELDS, in wire order; wire/fields.hpp derives encode, decode
// and size hint from it) and one LOCS_WIRE_FOR_EACH_MESSAGE
// entry (which generates the Message variant, the per-type encode overloads,
// the decode dispatch and msg_type_name). Adding a message: append a MsgType
// value, declare the struct with kType and its field list, append it to
// LOCS_WIRE_FOR_EACH_MESSAGE. A retired type's number stays reserved.
//
// Server-to-server messages carry an optional origin (leaf id + service
// area): the §6.5 piggyback that feeds the (leaf server -> service area)
// cache: "in each request and response message forwarded within the server
// hierarchy the originator of the message includes a specification of its
// (leaf) service area".
//
// Packed lists (PackedList<E>, framing [count u64][packed_len u64][packed]):
// every bulk message carries its entries as the concatenated encodings of
// E, so batching changes the envelope count, never the per-field format --
// a batched update's entries are Sightings, encoded exactly as UpdateReq
// carries them; a batched ack's entries are UpdateAcks. Invariants:
//  * `count` is advisory; consumers iterate the packed bytes (ItemView) and
//    stop at the first malformed entry. A truncated DATAGRAM still
//    sticky-fails the envelope decode via the packed_len prefix.
//  * decode is lazy -- handlers walk the packed region one entry at a time;
//    no intermediate vector of entries is ever materialized.
//  * a single-sighting batch is intentionally DISTINCT from a plain
//    UpdateReq (different MsgType byte); flush policy lives in the SENDER
//    (core/update_coalescer.hpp), so the wire format carries no timing state.
//
// Packed query results: RangeQuerySubRes / NNProbeSubRes and the entry
// server's finals RangeQueryRes / NNQueryRes (near_set) carry their
// ObjectResult lists as PackedResults and are stamped with envelope version
// kWireVersionPacked (2); every other message is version 1. Each type
// accepts only its own version byte.
//  * a merge loop re-frames sub-results into the final answer by copying
//    raw item byte ranges -- never decode + re-encode.
//  * read-path borrow/lifetime contract: SubResView and ItemView point INTO
//    the datagram. They are valid only while the receive buffer is alive
//    and unmodified -- for the duration of the transport handler
//    invocation, unless the handler pins the buffer via
//    net::Datagram::take() (see net/transport.hpp), in which case views
//    stay valid for the lifetime of the returned PooledBuffer. The entry
//    server's merge loops rely on this to hold sub-result bytes across a
//    multi-datagram merge without copying.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/types.hpp"
#include "geo/polygon.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"
#include "wire/codec.hpp"
#include "wire/fields.hpp"

namespace locs::wire {

using core::AccuracyRange;
using core::LocationDescriptor;
using core::ObjectResult;
using core::RegInfo;
using core::Sighting;

/// Envelope version bytes: kWireVersionPacked for the packed query result
/// types, kWireVersion for every other message (version_of).
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::uint8_t kWireVersionPacked = 2;

enum class MsgType : std::uint8_t {
  kRegisterReq = 1,
  kRegisterRes,
  kRegisterFailed,
  kCreatePath,
  kRemovePath,
  kUpdateReq,
  kUpdateAck,
  kHandoverReq,
  kHandoverRes,
  kAgentChanged,
  kPosQueryReq,
  kPosQueryFwd,
  kPosQueryRes,
  kRangeQueryReq,
  kRangeQueryFwd,
  kRangeQuerySubRes,
  kRangeQueryRes,
  kNNQueryReq,
  kNNProbeFwd,
  kNNProbeSubRes,
  kNNQueryRes,
  kChangeAccReq,
  kChangeAccRes,
  kNotifyAvailAcc,
  kDeregisterReq,
  // 26 is retired (the single-object refresh request; a BatchedRefreshReq
  // of one oid asks for the same): reserved and rejected as unknown.
  kEventSubscribe = 27,
  kEventInstall,
  kEventDelta,
  kEventNotify,
  kEventUnsubscribe,
  kBatchedUpdateReq,
  kBatchedUpdateAck,
  kHeartbeat,
  kHeartbeatAck,
  kRecoveryHello,
  kBatchedRefreshReq,
  // 38-40 are retired (path batches, shard load stats, bucket migration):
  // reserved, never reused, and rejected by the decoder as unknown.
  kReplicaTee = 41,
  kStandbyPromote,
  kStandbyDemote,
  kUnknownObject,
};

const char* msg_type_name(MsgType t);

/// The only envelope version byte a message of type `t` is encoded with and
/// accepted under: THE definition of which types carry the packed result
/// framing (kWireVersionPacked).
constexpr std::uint8_t version_of(MsgType t) {
  const bool packed_results =
      t == MsgType::kRangeQuerySubRes || t == MsgType::kRangeQueryRes ||
      t == MsgType::kNNProbeSubRes || t == MsgType::kNNQueryRes;
  return packed_results ? kWireVersionPacked : kWireVersion;
}

/// §6.5 piggyback: originating leaf server and its service area.
struct OriginArea {
  NodeId leaf;
  geo::Polygon area;
};
LOCS_WIRE_FIELDS(OriginArea, m.leaf, m.area)

/// The ObjectResult lists of the query result messages.
using PackedResults = PackedList<ObjectResult>;

// --- Registration (Algorithm 6-1) ------------------------------------------

struct RegisterReq {
  static constexpr MsgType kType = MsgType::kRegisterReq;
  Sighting s;
  std::string obj_info;  // the paper's oInfo
  AccuracyRange acc_range;
  NodeId reg_inst;  // registering instance, receives the response
  std::uint64_t req_id = 0;
};
LOCS_WIRE_FIELDS(RegisterReq, m.s, m.obj_info, m.acc_range, m.reg_inst, m.req_id)

struct RegisterRes {
  static constexpr MsgType kType = MsgType::kRegisterRes;
  NodeId agent;  // the leaf server now responsible ("self" in Alg 6-1)
  double offered_acc = 0.0;
  std::uint64_t req_id = 0;
};
LOCS_WIRE_FIELDS(RegisterRes, m.agent, m.offered_acc, m.req_id)

struct RegisterFailed {
  static constexpr MsgType kType = MsgType::kRegisterFailed;
  NodeId server;
  double best_acc = 0.0;  // the accuracy the server could have offered
  std::uint64_t req_id = 0;
};
LOCS_WIRE_FIELDS(RegisterFailed, m.server, m.best_acc, m.req_id)

/// Sent leaf-to-root to create the forwarding path (Alg 6-1 "create path");
/// the forwarding reference at each receiver points to the message's sender.
struct CreatePath {
  static constexpr MsgType kType = MsgType::kCreatePath;
  ObjectId oid;
};
LOCS_WIRE_FIELDS(CreatePath, m.oid)

/// Leaf-to-root removal of a forwarding path (deregistration §3.1 and
/// soft-state expiry §5).
struct RemovePath {
  static constexpr MsgType kType = MsgType::kRemovePath;
  ObjectId oid;
};
LOCS_WIRE_FIELDS(RemovePath, m.oid)

// --- Updates and handover (Algorithms 6-2 / 6-3) ---------------------------

struct UpdateReq {
  static constexpr MsgType kType = MsgType::kUpdateReq;
  Sighting s;
};
LOCS_WIRE_FIELDS(UpdateReq, m.s)

struct UpdateAck {
  static constexpr MsgType kType = MsgType::kUpdateAck;
  ObjectId oid;
  double offered_acc = 0.0;
};
LOCS_WIRE_FIELDS(UpdateAck, m.oid, m.offered_acc)

/// Coalesced position updates: many sightings bound for one leaf in a single
/// datagram (see the packed-list invariants in the header comment).
struct BatchedUpdateReq {
  static constexpr MsgType kType = MsgType::kBatchedUpdateReq;
  PackedList<Sighting> sightings;
};
LOCS_WIRE_FIELDS(BatchedUpdateReq, m.sightings)

/// Packed acknowledgement for a BatchedUpdateReq: one UpdateAck entry per
/// APPLIED sighting.
struct BatchedUpdateAck {
  static constexpr MsgType kType = MsgType::kBatchedUpdateAck;
  PackedList<UpdateAck> acks;
};
LOCS_WIRE_FIELDS(BatchedUpdateAck, m.acks)

struct HandoverReq {
  static constexpr MsgType kType = MsgType::kHandoverReq;
  Sighting s;
  RegInfo reg_info;
  double prev_offered_acc = 0.0;  // so the new agent can detect acc changes
  // §6.5 cache shortcut: the old agent contacted the new leaf directly
  // (bypassing the hierarchy); the new agent must repair the forwarding path
  // itself via createPath, and the old agent prunes its stale branch with
  // removePath.
  bool direct = false;
  std::uint64_t req_id = 0;
  std::optional<OriginArea> origin;  // old agent's leaf area (cache piggyback)
};
LOCS_WIRE_FIELDS(HandoverReq, m.s, m.reg_info, m.prev_offered_acc, m.direct, m.req_id,
                 m.origin)

/// Propagated back along the request path hop by hop; every intermediate
/// server repairs its forwarding pointer (Alg 6-3 lines 11-14).
struct HandoverRes {
  static constexpr MsgType kType = MsgType::kHandoverRes;
  ObjectId oid;
  NodeId new_agent;
  double offered_acc = 0.0;
  std::uint64_t req_id = 0;
  std::optional<OriginArea> origin;  // new agent's leaf area (cache piggyback)
};
LOCS_WIRE_FIELDS(HandoverRes, m.oid, m.new_agent, m.offered_acc, m.req_id, m.origin)

/// Old agent -> tracked object: "your new agent is ...".
struct AgentChanged {
  static constexpr MsgType kType = MsgType::kAgentChanged;
  ObjectId oid;
  NodeId new_agent;
  double offered_acc = 0.0;
};
LOCS_WIRE_FIELDS(AgentChanged, m.oid, m.new_agent, m.offered_acc)

// --- Position query (Algorithm 6-4) -----------------------------------------

struct PosQueryReq {
  static constexpr MsgType kType = MsgType::kPosQueryReq;
  ObjectId oid;
  std::uint64_t req_id = 0;
};
LOCS_WIRE_FIELDS(PosQueryReq, m.oid, m.req_id)

struct PosQueryFwd {
  static constexpr MsgType kType = MsgType::kPosQueryFwd;
  ObjectId oid;
  NodeId entry;  // lse: entry server that receives the result directly
  std::uint64_t req_id = 0;
};
LOCS_WIRE_FIELDS(PosQueryFwd, m.oid, m.entry, m.req_id)

struct PosQueryRes {
  static constexpr MsgType kType = MsgType::kPosQueryRes;
  ObjectId oid;
  bool found = false;
  LocationDescriptor ld;
  NodeId agent;  // responding leaf; feeds the (object -> agent) cache
  std::uint64_t req_id = 0;
  std::optional<OriginArea> origin;
};
LOCS_WIRE_FIELDS(PosQueryRes, m.oid, m.found, m.ld, m.agent, m.req_id, m.origin)

// --- Range query (Algorithm 6-5) --------------------------------------------

struct RangeQueryReq {
  static constexpr MsgType kType = MsgType::kRangeQueryReq;
  geo::Polygon area;
  double req_acc = 0.0;
  double req_overlap = 0.0;
  std::uint64_t req_id = 0;
};
LOCS_WIRE_FIELDS(RangeQueryReq, m.area, m.req_acc, m.req_overlap, m.req_id)

struct RangeQueryFwd {
  static constexpr MsgType kType = MsgType::kRangeQueryFwd;
  geo::Polygon area;
  double req_acc = 0.0;
  double req_overlap = 0.0;
  NodeId entry;
  std::uint64_t req_id = 0;
  // §6.5 cache shortcut: sent directly to a known leaf; the receiver answers
  // locally and must not propagate the query further.
  bool direct = false;
};
LOCS_WIRE_FIELDS(RangeQueryFwd, m.area, m.req_acc, m.req_overlap, m.entry, m.req_id,
                 m.direct)

/// Partial result from one leaf: its matching objects plus the size of the
/// covered portion (area ∩ leaf service area) for the entry server's
/// completion bookkeeping.
struct RangeQuerySubRes {
  static constexpr MsgType kType = MsgType::kRangeQuerySubRes;
  std::uint64_t req_id = 0;
  double covered_size = 0.0;
  PackedResults results;
  std::optional<OriginArea> origin;
};
LOCS_WIRE_FIELDS(RangeQuerySubRes, m.req_id, m.covered_size, m.results, m.origin)

struct RangeQueryRes {
  static constexpr MsgType kType = MsgType::kRangeQueryRes;
  std::uint64_t req_id = 0;
  bool complete = true;  // false if assembled on timeout
  PackedResults results;
};
LOCS_WIRE_FIELDS(RangeQueryRes, m.req_id, m.complete, m.results)

// --- Nearest-neighbor query (§3.2 semantics) ---------------------------------

struct NNQueryReq {
  static constexpr MsgType kType = MsgType::kNNQueryReq;
  geo::Point p;
  double req_acc = 0.0;
  double near_qual = 0.0;
  std::uint64_t req_id = 0;
};
LOCS_WIRE_FIELDS(NNQueryReq, m.p, m.req_acc, m.near_qual, m.req_id)

/// Internal expanding-ring probe: "in your subtree, find your nearest object
/// with ld.acc <= req_acc, at distance b from p; if b <= `radius`, report
/// every such object within min(radius, b + near_qual) of p". `near_qual`
/// is the last field, so a decoder that predates it reads the probe and
/// reports the whole disk, which is still correct.
struct NNProbeFwd {
  static constexpr MsgType kType = MsgType::kNNProbeFwd;
  geo::Point p;
  double radius = 0.0;
  double req_acc = 0.0;
  NodeId coordinator;
  std::uint64_t req_id = 0;
  double near_qual = 0.0;
};
LOCS_WIRE_FIELDS(NNProbeFwd, m.p, m.radius, m.req_acc, m.coordinator, m.req_id,
                 m.near_qual)

struct NNProbeSubRes {
  static constexpr MsgType kType = MsgType::kNNProbeSubRes;
  std::uint64_t req_id = 0;
  double covered_size = 0.0;  // size of probe-disk ∩ leaf area
  PackedResults candidates;
  std::optional<OriginArea> origin;
};
LOCS_WIRE_FIELDS(NNProbeSubRes, m.req_id, m.covered_size, m.candidates, m.origin)

struct NNQueryRes {
  static constexpr MsgType kType = MsgType::kNNQueryRes;
  std::uint64_t req_id = 0;
  bool found = false;
  ObjectResult nearest;
  PackedResults near_set;  // nearObjSet per §3.2
};
LOCS_WIRE_FIELDS(NNQueryRes, m.req_id, m.found, m.nearest, m.near_set)

// --- Accuracy management (§3.1) ---------------------------------------------

struct ChangeAccReq {
  static constexpr MsgType kType = MsgType::kChangeAccReq;
  ObjectId oid;
  AccuracyRange acc_range;
  std::uint64_t req_id = 0;
};
LOCS_WIRE_FIELDS(ChangeAccReq, m.oid, m.acc_range, m.req_id)

struct ChangeAccRes {
  static constexpr MsgType kType = MsgType::kChangeAccRes;
  std::uint64_t req_id = 0;
  bool ok = false;
  double offered_acc = 0.0;
};
LOCS_WIRE_FIELDS(ChangeAccRes, m.req_id, m.ok, m.offered_acc)

struct NotifyAvailAcc {
  static constexpr MsgType kType = MsgType::kNotifyAvailAcc;
  ObjectId oid;
  double offered_acc = 0.0;
};
LOCS_WIRE_FIELDS(NotifyAvailAcc, m.oid, m.offered_acc)

// --- Lifecycle ---------------------------------------------------------------

struct DeregisterReq {
  static constexpr MsgType kType = MsgType::kDeregisterReq;
  ObjectId oid;
};
LOCS_WIRE_FIELDS(DeregisterReq, m.oid)

/// Leaf -> the sender of an update for an object the leaf has no record of
/// (see the recovery invariants below).
struct UnknownObject {
  static constexpr MsgType kType = MsgType::kUnknownObject;
  ObjectId oid;
};
LOCS_WIRE_FIELDS(UnknownObject, m.oid)

// --- Fault tolerance (failure detection + batched soft-state recovery) -------
//
// Recovery-protocol invariants:
//  * Heartbeat/HeartbeatAck carry only a sequence number; liveness evidence
//    is ANY ack (a reordered old ack still proves the child processes
//    messages). The miss-threshold detector lives entirely in the parent
//    (core/location_server.hpp); the wire carries no timing state, so the
//    interval/threshold can differ per deployment without a format change.
//  * RecoveryHello is idempotent: a parent receiving it (re)learns that the
//    child is alive, clears suspicion, and answers with a BatchedRefreshReq
//    sweep of every object it still forwards to that child. Duplicate hellos
//    just repeat the sweep; refreshes are filtered against present sightings
//    on the leaf, so the steady state converges.
//  * BatchedRefreshReq is a packed list of ObjectIds and the only refresh
//    request. The same message travels parent -> restarted leaf (oids with
//    forwarding paths into that leaf) and leaf -> registering instance (oids
//    whose sightings need a refresh): one datagram per client node per
//    sweep (chunked at 256 ObjectIds; see
//    LocationServer::send_refresh_batches), one oid for a waiting query.
//  * A record the leaf lost outright (its sighting expired, or an in-memory
//    visitor log went with a restart) is rebuilt by the object: the leaf
//    answers each update for it with UnknownObject, and the object registers
//    again if that leaf is still its agent, so a former agent's answer to a
//    straggler changes nothing. AgentChanged{kNoNode} keeps meaning only
//    "left the root service area".

/// Parent -> child liveness probe (miss-threshold failure detection).
struct Heartbeat {
  static constexpr MsgType kType = MsgType::kHeartbeat;
  std::uint64_t seq = 0;
};
LOCS_WIRE_FIELDS(Heartbeat, m.seq)

/// Child -> parent heartbeat answer (echoes the probe's sequence number).
struct HeartbeatAck {
  static constexpr MsgType kType = MsgType::kHeartbeatAck;
  std::uint64_t seq = 0;
};
LOCS_WIRE_FIELDS(HeartbeatAck, m.seq)

/// Restarted leaf -> parent: "I am back with incarnation N; tell me which
/// objects you still forward to me" (§5 crash recovery, batched).
struct RecoveryHello {
  static constexpr MsgType kType = MsgType::kRecoveryHello;
  std::uint64_t incarnation = 0;
};
LOCS_WIRE_FIELDS(RecoveryHello, m.incarnation)

/// Refresh request: the ObjectIds that need an immediate position update
/// (a recovery sweep, or one oid for a waiting position query).
struct BatchedRefreshReq {
  static constexpr MsgType kType = MsgType::kBatchedRefreshReq;
  PackedList<ObjectId> oids;
};
LOCS_WIRE_FIELDS(BatchedRefreshReq, m.oids)

// --- Leaf hot-standby replication (answer-complete failover) -----------------
//
// Replication invariants:
//  * Entries carry the ABSOLUTE expiry the primary stored, so the replica's
//    soft-state TTLs match the primary's exactly (teeing must not extend a
//    TTL). The replica applies entries with insert-or-update semantics in
//    batch order -- the identical spatial-index mutation sequence the
//    primary performed -- which is what makes promoted-replica range/NN
//    answers byte-equal to the primary's.
//  * The tee is one datagram per handled inbound datagram/tick at most
//    (LocationServer::flush_tee), so the replication overhead is ~1 extra
//    datagram per update batch, never one per sighting.
//  * StandbyPromote/StandbyDemote travel parent -> standby only; the
//    incarnation counter makes reordered promote/demote pairs detectable in
//    traces (the parent's engaged flag is authoritative for routing).

/// Primary leaf -> standby replica: the accepted-sighting stream of one
/// handled datagram/tick, teed with original expiries. Entry ops: upsert
/// (apply a sighting), remove (visitor departed/expired), set_acc (accuracy
/// change without an index mutation).
struct ReplicaTee {
  static constexpr MsgType kType = MsgType::kReplicaTee;

  enum class Op : std::uint8_t { kUpsert = 0, kRemove = 1, kSetAcc = 2 };

  struct Entry {
    Op op = Op::kUpsert;
    core::Sighting s;          // kRemove: only s.oid is meaningful
    double offered_acc = 0.0;
    TimePoint expiry = 0;      // absolute, as stored by the primary
    core::RegInfo reg{};
  };
  PackedList<Entry> entries;
};
/// Op byte; anything beyond kSetAcc sticky-fails.
inline void put(Writer& w, ReplicaTee::Op op) { w.u8(static_cast<std::uint8_t>(op)); }
inline void get(Reader& r, ReplicaTee::Op& op) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(ReplicaTee::Op::kSetAcc)) r.fail();
  op = static_cast<ReplicaTee::Op>(v);
}
LOCS_WIRE_FIELDS(ReplicaTee::Entry, m.op, m.s, m.offered_acc, m.expiry, m.reg)
LOCS_WIRE_FIELDS(ReplicaTee, m.entries)

/// Parent -> standby replica: "your primary is suspect; answer for it". The
/// standby fans AgentChanged to its mirrored visitors so clients re-point.
struct StandbyPromote {
  static constexpr MsgType kType = MsgType::kStandbyPromote;
  NodeId primary;
  std::uint64_t incarnation = 0;
};
LOCS_WIRE_FIELDS(StandbyPromote, m.primary, m.incarnation)

/// Parent -> standby replica: "your primary is back; stand down". The standby
/// re-points clients at the primary and clears its mirror (the primary's
/// recovery sweep rebuilds it via the tee).
struct StandbyDemote {
  static constexpr MsgType kType = MsgType::kStandbyDemote;
  NodeId primary;
  std::uint64_t incarnation = 0;
};
LOCS_WIRE_FIELDS(StandbyDemote, m.primary, m.incarnation)

// --- Event mechanism (extension; §1 / §8 future work) ------------------------

enum class PredicateKind : std::uint8_t {
  kAreaCount = 0,  // "more than N objects are in a certain area"
  kProximity = 1,  // "two users of the system meet"
};
/// Kind byte; anything beyond kProximity sticky-fails.
inline void put(Writer& w, PredicateKind k) { w.u8(static_cast<std::uint8_t>(k)); }
inline void get(Reader& r, PredicateKind& k) {
  const std::uint8_t v = r.u8();
  if (v > static_cast<std::uint8_t>(PredicateKind::kProximity)) r.fail();
  k = static_cast<PredicateKind>(v);
}

struct EventSubscribe {
  static constexpr MsgType kType = MsgType::kEventSubscribe;
  std::uint64_t sub_id = 0;
  PredicateKind kind = PredicateKind::kAreaCount;
  geo::Polygon area;        // kAreaCount
  std::uint32_t threshold = 0;
  ObjectId obj_a, obj_b;    // kProximity
  double dist = 0.0;
  NodeId subscriber;
};
LOCS_WIRE_FIELDS(EventSubscribe, m.sub_id, m.kind, m.area, m.threshold, m.obj_a, m.obj_b,
                 m.dist, m.subscriber)

/// Coordinator -> leaf: install local membership tracking for a predicate.
struct EventInstall {
  static constexpr MsgType kType = MsgType::kEventInstall;
  std::uint64_t sub_id = 0;
  PredicateKind kind = PredicateKind::kAreaCount;
  geo::Polygon area;
  ObjectId obj_a, obj_b;
  double dist = 0.0;
  NodeId coordinator;
};
LOCS_WIRE_FIELDS(EventInstall, m.sub_id, m.kind, m.area, m.obj_a, m.obj_b, m.dist,
                 m.coordinator)

/// Leaf -> coordinator: membership change for a predicate.
struct EventDelta {
  static constexpr MsgType kType = MsgType::kEventDelta;
  std::uint64_t sub_id = 0;
  ObjectId oid;
  bool entered = false;  // entered (true) / left (false) the predicate scope
  geo::Point pos;        // current position (used by proximity predicates)
};
LOCS_WIRE_FIELDS(EventDelta, m.sub_id, m.oid, m.entered, m.pos)

struct EventNotify {
  static constexpr MsgType kType = MsgType::kEventNotify;
  std::uint64_t sub_id = 0;
  bool fired = false;  // predicate became true (fired) / false again
  std::uint32_t count = 0;
};
LOCS_WIRE_FIELDS(EventNotify, m.sub_id, m.fired, m.count)

struct EventUnsubscribe {
  static constexpr MsgType kType = MsgType::kEventUnsubscribe;
  std::uint64_t sub_id = 0;
};
LOCS_WIRE_FIELDS(EventUnsubscribe, m.sub_id)

// --- Envelope ----------------------------------------------------------------

/// Every protocol message type, in ascending MsgType order. Generates the
/// Message variant, the per-type encode overloads, the decode dispatch and
/// msg_type_name.
#define LOCS_WIRE_FOR_EACH_MESSAGE(X)                                          \
  X(RegisterReq)                                                               \
  X(RegisterRes)                                                               \
  X(RegisterFailed)                                                            \
  X(CreatePath)                                                                \
  X(RemovePath)                                                                \
  X(UpdateReq)                                                                 \
  X(UpdateAck)                                                                 \
  X(HandoverReq)                                                               \
  X(HandoverRes)                                                               \
  X(AgentChanged)                                                              \
  X(PosQueryReq)                                                               \
  X(PosQueryFwd)                                                               \
  X(PosQueryRes)                                                               \
  X(RangeQueryReq)                                                             \
  X(RangeQueryFwd)                                                             \
  X(RangeQuerySubRes)                                                          \
  X(RangeQueryRes)                                                             \
  X(NNQueryReq)                                                                \
  X(NNProbeFwd)                                                                \
  X(NNProbeSubRes)                                                             \
  X(NNQueryRes)                                                                \
  X(ChangeAccReq)                                                              \
  X(ChangeAccRes)                                                              \
  X(NotifyAvailAcc)                                                            \
  X(DeregisterReq)                                                             \
  X(EventSubscribe)                                                            \
  X(EventInstall)                                                              \
  X(EventDelta)                                                                \
  X(EventNotify)                                                               \
  X(EventUnsubscribe)                                                          \
  X(BatchedUpdateReq)                                                          \
  X(BatchedUpdateAck)                                                          \
  X(Heartbeat)                                                                 \
  X(HeartbeatAck)                                                              \
  X(RecoveryHello)                                                             \
  X(BatchedRefreshReq)                                                         \
  X(ReplicaTee)                                                                \
  X(StandbyPromote)                                                            \
  X(StandbyDemote)                                                             \
  X(UnknownObject)

namespace detail {
template <typename Ignored, typename... Ts>
using VariantOfTail = std::variant<Ts...>;
}  // namespace detail

#define LOCS_WIRE_LEADING_COMMA(T) , T
using Message =
    detail::VariantOfTail<void LOCS_WIRE_FOR_EACH_MESSAGE(LOCS_WIRE_LEADING_COMMA)>;
#undef LOCS_WIRE_LEADING_COMMA

struct Envelope {
  NodeId src;
  Message msg;
};

MsgType message_type(const Message& msg);

// Hot-path encode: serializes [version][type][src][payload] into `out`
// (cleared first), reserving a per-message size hint so a recycled buffer
// never reallocates in steady state. The per-type overloads skip Message
// variant construction entirely -- senders holding a concrete message type
// (the common case in core/) pay no copy of embedded lists/polygons.
#define LOCS_WIRE_DECLARE_ENCODE_INTO(T) \
  void encode_envelope_into(Buffer& out, NodeId src, const T& msg);
LOCS_WIRE_FOR_EACH_MESSAGE(LOCS_WIRE_DECLARE_ENCODE_INTO)
#undef LOCS_WIRE_DECLARE_ENCODE_INTO
void encode_envelope_into(Buffer& out, NodeId src, const Message& msg);

/// Convenience wrapper allocating a fresh buffer (cold paths, tests).
Buffer encode_envelope(NodeId src, const Message& msg);

/// Hot-path decode into a reusable scratch envelope. When `env.msg` already
/// holds the incoming message type, the contained lists/polygons/strings
/// keep their capacity -- decoding a steady message stream allocates
/// nothing. All variable-length fields are OWNED by the envelope, so the
/// envelope may outlive the datagram. A datagram whose version byte is not
/// its type's version_of() is rejected.
Status decode_envelope_into(Envelope& env, const std::uint8_t* data,
                            std::size_t len);

/// Convenience wrapper decoding into a fresh envelope (cold paths, tests).
Result<Envelope> decode_envelope(const std::uint8_t* data, std::size_t len);
inline Result<Envelope> decode_envelope(const Buffer& buf) {
  return decode_envelope(buf.data(), buf.size());
}

/// Read-path view over an ENCODED version-2 RangeQuerySubRes or
/// NNProbeSubRes datagram. Exposes the header fields and the raw
/// packed-results region without a full envelope decode, so the entry
/// server can merge a sub-result by borrowing its bytes (pin the receive
/// buffer via net::Datagram::take) instead of materializing an owned list.
/// valid() == false for malformed datagrams and other message types;
/// it accepts every sub-result the full decode accepts.
class SubResView {
 public:
  SubResView(const std::uint8_t* data, std::size_t len);

  bool valid() const { return valid_; }
  MsgType type() const { return type_; }
  NodeId src() const { return src_; }
  std::uint64_t req_id() const { return req_id_; }
  double covered_size() const { return covered_size_; }
  std::uint64_t count() const { return results_.count; }  // advisory

  /// The raw packed-results region (borrowed from the datagram).
  const std::uint8_t* packed_data() const { return results_.bytes.data(); }
  std::size_t packed_size() const { return results_.bytes.size(); }

  /// Lazy per-item iteration over the packed region.
  ItemView<ObjectResult> items() const {
    return ItemView<ObjectResult>(packed_data(), packed_size());
  }

  /// Decodes the trailing §6.5 origin piggyback (cold: cache learning only).
  /// Returns false when absent or malformed.
  bool origin(std::optional<OriginArea>& out) const;

 private:
  MsgType type_ = MsgType::kRangeQuerySubRes;
  NodeId src_;
  std::uint64_t req_id_ = 0;
  double covered_size_ = 0.0;
  PackedRegion results_;
  std::span<const std::uint8_t> tail_;  // origin piggyback bytes
  bool valid_ = false;
};

/// Direct-emit support for the merge loops: writes the envelope prefix
/// ([version][type][src]) for `type` with its version_of() byte. A merge
/// loop that follows this with the exact per-field writes of the message
/// body produces bytes IDENTICAL to encode_envelope_into of the equivalent
/// owned message (pinned by test).
void begin_envelope(Writer& w, NodeId src, MsgType type);

}  // namespace locs::wire

// Property / fuzz tests for the wire codec, covering EVERY protocol message
// type (extends PR 1's varint boundary tests):
//  * encode -> decode -> re-encode is byte-stable for random payloads,
//  * truncated datagrams sticky-fail (and never crash) -- cutting the last
//    byte always breaks the final required field,
//  * bit-flipped and purely random datagrams never crash the decoder; when
//    a flip happens to decode, the result re-encodes without crashing,
//  * packed lists yield each entry plus its raw byte range (ItemView), and
//    damaged lists stop iterating at the damage,
//  * the encoder's bytes match a golden table for every type, and retired
//    type numbers are rejected,
//  * hardened varints: boundary values round-trip, overlong and overflowing
//    encodings sticky-fail.
#include <gtest/gtest.h>

#include "core/location_server.hpp"
#include "net/sim_network.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "wire/messages.hpp"

namespace locs::wire {
namespace {

using locs::Rng;

// --- random payload generators ----------------------------------------------

geo::Point rand_point(Rng& rng) {
  return {rng.uniform(-1e6, 1e6), rng.uniform(-1e6, 1e6)};
}

geo::Polygon rand_polygon(Rng& rng) {
  // Convexity is irrelevant for the codec; any vertex list must survive.
  std::vector<geo::Point> pts;
  const std::size_t n = rng.next_below(8);  // including empty polygons
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pts.push_back(rand_point(rng));
  return geo::Polygon(std::move(pts));
}

ObjectId rand_oid(Rng& rng) {
  // Mix small and huge ids so varint lengths vary.
  return ObjectId{rng.next_below(3) == 0 ? rng.next_u64() : rng.next_below(1000)};
}

NodeId rand_node(Rng& rng) {
  return NodeId{static_cast<std::uint32_t>(rng.next_u64())};
}

core::Sighting rand_sighting(Rng& rng) {
  return {rand_oid(rng), static_cast<TimePoint>(rng.next_u64() >> 20),
          rand_point(rng), rng.uniform(0, 500)};
}

core::LocationDescriptor rand_ld(Rng& rng) {
  return {rand_point(rng), rng.uniform(0, 500)};
}

core::AccuracyRange rand_acc_range(Rng& rng) {
  return {rng.uniform(0, 100), rng.uniform(0, 100)};
}

core::RegInfo rand_reg_info(Rng& rng) {
  return {rand_node(rng), rand_acc_range(rng)};
}

PackedResults rand_results(Rng& rng) {
  PackedResults v;
  const std::size_t n = rng.next_below(6);  // including empty lists
  for (std::size_t i = 0; i < n; ++i) v.append({rand_oid(rng), rand_ld(rng)});
  return v;
}

std::optional<OriginArea> rand_origin(Rng& rng) {
  if (rng.next_below(2) == 0) return std::nullopt;
  return OriginArea{rand_node(rng), rand_polygon(rng)};
}

std::string rand_str(Rng& rng) {
  std::string s(rng.next_below(24), '\0');
  for (char& c : s) c = static_cast<char>(rng.next_below(256));
  return s;
}

BatchedUpdateReq rand_batch(Rng& rng) {
  BatchedUpdateReq b;
  const std::size_t n = rng.next_below(6);  // including empty batches
  for (std::size_t i = 0; i < n; ++i) b.sightings.append(rand_sighting(rng));
  return b;
}

BatchedUpdateAck rand_batch_ack(Rng& rng) {
  BatchedUpdateAck b;
  const std::size_t n = rng.next_below(6);
  for (std::size_t i = 0; i < n; ++i) {
    // Draws stay in this order: WireBytesMatchGolden pins their bytes.
    const double acc = rng.uniform(0, 500);
    b.acks.append({rand_oid(rng), acc});
  }
  return b;
}

BatchedRefreshReq rand_refresh_batch(Rng& rng) {
  BatchedRefreshReq b;
  const std::size_t n = rng.next_below(8);  // including empty sweeps
  for (std::size_t i = 0; i < n; ++i) b.oids.append(rand_oid(rng));
  return b;
}

ReplicaTee rand_replica_tee(Rng& rng) {
  ReplicaTee m;
  const std::size_t n = rng.next_below(5);  // including empty tees
  for (std::size_t i = 0; i < n; ++i) {
    m.entries.append({static_cast<ReplicaTee::Op>(rng.next_below(3)), rand_sighting(rng),
                      rng.uniform(0, 500), static_cast<TimePoint>(rng.next_u64() >> 20),
                      rand_reg_info(rng)});
  }
  return m;
}

/// One randomized instance of one message type.
using Generator = Message (*)(Rng&);

/// A generator per protocol message type, in MsgType order.
constexpr Generator kGenerators[] = {
    [](Rng& rng) -> Message {
      return RegisterReq{rand_sighting(rng), rand_str(rng), rand_acc_range(rng),
                         rand_node(rng), rng.next_u64()};
    },
    [](Rng& rng) -> Message {
      return RegisterRes{rand_node(rng), rng.uniform(0, 100), rng.next_u64()};
    },
    [](Rng& rng) -> Message {
      return RegisterFailed{rand_node(rng), rng.uniform(-1, 100), rng.next_u64()};
    },
    [](Rng& rng) -> Message { return CreatePath{rand_oid(rng)}; },
    [](Rng& rng) -> Message { return RemovePath{rand_oid(rng)}; },
    [](Rng& rng) -> Message { return UpdateReq{rand_sighting(rng)}; },
    [](Rng& rng) -> Message { return UpdateAck{rand_oid(rng), rng.uniform(0, 100)}; },
    [](Rng& rng) -> Message {
      return HandoverReq{rand_sighting(rng), rand_reg_info(rng), rng.uniform(0, 100),
                         rng.next_below(2) == 0, rng.next_u64(), rand_origin(rng)};
    },
    [](Rng& rng) -> Message {
      return HandoverRes{rand_oid(rng), rand_node(rng), rng.uniform(0, 100), rng.next_u64(),
                         rand_origin(rng)};
    },
    [](Rng& rng) -> Message {
      return AgentChanged{rand_oid(rng), rand_node(rng), rng.uniform(0, 100)};
    },
    [](Rng& rng) -> Message { return PosQueryReq{rand_oid(rng), rng.next_u64()}; },
    [](Rng& rng) -> Message {
      return PosQueryFwd{rand_oid(rng), rand_node(rng), rng.next_u64()};
    },
    [](Rng& rng) -> Message {
      return PosQueryRes{rand_oid(rng), rng.next_below(2) == 0, rand_ld(rng),
                         rand_node(rng), rng.next_u64(), rand_origin(rng)};
    },
    [](Rng& rng) -> Message {
      return RangeQueryReq{rand_polygon(rng), rng.uniform(0, 100), rng.uniform(0, 1),
                           rng.next_u64()};
    },
    [](Rng& rng) -> Message {
      return RangeQueryFwd{rand_polygon(rng), rng.uniform(0, 100), rng.uniform(0, 1),
                           rand_node(rng), rng.next_u64(), rng.next_below(2) == 0};
    },
    [](Rng& rng) -> Message {
      return RangeQuerySubRes{rng.next_u64(), rng.uniform(0, 1e6), rand_results(rng),
                              rand_origin(rng)};
    },
    [](Rng& rng) -> Message {
      return RangeQueryRes{rng.next_u64(), rng.next_below(2) == 0, rand_results(rng)};
    },
    [](Rng& rng) -> Message {
      return NNQueryReq{rand_point(rng), rng.uniform(0, 100), rng.uniform(0, 100),
                        rng.next_u64()};
    },
    [](Rng& rng) -> Message {
      return NNProbeFwd{rand_point(rng), rng.uniform(0, 5000), rng.uniform(0, 100),
                        rand_node(rng), rng.next_u64(), rng.uniform(0, 100)};
    },
    [](Rng& rng) -> Message {
      return NNProbeSubRes{rng.next_u64(), rng.uniform(0, 1e6), rand_results(rng),
                           rand_origin(rng)};
    },
    [](Rng& rng) -> Message {
      return NNQueryRes{rng.next_u64(), rng.next_below(2) == 0, {rand_oid(rng), rand_ld(rng)},
                        rand_results(rng)};
    },
    [](Rng& rng) -> Message {
      return ChangeAccReq{rand_oid(rng), rand_acc_range(rng), rng.next_u64()};
    },
    [](Rng& rng) -> Message {
      return ChangeAccRes{rng.next_u64(), rng.next_below(2) == 0, rng.uniform(0, 100)};
    },
    [](Rng& rng) -> Message { return NotifyAvailAcc{rand_oid(rng), rng.uniform(0, 100)}; },
    [](Rng& rng) -> Message { return DeregisterReq{rand_oid(rng)}; },
    [](Rng& rng) -> Message {
      return EventSubscribe{rng.next_u64(),
                            rng.next_below(2) == 0 ? PredicateKind::kAreaCount
                                                   : PredicateKind::kProximity,
                            rand_polygon(rng),
                            static_cast<std::uint32_t>(rng.next_below(100)),
                            rand_oid(rng),
                            rand_oid(rng),
                            rng.uniform(0, 500),
                            rand_node(rng)};
    },
    [](Rng& rng) -> Message {
      return EventInstall{rng.next_u64(),
                          rng.next_below(2) == 0 ? PredicateKind::kAreaCount
                                                 : PredicateKind::kProximity,
                          rand_polygon(rng),
                          rand_oid(rng),
                          rand_oid(rng),
                          rng.uniform(0, 500),
                          rand_node(rng)};
    },
    [](Rng& rng) -> Message {
      return EventDelta{rng.next_u64(), rand_oid(rng), rng.next_below(2) == 0,
                        rand_point(rng)};
    },
    [](Rng& rng) -> Message {
      return EventNotify{rng.next_u64(), rng.next_below(2) == 0,
                         static_cast<std::uint32_t>(rng.next_below(1000))};
    },
    [](Rng& rng) -> Message { return EventUnsubscribe{rng.next_u64()}; },
    [](Rng& rng) -> Message { return rand_batch(rng); },
    [](Rng& rng) -> Message { return rand_batch_ack(rng); },
    [](Rng& rng) -> Message { return Heartbeat{rng.next_u64()}; },
    [](Rng& rng) -> Message { return HeartbeatAck{rng.next_u64()}; },
    [](Rng& rng) -> Message { return RecoveryHello{rng.next_u64()}; },
    [](Rng& rng) -> Message { return rand_refresh_batch(rng); },
    [](Rng& rng) -> Message { return rand_replica_tee(rng); },
    [](Rng& rng) -> Message { return StandbyPromote{rand_node(rng), rng.next_u64()}; },
    [](Rng& rng) -> Message { return StandbyDemote{rand_node(rng), rng.next_u64()}; },
    [](Rng& rng) -> Message { return UnknownObject{rand_oid(rng)}; },
};

/// One randomized instance of every protocol message type, drawn from one
/// stream in MsgType order.
std::vector<Message> random_messages(Rng& rng) {
  std::vector<Message> msgs;
  for (const Generator gen : kGenerators) msgs.push_back(gen(rng));
  return msgs;
}

constexpr std::size_t kVariantCount = std::variant_size_v<Message>;
constexpr auto kLastType = static_cast<std::size_t>(
    std::variant_alternative_t<kVariantCount - 1, Message>::kType);

// --- round-trip stability ----------------------------------------------------

TEST(CodecProperty, EncodeDecodeReencodeIsByteStableForEveryType) {
  Rng rng(2024);
  for (int iter = 0; iter < 64; ++iter) {
    const NodeId src = rand_node(rng);
    std::vector<bool> covered(kVariantCount, false);
    for (const Message& m : random_messages(rng)) {
      covered[m.index()] = true;
      const Buffer wire = encode_envelope(src, m);
      const auto decoded = decode_envelope(wire);
      ASSERT_TRUE(decoded.ok()) << msg_type_name(message_type(m));
      EXPECT_EQ(decoded.value().src, src);
      EXPECT_EQ(message_type(decoded.value().msg), message_type(m));
      const Buffer again = encode_envelope(src, decoded.value().msg);
      EXPECT_EQ(wire, again) << "re-encode diverged for "
                             << msg_type_name(message_type(m));
    }
    // The generator must keep covering every variant alternative.
    for (std::size_t i = 0; i < kVariantCount; ++i) {
      ASSERT_TRUE(covered[i]) << "no generator for variant index " << i;
    }
  }
}

// --- golden bytes ----------------------------------------------------------

TEST(CodecProperty, WireBytesMatchGolden) {
  // Pins the encoder's OUTPUT, not just its round-trip stability: byte count
  // and chained CRC32 of 16 random instances of every message type, each type
  // seeded Rng(1313 + type). A codec change that moves any byte on the wire
  // fails here.
  struct Golden {
    MsgType type;
    std::size_t bytes;
    std::uint32_t crc;
  };
  static constexpr Golden kGolden[] = {
      {MsgType::kRegisterReq, 1314, 0xe16db4d2u},
      {MsgType::kRegisterRes, 454, 0x9a272af7u},
      {MsgType::kRegisterFailed, 455, 0x76beb6abu},
      {MsgType::kCreatePath, 155, 0x8954bb7cu},
      {MsgType::kRemovePath, 178, 0x6c8f3eafu},
      {MsgType::kUpdateReq, 673, 0xe006d6c5u},
      {MsgType::kUpdateAck, 283, 0x84bdacc0u},
      {MsgType::kHandoverReq, 1490, 0x29ae6c6bu},
      {MsgType::kHandoverRes, 1150, 0x83e9e288u},
      {MsgType::kAgentChanged, 366, 0xd8f5a0f5u},
      {MsgType::kPosQueryReq, 316, 0x40b8a97au},
      {MsgType::kPosQueryFwd, 391, 0x2799074cu},
      {MsgType::kPosQueryRes, 1139, 0x3e03d12eu},
      {MsgType::kRangeQueryReq, 1207, 0x362224f9u},
      {MsgType::kRangeQueryFwd, 1269, 0x3d45303au},
      {MsgType::kRangeQuerySubRes, 1686, 0xbdd48beau},
      {MsgType::kRangeQueryRes, 1549, 0x6a04c9c5u},
      {MsgType::kNNQueryReq, 759, 0x80b5737eu},
      {MsgType::kNNProbeFwd, 965, 0xcfc6adb1u},
      {MsgType::kNNProbeSubRes, 2350, 0x9c19502bu},
      {MsgType::kNNQueryRes, 1910, 0x367c3703u},
      {MsgType::kChangeAccReq, 575, 0xcc07b8b8u},
      {MsgType::kChangeAccRes, 390, 0xc43c3fbeu},
      {MsgType::kNotifyAvailAcc, 294, 0x9b2530b7u},
      {MsgType::kDeregisterReq, 154, 0x6e313e06u},
      {MsgType::kEventSubscribe, 1779, 0x2e6e10b6u},
      {MsgType::kEventInstall, 1403, 0x5aa09f6bu},
      {MsgType::kEventDelta, 591, 0xfe18c86fu},
      {MsgType::kEventNotify, 297, 0x856d4754u},
      {MsgType::kEventUnsubscribe, 247, 0x8b20871bu},
      {MsgType::kBatchedUpdateReq, 1274, 0x1bef05bfu},
      {MsgType::kBatchedUpdateAck, 560, 0xf46dac33u},
      {MsgType::kHeartbeat, 249, 0xdbeac479u},
      {MsgType::kHeartbeatAck, 249, 0x2b56b990u},
      {MsgType::kRecoveryHello, 248, 0x6f964d52u},
      {MsgType::kBatchedRefreshReq, 287, 0xf337f7a8u},
      {MsgType::kReplicaTee, 2023, 0xc6991f9bu},
      {MsgType::kStandbyPromote, 327, 0x74c93db5u},
      {MsgType::kStandbyDemote, 327, 0xbe73a43eu},
      {MsgType::kUnknownObject, 165, 0xf90b6025u},
  };
  ASSERT_EQ(std::size(kGolden), std::size(kGenerators));
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    const Golden& g = kGolden[i];
    // Each type draws from its own stream, so adding or retiring a type
    // moves only that type's row.
    Rng rng(1313 + static_cast<std::uint64_t>(g.type));
    std::size_t bytes = 0;
    std::uint32_t crc = 0;
    for (int iter = 0; iter < 16; ++iter) {
      const Message m = kGenerators[i](rng);
      ASSERT_EQ(message_type(m), g.type) << "generator " << i << " out of MsgType order";
      const Buffer wire = encode_envelope(NodeId{77}, m);
      bytes += wire.size();
      crc = crc32(wire.data(), wire.size(), crc);
    }
    EXPECT_EQ(bytes, g.bytes) << msg_type_name(g.type);
    EXPECT_EQ(crc, g.crc) << msg_type_name(g.type) << " crc 0x" << std::hex << crc;
  }
}

// --- truncation --------------------------------------------------------------

TEST(CodecProperty, TruncatingTheLastByteStickyFailsEveryType) {
  Rng rng(99);
  for (int iter = 0; iter < 16; ++iter) {
    for (const Message& m : random_messages(rng)) {
      const Buffer wire = encode_envelope(NodeId{3}, m);
      ASSERT_GT(wire.size(), 1u);
      const auto res = decode_envelope(wire.data(), wire.size() - 1);
      EXPECT_FALSE(res.ok()) << msg_type_name(message_type(m))
                             << " decoded despite a truncated final field";
    }
  }
}

TEST(CodecProperty, EveryPrefixDecodesWithoutCrashing) {
  Rng rng(7);
  for (const Message& m : random_messages(rng)) {
    const Buffer wire = encode_envelope(NodeId{3}, m);
    for (std::size_t len = 0; len <= wire.size(); ++len) {
      const auto res = decode_envelope(wire.data(), len);
      if (res.ok() && len < wire.size()) {
        // A shorter parse may be legal only if it still re-encodes cleanly.
        encode_envelope(NodeId{3}, res.value().msg);
      }
    }
  }
}

// --- corruption --------------------------------------------------------------

TEST(CodecProperty, BitFlipsNeverCrashTheDecoder) {
  Rng rng(31337);
  for (int iter = 0; iter < 24; ++iter) {
    for (const Message& m : random_messages(rng)) {
      Buffer wire = encode_envelope(NodeId{5}, m);
      for (int flip = 0; flip < 24; ++flip) {
        const std::size_t byte = rng.next_below(wire.size());
        const std::uint8_t mask = static_cast<std::uint8_t>(1u << rng.next_below(8));
        wire[byte] ^= mask;
        const auto res = decode_envelope(wire);
        if (res.ok()) {
          // Corruption that still parses must produce a sane, re-encodable
          // message -- never UB or unbounded allocation.
          encode_envelope(NodeId{5}, res.value().msg);
        }
        wire[byte] ^= mask;  // restore for the next flip
      }
    }
  }
}

TEST(CodecProperty, RandomGarbageNeverCrashesTheDecoder) {
  Rng rng(4242);
  Envelope scratch;  // also exercises the capacity-reusing decode path
  for (int iter = 0; iter < 4000; ++iter) {
    Buffer junk(rng.next_below(160));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    if (!junk.empty() && rng.next_below(2) == 0) {
      // Valid type and version bytes: reach the per-type decoders.
      junk[0] = kWireVersion;
      if (junk.size() > 1) {
        junk[1] = static_cast<std::uint8_t>(1 + rng.next_below(kLastType + 2));
        junk[0] = version_of(static_cast<MsgType>(junk[1]));
      }
    }
    (void)decode_envelope_into(scratch, junk.data(), junk.size());
  }
}

// --- packed lists (framing invariants of wire/messages.hpp) ------------------

/// Field-wise equality of any wire value (entries need no operator==).
template <typename T>
bool same(const T& a, const T& b) {
  if constexpr (FieldList<T>) {
    return fields(a) == fields(b);
  } else {
    return a == b;
  }
}

/// The packed-list field of a list message (always its last field).
template <typename M>
const auto& list_of(const M& m) {
  constexpr std::size_t kFields = std::tuple_size_v<decltype(fields(m))>;
  return std::get<kFields - 1>(fields(m));
}

/// Encodes `msg`, decodes it again and checks the decoded list yields
/// exactly `in`, entry by entry.
template <typename M, typename E>
void expect_list_round_trip(const M& msg, const std::vector<E>& in) {
  EXPECT_EQ(list_of(msg).count, in.size());
  const Buffer wire = encode_envelope(NodeId{4}, msg);
  const auto decoded = decode_envelope(wire);
  ASSERT_TRUE(decoded.ok());
  const auto& out = std::get<M>(decoded.value().msg);
  EXPECT_TRUE(same(out, msg));
  auto items = list_of(out).items();
  std::size_t i = 0;
  while (const auto item = items.next()) {
    ASSERT_LT(i, in.size());
    EXPECT_TRUE(same(item->value, in[i]));
    ++i;
  }
  EXPECT_EQ(i, in.size());
}

/// The ItemView of a decoded list message agrees with the sender's owned
/// list entry by entry, and the raw item ranges re-concatenate to exactly the
/// packed region (the merge loops re-frame by memcpy of them).
template <typename M>
void expect_view_matches_list(const M& msg) {
  const Buffer wire = encode_envelope(NodeId{6}, msg);
  const auto decoded = decode_envelope(wire);
  ASSERT_TRUE(decoded.ok());
  auto view = list_of(std::get<M>(decoded.value().msg)).items();
  auto owned = list_of(msg).items();
  Buffer reassembled;
  std::size_t items = 0;
  while (const auto item = view.next()) {
    const auto expected = owned.next();
    ASSERT_TRUE(expected.has_value());
    EXPECT_TRUE(same(item->value, expected->value));
    reassembled.insert(reassembled.end(), item->data, item->data + item->len);
    ++items;
  }
  EXPECT_FALSE(owned.next().has_value());
  EXPECT_EQ(items, list_of(msg).count);
  EXPECT_EQ(reassembled, list_of(msg).packed);
}

template <typename E>
std::size_t count_items(ItemView<E> view) {
  std::size_t n = 0;
  while (view.next()) ++n;
  return n;
}

/// Flips one random bit of the encoded `msg`: whatever it hits, the lazy
/// iteration of a list that still decodes stays in bounds, and the decoded
/// message re-encodes cleanly.
template <typename M>
void flip_one_bit_and_iterate(Rng& rng, const M& msg) {
  Buffer wire = encode_envelope(NodeId{8}, msg);
  const std::size_t byte = rng.next_below(wire.size());
  wire[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
  const auto decoded = decode_envelope(wire);
  if (!decoded.ok()) return;
  if (const auto* m = std::get_if<M>(&decoded.value().msg)) {
    count_items(list_of(*m).items());
    encode_envelope(NodeId{8}, *m);
  }
}

/// Every cut into the encoded `msg` that drops at least `min_cut` bytes
/// breaks the packed_len prefix: the envelope sticky-fails.
template <typename M>
void expect_cuts_fail(const M& msg, std::size_t min_cut, std::size_t max_cut) {
  const Buffer wire = encode_envelope(NodeId{3}, msg);
  for (std::size_t cut = min_cut; cut < max_cut; ++cut) {
    EXPECT_FALSE(decode_envelope(wire.data(), wire.size() - cut).ok()) << cut;
  }
}

TEST(CodecProperty, BatchCursorRoundTripsEverySighting) {
  Rng rng(88);
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<core::Sighting> in(rng.next_below(12));
    BatchedUpdateReq batch;
    for (auto& s : in) {
      s = rand_sighting(rng);
      batch.sightings.append(s);
    }
    expect_list_round_trip(batch, in);
  }
}

TEST(CodecProperty, BatchViewAgreesWithCursorAndReencodesItems) {
  Rng rng(89);
  for (int iter = 0; iter < 64; ++iter) expect_view_matches_list(rand_batch(rng));
}

TEST(CodecProperty, TruncatedBatchTailStopsIterationWithoutCrashing) {
  Rng rng(90);
  BatchedUpdateReq batch;
  for (int i = 0; i < 4; ++i) batch.sightings.append(rand_sighting(rng));
  // Cut the packed region mid-sighting: the ENVELOPE must sticky-fail (the
  // packed_len prefix no longer fits the datagram) ...
  expect_cuts_fail(batch, 1, 30);
  // ... and a batch whose OWNED packed region is malformed (bit rot, buggy
  // sender) stops lazy iteration at the damage instead of overrunning.
  BatchedUpdateReq damaged = batch;
  damaged.sightings.packed.resize(damaged.sightings.packed.size() - 7);
  EXPECT_EQ(count_items(damaged.sightings.items()), 3u);
}

TEST(CodecProperty, BatchBitFlipsNeverCrashCursorOrView) {
  Rng rng(91);
  for (int iter = 0; iter < 200; ++iter) {
    BatchedUpdateReq batch;
    const std::size_t n = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < n; ++i) batch.sightings.append(rand_sighting(rng));
    flip_one_bit_and_iterate(rng, batch);
  }
}

// --- batched refresh sweeps (fault-tolerance framing invariants) -------------

TEST(CodecProperty, RefreshBatchCursorRoundTripsEveryOid) {
  Rng rng(92);
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<ObjectId> in(rng.next_below(16));
    BatchedRefreshReq batch;
    for (auto& oid : in) {
      oid = rand_oid(rng);
      batch.oids.append(oid);
    }
    expect_list_round_trip(batch, in);
  }
}

TEST(CodecProperty, RefreshViewAgreesWithCursorAndReencodesItems) {
  Rng rng(93);
  for (int iter = 0; iter < 64; ++iter) expect_view_matches_list(rand_refresh_batch(rng));
}

TEST(CodecProperty, TruncatedRefreshBatchStickyFailsAndStopsIteration) {
  Rng rng(94);
  BatchedRefreshReq batch;
  for (int i = 0; i < 6; ++i) {
    batch.oids.append(ObjectId{(1ULL << 40) + rng.next_u64() % 1000});
  }
  // Cutting the datagram breaks the packed_len prefix: envelope sticky-fails.
  const Buffer wire = encode_envelope(NodeId{3}, batch);
  expect_cuts_fail(batch, 1, wire.size() - 6);
  // A batch whose OWNED packed region is damaged mid-varint stops lazy
  // iteration at the damage instead of overrunning.
  BatchedRefreshReq damaged = batch;
  damaged.oids.packed.resize(damaged.oids.packed.size() - 2);
  EXPECT_EQ(count_items(damaged.oids.items()), 5u);
}

TEST(CodecProperty, RefreshBatchBitFlipsNeverCrashCursorOrView) {
  Rng rng(95);
  for (int iter = 0; iter < 200; ++iter) {
    BatchedRefreshReq batch;
    const std::size_t n = 1 + rng.next_below(8);
    for (std::size_t i = 0; i < n; ++i) batch.oids.append(rand_oid(rng));
    flip_one_bit_and_iterate(rng, batch);
  }
}

// --- replica tee (hot-standby replication framing) ---------------------------

TEST(CodecProperty, ReplicaTeeCursorRoundTripsEveryEntry) {
  Rng rng(101);
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<ReplicaTee::Entry> in(rng.next_below(6));
    ReplicaTee tee;
    for (auto& e : in) {
      e = {static_cast<ReplicaTee::Op>(rng.next_below(3)), rand_sighting(rng),
           rng.uniform(0, 500), static_cast<TimePoint>(rng.next_u64() >> 20),
           rand_reg_info(rng)};
      tee.entries.append(e);
    }
    expect_list_round_trip(tee, in);
  }
}

TEST(CodecProperty, ReplicaTeeViewAgreesWithCursorAndReencodesItems) {
  Rng rng(102);
  for (int iter = 0; iter < 64; ++iter) expect_view_matches_list(rand_replica_tee(rng));
}

TEST(CodecProperty, TruncatedReplicaTeeStickyFailsAndStopsIteration) {
  Rng rng(103);
  ReplicaTee tee;
  for (int i = 0; i < 4; ++i) {
    tee.entries.append({ReplicaTee::Op::kUpsert, rand_sighting(rng), rng.uniform(0, 500),
                        static_cast<TimePoint>(rng.next_u64() >> 20), rand_reg_info(rng)});
  }
  // Cutting the datagram breaks the packed_len prefix: envelope sticky-fails.
  expect_cuts_fail(tee, 1, 40);
  // A tee whose OWNED packed region is damaged mid-entry stops lazy iteration
  // at the damage instead of overrunning.
  ReplicaTee damaged = tee;
  damaged.entries.packed.resize(damaged.entries.packed.size() - 5);
  EXPECT_EQ(count_items(damaged.entries.items()), 3u);
  // An out-of-range op byte stops the owned iteration.
  ReplicaTee bad_op = tee;
  bad_op.entries.packed[0] = 0x7F;
  EXPECT_EQ(count_items(bad_op.entries.items()), 0u);
}

TEST(CodecProperty, ReplicaTeeBitFlipsNeverCrashCursorOrView) {
  Rng rng(104);
  for (int iter = 0; iter < 200; ++iter) {
    ReplicaTee tee = rand_replica_tee(rng);
    tee.entries.append({ReplicaTee::Op::kRemove, rand_sighting(rng), 1.0, 2,
                        rand_reg_info(rng)});
    flip_one_bit_and_iterate(rng, tee);
  }
}

// --- hardened varints (extends PR 1's boundary tests) ------------------------

TEST(CodecProperty, VarintBoundaryValuesRoundTrip) {
  Rng rng(1);
  std::vector<std::uint64_t> values = {0,
                                       1,
                                       127,
                                       128,
                                       16383,
                                       16384,
                                       (1ULL << 32) - 1,
                                       1ULL << 32,
                                       (1ULL << 63) - 1,
                                       1ULL << 63,
                                       UINT64_MAX};
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.next_u64() >> rng.next_below(64));
  }
  for (const std::uint64_t v : values) {
    Buffer buf;
    {
      Writer w(buf);
      w.u64(v);
    }
    Reader r(buf);
    EXPECT_EQ(r.u64(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(CodecProperty, OverlongAndOverflowingVarintsStickyFail) {
  {
    // 11 continuation bytes: longer than any valid u64 encoding.
    Buffer buf(11, 0x80);
    buf.push_back(0x00);
    Reader r(buf);
    r.u64();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u64(), 0u);  // sticky: further reads keep failing
  }
  {
    // 10th byte contributes bits beyond 2^64.
    Buffer buf(9, 0x80);
    buf.push_back(0x02);
    Reader r(buf);
    r.u64();
    EXPECT_FALSE(r.ok());
  }
  {
    // 10th byte == 0x01 is exactly 2^63 in the top position: legal.
    Buffer buf(9, 0x80);
    buf.push_back(0x01);
    Reader r(buf);
    const std::uint64_t v = r.u64();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(v, 1ULL << 63);
  }
}

// --- packed query results (read-path framings) -------------------------------

namespace {

RangeQuerySubRes rand_range_sub(Rng& rng) {
  return RangeQuerySubRes{rng.next_u64(), rng.uniform(0, 1e6), rand_results(rng),
                          rand_origin(rng)};
}

NNProbeSubRes rand_nn_sub(Rng& rng) {
  return NNProbeSubRes{rng.next_u64(), rng.uniform(0, 1e6), rand_results(rng),
                       rand_origin(rng)};
}

}  // namespace

TEST(CodecProperty, SubResViewAgreesWithOwnedDecode) {
  Rng rng(4242);
  for (int iter = 0; iter < 128; ++iter) {
    const bool nn = rng.next_below(2) == 0;
    const Message m = nn ? Message(rand_nn_sub(rng)) : Message(rand_range_sub(rng));
    const NodeId src = rand_node(rng);
    const Buffer wire = encode_envelope(src, m);

    SubResView view(wire.data(), wire.size());
    ASSERT_TRUE(view.valid());
    EXPECT_EQ(view.src(), src);

    // Owned decode of the same bytes.
    const auto decoded = decode_envelope(wire);
    ASSERT_TRUE(decoded.ok());
    std::vector<core::ObjectResult> owned;
    std::optional<OriginArea> owned_origin;
    std::visit(
        [&](const auto& msg) {
          using T = std::decay_t<decltype(msg)>;
          if constexpr (std::is_same_v<T, RangeQuerySubRes>) {
            EXPECT_EQ(view.type(), MsgType::kRangeQuerySubRes);
            EXPECT_EQ(view.req_id(), msg.req_id);
            EXPECT_EQ(view.covered_size(), msg.covered_size);
            EXPECT_EQ(view.count(), msg.results.count);
            owned = msg.results.to_vector();
            owned_origin = msg.origin;
          } else if constexpr (std::is_same_v<T, NNProbeSubRes>) {
            EXPECT_EQ(view.type(), MsgType::kNNProbeSubRes);
            EXPECT_EQ(view.req_id(), msg.req_id);
            EXPECT_EQ(view.covered_size(), msg.covered_size);
            EXPECT_EQ(view.count(), msg.candidates.count);
            owned = msg.candidates.to_vector();
            owned_origin = msg.origin;
          } else {
            FAIL() << "unexpected decode alternative";
          }
        },
        decoded.value().msg);

    // Item iteration agrees with the owned decode, and the raw byte ranges
    // re-concatenate to exactly the packed region (the merge loops copy
    // these ranges verbatim).
    auto items = view.items();
    Buffer reassembled;
    std::size_t i = 0;
    while (const auto item = items.next()) {
      ASSERT_LT(i, owned.size());
      EXPECT_EQ(item->value, owned[i]);
      reassembled.insert(reassembled.end(), item->data, item->data + item->len);
      ++i;
    }
    EXPECT_EQ(i, owned.size());
    EXPECT_EQ(reassembled,
              Buffer(view.packed_data(), view.packed_data() + view.packed_size()));

    std::optional<OriginArea> view_origin;
    view.origin(view_origin);
    EXPECT_EQ(view_origin.has_value(), owned_origin.has_value());
    if (view_origin && owned_origin) {
      EXPECT_EQ(view_origin->leaf, owned_origin->leaf);
      EXPECT_EQ(view_origin->area.vertices(), owned_origin->area.vertices());
    }
  }
}

TEST(CodecProperty, EveryTypeAcceptsOnlyItsOwnVersionByte) {
  // The packed result types are version 2, everything else version 1; a
  // datagram stamped with the other version byte -- e.g. a version-1
  // (legacy vector) sub-result -- is rejected by the decode and the
  // sub-result view alike.
  Rng rng(777);
  for (const Message& m : random_messages(rng)) {
    Buffer wire = encode_envelope(NodeId{7}, m);
    ASSERT_EQ(wire[0], version_of(message_type(m)));
    wire[0] = wire[0] == kWireVersion ? kWireVersionPacked : kWireVersion;
    EXPECT_FALSE(decode_envelope(wire).ok()) << msg_type_name(message_type(m));
    EXPECT_FALSE(SubResView(wire.data(), wire.size()).valid());
  }
}

TEST(CodecProperty, RetiredTypeNumbersAreRejected) {
  // 26 and 38-40 were retired message types (see wire/messages.hpp); the
  // payload [1][0][0] decoded as each of them (26 read its first field).
  // Now the type byte alone rejects the datagram, and a leaf drops it
  // without side effects.
  net::SimNetwork net;
  core::ConfigRecord cfg;
  cfg.sa = geo::Polygon::from_rect(geo::Rect{{0, 0}, {100, 100}});
  core::LocationServer leaf(NodeId{1}, cfg, net, net.clock());
  for (std::uint64_t i = 1; i <= 8; ++i) {
    RegisterReq req;
    req.s = {ObjectId{i}, 0, {10.0 * static_cast<double>(i), 10.0}, 1.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = NodeId{900};
    const Buffer wire = encode_envelope(NodeId{900}, req);
    leaf.handle(wire.data(), wire.size());
  }
  const std::size_t sightings_before = leaf.sightings()->size();
  const std::uint64_t handled_before = leaf.stats().msgs_handled;
  const std::uint64_t sent_before = net.messages_sent();

  for (const std::uint8_t type : {26, 38, 39, 40}) {
    SCOPED_TRACE(static_cast<int>(type));
    Buffer wire;
    {
      Writer w(wire);
      w.u8(kWireVersion);
      w.u8(type);
      w.u32_fixed(900);
      w.u64(1);
      w.u64(0);
      w.u64(0);
    }
    const auto decoded = decode_envelope(wire);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().message(), "unknown message type");
    const std::uint64_t errors = leaf.stats().decode_errors;
    leaf.handle(wire.data(), wire.size());
    EXPECT_EQ(leaf.stats().decode_errors, errors + 1);
  }

  EXPECT_EQ(leaf.stats().decode_errors, 4u);
  EXPECT_EQ(net.messages_sent(), sent_before);
  EXPECT_EQ(leaf.sightings()->size(), sightings_before);
  EXPECT_EQ(leaf.stats().msgs_handled, handled_before);
}

TEST(CodecProperty, OversizedPolygonVertexCountIsRejected) {
  // A vertex count the remaining bytes cannot hold must sticky-fail: the
  // fields after the polygon would otherwise be read from the wrong bytes.
  Buffer wire;
  {
    Writer w(wire);
    begin_envelope(w, NodeId{7}, MsgType::kRangeQueryReq);
    w.u64(2'000'000);  // vertex count, no points follow
    w.f64(10.0);       // req_acc
    w.f64(0.5);        // req_overlap
    w.u64(42);         // req_id
  }
  EXPECT_FALSE(decode_envelope(wire).ok());
  // Just enough bytes for the claimed points still decodes.
  RangeQueryReq req;
  req.area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {1, 1}});
  req.req_id = 42;
  const Buffer ok = encode_envelope(NodeId{7}, req);
  const auto decoded = decode_envelope(ok);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<RangeQueryReq>(decoded.value().msg).area.size(), 4u);
}

TEST(CodecProperty, PackedResultTruncationAndBitFlipsNeverCrash) {
  Rng rng(31337);
  for (int iter = 0; iter < 32; ++iter) {
    const Buffer wire = encode_envelope(NodeId{4}, rand_range_sub(rng));
    // Truncation anywhere: the envelope decode sticky-fails via the
    // packed_len prefix, and the view either rejects or stops early.
    for (std::size_t len = 0; len < wire.size(); ++len) {
      (void)decode_envelope(wire.data(), len);
      SubResView view(wire.data(), len);
      if (view.valid()) count_items(view.items());
    }
    // Bit flips: iterate everything that still parses; never crash.
    Buffer flipped = wire;
    for (std::size_t bit = 0; bit < flipped.size() * 8; ++bit) {
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      SubResView view(flipped.data(), flipped.size());
      if (view.valid()) {
        EXPECT_LE(count_items(view.items()) * 25, view.packed_size() + 25);
        std::optional<OriginArea> o;
        view.origin(o);
      }
      (void)decode_envelope(flipped.data(), flipped.size());
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

TEST(CodecProperty, HostileAdvisoryCountCannotPinMemory) {
  // `count` is wire-advisory and unvalidated by design (the packed region's
  // length prefix is what bounds decoding) -- so a spoofed count of 2^63
  // over an empty packed region must decode into a message whose
  // to_vector() does NOT try to reserve 2^63 entries.
  Buffer hostile;
  {
    Writer w(hostile);
    w.u8(kWireVersionPacked);
    w.u8(static_cast<std::uint8_t>(MsgType::kRangeQueryRes));
    w.u32_fixed(7);
    w.u64(1);           // req_id
    w.boolean(true);    // complete
    w.u64(1ULL << 63);  // hostile advisory count
    w.u64(0);           // packed_len: nothing actually present
  }
  const auto decoded = decode_envelope(hostile);
  ASSERT_TRUE(decoded.ok());
  const auto* res = std::get_if<RangeQueryRes>(&decoded.value().msg);
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->results.count, 1ULL << 63);
  const std::vector<core::ObjectResult> v = res->results.to_vector();
  EXPECT_TRUE(v.empty());  // and, crucially, no length_error/bad_alloc
}

TEST(CodecProperty, DirectEmitMatchesEncodeEnvelope) {
  // The entry server's merge loop writes the final RangeQueryRes straight
  // into the outgoing buffer (core/location_server emit_range_result); this
  // pins the manual field sequence to the canonical encoder, byte for byte.
  Rng rng(2718);
  for (int iter = 0; iter < 64; ++iter) {
    RangeQueryRes res;
    res.req_id = rng.next_u64();
    res.complete = rng.next_below(2) == 0;
    res.results = rand_results(rng);
    const NodeId src = rand_node(rng);
    const Buffer canonical = encode_envelope(src, res);

    Buffer direct;
    {
      Writer w(direct);
      begin_envelope(w, src, MsgType::kRangeQueryRes);
      w.u64(res.req_id);
      w.boolean(res.complete);
      w.u64(res.results.count);
      w.u64(res.results.packed.size());
      w.bytes(res.results.packed.data(), res.results.packed.size());
    }
    EXPECT_EQ(direct, canonical);
  }
}

}  // namespace
}  // namespace locs::wire

// Wire codec: primitive round trips, bounds checking, and round trips of
// every protocol message (including randomized property sweeps).
#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/messages.hpp"

namespace locs::wire {
namespace {

TEST(Codec, PrimitiveRoundTrip) {
  Buffer buf;
  Writer w(buf);
  w.u8(0xab);
  w.u32(12345);
  w.u64(0xdeadbeefcafeULL);
  w.i64(-987654321);
  w.f64(3.14159265358979);
  w.str("location service");
  w.boolean(true);
  w.u32_fixed(0x11223344);
  w.flush();

  Reader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 12345u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafeULL);
  EXPECT_EQ(r.i64(), -987654321);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159265358979);
  EXPECT_EQ(r.str(), "location service");
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.u32_fixed(), 0x11223344u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, VarintBoundaries) {
  for (const std::uint64_t v :
       {0ULL, 1ULL, 126ULL, 127ULL, 128ULL, 129ULL, 16383ULL, 16384ULL,
        0xffffffffULL, 1ULL << 63, (1ULL << 63) - 1, (1ULL << 63) + 1,
        0xffffffffffffffffULL}) {
    Buffer buf;
    Writer w(buf);
    w.u64(v);
    w.flush();
    Reader r(buf);
    EXPECT_EQ(r.u64(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Codec, VarintRejectsOverlongEncodings) {
  // 11-byte encoding (continuation on the 10th byte): must sticky-fail, not
  // loop or truncate.
  {
    const std::uint8_t overlong[11] = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                                       0x80, 0x80, 0x80, 0x80, 0x00};
    Reader r(overlong, sizeof overlong);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
  }
  // 10th byte carrying bits beyond 2^64 (0x02): overflow must be rejected.
  {
    const std::uint8_t overflow[10] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                       0xff, 0xff, 0xff, 0xff, 0x02};
    Reader r(overflow, sizeof overflow);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok());
  }
  // 10-byte encoding of UINT64_MAX (10th byte 0x01) stays valid.
  {
    const std::uint8_t max[10] = {0xff, 0xff, 0xff, 0xff, 0xff,
                                  0xff, 0xff, 0xff, 0xff, 0x01};
    Reader r(max, sizeof max);
    EXPECT_EQ(r.u64(), 0xffffffffffffffffULL);
    EXPECT_TRUE(r.ok());
  }
  // 2^63 as the canonical 10-byte encoding.
  {
    const std::uint8_t p63[10] = {0x80, 0x80, 0x80, 0x80, 0x80,
                                  0x80, 0x80, 0x80, 0x80, 0x01};
    Reader r(p63, sizeof p63);
    EXPECT_EQ(r.u64(), 1ULL << 63);
    EXPECT_TRUE(r.ok());
  }
}

TEST(Codec, VarintTruncatedMultibyteFails) {
  // Continuation bit set but the buffer ends: every strict prefix of a
  // multi-byte varint must sticky-fail.
  Buffer buf;
  {
    Writer w(buf);
    w.u64(0xffffffffffffffffULL);
  }
  for (std::size_t len = 0; len < buf.size(); ++len) {
    Reader r(buf.data(), len);
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(Codec, ZigZagBoundaries) {
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()}) {
    Buffer buf;
    Writer w(buf);
    w.i64(v);
    w.flush();
    Reader r(buf);
    EXPECT_EQ(r.i64(), v);
  }
}

TEST(Codec, SpecialDoubles) {
  for (const double v : {0.0, -0.0, 1e300, -1e-300,
                         std::numeric_limits<double>::infinity()}) {
    Buffer buf;
    Writer w(buf);
    w.f64(v);
    w.flush();
    Reader r(buf);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Codec, TruncatedReadsFailSticky) {
  Buffer buf;
  Writer w(buf);
  w.u64(300);
  w.flush();
  Reader r(buf.data(), 0);
  (void)r.u64();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruptData);
  // Sticky: further reads keep failing harmlessly.
  (void)r.f64();
  (void)r.str();
  EXPECT_FALSE(r.ok());
}

TEST(Codec, OversizedStringLengthRejected) {
  Buffer buf;
  Writer w(buf);
  w.u64(1 << 30);  // claims a 1 GiB string with no payload
  w.flush();
  Reader r(buf);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

// --- full message round trips ------------------------------------------------

core::Sighting test_sighting() {
  return {ObjectId{42}, 123456789, {100.5, -200.25}, 7.5};
}

geo::Polygon test_polygon() {
  return geo::Polygon::from_rect(geo::Rect{{0, 0}, {50, 60}});
}

template <typename T>
T round_trip(const T& msg, NodeId src = NodeId{9}) {
  const Buffer buf = encode_envelope(src, Message{msg});
  auto decoded = decode_envelope(buf);
  EXPECT_TRUE(decoded.ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().src, src);
  EXPECT_TRUE(std::holds_alternative<T>(decoded.value().msg));
  return std::get<T>(decoded.value().msg);
}

TEST(Messages, RegisterReqRoundTrip) {
  RegisterReq m;
  m.s = test_sighting();
  m.obj_info = "truck-17";
  m.acc_range = {10.0, 100.0};
  m.reg_inst = NodeId{1234};
  m.req_id = 99;
  const RegisterReq out = round_trip(m);
  EXPECT_EQ(out.s, m.s);
  EXPECT_EQ(out.obj_info, m.obj_info);
  EXPECT_EQ(out.acc_range, m.acc_range);
  EXPECT_EQ(out.reg_inst, m.reg_inst);
  EXPECT_EQ(out.req_id, m.req_id);
}

TEST(Messages, RegisterResAndFailedRoundTrip) {
  const RegisterRes res = round_trip(RegisterRes{NodeId{5}, 25.0, 7});
  EXPECT_EQ(res.agent, NodeId{5});
  EXPECT_DOUBLE_EQ(res.offered_acc, 25.0);
  const RegisterFailed failed = round_trip(RegisterFailed{NodeId{6}, -1.0, 8});
  EXPECT_DOUBLE_EQ(failed.best_acc, -1.0);
}

TEST(Messages, PathMessagesRoundTrip) {
  EXPECT_EQ(round_trip(CreatePath{ObjectId{77}}).oid, ObjectId{77});
  EXPECT_EQ(round_trip(RemovePath{ObjectId{88}}).oid, ObjectId{88});
}

TEST(Messages, UpdateRoundTrip) {
  const UpdateReq out = round_trip(UpdateReq{test_sighting()});
  EXPECT_EQ(out.s, test_sighting());
  const UpdateAck ack = round_trip(UpdateAck{ObjectId{42}, 12.5});
  EXPECT_DOUBLE_EQ(ack.offered_acc, 12.5);
}

TEST(Messages, HandoverRoundTripWithOrigin) {
  HandoverReq m;
  m.s = test_sighting();
  m.reg_info = {NodeId{1000}, {5.0, 50.0}};
  m.prev_offered_acc = 11.0;
  m.direct = true;
  m.req_id = 1234567;
  m.origin = OriginArea{NodeId{4}, test_polygon()};
  const HandoverReq out = round_trip(m);
  EXPECT_EQ(out.s, m.s);
  EXPECT_EQ(out.reg_info, m.reg_info);
  EXPECT_DOUBLE_EQ(out.prev_offered_acc, 11.0);
  EXPECT_TRUE(out.direct);
  ASSERT_TRUE(out.origin.has_value());
  EXPECT_EQ(out.origin->leaf, NodeId{4});
  EXPECT_EQ(out.origin->area.vertices().size(), 4u);

  HandoverRes res;
  res.oid = ObjectId{42};
  res.new_agent = NodeId{6};
  res.offered_acc = 10.0;
  res.req_id = 55;
  const HandoverRes res_out = round_trip(res);
  EXPECT_EQ(res_out.new_agent, NodeId{6});
  EXPECT_FALSE(res_out.origin.has_value());
}

TEST(Messages, PosQueryRoundTrip) {
  const PosQueryReq req = round_trip(PosQueryReq{ObjectId{1}, 2});
  EXPECT_EQ(req.oid, ObjectId{1});
  const PosQueryFwd fwd = round_trip(PosQueryFwd{ObjectId{1}, NodeId{3}, 4});
  EXPECT_EQ(fwd.entry, NodeId{3});
  PosQueryRes res;
  res.oid = ObjectId{1};
  res.found = true;
  res.ld = {{10, 20}, 5.0};
  res.agent = NodeId{9};
  res.req_id = 4;
  const PosQueryRes out = round_trip(res);
  EXPECT_TRUE(out.found);
  EXPECT_EQ(out.ld, res.ld);
  EXPECT_EQ(out.agent, NodeId{9});
}

TEST(Messages, RangeQueryRoundTrip) {
  RangeQueryReq req;
  req.area = test_polygon();
  req.req_acc = 25.0;
  req.req_overlap = 0.5;
  req.req_id = 77;
  const RangeQueryReq req_out = round_trip(req);
  EXPECT_EQ(req_out.area.vertices(), req.area.vertices());
  EXPECT_DOUBLE_EQ(req_out.req_overlap, 0.5);

  RangeQuerySubRes sub;
  sub.req_id = 77;
  sub.covered_size = 123.5;
  sub.results.assign({{ObjectId{1}, {{1, 2}, 3}}, {ObjectId{2}, {{4, 5}, 6}}});
  sub.origin = OriginArea{NodeId{8}, test_polygon()};
  const RangeQuerySubRes sub_out = round_trip(sub);
  EXPECT_EQ(sub_out.results, sub.results);
  EXPECT_DOUBLE_EQ(sub_out.covered_size, 123.5);

  RangeQueryRes res;
  res.req_id = 77;
  res.complete = false;
  res.results = sub.results;
  const RangeQueryRes res_out = round_trip(res);
  EXPECT_FALSE(res_out.complete);
  EXPECT_EQ(res_out.results, res.results);
}

TEST(Messages, NNRoundTrip) {
  const NNQueryReq req = round_trip(NNQueryReq{{3, 4}, 10.0, 20.0, 5});
  EXPECT_DOUBLE_EQ(req.near_qual, 20.0);
  const NNProbeFwd probe =
      round_trip(NNProbeFwd{{3, 4}, 100.0, 10.0, NodeId{2}, 6, 20.0});
  EXPECT_DOUBLE_EQ(probe.radius, 100.0);
  EXPECT_DOUBLE_EQ(probe.near_qual, 20.0);
  NNQueryRes res;
  res.req_id = 5;
  res.found = true;
  res.nearest = {ObjectId{3}, {{6, 7}, 8}};
  res.near_set.assign({{ObjectId{4}, {{9, 10}, 11}}});
  const NNQueryRes out = round_trip(res);
  EXPECT_EQ(out.nearest, res.nearest);
  EXPECT_EQ(out.near_set, res.near_set);
}

TEST(Messages, AccuracyAndLifecycleRoundTrip) {
  const ChangeAccReq c = round_trip(ChangeAccReq{ObjectId{1}, {5, 50}, 9});
  EXPECT_EQ(c.acc_range, (core::AccuracyRange{5, 50}));
  const ChangeAccRes cr = round_trip(ChangeAccRes{9, true, 7.5});
  EXPECT_TRUE(cr.ok);
  const NotifyAvailAcc n = round_trip(NotifyAvailAcc{ObjectId{2}, 30.0});
  EXPECT_DOUBLE_EQ(n.offered_acc, 30.0);
  EXPECT_EQ(round_trip(DeregisterReq{ObjectId{3}}).oid, ObjectId{3});
  EXPECT_EQ(round_trip(UnknownObject{ObjectId{4}}).oid, ObjectId{4});
}

TEST(Messages, EventMessagesRoundTrip) {
  EventSubscribe sub;
  sub.sub_id = 100;
  sub.kind = PredicateKind::kProximity;
  sub.obj_a = ObjectId{1};
  sub.obj_b = ObjectId{2};
  sub.dist = 50.0;
  sub.subscriber = NodeId{77};
  const EventSubscribe sub_out = round_trip(sub);
  EXPECT_EQ(sub_out.kind, PredicateKind::kProximity);
  EXPECT_DOUBLE_EQ(sub_out.dist, 50.0);

  const EventDelta delta = round_trip(EventDelta{100, ObjectId{1}, true, {5, 6}});
  EXPECT_TRUE(delta.entered);
  const EventNotify notify = round_trip(EventNotify{100, true, 6});
  EXPECT_EQ(notify.count, 6u);
  EXPECT_EQ(round_trip(EventUnsubscribe{100}).sub_id, 100u);
}

TEST(Messages, RejectsGarbage) {
  const std::uint8_t garbage[] = {0x01, 0xff, 0x00, 0x00, 0x00, 0x00};
  EXPECT_FALSE(decode_envelope(garbage, sizeof garbage).ok());
  EXPECT_FALSE(decode_envelope(nullptr, 0).ok());
  const std::uint8_t bad_version[] = {0x63, 0x01, 0x00, 0x00, 0x00, 0x00};
  EXPECT_FALSE(decode_envelope(bad_version, sizeof bad_version).ok());
}

TEST(Messages, TruncationAlwaysDetected) {
  RegisterReq m;
  m.s = test_sighting();
  m.obj_info = "payload";
  m.acc_range = {1, 2};
  m.reg_inst = NodeId{3};
  m.req_id = 4;
  const Buffer buf = encode_envelope(NodeId{1}, Message{m});
  // Every strict prefix must fail to decode as this message (some very short
  // prefixes fail at the envelope level, which is also acceptable).
  for (std::size_t len = 6; len + 1 < buf.size(); ++len) {
    auto decoded = decode_envelope(buf.data(), len);
    EXPECT_FALSE(decoded.ok()) << "prefix of length " << len << " decoded";
  }
}

class MessageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageFuzz, RandomBytesNeverCrash) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    Buffer buf(rng.next_below(120));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    if (!buf.empty()) buf[0] = 1;  // plausible version byte half the time
    (void)decode_envelope(buf);  // must not crash or hang
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace locs::wire

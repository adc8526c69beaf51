// Zero-materialization query merge: end-to-end equivalence, dedup-on-emit,
// rejection of the retired version-1 framing, partial answers on timeout,
// and the range answer's transmit channel.
//
// The merge path under test (core/location_server): version-2 sub-results
// are consumed through wire::SubResView straight off the receive buffer,
// range segments PIN the datagram until the merge completes, and the final
// RangeQueryRes is emitted directly into an outgoing pooled envelope --
// byte-identical to the canonical encoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "test_support.hpp"
#include "util/crc32.hpp"
#include "wire/messages.hpp"

namespace locs::test {
namespace {

namespace wm = locs::wire;

constexpr double kArea = 1400.0;

geo::Polygon rect_poly(double x0, double y0, double x1, double y1) {
  return geo::Polygon::from_rect(geo::Rect{{x0, y0}, {x1, y1}});
}

/// Registers `n` objects on a table2 world at deterministic positions.
std::vector<std::unique_ptr<TrackedObject>> populate(
    SimWorld& w, std::size_t n, std::vector<ObjectResult>& all) {
  Rng rng(2026);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= n; ++i) {
    const geo::Point p{rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
    objs.push_back(w.register_object(ObjectId{i}, p));
    EXPECT_TRUE(objs.back()->tracked());
    all.push_back({ObjectId{i}, {p, objs.back()->offered_acc()}});
  }
  return objs;
}

// --- end-to-end merge equivalence --------------------------------------------

TEST(QueryMerge, WideFanOutRangeAnswersMatchOracleWithoutDuplicates) {
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}));
  std::vector<ObjectResult> all;
  const auto objs = populate(w, 160, all);
  auto qc = w.make_query_client(w.deployment->leaf_ids()[0]);

  const geo::Polygon areas[] = {
      rect_poly(0, 0, kArea, kArea),              // full fan-out, every leaf
      rect_poly(kArea / 4, kArea / 4, 3 * kArea / 4, 3 * kArea / 4),  // center
      rect_poly(10, 10, kArea / 3, kArea / 3),    // one corner
      rect_poly(kArea / 2 - 1, 0, kArea / 2 + 1, kArea),  // thin seam strip
  };
  for (const geo::Polygon& area : areas) {
    const auto res = w.range_query(*qc, area, 50.0, 0.9);
    EXPECT_TRUE(res.complete);
    // No duplicates: dedup-on-emit must never let an object appear twice.
    std::vector<ObjectId> ids = sorted_ids(res.objects);
    EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
    EXPECT_EQ(ids, sorted_ids(oracle_range(all, area, 50.0, 0.9)));
  }

  // The wide query fans out to every leaf, so the entry must have pinned
  // sub-result datagrams (zero-copy merge) rather than copying them.
  const auto stats = w.deployment->total_stats();
  EXPECT_GT(stats.sub_res_pinned, 0u);
  EXPECT_EQ(stats.sub_res_copied, 0u);

  for (int i = 0; i < 24; ++i) {
    const geo::Point p{37.0 * (i + 1), kArea - 31.0 * (i + 1) * 0.7};
    const auto nn = w.nn_query(*qc, p, 50.0, 0.0);
    const auto expected = oracle_nearest(all, p, 50.0);
    ASSERT_EQ(nn.found, expected.has_value());
    if (expected) {
      EXPECT_EQ(nn.nearest.oid, expected->oid);
    }
  }
}

TEST(QueryMerge, EmittedRangeResultIsByteIdenticalToCanonicalEncoding) {
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}));
  std::vector<ObjectResult> all;
  const auto objs = populate(w, 80, all);
  auto qc = w.make_query_client(w.deployment->leaf_ids()[1]);

  // Capture every RangeQueryRes datagram the entry emits.
  std::vector<wm::Buffer> finals;
  w.net.set_tracer([&](TimePoint, NodeId, NodeId, const wm::Buffer& b) {
    if (b.size() > 1 && static_cast<wm::MsgType>(b[1]) == wm::MsgType::kRangeQueryRes) {
      finals.push_back(b);
    }
  });
  const auto res = w.range_query(*qc, rect_poly(0, 0, kArea, kArea), 50.0, 0.9);
  EXPECT_TRUE(res.complete);
  ASSERT_EQ(finals.size(), 1u);

  // The direct-emit bytes must decode and re-encode to the very same bytes
  // (i.e. the merge loop writes the canonical encoding).
  const auto decoded = wm::decode_envelope(finals[0]);
  ASSERT_TRUE(decoded.ok());
  const wm::Buffer reencoded =
      wm::encode_envelope(decoded.value().src, decoded.value().msg);
  EXPECT_EQ(finals[0], reencoded);
}

// --- handcrafted sub-results: dedup, retired framing, timeouts ---------------

/// Harness around one ENTRY server with two fake children: the test plays
/// the children, so it controls exactly which sub-results arrive and how
/// they are framed.
struct EntryHarness {
  net::SimNetwork net;
  core::ConfigRecord cfg;
  core::LocationServer server;
  NodeId client{900};
  std::uint64_t fwd_req_id = 0;
  geo::Polygon fwd_area;
  int fwds_seen = 0;
  std::optional<core::QueryClient::RangeResult> answer;

  static core::ConfigRecord entry_cfg() {
    core::ConfigRecord cfg;
    cfg.sa = geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}});
    cfg.parent = kNoNode;
    // Two children tiling the root area: the entry is a pure coordinator.
    cfg.children.push_back(
        {NodeId{2}, geo::Polygon::from_rect(geo::Rect{{0, 0}, {500, 1000}})});
    cfg.children.push_back(
        {NodeId{3}, geo::Polygon::from_rect(geo::Rect{{500, 0}, {1000, 1000}})});
    return cfg;
  }

  EntryHarness() : server(NodeId{1}, entry_cfg(), net, net.clock(), {}) {
    net.attach(NodeId{1}, net::DatagramHandler([this](const net::Datagram& dg) {
                 server.handle(dg);
               }));
    // Both fake children record the forwarded query's internal req id.
    for (const std::uint32_t child : {2u, 3u}) {
      net.attach(NodeId{child}, [this](const std::uint8_t* d, std::size_t l) {
        const auto decoded = wm::decode_envelope(d, l);
        ASSERT_TRUE(decoded.ok());
        if (const auto* fwd = std::get_if<wm::RangeQueryFwd>(&decoded.value().msg)) {
          fwd_req_id = fwd->req_id;
          fwd_area = fwd->area;
          ++fwds_seen;
        }
      });
    }
    net.attach(client, [this](const std::uint8_t* d, std::size_t l) {
      const auto decoded = wm::decode_envelope(d, l);
      ASSERT_TRUE(decoded.ok());
      if (const auto* res = std::get_if<wm::RangeQueryRes>(&decoded.value().msg)) {
        answer = core::QueryClient::RangeResult{res->complete,
                                                res->results.to_vector()};
      }
    });
  }

  void start_query() {
    wm::RangeQueryReq req;
    req.area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}});
    req.req_id = 77;
    net.send(client, NodeId{1}, wm::encode_envelope(client, req));
    net.run_until_idle();
    ASSERT_EQ(fwds_seen, 2);
  }

  /// One child's packed (version 2) sub-result.
  void send_packed_sub(NodeId from, double covered,
                       const std::vector<ObjectResult>& results) {
    wm::RangeQuerySubRes sub;
    sub.req_id = fwd_req_id;
    sub.covered_size = covered;
    sub.results.assign(results);
    net.send(from, NodeId{1}, wm::encode_envelope(from, sub));
    net.run_until_idle();
  }

  /// One child's sub-result in the RETIRED version-1 (length-prefixed
  /// vector) framing.
  void send_v1_sub(NodeId from, double covered,
                   const std::vector<ObjectResult>& results) {
    wm::Buffer v1;
    {
      wm::Writer w(v1);
      w.u8(wm::kWireVersion);
      w.u8(static_cast<std::uint8_t>(wm::MsgType::kRangeQuerySubRes));
      w.u32_fixed(from.value);
      w.u64(fwd_req_id);
      w.f64(covered);
      w.u64(results.size());
      for (const ObjectResult& r : results) {
        w.u64(r.oid.value);
        w.f64(r.ld.pos.x);
        w.f64(r.ld.pos.y);
        w.f64(r.ld.acc);
      }
      w.boolean(false);  // no origin piggyback
    }
    net.send(from, NodeId{1}, std::move(v1));
    net.run_until_idle();
  }
};

TEST(QueryMerge, DedupOnEmitDropsCrossSegmentDuplicates) {
  EntryHarness h;
  h.start_query();
  const ObjectResult dup{ObjectId{42}, {{500.0, 500.0}, 10.0}};
  // Both children report the seam object (overlapping coverage, as a §6.5
  // direct query against stale cached areas could produce).
  h.send_packed_sub(NodeId{2}, h.fwd_area.area() / 2.0,
                    {{ObjectId{10}, {{100, 100}, 10.0}}, dup});
  h.send_packed_sub(NodeId{3}, h.fwd_area.area() / 2.0,
                    {dup, {ObjectId{11}, {{900, 100}, 10.0}}});
  ASSERT_TRUE(h.answer.has_value());
  EXPECT_TRUE(h.answer->complete);
  const std::vector<ObjectId> ids = sorted_ids(h.answer->objects);
  EXPECT_EQ(ids, (std::vector<ObjectId>{ObjectId{10}, ObjectId{11}, ObjectId{42}}));
  EXPECT_EQ(h.server.stats().merge_dedup_dropped, 1u);
  EXPECT_EQ(h.server.stats().sub_res_pinned, 2u);
}

TEST(QueryMerge, LegacyV1SubResultsAreRejected) {
  EntryHarness h;
  h.start_query();
  h.send_v1_sub(NodeId{2}, h.fwd_area.area() / 2.0,
                {{ObjectId{7}, {{10, 10}, 5.0}}});
  EXPECT_EQ(h.server.stats().decode_errors, 1u);
  h.send_packed_sub(NodeId{3}, h.fwd_area.area() / 2.0,
                    {{ObjectId{8}, {{990, 990}, 5.0}}});
  // The version-1 half never counts as coverage, so only the timeout
  // answers -- without the version-1 object.
  ASSERT_FALSE(h.answer.has_value());
  h.net.clock().advance(h.server.options().pending_timeout + 1);
  h.server.tick(h.net.now());
  h.net.run_until_idle();
  ASSERT_TRUE(h.answer.has_value());
  EXPECT_FALSE(h.answer->complete);
  EXPECT_EQ(sorted_ids(h.answer->objects), (std::vector<ObjectId>{ObjectId{8}}));
  EXPECT_EQ(h.server.stats().sub_res_copied, 0u);
  EXPECT_EQ(h.server.stats().sub_res_pinned, 1u);
}

TEST(QueryMerge, TimeoutEmitsPartialAnswerAndReleasesPins) {
  EntryHarness h;
  h.start_query();
  h.send_packed_sub(NodeId{2}, h.fwd_area.area() / 2.0,
                    {{ObjectId{5}, {{50, 50}, 5.0}}});
  ASSERT_FALSE(h.answer.has_value());  // half the coverage still missing
  // Let the pending deadline lapse: the entry must answer with what it has.
  h.net.clock().advance(h.server.options().pending_timeout + 1);
  h.server.tick(h.net.now());
  h.net.run_until_idle();
  ASSERT_TRUE(h.answer.has_value());
  EXPECT_FALSE(h.answer->complete);
  EXPECT_EQ(sorted_ids(h.answer->objects), (std::vector<ObjectId>{ObjectId{5}}));
}

// --- direct emit -------------------------------------------------------------

TEST(QueryMerge, DirectRangeAnswerCountsAsSent) {
  // A leaf entry emits its merged RangeQueryRes directly into a pooled
  // envelope (emit_range_result), bypassing send_msg. It must still leave
  // through the transport and count in stats().msgs_sent like every other
  // send.
  net::SimNetwork net;
  core::ConfigRecord cfg;
  cfg.sa = geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}});
  cfg.parent = kNoNode;  // a lone leaf: the query never leaves it
  core::LocationServer leaf(NodeId{1}, cfg, net, net.clock(), {});
  std::vector<wm::Buffer> to_client;
  const NodeId client{900};
  net.attach(client, [&](const std::uint8_t* data, std::size_t len) {
    to_client.emplace_back(data, data + len);
  });

  const wm::Buffer reg = wm::encode_envelope(
      client, wm::RegisterReq{{ObjectId{3}, 0, {150, 150}, 1.0}, "", {10.0, 100.0},
                              client, 1});
  leaf.handle(reg.data(), reg.size());
  wm::RangeQueryReq req;
  req.area = rect_poly(100, 100, 200, 200);
  req.req_acc = 50.0;
  req.req_id = 5;
  const wm::Buffer query = wm::encode_envelope(client, req);
  leaf.handle(query.data(), query.size());
  net.run_until_idle();

  ASSERT_EQ(to_client.size(), 2u);  // RegisterRes, RangeQueryRes
  EXPECT_EQ(net.messages_sent(), 2u);
  const auto decoded = wm::decode_envelope(to_client[1]);
  ASSERT_TRUE(decoded.ok());
  const auto* res = std::get_if<wm::RangeQueryRes>(&decoded.value().msg);
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->req_id, 5u);
  EXPECT_TRUE(res->complete);
  ASSERT_EQ(res->results.to_vector().size(), 1u);
  EXPECT_EQ(res->results.to_vector()[0].oid, ObjectId{3});
  EXPECT_EQ(leaf.stats().msgs_sent, 2u);
}

}  // namespace
}  // namespace locs::test

// LocalLocationService facade: the paper's full §3 API surface behind a
// synchronous single-process interface.
#include <gtest/gtest.h>

#include "core/local_service.hpp"

namespace locs::core {
namespace {

LocalLocationService::Config small_config() {
  LocalLocationService::Config cfg;
  cfg.area = geo::Rect{{0, 0}, {1000, 1000}};
  cfg.levels = 2;
  return cfg;
}

TEST(LocalService, RegisterUpdateQueryLifecycle) {
  LocalLocationService ls(small_config());
  const auto offered = ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(offered.ok());
  EXPECT_DOUBLE_EQ(offered.value(), 10.0);
  EXPECT_TRUE(ls.is_tracked(ObjectId{1}));

  const auto ld = ls.position(ObjectId{1});
  ASSERT_TRUE(ld.has_value());
  EXPECT_EQ(ld->pos, (geo::Point{100, 100}));

  // Small move: no update sent; position unchanged server-side.
  EXPECT_FALSE(ls.feed_position(ObjectId{1}, {104, 100}));
  // Large move: update flows through.
  EXPECT_TRUE(ls.feed_position(ObjectId{1}, {300, 300}));
  const auto ld2 = ls.position(ObjectId{1});
  ASSERT_TRUE(ld2.has_value());
  EXPECT_EQ(ld2->pos, (geo::Point{300, 300}));

  ls.deregister(ObjectId{1});
  EXPECT_FALSE(ls.position(ObjectId{1}).has_value());
  EXPECT_FALSE(ls.is_tracked(ObjectId{1}));
}

TEST(LocalService, RegistrationFailures) {
  LocalLocationService ls(small_config());
  // Outside the service area.
  const auto outside = ls.register_object(ObjectId{1}, {5000, 5000}, 1.0, {10, 50});
  EXPECT_FALSE(outside.ok());
  EXPECT_EQ(outside.status().code(), StatusCode::kOutOfRange);
  // Unachievable accuracy (server default min_supported_acc = 5).
  const auto too_fine = ls.register_object(ObjectId{2}, {100, 100}, 1.0, {1.0, 2.0});
  EXPECT_FALSE(too_fine.ok());
  EXPECT_EQ(too_fine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LocalService, UnansweredRegistrationIsSentAgainOnTheNextFeed) {
  LocalLocationService ls(small_config());
  // The first datagram from a server to a client, the leaf's RegisterRes,
  // is lost.
  const HierarchySpec& spec = ls.deployment().spec();
  int answers = 0;
  ls.network().set_drop_fn([&](NodeId from, NodeId to) {
    return spec.find(from) != nullptr && spec.find(to) == nullptr && answers++ == 0;
  });
  const auto unanswered = ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10, 50});
  ASSERT_FALSE(unanswered.ok());
  EXPECT_EQ(unanswered.status().code(), StatusCode::kUnavailable);

  // The object is kept, and its next feed after the retry interval
  // registers it again.
  ls.advance_time(seconds(2));
  EXPECT_TRUE(ls.feed_position(ObjectId{1}, {100, 100}));
  EXPECT_TRUE(ls.is_tracked(ObjectId{1}));
  const auto ld = ls.position(ObjectId{1});
  ASSERT_TRUE(ld.has_value());
  EXPECT_EQ(ld->pos, (geo::Point{100, 100}));
}

TEST(LocalService, RangeAndNeighborQueries) {
  LocalLocationService ls(small_config());
  ASSERT_TRUE(ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10, 50}).ok());
  ASSERT_TRUE(ls.register_object(ObjectId{2}, {200, 200}, 1.0, {10, 50}).ok());
  ASSERT_TRUE(ls.register_object(ObjectId{3}, {900, 900}, 1.0, {10, 50}).ok());

  const auto in_range = ls.range_query(
      geo::Polygon::from_rect(geo::Rect{{50, 50}, {250, 250}}), 25.0, 0.5);
  EXPECT_EQ(in_range.size(), 2u);

  const auto nn = ls.neighbor_query({110, 110}, 50.0, 200.0);
  ASSERT_TRUE(nn.found);
  EXPECT_EQ(nn.nearest.oid, ObjectId{1});
  ASSERT_EQ(nn.near_set.size(), 1u);
  EXPECT_EQ(nn.near_set[0].oid, ObjectId{2});
}

TEST(LocalService, ChangeAccuracy) {
  LocalLocationService ls(small_config());
  ASSERT_TRUE(ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10, 50}).ok());
  const auto changed = ls.change_accuracy(ObjectId{1}, {30.0, 100.0});
  ASSERT_TRUE(changed.ok());
  EXPECT_DOUBLE_EQ(changed.value(), 30.0);
  EXPECT_DOUBLE_EQ(ls.offered_acc_of(ObjectId{1}), 30.0);
}

TEST(LocalService, HandoverIsTransparent) {
  LocalLocationService ls(small_config());
  ASSERT_TRUE(ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10, 50}).ok());
  const NodeId first_agent = ls.agent_of(ObjectId{1});
  ASSERT_TRUE(ls.feed_position(ObjectId{1}, {900, 900}));
  EXPECT_NE(ls.agent_of(ObjectId{1}), first_agent);
  const auto ld = ls.position(ObjectId{1});
  ASSERT_TRUE(ld.has_value());
  EXPECT_EQ(ld->pos, (geo::Point{900, 900}));
}

TEST(LocalService, SoftStateExpiryViaAdvanceTime) {
  LocalLocationService::Config cfg = small_config();
  cfg.server.sighting_ttl = seconds(10);
  LocalLocationService ls(cfg);
  ASSERT_TRUE(ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10, 50}).ok());
  ls.advance_time(seconds(30));
  EXPECT_FALSE(ls.position(ObjectId{1}).has_value());
}

TEST(LocalService, ExpiredObjectRegistersAgainOnItsNextUpdate) {
  // Default options (120 s TTL), with and without update coalescing: the
  // update after expiry is answered with UnknownObject, directly or through
  // the coalescer's callback, and the object registers again.
  for (const bool coalesce : {false, true}) {
    SCOPED_TRACE(coalesce ? "coalesced" : "direct");
    LocalLocationService::Config cfg = small_config();
    cfg.coalesce_updates = coalesce;
    LocalLocationService ls(cfg);
    ASSERT_TRUE(ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10, 50}).ok());
    const NodeId agent = ls.agent_of(ObjectId{1});
    ls.advance_time(seconds(130));
    ASSERT_FALSE(ls.position(ObjectId{1}).has_value());
    ASSERT_TRUE(ls.is_tracked(ObjectId{1}));

    ASSERT_TRUE(ls.feed_position(ObjectId{1}, {200, 150}));
    ls.flush_updates();
    EXPECT_EQ(ls.deployment().server(agent).stats().updates_unknown, 1u);
    EXPECT_EQ(ls.deployment().total_stats().registrations, 2u);
    EXPECT_TRUE(ls.is_tracked(ObjectId{1}));
    EXPECT_EQ(ls.agent_of(ObjectId{1}), agent);
    const auto ld = ls.position(ObjectId{1});
    ASSERT_TRUE(ld.has_value());
    EXPECT_EQ(ld->pos, (geo::Point{200, 150}));
  }
}

TEST(LocalService, EventsThroughFacade) {
  LocalLocationService ls(small_config());
  const auto sub = ls.subscribe_area_count(
      geo::Polygon::from_rect(geo::Rect{{0, 0}, {300, 300}}), 1);
  ASSERT_TRUE(ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10, 50}).ok());
  const auto events = ls.poll_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].sub_id, sub);
  EXPECT_TRUE(events[0].fired);
  ls.unsubscribe(sub);
}

TEST(LocalService, CentralizedSingleServerConfig) {
  LocalLocationService::Config cfg = small_config();
  cfg.levels = 0;  // one server = centralized baseline
  LocalLocationService ls(cfg);
  ASSERT_TRUE(ls.register_object(ObjectId{1}, {100, 100}, 1.0, {10, 50}).ok());
  ASSERT_TRUE(ls.register_object(ObjectId{2}, {900, 900}, 1.0, {10, 50}).ok());
  EXPECT_TRUE(ls.position(ObjectId{1}).has_value());
  EXPECT_EQ(ls.range_query(geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}}),
                           50.0, 0.5)
                .size(),
            2u);
  const auto nn = ls.neighbor_query({850, 850}, 50.0, 0.0);
  ASSERT_TRUE(nn.found);
  EXPECT_EQ(nn.nearest.oid, ObjectId{2});
}

TEST(LocalService, ManyObjectsConsistency) {
  LocalLocationService ls(small_config());
  Rng rng(321);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    ASSERT_TRUE(ls.register_object(ObjectId{i},
                                   {rng.uniform(0, 1000), rng.uniform(0, 1000)},
                                   1.0, {10, 50})
                    .ok());
  }
  EXPECT_EQ(ls.tracked_count(), 100u);
  const auto all = ls.range_query(
      geo::Polygon::from_rect(geo::Rect{{-20, -20}, {1020, 1020}}), 50.0, 0.1);
  EXPECT_EQ(all.size(), 100u);
}

}  // namespace
}  // namespace locs::core

// §6.5 caching: the three cache types, their hit paths, staleness handling,
// and that cached answers remain semantically correct.
#include <gtest/gtest.h>

#include "core/caches.hpp"
#include "test_support.hpp"

namespace locs::test {
namespace {

const geo::Rect kArea{{0, 0}, {1000, 1000}};

core::LocationServer::Options cached_opts() {
  core::LocationServer::Options opts;
  opts.enable_leaf_area_cache = true;
  opts.enable_agent_cache = true;
  opts.enable_position_cache = false;  // enabled per-test (changes semantics)
  return opts;
}

TEST(CacheUnits, LeafAreaCoverage) {
  core::LeafAreaCache cache;
  cache.learn(NodeId{1}, geo::Polygon::from_rect(geo::Rect{{0, 0}, {100, 100}}));
  cache.learn(NodeId{2}, geo::Polygon::from_rect(geo::Rect{{100, 0}, {200, 100}}));
  const auto cov = cache.coverage_of(
      geo::Polygon::from_rect(geo::Rect{{50, 10}, {150, 90}}));
  EXPECT_EQ(cov.leaves.size(), 2u);
  EXPECT_NEAR(cov.covered_size, 100.0 * 80.0, 1e-6);
  EXPECT_EQ(cache.leaf_containing({150, 50}), NodeId{2});
  EXPECT_EQ(cache.leaf_containing({500, 500}), kNoNode);
}

TEST(CacheUnits, AgentCacheTtl) {
  core::ObjectAgentCache cache(10, seconds(10));
  cache.learn(ObjectId{1}, NodeId{5}, 0);
  EXPECT_EQ(cache.find(ObjectId{1}, seconds(5)).value_or(kNoNode), NodeId{5});
  EXPECT_FALSE(cache.find(ObjectId{1}, seconds(11)).has_value());
  cache.invalidate(ObjectId{1});
  EXPECT_FALSE(cache.find(ObjectId{1}, 0).has_value());
}

TEST(CacheUnits, PositionCacheAgesAccuracy) {
  core::PositionCache cache;
  cache.learn(ObjectId{1}, {{100, 100}, 10.0}, 0);
  // After 5 s at max speed 4 m/s the accuracy degraded to 30.
  const auto aged = cache.find(ObjectId{1}, seconds(5), 4.0, 50.0);
  ASSERT_TRUE(aged.has_value());
  EXPECT_DOUBLE_EQ(aged->acc, 30.0);
  // Beyond the acceptable bound: miss.
  EXPECT_FALSE(cache.find(ObjectId{1}, seconds(20), 4.0, 50.0).has_value());
}

TEST(Caching, AgentCacheShortensSecondQuery) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea), cached_opts());
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  ASSERT_EQ(obj->agent(), NodeId{6});
  auto qc = world.make_query_client(NodeId{4});

  std::uint64_t msgs_before = world.net.messages_sent();
  const auto res1 = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(res1.found);
  const std::uint64_t first_query_msgs = world.net.messages_sent() - msgs_before;
  msgs_before = world.net.messages_sent();
  const auto res2 = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(res2.found);
  const std::uint64_t second_query_msgs = world.net.messages_sent() - msgs_before;
  // Direct: client->entry, entry->agent, agent->entry, entry->client = 4
  // (vs 7 via the hierarchy: 4-2-1-3-6 + 6->4 + 4->client).
  EXPECT_EQ(first_query_msgs, 7u);
  EXPECT_EQ(second_query_msgs, 4u);
  EXPECT_EQ(world.deployment->server(NodeId{4}).stats().agent_cache_hits, 1u);
}

TEST(Caching, StaleAgentCacheFallsBackAndRecovers) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea), cached_opts());
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  ASSERT_TRUE(world.pos_query(*qc, ObjectId{1}).found);  // seeds cache: agent 6

  obj->feed_position({600, 900});  // handover s6 -> s7
  world.run();
  ASSERT_EQ(obj->agent(), NodeId{7});

  // The next query from s4 hits the stale cache entry (s6). s6 answers
  // not-found; s4 drops the entry and asks the hierarchy instead, which
  // finds the object at s7. 9 messages: client->4, 4->6 and back,
  // 4-2-1-3-7, 7->4 and 4->client.
  const core::LocationServer& entry = world.deployment->server(NodeId{4});
  std::uint64_t msgs_before = world.net.messages_sent();
  const auto stale = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(stale.found);
  EXPECT_EQ(stale.ld.pos, (geo::Point{600, 900}));
  EXPECT_EQ(world.net.messages_sent() - msgs_before, 9u);
  EXPECT_EQ(entry.stats().agent_cache_hits, 1u);
  // The answer came from agent 7, which the cache learned from it: the
  // following query goes straight there.
  msgs_before = world.net.messages_sent();
  const auto fresh = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(fresh.found);
  EXPECT_EQ(fresh.ld.pos, (geo::Point{600, 900}));
  EXPECT_EQ(world.net.messages_sent() - msgs_before, 4u);
  EXPECT_EQ(entry.stats().agent_cache_hits, 2u);
}

TEST(Caching, AgentCacheTimeoutAtTheRootRetriesDownTheForwardingPath) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea), cached_opts());
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{1});  // the root is the entry
  ASSERT_TRUE(world.pos_query(*qc, ObjectId{1}).found);  // seeds cache: agent 6

  obj->feed_position({600, 900});  // handover s6 -> s7
  world.run();
  ASSERT_EQ(obj->agent(), NodeId{7});

  // The root's query to its cached agent s6 is lost, so only the timeout
  // sweep can answer it. The root has no parent to retry through; it
  // follows its forwarding reference down to s7 instead.
  world.net.set_drop_fn(
      [](NodeId from, NodeId to) { return from == NodeId{1} && to == NodeId{6}; });
  const std::uint64_t id = qc->send_pos_query(ObjectId{1});
  world.run();
  EXPECT_FALSE(qc->take_pos(id).has_value());
  world.advance(seconds(6));
  const auto res = qc->take_pos(id);
  ASSERT_TRUE(res.has_value()) << "position query did not complete";
  EXPECT_TRUE(res->found);
  EXPECT_EQ(res->ld.pos, (geo::Point{600, 900}));
  EXPECT_EQ(world.deployment->server(NodeId{1}).stats().pending_timeouts, 0u);
}

/// Object 1 registered at (100, 100), and a range query around `to` sent
/// from its leaf, whose sub-result piggybacks the area of the leaf covering
/// `to` (seeding the leaf-area cache when it is on).
struct HandoverWorld {
  SimWorld world;
  std::unique_ptr<TrackedObject> obj;

  HandoverWorld(core::HierarchySpec spec, geo::Point to,
                const core::LocationServer::Options& opts)
      : world(std::move(spec), opts, lan()),
        obj(world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0})) {
    world.range_query(*world.make_query_client(obj->agent()),
                      geo::Polygon::from_rect(geo::Rect::from_center(to, 50, 50)), 25.0, 0.5);
  }

  /// Moves the object to `to`; timed until the update is acknowledged.
  OpCost hand_over(geo::Point to) {
    return timed_op(
        world.net, [&] { obj->feed_position(to); },
        [&] { return !obj->update_pending(); });
  }
};

TEST(Caching, DirectHandoverViaLeafAreaCache) {
  HandoverWorld cached(core::HierarchyBuilder::fig6(kArea), {150, 650}, cached_opts());
  SimWorld& world = cached.world;
  ASSERT_EQ(cached.obj->agent(), NodeId{4});
  ASSERT_GT(world.deployment->server(NodeId{4}).leaf_area_cache().size(), 0u);

  // Handover into s5's area now goes directly (stats: handovers_direct).
  const OpCost direct = cached.hand_over({150, 650});
  EXPECT_EQ(cached.obj->agent(), NodeId{5});
  EXPECT_EQ(world.deployment->server(NodeId{4}).stats().handovers_direct, 1u);
  // The forwarding path must still be repaired (createPath + removePath).
  EXPECT_EQ(world.deployment->server(NodeId{1}).visitors()->find(ObjectId{1}),
            NodeId{2});
  EXPECT_EQ(world.deployment->server(NodeId{2}).visitors()->find(ObjectId{1}),
            NodeId{5});
  // Queries still find the object.
  const auto res = world.pos_query(*world.make_query_client(NodeId{4}), ObjectId{1});
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.ld.pos, (geo::Point{150, 650}));

  // With the caches off the same handover goes through s2 and is
  // acknowledged later. It sends one message fewer: the direct handover's
  // createPath climbs past s2 to the root.
  HandoverWorld uncached(core::HierarchyBuilder::fig6(kArea), {150, 650}, {});
  const OpCost via_parent = uncached.hand_over({150, 650});
  EXPECT_EQ(uncached.obj->agent(), NodeId{5});
  EXPECT_EQ(uncached.world.deployment->server(NodeId{4}).stats().handovers_direct, 0u);
  EXPECT_EQ(direct.msgs, via_parent.msgs + 1);
  EXPECT_LT(direct.us, via_parent.us);

  // Where both leaves hang off the root (Table 2's topology) the two send
  // the same number of messages.
  const OpCost flat_direct =
      HandoverWorld(core::HierarchyBuilder::table2(kArea), {600, 100}, cached_opts())
          .hand_over({600, 100});
  const OpCost flat_via_root =
      HandoverWorld(core::HierarchyBuilder::table2(kArea), {600, 100}, {}).hand_over({600, 100});
  EXPECT_EQ(flat_direct.msgs, flat_via_root.msgs);
  EXPECT_LT(flat_direct.us, flat_via_root.us);
}

TEST(Caching, DirectRangeQueryWhenCacheCoversArea) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea), cached_opts());
  auto o6 = world.register_object(ObjectId{1}, {700, 300}, 1.0, {10.0, 50.0});
  auto o7 = world.register_object(ObjectId{2}, {700, 700}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  const geo::Polygon area =
      geo::Polygon::from_rect(geo::Rect{{650, 250}, {750, 750}});
  // First query goes through the hierarchy and learns s6/s7 areas.
  std::uint64_t msgs_before = world.net.messages_sent();
  const auto res1 = world.range_query(*qc, area, 25.0, 0.5);
  EXPECT_EQ(res1.objects.size(), 2u);
  const std::uint64_t first_query_msgs = world.net.messages_sent() - msgs_before;
  // Second identical query can go direct if the cached areas cover it.
  const std::uint64_t direct_before =
      world.deployment->server(NodeId{4}).stats().range_direct;
  msgs_before = world.net.messages_sent();
  const auto res2 = world.range_query(*qc, area, 25.0, 0.5);
  EXPECT_EQ(sorted_ids(res2.objects), sorted_ids(res1.objects));
  EXPECT_EQ(world.deployment->server(NodeId{4}).stats().range_direct,
            direct_before + 1);
  EXPECT_LT(world.net.messages_sent() - msgs_before, first_query_msgs);
}

TEST(Caching, PositionCacheServesRepeatQueriesWithAgedAccuracy) {
  auto opts = cached_opts();
  opts.enable_position_cache = true;
  opts.default_max_speed = 10.0;
  opts.position_cache_max_acc = 100.0;
  SimWorld world(core::HierarchyBuilder::fig6(kArea), opts);
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  ASSERT_TRUE(world.pos_query(*qc, ObjectId{1}).found);  // seeds the cache

  world.advance(seconds(2));
  const std::uint64_t msgs_before = world.net.messages_sent();
  const auto res = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(res.found);
  // Served from cache: exactly 2 messages (client->entry, entry->client).
  EXPECT_EQ(world.net.messages_sent() - msgs_before, 2u);
  // Accuracy aged by ~2 s * 10 m/s on top of the stored 10 m.
  EXPECT_GT(res.ld.acc, 10.0);
  EXPECT_LE(res.ld.acc, 40.0);
  EXPECT_GE(world.deployment->server(NodeId{4}).stats().pos_query_cache_hits, 1u);
}

TEST(Caching, PositionCacheExpiresByAccuracyBound) {
  auto opts = cached_opts();
  opts.enable_position_cache = true;
  opts.default_max_speed = 10.0;
  opts.position_cache_max_acc = 50.0;
  SimWorld world(core::HierarchyBuilder::fig6(kArea), opts);
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  ASSERT_TRUE(world.pos_query(*qc, ObjectId{1}).found);
  // After 10 s the aged accuracy (10 + 100) exceeds the 50 m bound: the
  // query must go to the network again.
  world.advance(seconds(10));
  const std::uint64_t msgs_before = world.net.messages_sent();
  ASSERT_TRUE(world.pos_query(*qc, ObjectId{1}).found);
  EXPECT_GT(world.net.messages_sent() - msgs_before, 2u);
}

TEST(Caching, DisabledCachesNeverHit) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));  // defaults: all off
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  world.pos_query(*qc, ObjectId{1});
  world.pos_query(*qc, ObjectId{1});
  const auto& stats = world.deployment->server(NodeId{4}).stats();
  EXPECT_EQ(stats.agent_cache_hits, 0u);
  EXPECT_EQ(stats.pos_query_cache_hits, 0u);
  EXPECT_EQ(world.deployment->server(NodeId{4}).leaf_area_cache().size(), 0u);
}

}  // namespace
}  // namespace locs::test

// Edge cases across the protocol: update and registration retries after a
// lost answer, heterogeneous per-leaf accuracy with notifyAvailAcc on
// handover, concurrent handovers, and event routing from arbitrary entry
// servers.
#include <gtest/gtest.h>

#include "test_support.hpp"

namespace locs::test {
namespace {

const geo::Rect kArea{{0, 0}, {1000, 1000}};

TEST(UpdateRetry, ResendsAfterLostAck) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());

  // Drop every server->client message (acks) for a while.
  bool drop_acks = true;
  world.net.set_drop_fn([&](NodeId from, NodeId to) {
    return drop_acks && from == NodeId{4} && to == obj->node();
  });
  EXPECT_TRUE(obj->feed_position({130, 100}));
  world.run();
  EXPECT_TRUE(obj->update_pending());  // ack never arrived
  const std::uint64_t sent_before = obj->updates_sent();

  // Heal the link; the next sensor feed after the retry interval resends
  // even though the position barely moved.
  drop_acks = false;
  world.net.clock().advance(seconds(3));  // default retry is 2 s
  EXPECT_TRUE(obj->feed_position({131, 100}));
  world.run();
  EXPECT_EQ(obj->updates_sent(), sent_before + 1);
  EXPECT_FALSE(obj->update_pending());
  const auto* rec = world.deployment->server(NodeId{4}).sightings()->find(ObjectId{1});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->sighting.pos, (geo::Point{131, 100}));
}

TEST(RegistrationRetry, ResendsAfterLostResponse) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  TrackedObject obj(world.client_node(), ObjectId{1}, world.net, world.net.clock());
  // Leaf 4's first answer to the object (its RegisterRes) is lost.
  int answers = 0;
  world.net.set_drop_fn([&](NodeId from, NodeId to) {
    return from == NodeId{4} && to == obj.node() && answers++ == 0;
  });
  obj.start_register(NodeId{4}, {100, 100}, 1.0, {10.0, 50.0});
  world.run();
  EXPECT_EQ(obj.state(), TrackedObject::State::kRegistering);

  // Within the retry interval a feed sends nothing; after it, the feed
  // registers again with the same leaf, at the fed position.
  world.net.clock().advance(seconds(1));
  EXPECT_FALSE(obj.feed_position({110, 100}));
  world.net.clock().advance(seconds(2));
  EXPECT_TRUE(obj.feed_position({120, 100}));
  world.run();
  EXPECT_TRUE(obj.tracked());
  EXPECT_EQ(obj.agent(), NodeId{4});
  const auto* rec = world.deployment->server(NodeId{4}).sightings()->find(ObjectId{1});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->sighting.pos, (geo::Point{120, 100}));

  // A late answer to the first attempt changes nothing.
  net::send_message(world.net, NodeId{5}, obj.node(), wire::RegisterRes{NodeId{5}, 30.0, 1});
  world.run();
  EXPECT_EQ(obj.agent(), NodeId{4});
}

TEST(HeterogeneousAccuracy, HandoverIntoCoarserLeafNotifies) {
  // s4 has a fine indoor positioning system (1 m); s5 only supports 30 m.
  core::HierarchySpec spec = core::HierarchyBuilder::fig6(kArea);
  net::SimNetwork net;
  core::Deployment::Config cfg;
  cfg.options_fn = [](NodeId id, const core::ConfigRecord&,
                      core::LocationServer::Options opts) {
    opts.min_supported_acc = id == NodeId{5} ? 30.0 : 1.0;
    return opts;
  };
  core::Deployment deployment(net, net.clock(), spec, cfg);

  core::TrackedObject obj(NodeId{1 << 20}, ObjectId{1}, net, net.clock());
  obj.start_register(NodeId{4}, {100, 100}, 1.0, {5.0, 100.0});
  net.run_until_idle();
  ASSERT_TRUE(obj.tracked());
  EXPECT_DOUBLE_EQ(obj.offered_acc(), 5.0);  // max(1, desired 5)

  // Move into s5: the new agent can only manage 30 m; §3.1 requires the
  // registering instance to learn about the changed offer.
  obj.feed_position({100, 700});
  net.run_until_idle();
  ASSERT_EQ(obj.agent(), NodeId{5});
  EXPECT_DOUBLE_EQ(obj.offered_acc(), 30.0);

  // Moving back restores the finer offer.
  obj.feed_position({100, 300});
  net.run_until_idle();
  ASSERT_EQ(obj.agent(), NodeId{4});
  EXPECT_DOUBLE_EQ(obj.offered_acc(), 5.0);
}

TEST(HeterogeneousAccuracy, RegistrationFailsOnlyOnCoarseLeaf) {
  core::HierarchySpec spec = core::HierarchyBuilder::fig6(kArea);
  net::SimNetwork net;
  core::Deployment::Config cfg;
  cfg.options_fn = [](NodeId id, const core::ConfigRecord&,
                      core::LocationServer::Options opts) {
    opts.min_supported_acc = id == NodeId{5} ? 30.0 : 1.0;
    return opts;
  };
  core::Deployment deployment(net, net.clock(), spec, cfg);
  // minAcc 10 m: fine at s4...
  core::TrackedObject a(NodeId{(1 << 20) + 1}, ObjectId{1}, net, net.clock());
  a.start_register(NodeId{4}, {100, 100}, 1.0, {5.0, 10.0});
  net.run_until_idle();
  EXPECT_TRUE(a.tracked());
  // ...but unachievable at s5.
  core::TrackedObject b(NodeId{(1 << 20) + 2}, ObjectId{2}, net, net.clock());
  b.start_register(NodeId{5}, {100, 700}, 1.0, {5.0, 10.0});
  net.run_until_idle();
  EXPECT_EQ(b.state(), core::TrackedObject::State::kFailed);
  EXPECT_DOUBLE_EQ(b.register_failed_acc(), 30.0);
}

TEST(ConcurrentHandovers, ManyObjectsCrossSimultaneously) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    objs.push_back(world.register_object(
        ObjectId{i}, {100.0 + static_cast<double>(i), 100.0}, 1.0, {10.0, 50.0}));
    ASSERT_TRUE(objs.back()->tracked());
  }
  // All cross into s6's area in the same burst, before any response flows.
  for (std::uint64_t i = 0; i < 20; ++i) {
    objs[i]->feed_position({600.0 + static_cast<double>(i), 100.0});
  }
  world.run();
  for (std::uint64_t i = 0; i < 20; ++i) {
    EXPECT_EQ(objs[i]->agent(), NodeId{6}) << "object " << i + 1;
  }
  EXPECT_EQ(world.deployment->server(NodeId{6}).sightings()->size(), 20u);
  EXPECT_EQ(world.deployment->server(NodeId{4}).sightings()->size(), 0u);
}

TEST(ConcurrentHandovers, DuplicateUpdatesDuringHandoverAreIdempotent) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  // Send two boundary-crossing updates back to back; the agent must start
  // exactly one handover (the in-flight guard).
  obj->feed_position({600, 100});
  obj->feed_position({610, 100});
  world.run();
  EXPECT_EQ(obj->agent(), NodeId{6});
  EXPECT_EQ(world.deployment->server(NodeId{4}).stats().handovers_initiated, 1u);
}

TEST(EventRouting, SubscribeFromNonCoveringEntry) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  // Entry s7 (north-east), but the predicate area lies fully in s4's
  // quadrant: the subscription must climb until a covering coordinator.
  auto qc = world.make_query_client(NodeId{7});
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{50, 50}, {200, 200}});
  qc->subscribe_area_count(area, 1);
  world.run();
  auto obj = world.register_object(ObjectId{1}, {100, 100});
  world.run();
  const auto events = qc->take_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].fired);
}

TEST(EventRouting, UnsubscribeFromDifferentEntryStillPropagates) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto qc = world.make_query_client(NodeId{4});
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{50, 50}, {200, 200}});
  const std::uint64_t sub = qc->subscribe_area_count(area, 1);
  world.run();
  // Unsubscribe via a different entry server.
  qc->set_entry(NodeId{7});
  qc->unsubscribe(sub);
  world.run();
  auto obj = world.register_object(ObjectId{1}, {100, 100});
  world.run();
  EXPECT_TRUE(qc->take_events().empty());
}

TEST(Deregistration, WhileQueryInFlightIsSafe) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{1}, {600, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  // Race: query and deregistration issued into the same burst.
  const std::uint64_t id = qc->send_pos_query(ObjectId{1});
  obj->deregister();
  world.run();
  world.advance(seconds(30));  // allow any pending sweep to answer
  const auto res = qc->take_pos(id);
  ASSERT_TRUE(res.has_value());  // answered either way, never stuck
}

TEST(ServiceAreaEdges, ObjectOnSharedCornerHasDeterministicAgent) {
  SimWorld world(core::HierarchyBuilder::grid(kArea, 2, 2, 1));
  // The exact center belongs to exactly one leaf (lowest-id tie-break).
  auto obj = world.register_object(ObjectId{1}, {500, 500}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());
  const NodeId agent = obj->agent();
  EXPECT_TRUE(world.deployment->server(agent).config().covers({500, 500}));
  // Exactly one leaf has the sighting.
  int holders = 0;
  for (const NodeId leaf : world.deployment->leaf_ids()) {
    if (world.deployment->server(leaf).sightings()->find(ObjectId{1})) ++holders;
  }
  EXPECT_EQ(holders, 1);
}

}  // namespace
}  // namespace locs::test

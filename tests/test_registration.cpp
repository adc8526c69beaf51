// Algorithm 6-1: registration with accuracy negotiation and forwarding-path
// creation.
#include <gtest/gtest.h>

#include "test_support.hpp"

namespace locs::test {
namespace {

const geo::Rect kArea{{0, 0}, {1000, 1000}};

TEST(Registration, SucceedsAndCreatesForwardingPath) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  // Position in s4's area (left half, bottom quarter).
  auto obj = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());
  EXPECT_EQ(obj->agent(), NodeId{4});
  // offeredAcc = max(server acc, desAcc) = max(5, 10) = 10.
  EXPECT_DOUBLE_EQ(obj->offered_acc(), 10.0);

  // Forwarding path: root(1) -> 2 -> 4; agent leaf stores the leaf record.
  const auto& root_rec = world.deployment->server(NodeId{1}).visitors();
  ASSERT_NE(root_rec.find(ObjectId{1}), std::nullopt);
  EXPECT_EQ(root_rec.find(ObjectId{1})->forward_ref, NodeId{2});
  const auto& s2_rec = world.deployment->server(NodeId{2}).visitors();
  ASSERT_NE(s2_rec.find(ObjectId{1}), std::nullopt);
  EXPECT_EQ(s2_rec.find(ObjectId{1})->forward_ref, NodeId{4});
  const auto& s4_rec = world.deployment->server(NodeId{4}).visitors();
  ASSERT_NE(s4_rec.find(ObjectId{1}), std::nullopt);
  EXPECT_TRUE(s4_rec.find(ObjectId{1})->leaf.has_value());
  // Sighting stored only at the leaf.
  EXPECT_NE(world.deployment->server(NodeId{4}).sightings()->find(ObjectId{1}),
            nullptr);
  EXPECT_EQ(world.deployment->server(NodeId{1}).sightings(), nullptr);
  // Uninvolved subtree knows nothing.
  EXPECT_EQ(world.deployment->server(NodeId{3}).visitors().find(ObjectId{1}),
            std::nullopt);
}

TEST(Registration, RoutedViaWrongEntryServer) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  // Entry server s7 (top-right), but the object is in s4's area: the request
  // must climb to the root and descend to s4 (Alg 6-1 up/down forwarding).
  auto obj = std::make_unique<TrackedObject>(world.client_node(), ObjectId{2},
                                             world.net, world.net.clock());
  obj->start_register(NodeId{7}, {100, 100}, 1.0, {10.0, 50.0});
  world.run();
  ASSERT_TRUE(obj->tracked());
  EXPECT_EQ(obj->agent(), NodeId{4});
}

TEST(Registration, FailsWhenAccuracyUnreachable) {
  core::LocationServer::Options opts;
  opts.min_supported_acc = 20.0;
  SimWorld world(core::HierarchyBuilder::fig6(kArea), opts);
  auto obj = std::make_unique<TrackedObject>(world.client_node(), ObjectId{3},
                                             world.net, world.net.clock());
  // minAcc = 10 < what the leaf can manage (20) => registerFailed.
  obj->start_register(NodeId{4}, {100, 100}, 1.0, {5.0, 10.0});
  world.run();
  EXPECT_EQ(obj->state(), TrackedObject::State::kFailed);
  EXPECT_DOUBLE_EQ(obj->register_failed_acc(), 20.0);
  // No residue anywhere in the hierarchy.
  for (std::uint32_t id = 1; id <= 7; ++id) {
    EXPECT_EQ(world.deployment->server(NodeId{id}).visitors().find(ObjectId{3}),
              std::nullopt);
  }
}

TEST(Registration, FailsOutsideServiceArea) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = std::make_unique<TrackedObject>(world.client_node(), ObjectId{4},
                                             world.net, world.net.clock());
  obj->start_register(NodeId{4}, {5000, 5000}, 1.0, {10.0, 100.0});
  world.run();
  EXPECT_EQ(obj->state(), TrackedObject::State::kFailed);
  EXPECT_LT(obj->register_failed_acc(), 0.0);  // out-of-area sentinel
}

TEST(Registration, OfferedAccuracyIsDesiredWhenAchievable) {
  core::LocationServer::Options opts;
  opts.min_supported_acc = 2.0;
  SimWorld world(core::HierarchyBuilder::fig6(kArea), opts);
  auto obj = world.register_object(ObjectId{5}, {100, 100}, 1.0, {25.0, 200.0});
  ASSERT_TRUE(obj->tracked());
  EXPECT_DOUBLE_EQ(obj->offered_acc(), 25.0);  // max(2, desired 25)
}

TEST(Registration, ChangeAccuracyNegotiatesAgain) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{6}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());
  obj->request_change_acc({20.0, 80.0});
  world.run();
  EXPECT_DOUBLE_EQ(obj->offered_acc(), 20.0);
  // The leaf's stored accuracy follows (used by query filtering).
  const auto* rec =
      world.deployment->server(NodeId{4}).sightings()->find(ObjectId{6});
  ASSERT_NE(rec, nullptr);
  EXPECT_DOUBLE_EQ(rec->offered_acc, 20.0);
}

TEST(Registration, ChangeAccuracyRejectedKeepsOldOffer) {
  core::LocationServer::Options opts;
  opts.min_supported_acc = 15.0;
  SimWorld world(core::HierarchyBuilder::fig6(kArea), opts);
  auto obj = world.register_object(ObjectId{7}, {100, 100}, 1.0, {20.0, 100.0});
  ASSERT_TRUE(obj->tracked());
  EXPECT_DOUBLE_EQ(obj->offered_acc(), 20.0);
  obj->request_change_acc({1.0, 5.0});  // unachievable: best is 15
  world.run();
  EXPECT_DOUBLE_EQ(obj->offered_acc(), 20.0);  // unchanged
}

TEST(Registration, ReregistrationOverwrites) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{8}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());
  // Register again at a different position within the same leaf.
  obj->start_register(NodeId{4}, {150, 150}, 1.0, {10.0, 50.0});
  world.run();
  ASSERT_TRUE(obj->tracked());
  const auto* rec =
      world.deployment->server(NodeId{4}).sightings()->find(ObjectId{8});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->sighting.pos, (geo::Point{150, 150}));
  EXPECT_EQ(world.deployment->server(NodeId{4}).sightings()->size(), 1u);
}

TEST(Registration, DeregisterRemovesWholePath) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{9}, {100, 100});
  ASSERT_TRUE(obj->tracked());
  obj->deregister();
  world.run();
  for (std::uint32_t id = 1; id <= 7; ++id) {
    EXPECT_EQ(world.deployment->server(NodeId{id}).visitors().find(ObjectId{9}),
              std::nullopt)
        << "server " << id;
  }
  EXPECT_EQ(world.deployment->server(NodeId{4}).sightings()->find(ObjectId{9}),
            nullptr);
}

TEST(Registration, ManyObjectsAllTracked) {
  SimWorld world(core::HierarchyBuilder::grid(kArea, 2, 2, 2));
  Rng rng(99);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    objs.push_back(world.register_object(ObjectId{i}, p));
    ASSERT_TRUE(objs.back()->tracked()) << i;
  }
  // Root knows all of them.
  EXPECT_EQ(world.deployment->server(world.deployment->root()).visitors().size(),
            200u);
  // Every object's agent covers its position.
  for (const auto& obj : objs) {
    const auto& cfg = world.deployment->server(obj->agent()).config();
    EXPECT_TRUE(cfg.is_leaf());
  }
}

}  // namespace
}  // namespace locs::test

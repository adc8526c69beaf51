// Algorithm 6-4: position query processing, local and remote, including the
// Fig 6 hop trace (entry -> root -> forwarding path -> agent -> entry) and
// the local answer for a leaf record still waiting for its sighting.
#include <gtest/gtest.h>

#include <filesystem>

#include "test_support.hpp"
#include "wire/messages.hpp"

namespace locs::test {
namespace {

const geo::Rect kArea{{0, 0}, {1000, 1000}};

TEST(PosQuery, LocalAtAgentLeaf) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());
  auto qc = world.make_query_client(NodeId{4});  // the agent itself
  const auto res = world.pos_query(*qc, ObjectId{1});
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.ld.pos, (geo::Point{100, 100}));
  EXPECT_DOUBLE_EQ(res.ld.acc, 10.0);
  EXPECT_EQ(world.deployment->server(NodeId{4}).stats().pos_queries_served, 1u);
}

TEST(PosQuery, LocalRecordWithoutSightingWaitsForOneRefresh) {
  // A leaf restarted over its persistent log knows the object but not where
  // it is: a query entering at that leaf asks the object once and is
  // answered when the refresh arrives.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("locs_pos_query_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  core::Deployment::Config cfg;
  cfg.visitor_db_factory = [&dir](NodeId id) {
    auto log = store::VisitorLog::open((dir / std::to_string(id.value)).string());
    EXPECT_TRUE(log.ok());
    return std::move(log).value();
  };
  {
    SimWorld world(core::HierarchyBuilder::fig6(kArea), cfg);
    auto obj = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
    ASSERT_TRUE(obj->tracked());
    world.deployment->crash(NodeId{4});
    world.deployment->restart(NodeId{4}, /*announce=*/false);
    const core::LocationServer& leaf = world.deployment->server(NodeId{4});
    ASSERT_FALSE(leaf.sightings()->find(ObjectId{1})->has_sighting);

    auto qc = world.make_query_client(NodeId{4});
    const auto res = world.pos_query(*qc, ObjectId{1});
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.ld.pos, (geo::Point{100, 100}));
    EXPECT_DOUBLE_EQ(res.ld.acc, 10.0);
    EXPECT_EQ(leaf.stats().refresh_requests, 1u);
    EXPECT_EQ(obj->refreshes_answered(), 1u);
    EXPECT_TRUE(leaf.sightings()->find(ObjectId{1})->has_sighting);
  }
  fs::remove_all(dir);
}

TEST(PosQuery, RemoteClimbsToPivotOnly) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{2}, {100, 600}, 1.0, {10.0, 50.0});
  ASSERT_EQ(obj->agent(), NodeId{5});
  // Entry s4: object in sibling s5 -- "if the object had been located in the
  // service area of s5, the request would have been forwarded only up to s2".
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;
  world.net.set_tracer([&](TimePoint, NodeId from, NodeId to, const wire::Buffer& b) {
    auto env = wire::decode_envelope(b);
    if (!env.ok()) return;
    const auto type = wire::message_type(env.value().msg);
    if (type == wire::MsgType::kPosQueryFwd || type == wire::MsgType::kPosQueryRes) {
      hops.emplace_back(from.value, to.value);
    }
  });
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.pos_query(*qc, ObjectId{2});
  ASSERT_TRUE(res.found);
  // Fwd: 4 -> 2 (pivot), 2 -> 5 (down); Res: 5 -> 4 (direct to entry),
  // then 4 -> client.
  ASSERT_EQ(hops.size(), 4u);
  EXPECT_EQ(hops[0], (std::pair<std::uint32_t, std::uint32_t>{4, 2}));
  EXPECT_EQ(hops[1], (std::pair<std::uint32_t, std::uint32_t>{2, 5}));
  EXPECT_EQ(hops[2], (std::pair<std::uint32_t, std::uint32_t>{5, 4}));
}

TEST(PosQuery, Fig6RemoteTraceThroughRoot) {
  // Fig 6 (position query): issued at s4, object at s6: up to the root, down
  // the forwarding path to s6, answer directly back to s4.
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{3}, {600, 100}, 1.0, {10.0, 50.0});
  ASSERT_EQ(obj->agent(), NodeId{6});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;
  world.net.set_tracer([&](TimePoint, NodeId from, NodeId to, const wire::Buffer& b) {
    auto env = wire::decode_envelope(b);
    if (!env.ok()) return;
    const auto type = wire::message_type(env.value().msg);
    if (type == wire::MsgType::kPosQueryFwd || type == wire::MsgType::kPosQueryRes) {
      hops.emplace_back(from.value, to.value);
    }
  });
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.pos_query(*qc, ObjectId{3});
  ASSERT_TRUE(res.found);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> expected_prefix{
      {4, 2}, {2, 1}, {1, 3}, {3, 6}, {6, 4}};
  ASSERT_GE(hops.size(), expected_prefix.size());
  for (std::size_t i = 0; i < expected_prefix.size(); ++i) {
    EXPECT_EQ(hops[i], expected_prefix[i]) << "hop " << i;
  }
}

TEST(PosQuery, UnknownObjectNotFound) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.pos_query(*qc, ObjectId{404});
  EXPECT_FALSE(res.found);
}

TEST(PosQuery, FindsObjectAfterHandover) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{4}, {100, 100}, 1.0, {10.0, 50.0});
  obj->feed_position({800, 800});  // handover to s7
  world.run();
  ASSERT_EQ(obj->agent(), NodeId{7});
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.pos_query(*qc, ObjectId{4});
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.ld.pos, (geo::Point{800, 800}));
}

TEST(PosQuery, AfterDeregistrationNotFound) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{5}, {100, 100});
  obj->deregister();
  world.run();
  auto qc = world.make_query_client(NodeId{7});
  const auto res = world.pos_query(*qc, ObjectId{5});
  EXPECT_FALSE(res.found);
}

TEST(PosQuery, ManyObjectsFromEveryEntry) {
  SimWorld world(core::HierarchyBuilder::grid(kArea, 2, 2, 2));
  Rng rng(5);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  std::vector<geo::Point> positions;
  for (std::uint64_t i = 1; i <= 60; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    positions.push_back(p);
    objs.push_back(world.register_object(ObjectId{i}, p));
  }
  for (const NodeId entry : world.deployment->leaf_ids()) {
    auto qc = world.make_query_client(entry);
    for (std::uint64_t i = 1; i <= 60; i += 7) {
      const auto res = world.pos_query(*qc, ObjectId{i});
      ASSERT_TRUE(res.found) << "entry " << entry.value << " object " << i;
      EXPECT_EQ(res.ld.pos, positions[i - 1]);
    }
  }
}

}  // namespace
}  // namespace locs::test

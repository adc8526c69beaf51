// Whole-system property suite: random hierarchies, random fleets moving for
// many steps; after every burst the forwarding-path invariant and full query
// semantics (vs oracles) must hold. This is the paper's architecture under
// churn.
#include <gtest/gtest.h>

#include "sim/mobility.hpp"
#include "test_support.hpp"

namespace locs::test {
namespace {

struct WorldShape {
  int fanout_x, fanout_y, levels;
};

class SystemChurnProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

const WorldShape kShapes[] = {{2, 2, 1}, {2, 2, 2}, {3, 2, 2}, {4, 4, 1}};
const geo::Rect kArea{{0, 0}, {2000, 2000}};

TEST_P(SystemChurnProperty, InvariantsHoldUnderChurn) {
  const WorldShape shape = kShapes[std::get<0>(GetParam())];
  const std::uint64_t seed = std::get<1>(GetParam());
  SimWorld world(
      core::HierarchyBuilder::grid(kArea, shape.fanout_x, shape.fanout_y, shape.levels));
  Rng rng(seed);

  constexpr std::uint64_t kObjects = 40;
  std::vector<std::unique_ptr<TrackedObject>> objs;
  std::vector<std::unique_ptr<sim::MobilityModel>> models;
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    const geo::Point start{rng.uniform(0, 2000), rng.uniform(0, 2000)};
    objs.push_back(world.register_object(ObjectId{i}, start, 1.0, {15.0, 60.0}));
    ASSERT_TRUE(objs.back()->tracked());
    models.push_back(
        sim::make_random_waypoint(kArea, start, 20.0, 120.0, seconds(2), rng));
  }

  for (int burst = 0; burst < 10; ++burst) {
    // Everyone moves for a few simulated seconds.
    for (int step = 0; step < 5; ++step) {
      for (std::uint64_t i = 0; i < kObjects; ++i) {
        objs[i]->feed_position(models[i]->step(seconds(2)));
      }
      world.run();
    }
    // Invariant 1: every object has exactly one agent whose area covers its
    // last reported position; the root knows every object.
    const auto& root = world.deployment->server(world.deployment->root());
    std::size_t tracked = 0;
    for (std::uint64_t i = 0; i < kObjects; ++i) {
      if (!objs[i]->tracked()) continue;  // may have walked out at the border
      ++tracked;
      ASSERT_NE(root.visitors().find(ObjectId{i + 1}), std::nullopt)
          << "burst " << burst << " object " << i + 1;
    }
    ASSERT_GT(tracked, kObjects / 2);  // waypoint model stays inside: all, usually

    // Invariant 2: exactly one leaf holds a sighting for each tracked object.
    std::unordered_map<std::uint64_t, int> sightings_count;
    for (const NodeId leaf : world.deployment->leaf_ids()) {
      const auto* db = world.deployment->server(leaf).sightings();
      for (std::uint64_t i = 1; i <= kObjects; ++i) {
        if (db->find(ObjectId{i}) != nullptr) ++sightings_count[i];
      }
    }
    for (std::uint64_t i = 0; i < kObjects; ++i) {
      if (!objs[i]->tracked()) continue;
      EXPECT_EQ(sightings_count[i + 1], 1) << "object " << i + 1;
    }

    // Invariant 3: position queries from a random entry agree with the
    // object's agent-side sighting.
    const auto leaves = world.deployment->leaf_ids();
    auto qc = world.make_query_client(leaves[rng.next_below(leaves.size())]);
    for (int probe = 0; probe < 5; ++probe) {
      const std::uint64_t oid = 1 + rng.next_below(kObjects);
      if (!objs[oid - 1]->tracked()) continue;
      const auto res = world.pos_query(*qc, ObjectId{oid});
      ASSERT_TRUE(res.found) << "object " << oid;
      const auto* rec =
          world.deployment->server(objs[oid - 1]->agent()).sightings()->find(ObjectId{oid});
      ASSERT_NE(rec, nullptr);
      EXPECT_EQ(res.ld.pos, rec->sighting.pos);
    }

    // Invariant 4: a random range query matches the oracle built from the
    // leaves' ground truth.
    std::vector<ObjectResult> truth;
    for (const NodeId leaf : world.deployment->leaf_ids()) {
      const auto& server = world.deployment->server(leaf);
      server.visitors().for_each([&](const store::VisitorRecord& rec) {
        if (!rec.leaf) return;
        const auto* srec = server.sightings()->find(rec.oid);
        if (srec != nullptr) {
          truth.push_back({rec.oid, {srec->sighting.pos, rec.leaf->offered_acc}});
        }
      });
    }
    const geo::Polygon area = geo::Polygon::from_rect(geo::Rect::from_center(
        {rng.uniform(0, 2000), rng.uniform(0, 2000)}, rng.uniform(100, 500),
        rng.uniform(100, 500)));
    const double req_acc = rng.uniform(15.0, 100.0);
    const double req_overlap = rng.uniform(0.1, 0.9);
    auto range = world.range_query(*qc, area, req_acc, req_overlap);
    EXPECT_TRUE(range.complete);
    EXPECT_EQ(sorted_ids(range.objects),
              sorted_ids(oracle_range(truth, area, req_acc, req_overlap)))
        << "burst " << burst;

    // Invariant 5: NN query matches the oracle.
    const geo::Point p{rng.uniform(0, 2000), rng.uniform(0, 2000)};
    const auto nn = world.nn_query(*qc, p, 60.0, 0.0);
    const auto expected = oracle_nearest(truth, p, 60.0);
    ASSERT_EQ(nn.found, expected.has_value());
    if (expected) {
      EXPECT_EQ(nn.nearest.oid, expected->oid) << "burst " << burst;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, SystemChurnProperty,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Values(101u, 202u)),
    [](const auto& info) {
      const WorldShape s = kShapes[std::get<0>(info.param)];
      return "f" + std::to_string(s.fanout_x) + "x" + std::to_string(s.fanout_y) +
             "l" + std::to_string(s.levels) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SystemChurn, MessageLossDegradesGracefully) {
  // 2% message loss: operations may time out but nothing crashes and the
  // system keeps answering queries.
  net::SimNetwork::Options net_opts;
  net_opts.loss_prob = 0.02;
  net_opts.seed = 4;
  core::LocationServer::Options opts;
  opts.pending_timeout = seconds(2);
  SimWorld world(core::HierarchyBuilder::grid(kArea, 2, 2, 2), opts, net_opts);
  Rng rng(5);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= 30; ++i) {
    auto obj = world.register_object(ObjectId{i},
                                     {rng.uniform(0, 2000), rng.uniform(0, 2000)},
                                     1.0, {15.0, 60.0});
    objs.push_back(std::move(obj));
  }
  for (int burst = 0; burst < 5; ++burst) {
    for (auto& obj : objs) {
      if (!obj->tracked()) continue;
      obj->feed_position({rng.uniform(0, 2000), rng.uniform(0, 2000)});
    }
    world.advance(seconds(5));
  }
  // The system still answers (found or not-found, but no deadlock).
  auto qc = world.make_query_client(world.deployment->leaf_ids().front());
  qc->send_pos_query(ObjectId{1});
  world.run();
  world.advance(seconds(10));
  SUCCEED();  // reaching here without assertion failures/hangs is the test
}

}  // namespace
}  // namespace locs::test

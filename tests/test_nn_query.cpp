// Nearest-neighbor queries: §3.2 semantics (accuracy filter, nearQual ring,
// the 2*reqAcc completeness guarantee) over the distributed expanding-ring
// implementation.
#include <gtest/gtest.h>

#include <limits>

#include "test_support.hpp"
#include "wire/messages.hpp"

namespace locs::test {
namespace {

const geo::Rect kArea{{0, 0}, {1000, 1000}};

TEST(NNQuery, FindsLocalNearest) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto o1 = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  auto o2 = world.register_object(ObjectId{2}, {150, 150}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.nn_query(*qc, {105, 105}, 50.0, 0.0);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.nearest.oid, ObjectId{1});
  EXPECT_TRUE(res.near_set.empty());  // nearQual = 0 => empty nearObjSet
}

TEST(NNQuery, FindsRemoteNearestAcrossLeaves) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  // Nearest to the probe point lives in a *different* leaf than the entry.
  auto far = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});   // s4
  auto near = world.register_object(ObjectId{2}, {510, 490}, 1.0, {10.0, 50.0});  // s6
  ASSERT_EQ(near->agent(), NodeId{6});
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.nn_query(*qc, {480, 480}, 50.0, 0.0);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.nearest.oid, ObjectId{2});
}

TEST(NNQuery, AccuracyFilterSkipsCoarseObjects) {
  // Fig 4: o3 not considered because of insufficient accuracy.
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto coarse = world.register_object(ObjectId{1}, {110, 100}, 1.0, {80.0, 200.0});
  auto fine = world.register_object(ObjectId{2}, {200, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.nn_query(*qc, {100, 100}, 20.0, 0.0);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.nearest.oid, ObjectId{2});  // nearest *qualifying* object
}

TEST(NNQuery, NearQualCollectsRing) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto o1 = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  auto o2 = world.register_object(ObjectId{2}, {140, 100}, 1.0, {10.0, 50.0});
  auto o3 = world.register_object(ObjectId{3}, {400, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  // d* = 10 (o1 at distance 10); nearQual = 50 admits o2 (distance 50) but
  // not o3 (distance 310).
  const auto res = world.nn_query(*qc, {90, 100}, 50.0, 50.0);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.nearest.oid, ObjectId{1});
  ASSERT_EQ(res.near_set.size(), 1u);
  EXPECT_EQ(res.near_set[0].oid, ObjectId{2});
}

TEST(NNQuery, TwoReqAccGuarantee) {
  // §3.2: with nearQual = 2*reqAcc every object that could potentially be
  // closer than the winner is guaranteed to be in nearObjSet.
  SimWorld world(core::HierarchyBuilder::grid(kArea, 2, 2, 2));
  Rng rng(42);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  const double req_acc = 30.0;
  for (std::uint64_t i = 1; i <= 80; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    objs.push_back(world.register_object(ObjectId{i}, p, 1.0, {25.0, 100.0}));
  }
  auto qc = world.make_query_client(world.deployment->leaf_ids().front());
  for (int q = 0; q < 8; ++q) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const auto res = world.nn_query(*qc, p, req_acc, 2.0 * req_acc);
    ASSERT_TRUE(res.found);
    const double d_star = geo::distance(res.nearest.ld.pos, p);
    // Any object whose location area could reach closer than the winner's
    // worst case must be listed.
    for (const auto& obj : objs) {
      const ObjectId oid = obj->oid();
      if (oid == res.nearest.oid) continue;
      // Find its true stored position.
      const auto* db = world.deployment->server(obj->agent()).sightings();
      const auto* rec = db->find(oid);
      ASSERT_NE(rec, nullptr);
      const double d = geo::distance(rec->sighting.pos, p);
      const bool could_be_closer = d - rec->offered_acc < d_star + res.nearest.ld.acc;
      if (could_be_closer && d <= d_star + 2.0 * req_acc) {
        const bool listed =
            std::any_of(res.near_set.begin(), res.near_set.end(),
                        [&](const ObjectResult& r) { return r.oid == oid; });
        EXPECT_TRUE(listed) << "object " << oid.value << " at distance " << d
                            << " missing (d* = " << d_star << ")";
      }
    }
  }
}

TEST(NNQuery, ProbeRepliesCarryOnlyAnswerCandidates) {
  // The entry leaf's own nearest object seeds the first ring, so a query
  // point in the diagonal leaf gets a disk hundreds of metres wide. Each
  // leaf must still send only its objects within near_qual of its own
  // nearest qualifying one, and the answer must not change.
  SimWorld world(core::HierarchyBuilder::grid(kArea, 2, 2, 1));
  Rng rng(2024);
  std::vector<ObjectResult> truth;
  std::vector<NodeId> agent;  // indexed like truth
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    objs.push_back(world.register_object(ObjectId{i}, p, 1.0,
                                         {rng.uniform(5.0, 80.0), 100.0}));
    truth.push_back({ObjectId{i}, {p, objs.back()->offered_acc()}});
    agent.push_back(objs.back()->agent());
  }
  const NodeId entry = world.deployment->entry_leaf_for({250, 250});
  const geo::Point p{720, 660};
  ASSERT_NE(world.deployment->entry_leaf_for(p), entry);
  const double req_acc = 50.0;

  struct Reply {
    NodeId leaf;
    std::vector<ObjectResult> items;
  };
  std::vector<Reply> replies;
  world.net.set_tracer([&](TimePoint, NodeId from, NodeId, const wire::Buffer& b) {
    const wire::SubResView view(b.data(), b.size());
    if (!view.valid() || view.type() != wire::MsgType::kNNProbeSubRes) return;
    Reply r{from, {}};
    auto items = view.items();
    while (const auto item = items.next()) r.items.push_back(item->value);
    replies.push_back(std::move(r));
  });

  auto qc = world.make_query_client(entry);
  for (const double near_qual : {0.0, 50.0}) {
    replies.clear();
    const auto res = world.nn_query(*qc, p, req_acc, near_qual);
    const auto expected = oracle_nn(truth, p, req_acc, near_qual);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.nearest, expected.nearest);
    EXPECT_EQ(res.near_set, expected.near_set);

    std::size_t carried = 0;
    for (const Reply& r : replies) {
      // b: the replying leaf's own nearest qualifying object.
      double b = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < truth.size(); ++i) {
        if (agent[i] != r.leaf || truth[i].ld.acc > req_acc) continue;
        b = std::min(b, geo::distance(truth[i].ld.pos, p));
      }
      const double bound = (b + near_qual) * (1 + 1e-9) + 1e-9;
      for (const ObjectResult& o : r.items) {
        EXPECT_LE(geo::distance(o.ld.pos, p), bound)
            << "leaf " << r.leaf.value << " sent object " << o.oid.value
            << " at nearQual " << near_qual;
      }
      carried += r.items.size();
    }
    EXPECT_GT(carried, 0u) << "no probe reply carried a candidate";
  }
}

class NNOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NNOracle, MatchesBruteForce) {
  // The whole answer -- found, nearest and the ordered nearObjSet -- must
  // equal the brute-force one from every entry leaf, with ties planted at
  // duplicate positions, on the shared leaf edges and across leaf corners.
  SimWorld world(core::HierarchyBuilder::grid(kArea, 3, 3, 1));
  Rng rng(GetParam() * 7907);
  std::vector<ObjectResult> truth;
  std::vector<std::unique_ptr<TrackedObject>> objs;
  const auto add = [&](geo::Point p, double desired) {
    const ObjectId oid{truth.size() + 1};
    objs.push_back(world.register_object(oid, p, 1.0, {desired, 100.0}));
    truth.push_back({oid, {p, objs.back()->offered_acc()}});
  };
  for (int i = 0; i < 100; ++i) {
    add({rng.uniform(0, 1000), rng.uniform(0, 1000)}, rng.uniform(5.0, 50.0));
  }
  for (int i = 0; i < 10; ++i) {
    add(truth[rng.next_below(100)].ld.pos, rng.uniform(5.0, 50.0));
  }
  const double edge = kArea.width() / 3;  // the grid's first column/row boundary
  for (int i = 0; i < 10; ++i) {
    add({edge, rng.uniform(0, 1000)}, rng.uniform(5.0, 50.0));
    add({rng.uniform(0, 1000), 2 * edge}, rng.uniform(5.0, 50.0));
  }
  // Four objects equidistant from each of two points near a leaf corner,
  // one in each of the four leaves that meet there.
  const geo::Point corners[] = {{335, 335}, {665, 665}};
  for (const geo::Point c : corners) {
    for (const double dx : {-5.0, 5.0}) {
      for (const double dy : {-5.0, 5.0}) add({c.x + dx, c.y + dy}, 10.0);
    }
  }

  std::vector<std::unique_ptr<QueryClient>> clients;
  for (const NodeId leaf : world.deployment->leaf_ids()) {
    clients.push_back(world.make_query_client(leaf));
  }
  std::vector<geo::Point> probes = {corners[0], corners[1], {edge, 500}};
  for (int q = 0; q < 10; ++q) {
    probes.push_back({rng.uniform(-100, 1100), rng.uniform(-100, 1100)});
  }
  for (const geo::Point p : probes) {
    const double req_acc = rng.uniform(10.0, 60.0);
    for (const double near_qual : {0.0, req_acc, 2.0 * req_acc, 400.0}) {
      const auto expected = oracle_nn(truth, p, req_acc, near_qual);
      for (const auto& qc : clients) {
        SCOPED_TRACE(::testing::Message()
                     << "probe (" << p.x << "," << p.y << ") reqAcc " << req_acc
                     << " nearQual " << near_qual << " entry " << qc->entry().value);
        const auto res = world.nn_query(*qc, p, req_acc, near_qual);
        ASSERT_EQ(res.found, expected.found);
        EXPECT_EQ(res.nearest, expected.nearest);
        EXPECT_EQ(res.near_set, expected.near_set);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NNOracle, ::testing::Values(1, 2, 3, 4));

TEST(NNQuery, EmptyDatabaseNotFound) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.nn_query(*qc, {500, 500}, 50.0, 10.0);
  EXPECT_FALSE(res.found);
}

TEST(NNQuery, NoQualifyingAccuracyNotFound) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto coarse = world.register_object(ObjectId{1}, {500, 400}, 1.0, {90.0, 200.0});
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.nn_query(*qc, {500, 500}, 20.0, 0.0);
  EXPECT_FALSE(res.found);
}

TEST(NNQuery, NearSetSortedByDistance) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto o1 = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  auto o2 = world.register_object(ObjectId{2}, {160, 100}, 1.0, {10.0, 50.0});
  auto o3 = world.register_object(ObjectId{3}, {130, 100}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  const auto res = world.nn_query(*qc, {95, 100}, 50.0, 100.0);
  ASSERT_TRUE(res.found);
  ASSERT_EQ(res.near_set.size(), 2u);
  EXPECT_EQ(res.near_set[0].oid, ObjectId{3});
  EXPECT_EQ(res.near_set[1].oid, ObjectId{2});
}

}  // namespace
}  // namespace locs::test

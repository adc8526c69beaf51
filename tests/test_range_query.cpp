// Algorithm 6-5: distributed range queries, validated against the §3.2
// semantics oracle. Includes the Fig 6 multi-leaf scenario and the
// Enlarge() margin correctness at leaf boundaries.
#include <gtest/gtest.h>

#include "test_support.hpp"

namespace locs::test {
namespace {

const geo::Rect kArea{{0, 0}, {1000, 1000}};

std::vector<ObjectResult> all_objects(SimWorld& world) {
  return leaf_visitors(*world.deployment);
}

TEST(RangeQuery, SingleLeafLocal) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto o1 = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  auto o2 = world.register_object(ObjectId{2}, {200, 200}, 1.0, {10.0, 50.0});
  auto o3 = world.register_object(ObjectId{3}, {900, 900}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  const geo::Polygon area =
      geo::Polygon::from_rect(geo::Rect{{50, 50}, {250, 250}});
  const auto res = world.range_query(*qc, area, 25.0, 0.5);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(sorted_ids(res.objects), (std::vector<ObjectId>{ObjectId{1}, ObjectId{2}}));
}

TEST(RangeQuery, Fig6MultiLeafScenario) {
  // Fig 6 (range query): issued at s4, the area overlaps s6 and s7; both
  // leaves report to s4, which assembles the answer.
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto o1 = world.register_object(ObjectId{1}, {700, 300}, 1.0, {10.0, 50.0});  // s6
  auto o2 = world.register_object(ObjectId{2}, {700, 700}, 1.0, {10.0, 50.0});  // s7
  auto o3 = world.register_object(ObjectId{3}, {100, 100}, 1.0, {10.0, 50.0});  // s4
  ASSERT_EQ(o1->agent(), NodeId{6});
  ASSERT_EQ(o2->agent(), NodeId{7});
  auto qc = world.make_query_client(NodeId{4});
  // Vertical strip in the right half, straddling the s6/s7 boundary.
  const geo::Polygon area =
      geo::Polygon::from_rect(geo::Rect{{650, 250}, {750, 750}});
  const auto res = world.range_query(*qc, area, 25.0, 0.5);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(sorted_ids(res.objects), (std::vector<ObjectId>{ObjectId{1}, ObjectId{2}}));
  EXPECT_EQ(world.deployment->server(NodeId{6}).stats().range_sub_answered, 1u);
  EXPECT_EQ(world.deployment->server(NodeId{7}).stats().range_sub_answered, 1u);
}

TEST(RangeQuery, BoundaryObjectFoundViaEnlargeMargin) {
  // Object's stored position is just inside s6, but its location circle
  // overlaps an area that lies entirely within s7. Only the Enlarge(area,
  // reqAcc) margin routes the query to s6 (§6.4).
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  // s6/s7 boundary is y = 500 on the right half.
  auto obj = world.register_object(ObjectId{1}, {700, 495}, 1.0, {20.0, 50.0});
  ASSERT_EQ(obj->agent(), NodeId{6});
  auto qc = world.make_query_client(NodeId{7});
  // Query area entirely inside s7 (y >= 505), overlapping the circle.
  const geo::Polygon area =
      geo::Polygon::from_rect(geo::Rect{{650, 505}, {750, 560}});
  // Overlap(area, o): circle (700,495) r=20 intersects y>=505 strip.
  const double overlap = geo::overlap_degree(area, {{700, 495}, 20.0});
  ASSERT_GT(overlap, 0.1);
  const auto res = world.range_query(*qc, area, 20.0, 0.1);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(sorted_ids(res.objects), (std::vector<ObjectId>{ObjectId{1}}));
}

TEST(RangeQuery, AccuracyFilterExcludesCoarseObjects) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto fine = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  auto coarse = world.register_object(ObjectId{2}, {110, 110}, 1.0, {45.0, 200.0});
  ASSERT_DOUBLE_EQ(coarse->offered_acc(), 45.0);
  auto qc = world.make_query_client(NodeId{4});
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {250, 250}});
  // reqAcc = 20: object 2's accuracy (45) is insufficient (Fig 3, o5).
  const auto res = world.range_query(*qc, area, 20.0, 0.5);
  EXPECT_EQ(sorted_ids(res.objects), (std::vector<ObjectId>{ObjectId{1}}));
  // Relaxing reqAcc admits it.
  const auto res2 = world.range_query(*qc, area, 50.0, 0.5);
  EXPECT_EQ(sorted_ids(res2.objects),
            (std::vector<ObjectId>{ObjectId{1}, ObjectId{2}}));
}

TEST(RangeQuery, QueryPartiallyOutsideServiceArea) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{1}, {50, 50}, 1.0, {10.0, 50.0});
  auto qc = world.make_query_client(NodeId{4});
  // Half the query hangs outside the root service area: the root's
  // outside-credit must still let the query complete.
  const geo::Polygon area =
      geo::Polygon::from_rect(geo::Rect{{-200, -200}, {100, 100}});
  const auto res = world.range_query(*qc, area, 25.0, 0.3);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(sorted_ids(res.objects), (std::vector<ObjectId>{ObjectId{1}}));
}

TEST(RangeQuery, NonConvexQueryPolygon) {
  SimWorld world(core::HierarchyBuilder::grid(kArea, 2, 2, 1));
  auto o1 = world.register_object(ObjectId{1}, {100, 100}, 1.0, {5.0, 50.0});
  auto o2 = world.register_object(ObjectId{2}, {300, 300}, 1.0, {5.0, 50.0});
  auto o3 = world.register_object(ObjectId{3}, {100, 300}, 1.0, {5.0, 50.0});
  auto qc = world.make_query_client(world.deployment->leaf_ids().front());
  // L-shaped query covering (100,100) and (300,300) arms but not (100,300).
  const geo::Polygon area({{50, 50},
                           {350, 50},
                           {350, 350},
                           {250, 350},
                           {250, 150},
                           {50, 150}});
  ASSERT_TRUE(area.contains({100, 100}));
  ASSERT_TRUE(area.contains({300, 300}));
  ASSERT_FALSE(area.contains({100, 300}));
  const auto res = world.range_query(*qc, area, 10.0, 0.9);
  EXPECT_EQ(sorted_ids(res.objects), (std::vector<ObjectId>{ObjectId{1}, ObjectId{2}}));
}

class RangeQueryOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeQueryOracle, MatchesBruteForceSemantics) {
  SimWorld world(core::HierarchyBuilder::grid(kArea, 2, 2, 2));
  Rng rng(GetParam() * 104729);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= 120; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const double desired = rng.uniform(5.0, 60.0);
    objs.push_back(world.register_object(ObjectId{i}, p, 1.0, {desired, 200.0}));
    ASSERT_TRUE(objs.back()->tracked());
  }
  const auto truth = all_objects(world);
  ASSERT_EQ(truth.size(), 120u);

  for (int q = 0; q < 12; ++q) {
    const geo::Point c{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    const geo::Polygon area = geo::Polygon::from_rect(
        geo::Rect::from_center(c, rng.uniform(30, 250), rng.uniform(30, 250)));
    const double req_acc = rng.uniform(10.0, 80.0);
    const double req_overlap = rng.uniform(0.05, 0.95);
    const NodeId entry =
        world.deployment->leaf_ids()[rng.next_below(world.deployment->leaf_ids().size())];
    auto qc = world.make_query_client(entry);
    auto res = world.range_query(*qc, area, req_acc, req_overlap);
    EXPECT_TRUE(res.complete);
    const auto expected = oracle_range(truth, area, req_acc, req_overlap);
    EXPECT_EQ(sorted_ids(res.objects), sorted_ids(expected))
        << "query " << q << " entry " << entry.value << " reqAcc " << req_acc
        << " reqOverlap " << req_overlap;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeQueryOracle, ::testing::Values(1, 2, 3, 4, 5));

TEST(RangeQuery, EmptyResultIsCompleteNotTimeout) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto qc = world.make_query_client(NodeId{4});
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{400, 400}, {600, 600}});
  const auto res = world.range_query(*qc, area, 25.0, 0.5);
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.objects.empty());
}

TEST(RangeQuery, TimeoutDeliversPartialWhenLeafUnreachable) {
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto o1 = world.register_object(ObjectId{1}, {700, 300}, 1.0, {10.0, 50.0});  // s6
  auto o2 = world.register_object(ObjectId{2}, {700, 700}, 1.0, {10.0, 50.0});  // s7
  // Partition s7: its sub-results never arrive.
  world.net.set_drop_fn([](NodeId from, NodeId) { return from == NodeId{7}; });
  auto qc = world.make_query_client(NodeId{4});
  const std::uint64_t id = qc->send_range_query(
      geo::Polygon::from_rect(geo::Rect{{650, 250}, {750, 750}}), 25.0, 0.5);
  world.run();
  EXPECT_FALSE(qc->take_range(id).has_value());  // still pending
  world.advance(seconds(30));                    // pending sweep fires
  auto res = qc->take_range(id);
  ASSERT_TRUE(res.has_value());
  EXPECT_FALSE(res->complete);
  EXPECT_EQ(sorted_ids(res->objects), (std::vector<ObjectId>{ObjectId{1}}));
}

}  // namespace
}  // namespace locs::test

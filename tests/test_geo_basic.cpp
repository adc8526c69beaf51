#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geo/point.hpp"
#include "geo/polygon.hpp"
#include "geo/rect.hpp"
#include "util/rng.hpp"

namespace locs::geo {
namespace {

TEST(Point, Arithmetic) {
  const Point a{1, 2}, b{3, -1};
  EXPECT_EQ((a + b), (Point{4, 1}));
  EXPECT_EQ((a - b), (Point{-2, 3}));
  EXPECT_EQ((a * 2.0), (Point{2, 4}));
  EXPECT_DOUBLE_EQ(dot(a, b), 1.0);
  EXPECT_DOUBLE_EQ(cross(a, b), -7.0);
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
}

TEST(Point, NormalizedAndPerp) {
  EXPECT_DOUBLE_EQ(norm(normalized({10, 0})), 1.0);
  EXPECT_EQ(normalized({0, 0}), (Point{0, 0}));
  EXPECT_EQ(perp({1, 0}), (Point{0, 1}));  // +90 degrees
}

TEST(Rect, ContainsAndIntersects) {
  const Rect r{{0, 0}, {10, 5}};
  EXPECT_TRUE(r.contains(Point{5, 2.5}));
  EXPECT_TRUE(r.contains(Point{0, 0}));  // boundary inclusive
  EXPECT_TRUE(r.contains(Point{10, 5}));
  EXPECT_FALSE(r.contains(Point{10.1, 5}));
  EXPECT_TRUE(r.intersects(Rect{{9, 4}, {12, 8}}));
  EXPECT_FALSE(r.intersects(Rect{{11, 0}, {12, 1}}));
  EXPECT_DOUBLE_EQ(r.area(), 50.0);
}

TEST(Rect, IntersectionAndInflate) {
  const Rect a{{0, 0}, {10, 10}};
  const Rect b{{5, 5}, {15, 15}};
  const Rect i = a.intersection(b);
  EXPECT_DOUBLE_EQ(i.area(), 25.0);
  EXPECT_TRUE(a.inflated(2.0).contains(Point{-2, -2}));
  EXPECT_TRUE(a.intersection(Rect{{20, 20}, {30, 30}}).is_empty());
}

TEST(Rect, DistanceToPoint) {
  const Rect r{{0, 0}, {10, 10}};
  EXPECT_DOUBLE_EQ(r.distance2_to({5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(r.distance2_to({13, 14}), 9.0 + 16.0);
}

TEST(Rect, ExtendGrows) {
  Rect r = Rect::empty();
  EXPECT_TRUE(r.is_empty());
  r.extend(Point{2, 3});
  r.extend(Point{-1, 5});
  EXPECT_FALSE(r.is_empty());
  EXPECT_EQ(r.min, (Point{-1, 3}));
  EXPECT_EQ(r.max, (Point{2, 5}));
}

TEST(Polygon, NormalizesToCcwAndArea) {
  // Clockwise square input must be normalized to CCW with positive area.
  Polygon p({{0, 0}, {0, 4}, {4, 4}, {4, 0}});
  EXPECT_GT(signed_area(p.vertices()), 0.0);
  EXPECT_DOUBLE_EQ(p.area(), 16.0);
}

TEST(Polygon, ContainsPoint) {
  const Polygon p = Polygon::from_rect(Rect{{0, 0}, {10, 10}});
  EXPECT_TRUE(p.contains({5, 5}));
  EXPECT_TRUE(p.contains({0, 5}));   // boundary
  EXPECT_TRUE(p.contains({10, 10}));  // corner
  EXPECT_FALSE(p.contains({10.5, 5}));
  EXPECT_FALSE(p.contains({-0.5, 5}));
}

TEST(Polygon, NonConvexContains) {
  // L-shaped polygon.
  Polygon l({{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}});
  EXPECT_TRUE(l.contains({1, 3}));
  EXPECT_TRUE(l.contains({3, 1}));
  EXPECT_FALSE(l.contains({3, 3}));  // the notch
  EXPECT_FALSE(l.is_convex());
  EXPECT_DOUBLE_EQ(l.area(), 12.0);
}

TEST(Polygon, RectangleContainsMatchesTheGeneralPath) {
  // An axis-aligned rectangle answers contains() with its closed bounding
  // box. The same region with a fifth, collinear vertex takes the general
  // path (edge distances, then a ray cast); both must give every answer
  // alike, boundary and near-boundary points included.
  Rng rng(29);
  const auto mid = [](Point a, Point b) { return Point{(a.x + b.x) / 2, (a.y + b.y) / 2}; };
  for (int iter = 0; iter < 300; ++iter) {
    const Point lo{rng.uniform(-1000, 1000), rng.uniform(-1000, 1000)};
    const double w = iter == 0 ? 0.0 : rng.uniform(1e-3, 500);
    const double h = rng.uniform(1e-3, 500);
    std::vector<Point> ring = Polygon::from_rect(Rect{lo, {lo.x + w, lo.y + h}}).vertices();
    if (iter % 2 == 1) std::reverse(ring.begin(), ring.end());  // clockwise
    std::vector<Point> five = ring;
    five.insert(five.begin() + 1, mid(ring[0], ring[1]));
    const Polygon rect(ring);
    const Polygon general(std::move(five));
    ASSERT_EQ(rect.bounding_box().min, general.bounding_box().min);
    ASSERT_EQ(rect.bounding_box().max, general.bounding_box().max);

    std::vector<Point> probes;
    const Rect box = rect.bounding_box();
    for (int i = 0; i < 50; ++i) {
      probes.push_back({rng.uniform(box.min.x - 0.1 * w - 1, box.max.x + 0.1 * w + 1),
                        rng.uniform(box.min.y - 0.1 * h - 1, box.max.y + 0.1 * h + 1)});
    }
    const std::vector<Point>& v = rect.vertices();
    for (std::size_t i = 0; i < v.size(); ++i) {
      const Point a = v[i];
      const Point b = v[(i + 1) % v.size()];
      probes.push_back(a);
      probes.push_back(mid(a, b));
      // 1e-12 to either side of the edge, at a random point along it.
      const double t = rng.next_double();
      const Point on{a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t};
      const bool vertical = a.x == b.x;
      for (const double d : {-1e-12, 1e-12}) {
        probes.push_back(vertical ? Point{on.x + d, on.y} : Point{on.x, on.y + d});
      }
    }
    for (const Point p : probes) {
      EXPECT_EQ(rect.contains(p), general.contains(p))
          << "iter " << iter << " at (" << p.x << ", " << p.y << ")";
    }
    EXPECT_TRUE(rect.contains(box.min));
    EXPECT_TRUE(rect.contains(box.max));
  }

  // Horizontal and vertical edges alone do not make a rectangle: this ring
  // doubles back on itself and encloses nothing.
  const Polygon folded({{0, 0}, {1, 0}, {1, 1}, {1, 0}});
  EXPECT_FALSE(folded.contains({0.5, 0.5}));
  EXPECT_TRUE(folded.contains({1, 0.5}));
  EXPECT_TRUE(folded.contains({0.5, 0}));
}

TEST(Polygon, ConvexityCheck) {
  EXPECT_TRUE(Polygon::from_rect(Rect{{0, 0}, {1, 1}}).is_convex());
  EXPECT_TRUE(Polygon({{0, 0}, {4, 0}, {2, 3}}).is_convex());
}

TEST(Polygon, DistanceToPoint) {
  const Polygon p = Polygon::from_rect(Rect{{0, 0}, {10, 10}});
  EXPECT_DOUBLE_EQ(p.distance_to({5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(p.distance_to({13, 10}), 3.0);
  EXPECT_NEAR(p.distance_to({13, 14}), 5.0, 1e-12);
}

TEST(Polygon, IntersectsOverlappingAndDisjoint) {
  const Polygon a = Polygon::from_rect(Rect{{0, 0}, {10, 10}});
  const Polygon b = Polygon::from_rect(Rect{{5, 5}, {15, 15}});
  const Polygon c = Polygon::from_rect(Rect{{20, 20}, {30, 30}});
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  // Containment counts as intersection.
  const Polygon inner = Polygon::from_rect(Rect{{4, 4}, {6, 6}});
  EXPECT_TRUE(a.intersects(inner));
  EXPECT_TRUE(inner.intersects(a));
}

TEST(Polygon, IntersectsEdgeCrossOnly) {
  // A diagonal sliver crossing the square without containing any vertex of it.
  const Polygon a = Polygon::from_rect(Rect{{0, 0}, {10, 10}});
  const Polygon sliver({{-1, 4.9}, {11, 4.9}, {11, 5.1}, {-1, 5.1}});
  EXPECT_TRUE(a.intersects(sliver));
}

TEST(Polygon, CircumscribedCircleContainsDisk) {
  const Point c{3, 4};
  const double r = 10.0;
  const Polygon poly = Polygon::circumscribed_circle(c, r, 16);
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double ang = rng.uniform(0, 2 * M_PI);
    const Point on_circle{c.x + r * std::cos(ang), c.y + r * std::sin(ang)};
    EXPECT_TRUE(poly.contains(on_circle)) << "angle " << ang;
  }
  // Polygon area slightly exceeds the disk area.
  EXPECT_GT(poly.area(), M_PI * r * r);
  EXPECT_LT(poly.area(), M_PI * r * r * 1.11);
}

TEST(Polygon, ConvexHull) {
  const Polygon hull = convex_hull({{0, 0}, {4, 0}, {4, 4}, {0, 4}, {2, 2}, {1, 1}});
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_DOUBLE_EQ(hull.area(), 16.0);
  EXPECT_TRUE(hull.is_convex());
}

}  // namespace
}  // namespace locs::geo

// Simple polygons -- the paper's geographic areas ("an arbitrary connected
// polygon given by the geographic coordinates of its corners", §3.2).
//
// Conventions: vertices are stored counter-clockwise (the constructor
// reverses clockwise input); polygons are simple (non-self-intersecting). Service areas produced
// by the hierarchy builder are convex (rectangles); query areas may be any
// simple polygon.
#pragma once

#include <vector>

#include "geo/point.hpp"
#include "geo/rect.hpp"

namespace locs::geo {

class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(std::vector<Point> vertices);

  static Polygon from_rect(const Rect& r);

  /// Regular n-gon circumscribed about the circle (center, radius): contains
  /// the full disk. Used to turn circular probe areas into polygons.
  static Polygon circumscribed_circle(Point center, double radius, int sides = 32);

  const std::vector<Point>& vertices() const { return vertices_; }
  std::size_t size() const { return vertices_.size(); }

  /// Steals the vertex vector (leaves the polygon empty). Lets decoders
  /// recycle the vector's capacity: take, refill, reconstruct.
  std::vector<Point> take_vertices() {
    bbox_ = Rect::empty();
    rect_ = false;
    return std::move(vertices_);
  }
  bool empty() const { return vertices_.size() < 3; }

  /// Positive area (vertices are kept CCW).
  double area() const;

  /// Axis-aligned bounding box (cached).
  const Rect& bounding_box() const { return bbox_; }

  /// Point-in-polygon by the crossing-number rule; boundary points count as
  /// inside (needed so that sibling service areas tile their parent without
  /// gaps). An axis-aligned rectangle (every service area the hierarchy
  /// builder makes) is its own bounding box, so for one the closed box test
  /// is the whole answer, the same answer the general path gives.
  bool contains(Point p) const;

  bool is_convex() const;

  /// Euclidean distance from p to the polygon (0 if inside).
  double distance_to(Point p) const;

  /// True iff the polygon's bounding boxes overlap AND some vertex / edge
  /// evidence of real intersection exists. Exact for convex `other`.
  bool intersects(const Polygon& other) const;

 private:
  std::vector<Point> vertices_;
  Rect bbox_ = Rect::empty();
  bool rect_ = false;  // an axis-aligned rectangle: contains() is bbox_'s test
};

/// Signed area of the polygon ring (positive if CCW).
double signed_area(const std::vector<Point>& ring);

/// Clips `subject` (any simple polygon) against a *convex* `clip` polygon
/// (Sutherland-Hodgman). Returns the clipped ring; may be empty.
Polygon clip_convex(const Polygon& subject, const Polygon& clip);

/// Area of subject ∩ clip, exact for convex `clip` (the shape of all service
/// areas). Used for the `covered` bookkeeping of Algorithm 6-5.
double intersection_area(const Polygon& subject, const Polygon& convex_clip);

/// True iff every point of `inner` lies within convex polygon `outer`
/// (vertex containment suffices for convex outer).
/// Implements the paper's test "Enlarge(area, reqAcc) - c.sa = empty".
bool convex_contains_polygon(const Polygon& convex_outer, const Polygon& inner);

/// Convex hull (Andrew monotone chain), CCW.
Polygon convex_hull(std::vector<Point> points);

/// The paper's Enlarge(area, margin): a polygon guaranteed to contain every
/// point within `margin` of `area` (conservative Minkowski-sum superset,
/// implemented as a mitre offset of the convex hull). Enlarging can only add
/// candidate servers to a range query, never lose one.
Polygon enlarge(const Polygon& area, double margin);

}  // namespace locs::geo

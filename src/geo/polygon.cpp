#include "geo/polygon.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace locs::geo {

namespace {
constexpr double kEps = 1e-9;

double point_segment_distance2(Point p, Point a, Point b) {
  const Point ab = b - a;
  const double len2 = norm2(ab);
  if (len2 <= 0.0) return distance2(p, a);
  double t = dot(p - a, ab) / len2;
  t = std::clamp(t, 0.0, 1.0);
  return distance2(p, a + ab * t);
}

bool segments_intersect(Point a, Point b, Point c, Point d) {
  const auto orient = [](Point p, Point q, Point r) {
    const double v = cross(q - p, r - p);
    if (v > kEps) return 1;
    if (v < -kEps) return -1;
    return 0;
  };
  const int o1 = orient(a, b, c);
  const int o2 = orient(a, b, d);
  const int o3 = orient(c, d, a);
  const int o4 = orient(c, d, b);
  if (o1 != o2 && o3 != o4) return true;
  const auto on_segment = [](Point p, Point q, Point r) {
    return std::min(p.x, q.x) - kEps <= r.x && r.x <= std::max(p.x, q.x) + kEps &&
           std::min(p.y, q.y) - kEps <= r.y && r.y <= std::max(p.y, q.y) + kEps;
  };
  if (o1 == 0 && on_segment(a, b, c)) return true;
  if (o2 == 0 && on_segment(a, b, d)) return true;
  if (o3 == 0 && on_segment(c, d, a)) return true;
  if (o4 == 0 && on_segment(c, d, b)) return true;
  return false;
}

// Four vertices whose edges alternate between horizontal and vertical: the
// ring is the boundary of its bounding box (a segment or a point if the box
// is degenerate). Horizontal or vertical edges alone are not enough:
// (0,0) (1,0) (1,1) (1,0) doubles back and encloses nothing.
bool is_axis_aligned_rect(const std::vector<Point>& v) {
  if (v.size() != 4) return false;
  return (v[0].y == v[1].y && v[1].x == v[2].x && v[2].y == v[3].y &&
          v[3].x == v[0].x) ||
         (v[0].x == v[1].x && v[1].y == v[2].y && v[2].x == v[3].x &&
          v[3].y == v[0].y);
}

}  // namespace

double signed_area(const std::vector<Point>& ring) {
  double sum = 0.0;
  const std::size_t n = ring.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& p = ring[i];
    const Point& q = ring[(i + 1) % n];
    sum += cross(p, q);
  }
  return sum / 2.0;
}

Polygon::Polygon(std::vector<Point> vertices) : vertices_(std::move(vertices)) {
  if (vertices_.size() >= 3 && signed_area(vertices_) < 0.0) {
    std::reverse(vertices_.begin(), vertices_.end());
  }
  for (const Point& p : vertices_) bbox_.extend(p);
  rect_ = is_axis_aligned_rect(vertices_);
}

Polygon Polygon::from_rect(const Rect& r) {
  return Polygon({{r.min.x, r.min.y},
                  {r.max.x, r.min.y},
                  {r.max.x, r.max.y},
                  {r.min.x, r.max.y}});
}

Polygon Polygon::circumscribed_circle(Point center, double radius, int sides) {
  assert(sides >= 3);
  // Scale so that the polygon's inscribed circle has the requested radius:
  // vertices lie at radius / cos(pi/n).
  const double scale = radius / std::cos(M_PI / sides);
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(sides));
  for (int i = 0; i < sides; ++i) {
    const double ang = 2.0 * M_PI * i / sides;
    pts.push_back({center.x + scale * std::cos(ang), center.y + scale * std::sin(ang)});
  }
  return Polygon(std::move(pts));
}

double Polygon::area() const {
  if (empty()) return 0.0;
  return std::abs(signed_area(vertices_));
}

bool Polygon::contains(Point p) const {
  if (empty() || !bbox_.contains(p)) return false;
  if (rect_) return true;
  // Boundary counts as inside.
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (point_segment_distance2(p, vertices_[i], vertices_[(i + 1) % n]) <
        kEps * kEps) {
      return true;
    }
  }
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

bool Polygon::is_convex() const {
  if (empty()) return false;
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& a = vertices_[i];
    const Point& b = vertices_[(i + 1) % n];
    const Point& c = vertices_[(i + 2) % n];
    if (cross(b - a, c - b) < -kEps) return false;  // CCW => all turns left
  }
  return true;
}

double Polygon::distance_to(Point p) const {
  if (empty()) return 0.0;
  if (contains(p)) return 0.0;
  double best = std::numeric_limits<double>::max();
  const std::size_t n = vertices_.size();
  for (std::size_t i = 0; i < n; ++i) {
    best = std::min(best,
                    point_segment_distance2(p, vertices_[i], vertices_[(i + 1) % n]));
  }
  return std::sqrt(best);
}

bool Polygon::intersects(const Polygon& other) const {
  if (empty() || other.empty()) return false;
  if (!bbox_.intersects(other.bbox_)) return false;
  // Vertex containment either way.
  for (const Point& p : other.vertices_) {
    if (contains(p)) return true;
  }
  for (const Point& p : vertices_) {
    if (other.contains(p)) return true;
  }
  // Edge crossings.
  const std::size_t n = vertices_.size();
  const std::size_t m = other.vertices_.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (segments_intersect(vertices_[i], vertices_[(i + 1) % n],
                             other.vertices_[j], other.vertices_[(j + 1) % m])) {
        return true;
      }
    }
  }
  return false;
}

Polygon clip_convex(const Polygon& subject, const Polygon& clip) {
  if (subject.empty() || clip.empty()) return Polygon{};
  assert(clip.is_convex() && "clip_convex requires a convex clip polygon");
  std::vector<Point> output(subject.vertices().begin(), subject.vertices().end());
  const auto& cv = clip.vertices();
  const std::size_t cn = cv.size();
  for (std::size_t ci = 0; ci < cn && !output.empty(); ++ci) {
    const Point a = cv[ci];
    const Point b = cv[(ci + 1) % cn];
    // Inside = left of edge a->b (clip is CCW).
    const auto inside = [&](Point p) { return cross(b - a, p - a) >= -kEps; };
    const auto intersect = [&](Point p, Point q) {
      const Point dir = q - p;
      const double denom = cross(b - a, dir);
      // Parallel edge: fall back to endpoint (degenerate, area impact ~0).
      if (std::abs(denom) < 1e-30) return p;
      const double t = cross(b - a, a - p) / denom;
      return p + dir * t;
    };
    std::vector<Point> input;
    input.swap(output);
    const std::size_t in_n = input.size();
    for (std::size_t i = 0; i < in_n; ++i) {
      const Point cur = input[i];
      const Point prev = input[(i + in_n - 1) % in_n];
      const bool cur_in = inside(cur);
      const bool prev_in = inside(prev);
      if (cur_in) {
        if (!prev_in) output.push_back(intersect(prev, cur));
        output.push_back(cur);
      } else if (prev_in) {
        output.push_back(intersect(prev, cur));
      }
    }
  }
  if (output.size() < 3) return Polygon{};
  return Polygon(std::move(output));
}

double intersection_area(const Polygon& subject, const Polygon& convex_clip) {
  return clip_convex(subject, convex_clip).area();
}

bool convex_contains_polygon(const Polygon& convex_outer, const Polygon& inner) {
  if (inner.empty()) return true;
  if (convex_outer.empty()) return false;
  for (const Point& p : inner.vertices()) {
    if (!convex_outer.contains(p)) return false;
  }
  return true;
}

Polygon convex_hull(std::vector<Point> points) {
  if (points.size() < 3) return Polygon{};
  std::sort(points.begin(), points.end(), [](Point a, Point b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const std::size_t n = points.size();
  if (n < 3) return Polygon{};
  std::vector<Point> hull(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {  // lower
    while (k >= 2 && cross(hull[k - 1] - hull[k - 2], points[i] - hull[k - 2]) <= 0) {
      --k;
    }
    hull[k++] = points[i];
  }
  for (std::size_t i = n - 1, t = k + 1; i-- > 0;) {  // upper
    while (k >= t && cross(hull[k - 1] - hull[k - 2], points[i] - hull[k - 2]) <= 0) {
      --k;
    }
    hull[k++] = points[i];
  }
  hull.resize(k - 1);
  if (hull.size() < 3) return Polygon{};
  return Polygon(std::move(hull));
}

Polygon enlarge(const Polygon& area, double margin) {
  if (area.empty()) return area;
  if (margin <= 0.0) return area;
  Polygon hull = area.is_convex() ? area : convex_hull(area.vertices());
  if (hull.empty()) {
    // Degenerate (collinear) input: fall back to an inflated bounding box.
    return Polygon::from_rect(area.bounding_box().inflated(margin));
  }
  // Mitre offset: shift every edge outward by `margin` along its normal and
  // intersect consecutive offset edges. For a convex CCW polygon the mitre
  // join covers the round (Minkowski) join, so the result is a superset of
  // the true Minkowski sum with a disk of radius `margin`.
  const auto& v = hull.vertices();
  const std::size_t n = v.size();
  std::vector<Point> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point prev = v[(i + n - 1) % n];
    const Point cur = v[i];
    const Point next = v[(i + 1) % n];
    // Outward normals of the two adjacent edges (CCW => outward = -perp).
    const Point n1 = normalized(perp(cur - prev)) * -1.0;
    const Point n2 = normalized(perp(next - cur)) * -1.0;
    // Offset lines: (prev + m*n1, cur + m*n1) and (cur + m*n2, next + m*n2).
    const Point p1 = prev + n1 * margin;
    const Point d1 = cur - prev;
    const Point p2 = cur + n2 * margin;
    const Point d2 = next - cur;
    const double denom = cross(d1, d2);
    if (std::abs(denom) < 1e-12) {
      // Nearly collinear edges: simple vertex offset.
      out.push_back(cur + n1 * margin);
    } else {
      const double t = cross(p2 - p1, d2) / denom;
      out.push_back(p1 + d1 * t);
    }
  }
  return Polygon(std::move(out));
}

std::vector<Triangle> triangulate(const Polygon& poly) {
  std::vector<Triangle> result;
  if (poly.empty()) return result;
  std::vector<Point> v(poly.vertices().begin(), poly.vertices().end());
  // Ear clipping (O(n^2), fine for the small polygons the service handles).
  const auto is_ear = [&](std::size_t i) {
    const std::size_t n = v.size();
    const Point a = v[(i + n - 1) % n];
    const Point b = v[i];
    const Point c = v[(i + 1) % n];
    if (cross(b - a, c - b) <= kEps) return false;  // reflex or degenerate
    for (std::size_t j = 0; j < n; ++j) {
      if (j == (i + n - 1) % n || j == i || j == (i + 1) % n) continue;
      const Point p = v[j];
      // Strict point-in-triangle.
      const double d1 = cross(b - a, p - a);
      const double d2 = cross(c - b, p - b);
      const double d3 = cross(a - c, p - c);
      if (d1 > -kEps && d2 > -kEps && d3 > -kEps) return false;
    }
    return true;
  };
  std::size_t guard = 0;
  while (v.size() > 3 && guard < 100000) {
    bool clipped = false;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (is_ear(i)) {
        const std::size_t n = v.size();
        result.push_back({v[(i + n - 1) % n], v[i], v[(i + 1) % n]});
        v.erase(v.begin() + static_cast<std::ptrdiff_t>(i));
        clipped = true;
        break;
      }
    }
    if (!clipped) break;  // numerically degenerate remainder
    ++guard;
  }
  if (v.size() == 3) result.push_back({v[0], v[1], v[2]});
  return result;
}

}  // namespace locs::geo

// 2-D points/vectors on the local tangent plane, in metres.
//
// The location service core operates on planar coordinates (all quantities
// in the paper -- areas, accuracies, distances -- are metres).
#pragma once

#include <cmath>

namespace locs::geo {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
  friend constexpr Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
  friend constexpr Point operator*(Point a, double s) { return {a.x * s, a.y * s}; }
  friend constexpr Point operator*(double s, Point a) { return a * s; }
  friend constexpr Point operator/(Point a, double s) { return {a.x / s, a.y / s}; }
  friend constexpr bool operator==(Point a, Point b) { return a.x == b.x && a.y == b.y; }
  friend constexpr bool operator!=(Point a, Point b) { return !(a == b); }
};

constexpr double dot(Point a, Point b) { return a.x * b.x + a.y * b.y; }

/// z-component of the 3-D cross product; >0 iff b is counter-clockwise of a.
constexpr double cross(Point a, Point b) { return a.x * b.y - a.y * b.x; }

constexpr double norm2(Point a) { return dot(a, a); }

inline double norm(Point a) { return std::sqrt(norm2(a)); }

/// Euclidean distance -- the paper's DISTANCE() on the local plane.
inline double distance(Point a, Point b) { return norm(a - b); }

constexpr double distance2(Point a, Point b) { return norm2(a - b); }

/// Unit vector in the direction of a; returns (0,0) for the zero vector.
inline Point normalized(Point a) {
  const double n = norm(a);
  return n > 0.0 ? a / n : Point{};
}

/// Left-hand perpendicular (rotate +90 degrees).
constexpr Point perp(Point a) { return {-a.y, a.x}; }

}  // namespace locs::geo

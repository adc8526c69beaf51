// Core model types of the location-service (paper §3).
#pragma once

#include <optional>

#include "geo/circle.hpp"
#include "geo/point.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace locs::core {

/// A sighting record s ∈ S (§3.1): object id, timestamp of the sighting,
/// position at that time, and sensor accuracy (max distance between the
/// reported and the actual position at s.t).
struct Sighting {
  ObjectId oid;
  TimePoint t = 0;
  geo::Point pos{};
  double acc_sens = 0.0;

  friend bool operator==(const Sighting&, const Sighting&) = default;
};

/// Location descriptor ld(o) (§3): the stored position plus its accuracy,
/// defined as the worst-case deviation of ld.pos from the real position.
/// The object is guaranteed to reside in the circular location area
/// (ld.pos, ld.acc) -- Fig 2.
struct LocationDescriptor {
  geo::Point pos;
  double acc = 0.0;

  geo::Circle location_area() const { return {pos, acc}; }

  friend bool operator==(const LocationDescriptor&, const LocationDescriptor&) = default;
};

/// Requested accuracy range for registration / changeAcc (§3.1).
/// `desired` <= `minimum` numerically: a *smaller* value means *better*
/// accuracy, and minAcc is the worst the registrant will accept.
struct AccuracyRange {
  double desired = 0.0;
  double minimum = 0.0;

  friend bool operator==(const AccuracyRange&, const AccuracyRange&) = default;
};

/// Registration information record kept in a leaf visitor record (§5):
/// registering instance and the negotiated accuracy range.
struct RegInfo {
  NodeId reg_inst;
  AccuracyRange acc_range;

  friend bool operator==(const RegInfo&, const RegInfo&) = default;
};

/// One (object id, location descriptor) result pair as returned by range,
/// nearest-neighbor and position queries.
struct ObjectResult {
  ObjectId oid;
  LocationDescriptor ld;

  friend bool operator==(const ObjectResult&, const ObjectResult&) = default;
};

/// Worst-case accuracy bound for a sighting at query time t >= s.t:
/// the sensor accuracy plus how far the object may have moved since
/// (paper §3.1 footnote / [15]).
inline double accuracy_bound(const Sighting& s, double max_speed_m_per_s,
                             TimePoint now) {
  const double dt = now > s.t ? to_seconds(now - s.t) : 0.0;
  return s.acc_sens + max_speed_m_per_s * dt;
}

}  // namespace locs::core

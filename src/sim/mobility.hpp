// Mobility models for workload generation (§8: "the density of the tracked
// objects or their moving patterns ... will be considered" -- these models
// drive exactly those future-work evaluations).
//
//  * RandomWaypoint -- the classic model: pick a destination uniformly in
//    the area, travel at a uniform-random speed, pause, repeat.
//  * ManhattanGrid  -- movement constrained to a street grid (city traffic).
//
// All models are deterministic given the Rng seed.
#pragma once

#include <memory>
#include <vector>

#include "geo/point.hpp"
#include "geo/rect.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace locs::sim {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Advances the object by dt and returns the new position (always inside
  /// the configured area).
  virtual geo::Point step(Duration dt) = 0;

  virtual geo::Point position() const = 0;
};

std::unique_ptr<MobilityModel> make_random_waypoint(const geo::Rect& area,
                                                    geo::Point start,
                                                    double min_speed,
                                                    double max_speed,
                                                    Duration max_pause, Rng& rng);

std::unique_ptr<MobilityModel> make_manhattan(const geo::Rect& area,
                                              geo::Point start, double block_size,
                                              double speed, Rng& rng);

/// Initial placement: uniform over the area.
std::vector<geo::Point> uniform_placement(const geo::Rect& area, std::size_t n,
                                          Rng& rng);

}  // namespace locs::sim

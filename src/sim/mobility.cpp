#include "sim/mobility.hpp"

#include <algorithm>
#include <cmath>

namespace locs::sim {

namespace {

geo::Point clamp_to(const geo::Rect& area, geo::Point p) {
  return {std::clamp(p.x, area.min.x, area.max.x),
          std::clamp(p.y, area.min.y, area.max.y)};
}

class RandomWaypoint final : public MobilityModel {
 public:
  RandomWaypoint(const geo::Rect& area, geo::Point start, double min_speed,
                 double max_speed, Duration max_pause, Rng& rng)
      : area_(area),
        pos_(clamp_to(area, start)),
        min_speed_(min_speed),
        max_speed_(max_speed),
        max_pause_(max_pause),
        rng_(rng) {
    pick_waypoint();
  }

  geo::Point step(Duration dt) override {
    double remaining = to_seconds(dt);
    while (remaining > 0.0) {
      if (pause_left_ > 0.0) {
        const double pause = std::min(pause_left_, remaining);
        pause_left_ -= pause;
        remaining -= pause;
        continue;
      }
      const double dist_to_target = geo::distance(pos_, target_);
      const double travel = speed_ * remaining;
      if (travel >= dist_to_target) {
        pos_ = target_;
        remaining -= speed_ > 0.0 ? dist_to_target / speed_ : remaining;
        pause_left_ = rng_.uniform(0.0, to_seconds(max_pause_));
        pick_waypoint();
      } else {
        pos_ = pos_ + geo::normalized(target_ - pos_) * travel;
        remaining = 0.0;
      }
    }
    return pos_;
  }

  geo::Point position() const override { return pos_; }

 private:
  void pick_waypoint() {
    target_ = {rng_.uniform(area_.min.x, area_.max.x),
               rng_.uniform(area_.min.y, area_.max.y)};
    speed_ = rng_.uniform(min_speed_, max_speed_);
  }

  geo::Rect area_;
  geo::Point pos_;
  geo::Point target_;
  double speed_ = 0.0;
  double pause_left_ = 0.0;
  double min_speed_, max_speed_;
  Duration max_pause_;
  Rng& rng_;
};

class Manhattan final : public MobilityModel {
 public:
  Manhattan(const geo::Rect& area, geo::Point start, double block, double speed,
            Rng& rng)
      : area_(area), block_(block), speed_(speed), rng_(rng) {
    // Snap the start onto the nearest street (horizontal lines of the grid).
    pos_ = clamp_to(area, start);
    pos_.y = area.min.y + std::round((pos_.y - area.min.y) / block_) * block_;
    pos_ = clamp_to(area, pos_);
    dir_ = {1.0, 0.0};
  }

  geo::Point step(Duration dt) override {
    double remaining = speed_ * to_seconds(dt);
    while (remaining > 0.0) {
      const double to_corner = distance_to_next_corner();
      const double travel = std::min(remaining, to_corner);
      pos_ = clamp_to(area_, pos_ + dir_ * travel);
      remaining -= travel;
      if (travel >= to_corner - 1e-9) turn();
    }
    return pos_;
  }

  geo::Point position() const override { return pos_; }

 private:
  double distance_to_next_corner() const {
    // Corners are multiples of block_ from the area origin along the current
    // direction of travel.
    const double coord = dir_.x != 0.0 ? pos_.x - area_.min.x : pos_.y - area_.min.y;
    const double sign = dir_.x + dir_.y;  // +1 or -1
    const double within = coord - std::floor(coord / block_) * block_;
    double d = sign > 0.0 ? block_ - within : within;
    if (d < 1e-9) d = block_;
    // Do not run past the area boundary.
    double to_edge;
    if (dir_.x > 0) {
      to_edge = area_.max.x - pos_.x;
    } else if (dir_.x < 0) {
      to_edge = pos_.x - area_.min.x;
    } else if (dir_.y > 0) {
      to_edge = area_.max.y - pos_.y;
    } else {
      to_edge = pos_.y - area_.min.y;
    }
    return std::min(d, std::max(to_edge, 0.0));
  }

  void turn() {
    // At a corner: continue straight (50%), turn left (25%) or right (25%);
    // always turn around at the boundary.
    const bool at_x_edge = pos_.x <= area_.min.x + 1e-9 || pos_.x >= area_.max.x - 1e-9;
    const bool at_y_edge = pos_.y <= area_.min.y + 1e-9 || pos_.y >= area_.max.y - 1e-9;
    const double roll = rng_.next_double();
    geo::Point next = dir_;
    if (roll < 0.25) {
      next = geo::perp(dir_);
    } else if (roll < 0.5) {
      next = geo::perp(dir_) * -1.0;
    }
    const auto blocked = [&](geo::Point d) {
      return (d.x > 0 && pos_.x >= area_.max.x - 1e-9) ||
             (d.x < 0 && pos_.x <= area_.min.x + 1e-9) ||
             (d.y > 0 && pos_.y >= area_.max.y - 1e-9) ||
             (d.y < 0 && pos_.y <= area_.min.y + 1e-9);
    };
    if (blocked(next)) next = next * -1.0;
    if (blocked(next)) next = geo::perp(next);
    if (blocked(next)) next = next * -1.0;
    (void)at_x_edge;
    (void)at_y_edge;
    dir_ = next;
  }

  geo::Rect area_;
  geo::Point pos_;
  geo::Point dir_;
  double block_;
  double speed_;
  Rng& rng_;
};

}  // namespace

std::unique_ptr<MobilityModel> make_random_waypoint(const geo::Rect& area,
                                                    geo::Point start,
                                                    double min_speed,
                                                    double max_speed,
                                                    Duration max_pause, Rng& rng) {
  return std::make_unique<RandomWaypoint>(area, start, min_speed, max_speed,
                                          max_pause, rng);
}

std::unique_ptr<MobilityModel> make_manhattan(const geo::Rect& area,
                                              geo::Point start, double block_size,
                                              double speed, Rng& rng) {
  return std::make_unique<Manhattan>(area, start, block_size, speed, rng);
}

std::vector<geo::Point> uniform_placement(const geo::Rect& area, std::size_t n,
                                          Rng& rng) {
  std::vector<geo::Point> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({rng.uniform(area.min.x, area.max.x),
                   rng.uniform(area.min.y, area.max.y)});
  }
  return out;
}

}  // namespace locs::sim

// Spatial index interface over (ObjectId, position) entries.
//
// The paper's leaf servers keep "a spatial index containing the position
// information of the tracked objects ... to find the candidates for a range
// or nearest neighbor query" (§5). The prototype used a Point Quadtree [17];
// an R-Tree [6] is named as an alternative. All implementations share this
// interface so the data-storage component can swap them (ablation A3).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "geo/circle.hpp"
#include "geo/point.hpp"
#include "geo/rect.hpp"
#include "util/ids.hpp"

namespace locs::spatial {

struct Entry {
  ObjectId id;
  geo::Point pos;
};

class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  /// Inserts an entry. Precondition: `id` is not currently present.
  virtual void insert(ObjectId id, geo::Point pos) = 0;

  /// Removes the entry for `id`; returns false if not present.
  virtual bool remove(ObjectId id) = 0;

  /// Moves an existing entry (position update). Default: remove + insert.
  /// Callers send only moves: store::SightingDb, the service's only caller,
  /// skips the call when a sighting repeats the stored position, so
  /// implementations need no same-position shortcut.
  virtual void update(ObjectId id, geo::Point pos) {
    remove(id);
    insert(id, pos);
  }

  /// Appends all entries inside the axis-aligned rectangle to `out`.
  virtual void query_rect(const geo::Rect& rect, std::vector<Entry>& out) const = 0;

  /// Appends all entries within the circle to `out`. Default: bounding-box
  /// query + exact distance filter.
  virtual void query_circle(const geo::Circle& circle, std::vector<Entry>& out) const {
    std::vector<Entry> candidates;
    query_rect(geo::Rect::from_center(circle.center, circle.radius, circle.radius),
               candidates);
    for (const Entry& e : candidates) {
      if (circle.contains(e.pos)) out.push_back(e);
    }
  }

  /// The k entries nearest to `p`, ordered by increasing distance.
  virtual std::vector<Entry> k_nearest(geo::Point p, std::size_t k) const = 0;

  virtual std::size_t size() const = 0;
  virtual void clear() = 0;
  virtual const char* name() const = 0;
};

using IndexFactory = std::function<std::unique_ptr<SpatialIndex>()>;

std::unique_ptr<SpatialIndex> make_point_quadtree();
std::unique_ptr<SpatialIndex> make_rtree();
/// Grid over `bounds` with roughly `target_cells` cells.
std::unique_ptr<SpatialIndex> make_grid_index(const geo::Rect& bounds,
                                              std::size_t target_cells = 4096);
std::unique_ptr<SpatialIndex> make_linear_index();

}  // namespace locs::spatial

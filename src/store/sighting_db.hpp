// Main-memory sighting database of a leaf location server (§5, Fig 7).
//
// Combines the paper's three in-memory components:
//  * the sightingDB proper (one sighting record per visitor, with a
//    soft-state expiration date),
//  * the hash index over object identifiers ("to quickly find the object
//    belonging to a position query"),
//  * a pluggable spatial index over positions ("to find the candidates for
//    a range or nearest neighbor query").
//
// Deliberately volatile: the paper stores sightings in main memory only and
// rebuilds them from incoming position updates after a restart.
#pragma once

#include <cassert>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"
#include "geo/circle.hpp"
#include "geo/polygon.hpp"
#include "spatial/spatial_index.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace locs::store {

class SightingDb {
 public:
  struct Record {
    core::Sighting sighting;
    double offered_acc = 0.0;  // mirrored from the visitor record for fast
                               // query-time accuracy filtering
    TimePoint expiry = 0;
    std::uint64_t generation = 0;  // internal: validates lazy heap entries
  };

  explicit SightingDb(spatial::IndexFactory index_factory);

  /// Inserts a sighting for a new visitor. Precondition: not present.
  void insert(const core::Sighting& s, double offered_acc, TimePoint expiry);

  /// Updates the stored sighting (position update); returns false if the
  /// object is unknown. Extends the expiration date (§5: "extended
  /// accordingly whenever the visitor contacts the location server").
  bool update(const core::Sighting& s, TimePoint expiry);

  /// Insert-or-update with one lookup: insert() for a new object, otherwise
  /// update() followed by set_offered_acc(). The spatial index sees the same
  /// insert or update either way.
  void upsert(const core::Sighting& s, double offered_acc, TimePoint expiry);

  /// One upsert item of apply_batch (wire::BatchedUpdateReq application).
  struct BulkUpdate {
    core::Sighting s;
    double offered_acc = 0.0;
  };

  /// Upserts a whole batch of sightings in one pass over records + spatial
  /// index -- the per-datagram dispatch overhead is paid once per batch
  /// instead of once per sighting. Identical to upsert() per item.
  void apply_batch(const std::vector<BulkUpdate>& items, TimePoint expiry);

  bool remove(ObjectId oid);

  const Record* find(ObjectId oid) const;

  void set_offered_acc(ObjectId oid, double offered_acc);

  /// Pops every object whose sighting record has expired (soft state, §5).
  std::vector<ObjectId> expire_until(TimePoint now);

  /// Algorithm 6-5, line 4 -- spatialIndex.objectsInArea(area, reqAcc,
  /// reqOverlap): all objects with Overlap(area, o) >= req_overlap and
  /// ld(o).acc <= req_acc. `req_overlap` must be > 0 (paper: reqOverlap in
  /// (0,1]); values <= 0 are clamped to the smallest positive overlap.
  void objects_in_area(const geo::Polygon& area, double req_acc, double req_overlap,
                       std::vector<core::ObjectResult>& out) const;

  /// Sink-based variant: invokes `sink(result)` per qualifying object, in
  /// the exact order the vector variant appends. The query read path streams
  /// results straight into packed wire buffers through this (no
  /// intermediate vector is ever materialized).
  template <typename Sink>
  void objects_in_area_emit(const geo::Polygon& area, double req_acc,
                            double req_overlap, Sink&& sink) const {
    if (area.empty()) return;
    req_overlap = std::max(req_overlap, kMinOverlap);
    // Any qualifying object has ld.acc <= req_acc, so its stored position
    // lies within req_acc of the area: the inflated bounding box is a
    // complete candidate set.
    const geo::Rect search = area.bounding_box().inflated(std::max(req_acc, 0.0));
    candidates_scratch_.clear();
    index_->query_rect(search, candidates_scratch_);
    for (const spatial::Entry& cand : candidates_scratch_) {
      const auto it = records_.find(cand.id);
      assert(it != records_.end());
      const Record& rec = it->second;
      if (rec.offered_acc > req_acc) continue;  // insufficient accuracy (§3.2)
      const double ov =
          geo::overlap_degree(area, {rec.sighting.pos, rec.offered_acc});
      if (ov >= req_overlap) {
        sink(core::ObjectResult{cand.id, {rec.sighting.pos, rec.offered_acc}});
      }
    }
  }

  /// Candidates for nearest-neighbor probes: objects with acc <= req_acc
  /// whose stored position lies within the circle.
  void objects_in_circle(const geo::Circle& circle, double req_acc,
                         std::vector<core::ObjectResult>& out) const;

  /// Sink-based variant of objects_in_circle (same order, no vector).
  template <typename Sink>
  void objects_in_circle_emit(const geo::Circle& circle, double req_acc,
                              Sink&& sink) const {
    candidates_scratch_.clear();
    index_->query_circle(circle, candidates_scratch_);
    for (const spatial::Entry& cand : candidates_scratch_) {
      const auto it = records_.find(cand.id);
      assert(it != records_.end());
      const Record& rec = it->second;
      if (rec.offered_acc > req_acc) continue;
      sink(core::ObjectResult{cand.id, {rec.sighting.pos, rec.offered_acc}});
    }
  }

  /// The k nearest objects (by stored position) with acc <= req_acc.
  std::vector<core::ObjectResult> k_nearest(geo::Point p, std::size_t k,
                                            double req_acc) const;

  std::size_t size() const { return records_.size(); }
  void clear();

  const spatial::SpatialIndex& index() const { return *index_; }

  /// Smallest positive req_overlap (values <= 0 clamp to this; see
  /// objects_in_area).
  static constexpr double kMinOverlap = 1e-12;

 private:
  struct HeapEntry {
    TimePoint expiry;
    ObjectId oid;
    std::uint64_t generation;
    bool operator>(const HeapEntry& other) const { return expiry > other.expiry; }
  };

  spatial::IndexFactory index_factory_;
  std::unique_ptr<spatial::SpatialIndex> index_;
  // Candidate scratch for the area/circle queries, reused across calls (the
  // owning server is a single-threaded reactor, so const queries never run
  // concurrently).
  mutable std::vector<spatial::Entry> candidates_scratch_;
  std::unordered_map<ObjectId, Record> records_;
  std::vector<HeapEntry> expiry_heap_;  // min-heap via std::push_heap
  std::uint64_t next_generation_ = 1;
};

}  // namespace locs::store

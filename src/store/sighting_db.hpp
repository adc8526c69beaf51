// Main-memory sighting database of a leaf location server (§5, Fig 7).
//
// Combines the paper's three in-memory components:
//  * the sightingDB proper (one sighting record per visitor, with a
//    soft-state expiration date),
//  * the hash index over object identifiers ("to quickly find the object
//    belonging to a position query") -- the records live in it, one
//    util::OidMap slot each,
//  * a pluggable spatial index over positions ("to find the candidates for
//    a range or nearest neighbor query").
//
// Deliberately volatile: the paper stores sightings in main memory only and
// rebuilds them from incoming position updates after a restart.
#pragma once

#include <cassert>
#include <vector>

#include "core/types.hpp"
#include "geo/circle.hpp"
#include "geo/polygon.hpp"
#include "spatial/spatial_index.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"
#include "util/oid_set.hpp"

namespace locs::store {

class SightingDb {
 public:
  struct Record {
    core::Sighting sighting;
    double offered_acc = 0.0;  // mirrored from the visitor record for fast
                               // query-time accuracy filtering
    TimePoint expiry = 0;
    TimePoint queued = 0;  // internal: the expiry of the record's heap entry
  };

  explicit SightingDb(spatial::IndexFactory index_factory);

  /// Inserts a sighting for a new visitor. Precondition: not present.
  void insert(const core::Sighting& s, double offered_acc, TimePoint expiry);

  /// Updates the stored sighting (position update); returns false if the
  /// object is unknown. Extends the expiration date (§5: "extended
  /// accordingly whenever the visitor contacts the location server"). Only
  /// a new position reaches the spatial index: a sighting at the stored
  /// position refreshes the record and its expiry but makes no index call.
  bool update(const core::Sighting& s, TimePoint expiry);

  /// Insert-or-update with one lookup: insert() for a new object, otherwise
  /// update() followed by set_offered_acc(). The spatial index sees the same
  /// insert, move or nothing either way.
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

  /// The record of `oid`, or nullptr. The records live in a flat table that
  /// moves entries when it grows or closes a gap, so the pointer stays valid
  /// only until the next insert, remove, expire_until or clear (a refresh of
  /// an existing record through update, upsert or set_offered_acc moves
  /// nothing). Read what you need before mutating the database.
  const Record* find(ObjectId oid) const;

  void set_offered_acc(ObjectId oid, double offered_acc);

  /// Pops every object whose sighting record has expired (soft state, §5):
  /// a record expires at the first call with `now` at or after its latest
  /// expiry, and only once.
  std::vector<ObjectId> expire_until(TimePoint now);

  /// Number of queued expiries (entries of the expiry heap, stale ones
  /// included). A record has one queued entry: a refresh to a later expiry
  /// queues nothing (expire_until re-queues the entry when it pops), only a
  /// new record or a refresh to an earlier expiry does. A removed record's
  /// entry, or one a refresh to an earlier expiry superseded, stays queued
  /// until it pops.
  std::size_t queued_expiries() const { return expiry_heap_.size(); }

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
      const Record* found = records_.find(cand.id);
      assert(found != nullptr);
      const Record& rec = *found;
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
      const Record* found = records_.find(cand.id);
      assert(found != nullptr);
      const Record& rec = *found;
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
  /// A queued expiry. It is live while its record exists and was queued at
  /// this expiry (`Record::queued`); otherwise it is stale and dropped when
  /// it pops.
  struct HeapEntry {
    TimePoint expiry;
    ObjectId oid;
    bool operator>(const HeapEntry& other) const { return expiry > other.expiry; }
  };

  /// Writes `s` and `expiry` into `rec`. The index gets an insert for a new
  /// record and an update only when the position changed -- the one place
  /// the stationary rule lives. A new record, or an expiry earlier than the
  /// queued one, queues an entry; a later expiry waits for the queued entry
  /// to pop.
  void write(Record& rec, bool inserted, const core::Sighting& s, TimePoint expiry);

  /// Pushes a heap entry for `oid` at `expiry` and records it in
  /// `rec.queued`, which makes the record's entries at other expiries stale.
  void queue(ObjectId oid, Record& rec, TimePoint expiry);

  spatial::IndexFactory index_factory_;
  std::unique_ptr<spatial::SpatialIndex> index_;
  // Candidate scratch for the area/circle queries, reused across calls (the
  // owning server is a single-threaded reactor, so const queries never run
  // concurrently).
  mutable std::vector<spatial::Entry> candidates_scratch_;
  util::OidMap<Record> records_;
  std::vector<HeapEntry> expiry_heap_;  // min-heap via std::push_heap
};

}  // namespace locs::store

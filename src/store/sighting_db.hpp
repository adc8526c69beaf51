// The leaf table of a leaf location server (§5, Fig 7): one record per
// visitor, holding both halves the paper keeps apart.
//  * The visitor part (offered accuracy, registration information) belongs
//    to the paper's persistent visitorDB. Every mutation of it is appended
//    to the node's visitor log (store::VisitorLog), and a restarted leaf
//    replays only this part.
//  * The sighting part (the sighting and its soft-state expiration date)
//    belongs to the paper's sightingDB, which lives in main memory only and
//    is rebuilt from incoming position updates after a restart.
// The table is also the paper's "hash index over object identifiers" (one
// util::OidMap slot per record), and a pluggable spatial index over
// positions finds "the candidates for a range or nearest neighbor query".
//
// A record replayed from the log has no sighting until the object's next
// update. Until then it is in neither the spatial index nor the expiry heap,
// so queries skip it and it never expires.
#pragma once

#include <cassert>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "geo/circle.hpp"
#include "geo/polygon.hpp"
#include "spatial/spatial_index.hpp"
#include "store/visitor_log.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"
#include "util/oid_set.hpp"

namespace locs::store {

class SightingDb {
 public:
  // The fields every update and query reads sit next to the slot's key;
  // the registration information, read on handovers and recovery only,
  // sits last.
  struct Record {
    // Sighting part (volatile). `sighting.oid` is the record's id even
    // before the first sighting arrives.
    core::Sighting sighting;
    double offered_acc = 0.0;  // visitor part (persistent)
    TimePoint expiry = 0;
    TimePoint queued = 0;  // internal: the expiry of the record's heap entry
    bool has_sighting = false;
    // The owner's flag, not read here: a handover of this object is in
    // flight.
    bool in_handover = false;
    core::RegInfo reg_info;  // visitor part (persistent)
  };

  /// Replays the visitor part of every record in `log` (in memory when
  /// default), then appends the visitor part of every mutation to it.
  explicit SightingDb(spatial::IndexFactory index_factory, VisitorLog log = {});

  /// Registration or handover-in: creates or overwrites the record of `s.oid`
  /// with this visitor part (persisted) and writes the sighting as update()
  /// does.
  Record& upsert(const core::Sighting& s, double offered_acc, TimePoint expiry,
                 const core::RegInfo& reg_info = {});

  /// upsert() for an object that has no record. Precondition: not present.
  void insert(const core::Sighting& s, double offered_acc, TimePoint expiry);

  /// Creates or overwrites the visitor part alone (persisted); a new record
  /// has no sighting.
  Record& set_visitor(ObjectId oid, double offered_acc, const core::RegInfo& reg_info);
  /// Overwrites the visitor part of a record that find() returned.
  void set_visitor(Record& rec, double offered_acc, const core::RegInfo& reg_info);

  /// Writes a position update through a record that find() returned and
  /// extends its expiration date (§5: "extended accordingly whenever the
  /// visitor contacts the location server"). The spatial index sees an
  /// insert for the record's first sighting, an update for a new position,
  /// and nothing for a sighting at the stored position -- the one place that
  /// rule lives.
  void update(Record& rec, const core::Sighting& s, TimePoint expiry);
  /// update() after a lookup; false if the object has no record.
  bool update(const core::Sighting& s, TimePoint expiry);

  /// Removes a record and persists the removal.
  bool remove(ObjectId oid);
  void remove(Record& rec);

  /// The record of `oid`, or nullptr. The records live in a flat table that
  /// moves entries when it grows or closes a gap, so the pointer stays valid
  /// only until the next call that may create or remove a record (upsert,
  /// insert, set_visitor by id, remove, expire_until); update and
  /// set_visitor through a record move nothing. Callers may write
  /// `in_handover`; every other field changes only through the methods
  /// above.
  Record* find(ObjectId oid) { return records_.find(oid); }
  const Record* find(ObjectId oid) const { return records_.find(oid); }

  /// Removes every record whose sighting has expired (soft state, §5) and
  /// persists the removals in one frame write: a record expires at the
  /// first call with `now` at or after its latest expiry, and only once.
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

  /// Candidates for nearest-neighbor probes: invokes `sink(result)` per
  /// object with acc <= req_acc whose stored position lies within the
  /// circle.
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

  /// The nearest object (by stored position) with acc <= req_acc.
  std::optional<core::ObjectResult> nearest(geo::Point p, double req_acc) const;

  /// Records, with or without a sighting.
  std::size_t size() const { return records_.size(); }

  /// Invokes fn(ObjectId, const Record&) per record, in slot order. Callers
  /// that emit messages from it sort first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    records_.for_each(fn);
  }

  /// Rewrites the visitor log to one kInsertLeaf record per record once it
  /// has grown past `appended_threshold` records (the server's tick calls
  /// this).
  Status compact(std::uint64_t appended_threshold = 0);
  /// Records appended to the visitor log since open or the last compaction.
  std::uint64_t log_appended() const { return log_.appended(); }

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

  /// Pushes a heap entry for `oid` at `expiry` and records it in
  /// `rec.queued`, which makes the record's entries at other expiries stale.
  void queue(ObjectId oid, Record& rec, TimePoint expiry);

  std::unique_ptr<spatial::SpatialIndex> index_;
  // Candidate scratch for the area/circle queries, reused across calls (the
  // owning server is a single-threaded reactor, so const queries never run
  // concurrently).
  mutable std::vector<spatial::Entry> candidates_scratch_;
  util::OidMap<Record> records_;
  std::vector<HeapEntry> expiry_heap_;  // min-heap via std::push_heap
  VisitorLog log_;
};

}  // namespace locs::store

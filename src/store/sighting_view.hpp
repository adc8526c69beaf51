// Partition-aware read view over one or more SightingDb slices.
//
// A sharded leaf server (core/sharded_location_server.hpp) splits its
// sighting database into per-shard slices, each with its own spatial index.
// Per-object operations (updates, position queries) always run on the shard
// that owns the object and read its slice directly; area operations (range
// queries, NN probes, event installation) need the union of all slices.
// SightingsView is that union: the coordinator shard's query paths run
// against it and merge per-slice sub-results, so the single RangeQuerySubRes
// / NNProbeSubRes a leaf emits is identical to the unsharded server's.
//
// The view takes no lock: every shard of a leaf runs on the thread that
// delivers the leaf's datagrams, so reads never overlap a slice mutation.
// An unsharded server uses a single-slice view; that path forwards straight
// to the slice, preserving result order (and with it the seed-42 trace) bit
// for bit.
#pragma once

#include <vector>

#include "store/sighting_db.hpp"

namespace locs::store {

class SightingsView {
 public:
  SightingsView() = default;

  /// Registers a slice.
  void add_slice(const SightingDb* slice) { slices_.push_back(slice); }

  void clear() { slices_.clear(); }
  std::size_t slice_count() const { return slices_.size(); }

  /// Total records across slices.
  std::size_t size() const;

  /// Copies the record for `oid` out of whichever slice owns it. Returns
  /// false if the object is unknown.
  bool lookup(ObjectId oid, SightingDb::Record& out) const;

  /// SightingDb::objects_in_area over the union of slices.
  void objects_in_area(const geo::Polygon& area, double req_acc, double req_overlap,
                       std::vector<core::ObjectResult>& out) const;

  /// Sink-based union: results stream straight from each slice into `sink`
  /// (same order as the vector variant), so a leaf's query answer packs into
  /// the outgoing wire buffer without an intermediate vector. The sink must
  /// not call back into the store.
  template <typename Sink>
  void objects_in_area_emit(const geo::Polygon& area, double req_acc,
                            double req_overlap, Sink&& sink) const {
    for (const SightingDb* db : slices_) {
      db->objects_in_area_emit(area, req_acc, req_overlap, sink);
    }
  }

  /// SightingDb::objects_in_circle over the union of slices.
  void objects_in_circle(const geo::Circle& circle, double req_acc,
                         std::vector<core::ObjectResult>& out) const;

  /// Sink-based variant of objects_in_circle (same contract as above).
  template <typename Sink>
  void objects_in_circle_emit(const geo::Circle& circle, double req_acc,
                              Sink&& sink) const {
    for (const SightingDb* db : slices_) {
      db->objects_in_circle_emit(circle, req_acc, sink);
    }
  }

  /// The k globally nearest objects with acc <= req_acc, merged across
  /// slices (spatial/merge.hpp; ties broken by object id).
  std::vector<core::ObjectResult> k_nearest(geo::Point p, std::size_t k,
                                            double req_acc) const;

 private:
  std::vector<const SightingDb*> slices_;
};

}  // namespace locs::store

#include "store/sighting_view.hpp"

#include "spatial/merge.hpp"

namespace locs::store {

std::size_t SightingsView::size() const {
  std::size_t total = 0;
  for (const SightingDb* db : slices_) total += db->size();
  return total;
}

bool SightingsView::lookup(ObjectId oid, SightingDb::Record& out) const {
  for (const SightingDb* db : slices_) {
    const SightingDb::Record* rec = db->find(oid);
    if (rec != nullptr) {
      out = *rec;
      return true;
    }
  }
  return false;
}

void SightingsView::objects_in_area(const geo::Polygon& area, double req_acc,
                                    double req_overlap,
                                    std::vector<core::ObjectResult>& out) const {
  objects_in_area_emit(area, req_acc, req_overlap,
                       [&](const core::ObjectResult& r) { out.push_back(r); });
}

void SightingsView::objects_in_circle(const geo::Circle& circle, double req_acc,
                                      std::vector<core::ObjectResult>& out) const {
  objects_in_circle_emit(circle, req_acc,
                         [&](const core::ObjectResult& r) { out.push_back(r); });
}

std::vector<core::ObjectResult> SightingsView::k_nearest(geo::Point p,
                                                         std::size_t k,
                                                         double req_acc) const {
  // Single slice: forward directly, preserving the slice's exact result
  // order (unsharded servers must stay trace-identical).
  if (slices_.size() == 1) return slices_[0]->k_nearest(p, k, req_acc);
  std::vector<core::ObjectResult> merged;
  for (const SightingDb* db : slices_) {
    spatial::merge_k_nearest(
        merged, db->k_nearest(p, k, req_acc), p, k,
        [](const core::ObjectResult& r) { return r.ld.pos; },
        [](const core::ObjectResult& r) { return r.oid; });
  }
  return merged;
}

}  // namespace locs::store

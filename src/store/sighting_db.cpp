#include "store/sighting_db.hpp"

#include <algorithm>
#include <cassert>

namespace locs::store {

SightingDb::SightingDb(spatial::IndexFactory index_factory)
    : index_factory_(std::move(index_factory)), index_(index_factory_()) {}

void SightingDb::insert(const core::Sighting& s, double offered_acc,
                        TimePoint expiry) {
  assert(records_.find(s.oid) == records_.end());
  Record rec;
  rec.sighting = s;
  rec.offered_acc = offered_acc;
  rec.expiry = expiry;
  rec.generation = next_generation_++;
  records_.emplace(s.oid, rec);
  index_->insert(s.oid, s.pos);
  expiry_heap_.push_back({expiry, s.oid, rec.generation});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
}

bool SightingDb::update(const core::Sighting& s, TimePoint expiry) {
  const auto it = records_.find(s.oid);
  if (it == records_.end()) return false;
  it->second.sighting = s;
  it->second.expiry = expiry;
  it->second.generation = next_generation_++;
  index_->update(s.oid, s.pos);
  expiry_heap_.push_back({expiry, s.oid, it->second.generation});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
  return true;
}

void SightingDb::apply_batch(const std::vector<BulkUpdate>& items,
                             TimePoint expiry) {
  for (const BulkUpdate& item : items) {
    const auto [it, inserted] = records_.try_emplace(item.s.oid);
    Record& rec = it->second;
    rec.sighting = item.s;
    rec.offered_acc = item.offered_acc;
    rec.expiry = expiry;
    rec.generation = next_generation_++;
    if (inserted) {
      index_->insert(item.s.oid, item.s.pos);
    } else {
      index_->update(item.s.oid, item.s.pos);
    }
    expiry_heap_.push_back({expiry, item.s.oid, rec.generation});
    std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
  }
}

bool SightingDb::remove(ObjectId oid) {
  const auto it = records_.find(oid);
  if (it == records_.end()) return false;
  index_->remove(oid);
  records_.erase(it);
  // Heap entries for this object become stale and are skipped lazily.
  return true;
}

const SightingDb::Record* SightingDb::find(ObjectId oid) const {
  const auto it = records_.find(oid);
  return it == records_.end() ? nullptr : &it->second;
}

void SightingDb::set_offered_acc(ObjectId oid, double offered_acc) {
  const auto it = records_.find(oid);
  if (it != records_.end()) it->second.offered_acc = offered_acc;
}

std::vector<ObjectId> SightingDb::expire_until(TimePoint now) {
  std::vector<ObjectId> expired;
  while (!expiry_heap_.empty() && expiry_heap_.front().expiry <= now) {
    const HeapEntry entry = expiry_heap_.front();
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
    expiry_heap_.pop_back();
    const auto it = records_.find(entry.oid);
    if (it == records_.end() || it->second.generation != entry.generation) {
      continue;  // stale heap entry (updated or removed since)
    }
    index_->remove(entry.oid);
    records_.erase(it);
    expired.push_back(entry.oid);
  }
  return expired;
}

void SightingDb::objects_in_area(const geo::Polygon& area, double req_acc,
                                 double req_overlap,
                                 std::vector<core::ObjectResult>& out) const {
  objects_in_area_emit(area, req_acc, req_overlap,
                       [&](const core::ObjectResult& r) { out.push_back(r); });
}

void SightingDb::objects_in_circle(const geo::Circle& circle, double req_acc,
                                   std::vector<core::ObjectResult>& out) const {
  objects_in_circle_emit(circle, req_acc,
                         [&](const core::ObjectResult& r) { out.push_back(r); });
}

std::vector<core::ObjectResult> SightingDb::k_nearest(geo::Point p, std::size_t k,
                                                      double req_acc) const {
  // Over-fetch to compensate for accuracy filtering, then widen if needed.
  std::vector<core::ObjectResult> result;
  std::size_t fetch = k;
  while (true) {
    const auto entries = index_->k_nearest(p, fetch);
    result.clear();
    for (const spatial::Entry& e : entries) {
      const auto it = records_.find(e.id);
      assert(it != records_.end());
      if (it->second.offered_acc > req_acc) continue;
      result.push_back({e.id, {e.pos, it->second.offered_acc}});
      if (result.size() == k) return result;
    }
    if (entries.size() < fetch) return result;  // exhausted the database
    fetch *= 2;
  }
}

void SightingDb::clear() {
  records_.clear();
  expiry_heap_.clear();
  index_ = index_factory_();
}

}  // namespace locs::store

#include "store/sighting_db.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace locs::store {

SightingDb::SightingDb(spatial::IndexFactory index_factory)
    : index_factory_(std::move(index_factory)), index_(index_factory_()) {}

void SightingDb::insert(const core::Sighting& s, double offered_acc,
                        TimePoint expiry) {
  assert(records_.find(s.oid) == nullptr);
  upsert(s, offered_acc, expiry);
}

bool SightingDb::update(const core::Sighting& s, TimePoint expiry) {
  Record* rec = records_.find(s.oid);
  if (rec == nullptr) return false;
  write(*rec, /*inserted=*/false, s, expiry);
  return true;
}

void SightingDb::upsert(const core::Sighting& s, double offered_acc,
                        TimePoint expiry) {
  const auto [rec, inserted] = records_.try_emplace(s.oid);
  rec->offered_acc = offered_acc;
  write(*rec, inserted, s, expiry);
}

void SightingDb::write(Record& rec, bool inserted, const core::Sighting& s,
                       TimePoint expiry) {
  if (inserted) {
    index_->insert(s.oid, s.pos);
  } else if (std::memcmp(&rec.sighting.pos, &s.pos, sizeof s.pos) != 0) {
    // Compared bit for bit, not with ==, so the index always holds the
    // record's exact position (k_nearest answers with the index's copy, and
    // -0.0 == 0.0).
    index_->update(s.oid, s.pos);
  }
  rec.sighting = s;
  rec.expiry = expiry;
  if (inserted || expiry < rec.queued) queue(s.oid, rec, expiry);
}

void SightingDb::queue(ObjectId oid, Record& rec, TimePoint expiry) {
  rec.queued = expiry;
  expiry_heap_.push_back({expiry, oid});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
}

void SightingDb::apply_batch(const std::vector<BulkUpdate>& items,
                             TimePoint expiry) {
  for (const BulkUpdate& item : items) upsert(item.s, item.offered_acc, expiry);
}

bool SightingDb::remove(ObjectId oid) {
  if (!records_.erase(oid)) return false;
  index_->remove(oid);
  // The record's queued entry becomes stale and is dropped when it pops.
  return true;
}

const SightingDb::Record* SightingDb::find(ObjectId oid) const {
  return records_.find(oid);
}

void SightingDb::set_offered_acc(ObjectId oid, double offered_acc) {
  if (Record* rec = records_.find(oid)) rec->offered_acc = offered_acc;
}

std::vector<ObjectId> SightingDb::expire_until(TimePoint now) {
  std::vector<ObjectId> expired;
  while (!expiry_heap_.empty() && expiry_heap_.front().expiry <= now) {
    const HeapEntry entry = expiry_heap_.front();
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
    expiry_heap_.pop_back();
    Record* rec = records_.find(entry.oid);
    if (rec == nullptr || rec->queued != entry.expiry) {
      continue;  // stale: removed (perhaps re-inserted), or queued again since
    }
    if (rec->expiry > now) {
      // Refreshed since it was queued: wait for the latest expiry. It lies
      // after `now`, so this loop does not pop the entry again.
      queue(entry.oid, *rec, rec->expiry);
      continue;
    }
    records_.erase(entry.oid);
    index_->remove(entry.oid);
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
      const Record* rec = records_.find(e.id);
      assert(rec != nullptr);
      if (rec->offered_acc > req_acc) continue;
      result.push_back({e.id, {e.pos, rec->offered_acc}});
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

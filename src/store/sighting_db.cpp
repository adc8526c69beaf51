#include "store/sighting_db.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace locs::store {

SightingDb::SightingDb(spatial::IndexFactory index_factory, VisitorLog log)
    : index_(index_factory()) {
  // Only the visitor part persists, so every replayed record starts without
  // a sighting. A leaf keeps no forwarding references: kSetForward records
  // are not its own.
  log.replay([this](const VisitorLog::Record& r) {
    switch (r.op) {
      case VisitorLog::Op::kInsertLeaf:
        set_visitor(r.oid, r.offered_acc, r.reg_info);
        break;
      case VisitorLog::Op::kSetAcc:
        if (Record* rec = records_.find(r.oid)) rec->offered_acc = r.offered_acc;
        break;
      case VisitorLog::Op::kRemove:
        records_.erase(r.oid);
        break;
      case VisitorLog::Op::kSetForward:
        break;
    }
  });
  log_ = std::move(log);  // attached after the replay, so nothing re-appends
}

SightingDb::Record& SightingDb::upsert(const core::Sighting& s, double offered_acc,
                                       TimePoint expiry,
                                       const core::RegInfo& reg_info) {
  Record& rec = set_visitor(s.oid, offered_acc, reg_info);
  update(rec, s, expiry);
  return rec;
}

void SightingDb::insert(const core::Sighting& s, double offered_acc,
                        TimePoint expiry) {
  assert(records_.find(s.oid) == nullptr);
  upsert(s, offered_acc, expiry);
}

SightingDb::Record& SightingDb::set_visitor(ObjectId oid, double offered_acc,
                                            const core::RegInfo& reg_info) {
  const auto [rec, inserted] = records_.try_emplace(oid);
  if (inserted) rec->sighting.oid = oid;
  set_visitor(*rec, offered_acc, reg_info);
  return *rec;
}

void SightingDb::set_visitor(Record& rec, double offered_acc,
                             const core::RegInfo& reg_info) {
  rec.offered_acc = offered_acc;
  rec.reg_info = reg_info;
  if (log_.persistent()) {
    log_.append(VisitorLog::insert_leaf(rec.sighting.oid, offered_acc, reg_info));
  }
}

void SightingDb::update(Record& rec, const core::Sighting& s, TimePoint expiry) {
  assert(s.oid == rec.sighting.oid);
  if (!rec.has_sighting) {
    index_->insert(s.oid, s.pos);
  } else if (std::memcmp(&rec.sighting.pos, &s.pos, sizeof s.pos) != 0) {
    // Compared bit for bit, not with ==, so the index always holds the
    // record's exact position (nearest answers with the index's copy, and
    // -0.0 == 0.0).
    index_->update(s.oid, s.pos);
  }
  rec.sighting = s;
  rec.expiry = expiry;
  // A first sighting, or an expiry earlier than the queued one, queues an
  // entry; a later expiry waits for the queued entry to pop.
  if (!rec.has_sighting || expiry < rec.queued) queue(s.oid, rec, expiry);
  rec.has_sighting = true;
}

bool SightingDb::update(const core::Sighting& s, TimePoint expiry) {
  Record* rec = records_.find(s.oid);
  if (rec == nullptr) return false;
  update(*rec, s, expiry);
  return true;
}

void SightingDb::queue(ObjectId oid, Record& rec, TimePoint expiry) {
  rec.queued = expiry;
  expiry_heap_.push_back({expiry, oid});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
}

bool SightingDb::remove(ObjectId oid) {
  Record* rec = records_.find(oid);
  if (rec == nullptr) return false;
  remove(*rec);
  return true;
}

void SightingDb::remove(Record& rec) {
  const ObjectId oid = rec.sighting.oid;
  if (rec.has_sighting) index_->remove(oid);
  // The record's queued entry becomes stale and is dropped when it pops.
  records_.erase(&rec);
  if (log_.persistent()) log_.append(VisitorLog::remove(oid));
}

std::vector<ObjectId> SightingDb::expire_until(TimePoint now) {
  std::vector<ObjectId> expired;
  while (!expiry_heap_.empty() && expiry_heap_.front().expiry <= now) {
    const HeapEntry entry = expiry_heap_.front();
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
    expiry_heap_.pop_back();
    Record* rec = records_.find(entry.oid);
    if (rec == nullptr || !rec->has_sighting || rec->queued != entry.expiry) {
      continue;  // stale: removed (perhaps re-inserted), or queued again since
    }
    if (rec->expiry > now) {
      // Refreshed since it was queued: wait for the latest expiry. It lies
      // after `now`, so this loop does not pop the entry again.
      queue(entry.oid, *rec, rec->expiry);
      continue;
    }
    records_.erase(rec);
    index_->remove(entry.oid);
    expired.push_back(entry.oid);
  }
  log_.append_remove(expired);
  return expired;
}

void SightingDb::objects_in_area(const geo::Polygon& area, double req_acc,
                                 double req_overlap,
                                 std::vector<core::ObjectResult>& out) const {
  objects_in_area_emit(area, req_acc, req_overlap,
                       [&](const core::ObjectResult& r) { out.push_back(r); });
}

std::optional<core::ObjectResult> SightingDb::nearest(geo::Point p,
                                                      double req_acc) const {
  // Over-fetch to compensate for accuracy filtering, then widen if needed.
  std::size_t fetch = 1;
  while (true) {
    const auto entries = index_->k_nearest(p, fetch);
    for (const spatial::Entry& e : entries) {
      const Record* rec = records_.find(e.id);
      assert(rec != nullptr);
      if (rec->offered_acc > req_acc) continue;
      return core::ObjectResult{e.id, {e.pos, rec->offered_acc}};
    }
    if (entries.size() < fetch) return std::nullopt;  // exhausted the database
    fetch *= 2;
  }
}

Status SightingDb::compact(std::uint64_t appended_threshold) {
  return log_.compact(appended_threshold, [this](std::vector<wire::Buffer>& out) {
    records_.for_each([&out](ObjectId oid, const Record& rec) {
      out.push_back(VisitorLog::insert_leaf(oid, rec.offered_acc, rec.reg_info));
    });
  });
}

}  // namespace locs::store

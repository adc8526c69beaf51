#include "store/visitor_db.hpp"

namespace locs::store {

VisitorDb::VisitorDb(VisitorLog log) {
  // A leaf's records (kInsertLeaf, kSetAcc) are not a non-leaf server's.
  log.replay([this](const VisitorLog::Record& r) {
    if (r.op == VisitorLog::Op::kSetForward) {
      forward_[r.oid] = r.child;
    } else if (r.op == VisitorLog::Op::kRemove) {
      forward_.erase(r.oid);
    }
  });
  log_ = std::move(log);  // attached after the replay, so nothing re-appends
}

void VisitorDb::set_forward(ObjectId oid, NodeId child) {
  forward_[oid] = child;
  if (log_.persistent()) log_.append(VisitorLog::set_forward(oid, child));
}

bool VisitorDb::remove(ObjectId oid) {
  if (!forward_.erase(oid)) return false;
  if (log_.persistent()) log_.append(VisitorLog::remove(oid));
  return true;
}

std::optional<NodeId> VisitorDb::find(ObjectId oid) const {
  const NodeId* child = forward_.find(oid);
  return child != nullptr ? std::optional<NodeId>(*child) : std::nullopt;
}

Status VisitorDb::compact(std::uint64_t appended_threshold) {
  return log_.compact(appended_threshold, [this](std::vector<wire::Buffer>& out) {
    forward_.for_each([&out](ObjectId oid, NodeId child) {
      out.push_back(VisitorLog::set_forward(oid, child));
    });
  });
}

}  // namespace locs::store

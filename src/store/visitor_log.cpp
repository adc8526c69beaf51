#include "store/visitor_log.hpp"

#include "wire/fields.hpp"

namespace locs::store {

namespace {

/// [op u8][oid][fields...], each field through its wire codec.
template <typename... Fields>
wire::Buffer record(VisitorLog::Op op, ObjectId oid, const Fields&... fields) {
  wire::Buffer buf;
  wire::Writer w(buf);
  w.u8(static_cast<std::uint8_t>(op));
  wire::put(w, oid);
  (wire::put(w, fields), ...);
  w.flush();
  return buf;
}

}  // namespace

wire::Buffer VisitorLog::set_forward(ObjectId oid, NodeId child) {
  return record(Op::kSetForward, oid, child);
}

wire::Buffer VisitorLog::insert_leaf(ObjectId oid, double offered_acc,
                                     const core::RegInfo& reg_info) {
  return record(Op::kInsertLeaf, oid, offered_acc, reg_info);
}

wire::Buffer VisitorLog::set_acc(ObjectId oid, double offered_acc) {
  return record(Op::kSetAcc, oid, offered_acc);
}

wire::Buffer VisitorLog::remove(ObjectId oid) { return record(Op::kRemove, oid); }

Result<VisitorLog> VisitorLog::open(const std::string& path, bool fsync_each) {
  auto log = PersistentLog::open(path, fsync_each);
  if (!log.ok()) return log.status();
  VisitorLog out;
  out.log_ = std::move(log).value();
  return out;
}

void VisitorLog::replay(const std::function<void(const Record&)>& fn) const {
  if (!log_) return;
  // An open log replays through its own descriptor, so only the torn-tail
  // rule can end it early.
  log_->replay([&fn](const std::uint8_t* data, std::size_t len) {
    wire::Reader r(data, len);
    Record rec;
    rec.op = static_cast<Op>(r.u8());
    wire::get(r, rec.oid);
    switch (rec.op) {
      case Op::kSetForward:
        wire::get(r, rec.child);
        break;
      case Op::kInsertLeaf:
        wire::get(r, rec.offered_acc);
        wire::get(r, rec.reg_info);
        break;
      case Op::kSetAcc:
        wire::get(r, rec.offered_acc);
        break;
      case Op::kRemove:
        break;
      default:
        return;
    }
    if (r.ok()) fn(rec);
  });
}

void VisitorLog::append_remove(std::span<const ObjectId> oids) {
  if (!log_ || oids.empty()) return;
  std::vector<wire::Buffer> records;
  records.reserve(oids.size());
  for (const ObjectId oid : oids) records.push_back(remove(oid));
  log_->append_batch(records);
}

}  // namespace locs::store

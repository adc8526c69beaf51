#include "store/visitor_db.hpp"

#include "wire/codec.hpp"

namespace locs::store {

namespace {

enum class LogOp : std::uint8_t {
  kSetForward = 1,
  kInsertLeaf = 2,
  kSetAcc = 3,
  kRemove = 4,
};

/// The one builder of remove records, shared by the single and batch paths.
wire::Buffer make_remove_record(ObjectId oid) {
  wire::Buffer buf;
  wire::Writer w(buf);
  w.u8(static_cast<std::uint8_t>(LogOp::kRemove));
  w.u64(oid.value);
  w.flush();
  return buf;
}

}  // namespace

Result<VisitorDb> VisitorDb::open(const std::string& path, bool fsync_each) {
  auto log = PersistentLog::open(path, fsync_each);
  if (!log.ok()) return log.status();
  // Replay through the public mutators before the log is attached, so the
  // replayed records are applied exactly as live ones but not re-appended.
  VisitorDb db;
  const Status replayed = log.value().replay(
      [&db](const std::uint8_t* data, std::size_t len) { db.apply_record(data, len); });
  if (!replayed.is_ok()) return replayed;
  db.log_ = std::move(log).value();
  return db;
}

void VisitorDb::apply_record(const std::uint8_t* data, std::size_t len) {
  wire::Reader r(data, len);
  const auto op = static_cast<LogOp>(r.u8());
  const ObjectId oid{r.u64()};
  switch (op) {
    case LogOp::kSetForward: {
      const NodeId child{r.u32()};
      if (r.ok()) set_forward(oid, child);
      break;
    }
    case LogOp::kInsertLeaf: {
      const double acc = r.f64();
      core::RegInfo reg;
      reg.reg_inst = NodeId{r.u32()};
      reg.acc_range.desired = r.f64();
      reg.acc_range.minimum = r.f64();
      if (r.ok()) insert_leaf(oid, acc, reg);
      break;
    }
    case LogOp::kSetAcc: {
      const double acc = r.f64();
      if (r.ok()) set_offered_acc(oid, acc);
      break;
    }
    case LogOp::kRemove:
      erase(oid);
      break;
  }
}

void VisitorDb::set_forward(ObjectId oid, NodeId child) {
  leaf_.erase(oid);
  forward_[oid] = child;
  log_set_forward(oid, child);
}

void VisitorDb::insert_leaf(ObjectId oid, double offered_acc,
                            const core::RegInfo& reg_info) {
  forward_.erase(oid);
  leaf_[oid] = LeafVisitorInfo{offered_acc, reg_info};
  log_insert_leaf(oid, offered_acc, reg_info);
}

void VisitorDb::set_offered_acc(ObjectId oid, double offered_acc) {
  LeafVisitorInfo* info = leaf_.find(oid);
  if (info == nullptr) return;
  info->offered_acc = offered_acc;
  log_set_acc(oid, offered_acc);
}

bool VisitorDb::remove(ObjectId oid) {
  if (!erase(oid)) return false;
  log_remove(oid);
  return true;
}

std::size_t VisitorDb::remove_batch(std::span<const ObjectId> oids) {
  std::size_t removed = 0;
  std::vector<wire::Buffer> log_records;
  for (const ObjectId oid : oids) {
    if (!erase(oid)) continue;
    ++removed;
    if (log_) log_records.push_back(make_remove_record(oid));
  }
  if (log_ && !log_records.empty()) log_->append_batch(log_records);
  return removed;
}

std::optional<VisitorRecord> VisitorDb::find(ObjectId oid) const {
  if (const LeafVisitorInfo* info = leaf_.find(oid)) {
    return VisitorRecord{oid, kNoNode, *info};
  }
  if (const NodeId* child = forward_.find(oid)) {
    return VisitorRecord{oid, *child, std::nullopt};
  }
  return std::nullopt;
}

Status VisitorDb::compact() {
  if (!log_) return Status::ok();
  std::vector<wire::Buffer> records;
  records.reserve(size());
  for_each([&records](const VisitorRecord& rec) {
    wire::Buffer buf;
    wire::Writer w(buf);
    if (rec.leaf) {
      w.u8(static_cast<std::uint8_t>(LogOp::kInsertLeaf));
      w.u64(rec.oid.value);
      w.f64(rec.leaf->offered_acc);
      w.u32(rec.leaf->reg_info.reg_inst.value);
      w.f64(rec.leaf->reg_info.acc_range.desired);
      w.f64(rec.leaf->reg_info.acc_range.minimum);
    } else {
      w.u8(static_cast<std::uint8_t>(LogOp::kSetForward));
      w.u64(rec.oid.value);
      w.u32(rec.forward_ref.value);
    }
    w.flush();
    records.push_back(std::move(buf));
  });
  return log_->rewrite(records);
}

void VisitorDb::log_set_forward(ObjectId oid, NodeId child) {
  if (!log_) return;
  wire::Buffer buf;
  wire::Writer w(buf);
  w.u8(static_cast<std::uint8_t>(LogOp::kSetForward));
  w.u64(oid.value);
  w.u32(child.value);
  w.flush();
  log_->append(buf);
}

void VisitorDb::log_insert_leaf(ObjectId oid, double acc, const core::RegInfo& reg) {
  if (!log_) return;
  wire::Buffer buf;
  wire::Writer w(buf);
  w.u8(static_cast<std::uint8_t>(LogOp::kInsertLeaf));
  w.u64(oid.value);
  w.f64(acc);
  w.u32(reg.reg_inst.value);
  w.f64(reg.acc_range.desired);
  w.f64(reg.acc_range.minimum);
  w.flush();
  log_->append(buf);
}

void VisitorDb::log_set_acc(ObjectId oid, double acc) {
  if (!log_) return;
  wire::Buffer buf;
  wire::Writer w(buf);
  w.u8(static_cast<std::uint8_t>(LogOp::kSetAcc));
  w.u64(oid.value);
  w.f64(acc);
  w.flush();
  log_->append(buf);
}

void VisitorDb::log_remove(ObjectId oid) {
  if (!log_) return;
  log_->append(make_remove_record(oid));
}

}  // namespace locs::store

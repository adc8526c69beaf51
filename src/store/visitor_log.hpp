// The persistent visitorDB's write-ahead log (§5): the visitorDB "is kept in
// persistent storage, which is updated only when an object is registered,
// deregisters or a handover occurs", so forwarding paths and leaf
// registrations survive a crash while the volatile sightings do not.
//
// One log per node, one CRC frame per record (store::PersistentLog). Record
// layouts, in the wire codec's encodings (ids as varints, f64 as 8
// little-endian bytes):
//   kSetForward  [op u8 = 1][oid][child]
//   kInsertLeaf  [op u8 = 2][oid][offered_acc f64][reg_info]
//   kSetAcc      [op u8 = 3][oid][offered_acc f64]
//   kRemove      [op u8 = 4][oid]
// where reg_info is RegInfo's wire field list: [reg_inst][desired f64]
// [minimum f64]. Each kind has one builder below, which appends and
// compaction share.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "store/persistent_log.hpp"
#include "util/ids.hpp"
#include "util/result.hpp"

namespace locs::store {

class VisitorLog {
 public:
  enum class Op : std::uint8_t { kSetForward = 1, kInsertLeaf = 2, kSetAcc = 3, kRemove = 4 };

  /// One replayed record; a field its op does not carry stays zero.
  struct Record {
    Op op = Op::kRemove;
    ObjectId oid;
    NodeId child;              // kSetForward
    double offered_acc = 0.0;  // kInsertLeaf, kSetAcc
    core::RegInfo reg_info;    // kInsertLeaf

    friend bool operator==(const Record&, const Record&) = default;
  };

  static wire::Buffer set_forward(ObjectId oid, NodeId child);
  static wire::Buffer insert_leaf(ObjectId oid, double offered_acc,
                                  const core::RegInfo& reg_info);
  static wire::Buffer set_acc(ObjectId oid, double offered_acc);
  static wire::Buffer remove(ObjectId oid);

  /// In memory: appends go nowhere and replay finds nothing.
  VisitorLog() = default;

  /// Opens (creating if needed) the log at `path`. With `fsync_each`, every
  /// append reaches stable storage before it returns.
  static Result<VisitorLog> open(const std::string& path, bool fsync_each = false);

  /// Invokes `fn` for every intact record in write order, up to a torn or
  /// corrupt tail (the record being written during a crash). A record with
  /// an unknown op or a short body is skipped.
  void replay(const std::function<void(const Record&)>& fn) const;

  /// Appends one record made by a builder above.
  void append(const wire::Buffer& record) {
    if (log_) log_->append(record);
  }
  /// Appends the kRemove records of `oids` as one frame write (and one fsync
  /// under fsync_each).
  void append_remove(std::span<const ObjectId> oids);

  /// Whether appends reach a file; callers skip building records otherwise.
  bool persistent() const { return log_.has_value(); }

  /// Compaction: once `threshold` records were appended since the last
  /// rewrite, replaces the log with exactly the records `collect` pushes
  /// onto its vector argument.
  template <typename Collect>
  Status compact(std::uint64_t threshold, Collect&& collect) {
    if (!log_ || log_->appended() < threshold) return Status::ok();
    std::vector<wire::Buffer> records;
    collect(records);
    return log_->rewrite(records);
  }

  /// Records appended since open or the last rewrite (0 in memory).
  std::uint64_t appended() const { return log_ ? log_->appended() : 0; }

 private:
  std::optional<PersistentLog> log_;
};

}  // namespace locs::store

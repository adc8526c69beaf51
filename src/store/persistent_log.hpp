// Append-only persistent log with per-record CRC framing.
//
// Stands in for the paper's DB2/JDBC persistent storage (§5, §7.1): the
// visitorDB "is kept in persistent storage, which is updated only when an
// object is registered, deregisters or a handover occurs", so forwarding
// paths survive server failures. Replay tolerates a torn tail (the record
// being written during a crash) by stopping at the first bad frame.
#pragma once

#include <functional>
#include <span>
#include <string>

#include "util/result.hpp"
#include "wire/codec.hpp"

namespace locs::store {

class PersistentLog {
 public:
  PersistentLog() = default;
  ~PersistentLog();

  PersistentLog(PersistentLog&& other) noexcept;
  PersistentLog& operator=(PersistentLog&& other) noexcept;
  PersistentLog(const PersistentLog&) = delete;
  PersistentLog& operator=(const PersistentLog&) = delete;

  /// Opens (creating if needed) the log at `path`. With `fsync_each`, every
  /// append is flushed to stable storage before returning.
  static Result<PersistentLog> open(const std::string& path, bool fsync_each = false);

  Status append(const wire::Buffer& record);

  /// Appends a whole batch of records as ONE contiguous frame write (and one
  /// fsync under fsync_each) -- the per-record syscall/flush cost is paid
  /// once per batch. Equivalent on disk to appending each record in order.
  Status append_batch(std::span<const wire::Buffer> records);

  /// Invokes `fn` for every intact record in write order. Stops silently at
  /// a torn/corrupt tail or a read error; returns an error only when the log
  /// is not open.
  Status replay(const std::function<void(const std::uint8_t*, std::size_t)>& fn) const;

  /// Atomically replaces the log contents with `records` (compaction):
  /// writes a sibling temp file, fsyncs, renames over the original.
  Status rewrite(const std::vector<wire::Buffer>& records);

  /// Number of appends since open or since the last rewrite() (not counting
  /// replayed records) -- the compaction trigger.
  std::uint64_t appended() const { return appended_; }

 private:
  std::string path_;
  int fd_ = -1;
  bool fsync_each_ = false;
  std::uint64_t appended_ = 0;
};

}  // namespace locs::store

// Visitor database (§5) of a non-leaf server: one forwarding reference per
// object in the server's service area, naming the child next on the path to
// the object's agent (v.forwardRef). A leaf keeps its visitor records in its
// leaf table instead (store::SightingDb), and no forwarding references.
//
// Kept on persistent storage (the node's store::VisitorLog), "updated only
// when an object is registered, deregisters or a handover occurs", so
// forwarding paths survive crashes. In memory the references live in one
// flat table of 16-byte slots.
#pragma once

#include <optional>

#include "store/visitor_log.hpp"
#include "util/ids.hpp"
#include "util/oid_set.hpp"

namespace locs::store {

class VisitorDb {
 public:
  /// In memory (tests, simulations that do not exercise recovery).
  VisitorDb() = default;

  /// Replays the forwarding references in `log`, then appends every mutation
  /// to it.
  explicit VisitorDb(VisitorLog log);

  /// Path entry (Alg 6-1 createPath / Alg 6-3 forwarding repair).
  void set_forward(ObjectId oid, NodeId child);

  bool remove(ObjectId oid);

  /// The child next on the path to `oid`'s agent, or nullopt.
  std::optional<NodeId> find(ObjectId oid) const;
  std::size_t size() const { return forward_.size(); }

  /// Rewrites the log to exactly the current references (bounded recovery
  /// time) once it has grown past `appended_threshold` mutation records (the
  /// server's tick() calls this).
  Status compact(std::uint64_t appended_threshold = 0);

  /// Mutations appended to the persistent log since open (0 if in-memory).
  std::uint64_t log_appended() const { return log_.appended(); }

  /// Invokes fn(ObjectId, NodeId child) per reference, in slot order.
  /// Callers that emit messages from it sort first.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    forward_.for_each(fn);
  }

 private:
  util::OidMap<NodeId> forward_;
  VisitorLog log_;
};

}  // namespace locs::store

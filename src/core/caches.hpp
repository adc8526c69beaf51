// The three leaf-server caches of §6.5, each individually switchable
// (ablation A2).
//
//  1. (leaf server, service area): learned from the origin-area piggyback on
//     forwarded messages; lets an entry server contact leaves directly for
//     handovers and range queries without traversing the hierarchy.
//  2. (tracked object, current agent): learned from query responses; speeds
//     up position queries. Entries go stale when the object hands over --
//     a query sent to a cached agent falls back on the hierarchy when that
//     agent answers not-found or does not answer in time, and the entry is
//     dropped.
//  3. (tracked object, position descriptor): caches query results; a hit is
//     valid only while the accuracy, aged by the object's maximum speed
//     (acc + v * dt, §3/[15]), still meets the configured bound.
#pragma once

#include <optional>
#include <unordered_map>

#include "core/types.hpp"
#include "geo/polygon.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace locs::core {

/// Cache 1: leaf server -> service area.
class LeafAreaCache {
 public:
  static constexpr std::size_t kMaxEntries = 4096;

  void learn(NodeId leaf, geo::Polygon area) {
    if (!leaf.valid()) return;
    const auto it = entries_.find(leaf);
    if (it != entries_.end()) {
      it->second = std::move(area);
      return;
    }
    if (entries_.size() >= kMaxEntries) entries_.erase(entries_.begin());
    entries_.emplace(leaf, std::move(area));
  }

  /// The leaf whose cached area contains p (handover shortcut), if any.
  NodeId leaf_containing(geo::Point p) const {
    for (const auto& [id, area] : entries_) {
      if (area.contains(p)) return id;
    }
    return kNoNode;
  }

  /// All cached leaves whose areas intersect `query`, plus the total size of
  /// query ∩ (union of those areas) -- since leaf areas never overlap, the
  /// sum of pairwise intersection sizes is exact. The caller can contact the
  /// leaves directly iff the covered size equals the query size.
  struct Coverage {
    std::vector<NodeId> leaves;
    double covered_size = 0.0;
  };
  Coverage coverage_of(const geo::Polygon& query) const {
    Coverage cov;
    for (const auto& [id, area] : entries_) {
      const double inter = geo::intersection_area(query, area);
      if (inter > 0.0) {
        cov.leaves.push_back(id);
        cov.covered_size += inter;
      }
    }
    return cov;
  }

  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  std::unordered_map<NodeId, geo::Polygon> entries_;
};

/// Cache 2: tracked object -> current agent.
class ObjectAgentCache {
 public:
  static constexpr std::size_t kMaxEntries = 65536;
  /// An entry older than this is not used.
  static constexpr Duration kTtl = seconds(300);

  void learn(ObjectId oid, NodeId agent, TimePoint now) {
    if (!agent.valid()) return;
    if (entries_.size() >= kMaxEntries && entries_.find(oid) == entries_.end()) {
      entries_.erase(entries_.begin());
    }
    entries_[oid] = {agent, now};
  }

  std::optional<NodeId> find(ObjectId oid, TimePoint now) const {
    const auto it = entries_.find(oid);
    if (it == entries_.end()) return std::nullopt;
    if (now - it->second.at > kTtl) return std::nullopt;
    return it->second.agent;
  }

  void invalidate(ObjectId oid) { entries_.erase(oid); }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct EntryRec {
    NodeId agent;
    TimePoint at;
  };
  std::unordered_map<ObjectId, EntryRec> entries_;
};

/// Cache 3: tracked object -> position descriptor.
class PositionCache {
 public:
  static constexpr std::size_t kMaxEntries = 65536;

  void learn(ObjectId oid, const LocationDescriptor& ld, TimePoint now) {
    if (entries_.size() >= kMaxEntries && entries_.find(oid) == entries_.end()) {
      entries_.erase(entries_.begin());
    }
    entries_[oid] = {ld, now};
  }

  /// A cached descriptor aged to `now`: the accuracy degrades by
  /// max_speed * elapsed. Returns it only if the aged accuracy still meets
  /// `max_acceptable_acc`.
  std::optional<LocationDescriptor> find(ObjectId oid, TimePoint now,
                                         double max_speed,
                                         double max_acceptable_acc) const {
    const auto it = entries_.find(oid);
    if (it == entries_.end()) return std::nullopt;
    const double dt = now > it->second.at ? to_seconds(now - it->second.at) : 0.0;
    const double aged_acc = it->second.ld.acc + max_speed * dt;
    if (aged_acc > max_acceptable_acc) return std::nullopt;
    return LocationDescriptor{it->second.ld.pos, aged_acc};
  }

  void invalidate(ObjectId oid) { entries_.erase(oid); }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

 private:
  struct EntryRec {
    LocationDescriptor ld;
    TimePoint at;
  };
  std::unordered_map<ObjectId, EntryRec> entries_;
};

}  // namespace locs::core

// Service areas and server configuration records (§4, §5).
//
// "A service area can be subdivided into sub service areas ... (1) A
// non-leaf service area consists of their child service areas, and
// (2) sibling service areas do not overlap."
//
// Each location server stores a configuration record c = (sa, parent,
// children) on persistent storage; the hierarchy builder generates a
// consistent set of these records.
#pragma once

#include <vector>

#include "geo/polygon.hpp"
#include "util/ids.hpp"

namespace locs::core {

struct ChildRecord {
  NodeId id;
  geo::Polygon sa;
};

struct ConfigRecord {
  geo::Polygon sa;                    // c.sa
  NodeId parent;                      // c.parent (kNoNode for the root)
  std::vector<ChildRecord> children;  // c.children (empty for a leaf)

  bool is_leaf() const { return children.empty(); }
  bool is_root() const { return !parent.valid(); }

  bool covers(geo::Point p) const { return sa.contains(p); }

  /// The child whose service area contains p (first match: boundary points
  /// belong to the lowest-numbered sibling, a deterministic tie-break for
  /// the paper's non-overlap requirement). kNoNode if none.
  NodeId child_for(geo::Point p) const {
    for (const ChildRecord& child : children) {
      if (child.sa.contains(p)) return child.id;
    }
    return kNoNode;
  }
};

/// A full hierarchy: one (id, config) per server plus the root id.
struct HierarchySpec {
  struct Node {
    NodeId id;
    ConfigRecord cfg;
  };
  std::vector<Node> nodes;
  NodeId root;

  const Node* find(NodeId id) const {
    for (const Node& n : nodes) {
      if (n.id == id) return &n;
    }
    return nullptr;
  }

  std::vector<NodeId> leaves() const {
    std::vector<NodeId> out;
    for (const Node& n : nodes) {
      if (n.cfg.is_leaf()) out.push_back(n.id);
    }
    return out;
  }

  /// The leaf server whose area contains p (entry-server discovery stand-in
  /// for the paper's Jini lookup).
  NodeId leaf_for(geo::Point p) const {
    for (const Node& n : nodes) {
      if (n.cfg.is_leaf() && n.cfg.covers(p)) return n.id;
    }
    return kNoNode;
  }
};

}  // namespace locs::core

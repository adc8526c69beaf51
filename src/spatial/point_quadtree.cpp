// Point Quadtree (Samet [17]) -- the spatial index used by the paper's
// prototype (§7.1). Every node stores one data point which splits its region
// into four quadrants.
//
// Deletion in point quadtrees is notoriously awkward (Samet §2.3.1); like
// many production systems we use tombstones plus amortized rebuilding, which
// keeps removal O(1) and preserves query complexity.
//
// Nodes live in one arena addressed by 32-bit slots. The hot half of a node
// (point and child slots, 32 bytes) is all that insert, move and range walks
// read; the object id and live flag sit in a parallel vector. A rebuild
// re-links the surviving slots in place: no node or by_id_ entry is freed or
// reallocated, and tombstoned slots go to a free list.
#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "spatial/spatial_index.hpp"
#include "util/rng.hpp"

namespace locs::spatial {

namespace {

class PointQuadtree final : public SpatialIndex {
 public:
  void insert(ObjectId id, geo::Point pos) override {
    assert(by_id_.find(id) == by_id_.end());
    const std::uint32_t s = new_slot(id, pos);
    link(s);
    by_id_.emplace(id, s);
    ++alive_;
  }

  bool remove(ObjectId id) override {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    tags_[it->second].alive = false;
    by_id_.erase(it);
    --alive_;
    ++dead_;
    maybe_rebuild();
    return true;
  }

  /// Position update without the remove+insert hash churn of the default.
  /// One root walk finds where `pos` would insert; if that terminates at the
  /// object's own (childless) node, the point moves in place -- every
  /// ancestor's quadrant relation still holds. Otherwise the old node is
  /// tombstoned and a recycled slot attaches at the walk's end, reusing the
  /// existing by_id_ entry. Steady-state updates allocate nothing: the slot
  /// free list is restocked wholesale by the amortized rebuilds.
  void update(ObjectId id, geo::Point pos) override {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) {
      insert(id, pos);
      return;
    }
    const std::uint32_t own = it->second;
    std::uint32_t cur = root_;
    for (;;) {
      const int q = quadrant_of(nodes_[cur].pos, pos);
      const std::uint32_t next = nodes_[cur].child[q];
      if (next == kNone) {
        if (cur == own && is_leaf(nodes_[own])) {
          nodes_[own].pos = pos;
          return;
        }
        tags_[own].alive = false;
        ++dead_;
        const std::uint32_t s = new_slot(id, pos);
        nodes_[cur].child[q] = s;
        it->second = s;
        maybe_rebuild();
        return;
      }
      cur = next;
    }
  }

  void query_rect(const geo::Rect& rect, std::vector<Entry>& out) const override {
    query_rect_rec(root_, rect, out);
  }

  std::vector<Entry> k_nearest(geo::Point p, std::size_t k) const override {
    // Best-first search over (node, enclosing-region) pairs.
    const auto farther = [](const Item& a, const Item& b) { return a.dist2 > b.dist2; };
    const auto push = [&](const Item& item) {
      heap_.push_back(item);
      std::push_heap(heap_.begin(), heap_.end(), farther);
    };
    heap_.clear();

    constexpr double inf = 1e300;
    const geo::Rect whole{{-inf, -inf}, {inf, inf}};
    if (root_ != kNone) push({0.0, false, root_, whole});

    std::vector<Entry> result;
    while (!heap_.empty() && result.size() < k) {
      std::pop_heap(heap_.begin(), heap_.end(), farther);
      const Item item = heap_.back();
      heap_.pop_back();
      const Node& n = nodes_[item.slot];
      if (item.is_point) {
        result.push_back({tags_[item.slot].id, n.pos});
        continue;
      }
      if (tags_[item.slot].alive) {
        push({geo::distance2(p, n.pos), true, item.slot, item.region});
      }
      for (int q = 0; q < 4; ++q) {
        if (n.child[q] == kNone) continue;
        const geo::Rect sub = quadrant_region(item.region, n.pos, q);
        push({sub.distance2_to(p), false, n.child[q], sub});
      }
    }
    return result;
  }

  std::size_t size() const override { return alive_; }

  void clear() override {
    nodes_.clear();
    tags_.clear();
    free_.clear();
    by_id_.clear();
    root_ = kNone;
    alive_ = 0;
    dead_ = 0;
  }

  const char* name() const override { return "point_quadtree"; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Node {
    geo::Point pos;
    std::uint32_t child[4];
  };
  static_assert(sizeof(Node) == 32, "the walked half of a node fills half a cache line");

  struct Tag {
    ObjectId id;
    bool alive;
  };

  struct Item {
    double dist2;
    bool is_point;  // true: a candidate data point; false: a subtree
    std::uint32_t slot;
    geo::Rect region;
  };

  // Quadrants: 0 = SW, 1 = SE, 2 = NW, 3 = NE relative to the node's point.
  static int quadrant_of(geo::Point split, geo::Point p) {
    const int east = p.x >= split.x ? 1 : 0;
    const int north = p.y >= split.y ? 2 : 0;
    return east + north;
  }

  static geo::Rect quadrant_region(const geo::Rect& region, geo::Point split, int q) {
    geo::Rect r = region;
    if (q & 1) {
      r.min.x = std::max(r.min.x, split.x);
    } else {
      r.max.x = std::min(r.max.x, split.x);
    }
    if (q & 2) {
      r.min.y = std::max(r.min.y, split.y);
    } else {
      r.max.y = std::min(r.max.y, split.y);
    }
    return r;
  }

  static bool is_leaf(const Node& n) {
    return n.child[0] == kNone && n.child[1] == kNone && n.child[2] == kNone &&
           n.child[3] == kNone;
  }

  /// A childless node for (id, pos), recycled from the free list if possible.
  std::uint32_t new_slot(ObjectId id, geo::Point pos) {
    const Node node{pos, {kNone, kNone, kNone, kNone}};
    if (free_.empty()) {
      nodes_.push_back(node);
      tags_.push_back({id, true});
      return static_cast<std::uint32_t>(nodes_.size() - 1);
    }
    const std::uint32_t s = free_.back();
    free_.pop_back();
    nodes_[s] = node;
    tags_[s] = {id, true};
    return s;
  }

  /// Attaches childless slot `s` where a root walk for its point ends.
  void link(std::uint32_t s) {
    const geo::Point pos = nodes_[s].pos;
    std::uint32_t* at = &root_;
    while (*at != kNone) {
      Node& cur = nodes_[*at];
      at = &cur.child[quadrant_of(cur.pos, pos)];
    }
    *at = s;
  }

  void query_rect_rec(std::uint32_t s, const geo::Rect& rect,
                      std::vector<Entry>& out) const {
    if (s == kNone) return;
    const Node& n = nodes_[s];
    if (rect.contains(n.pos) && tags_[s].alive) out.push_back({tags_[s].id, n.pos});
    // Prune quadrants that cannot intersect the query rectangle.
    const bool west = rect.min.x < n.pos.x;
    const bool east = rect.max.x >= n.pos.x;
    const bool south = rect.min.y < n.pos.y;
    const bool north = rect.max.y >= n.pos.y;
    if (west && south) query_rect_rec(n.child[0], rect, out);
    if (east && south) query_rect_rec(n.child[1], rect, out);
    if (west && north) query_rect_rec(n.child[2], rect, out);
    if (east && north) query_rect_rec(n.child[3], rect, out);
  }

  void maybe_rebuild() {
    if (dead_ < 64 || dead_ < alive_) return;
    // Live slots in preorder (children 0..3); tombstones go to the free list.
    std::vector<std::uint32_t> live;
    live.reserve(alive_);
    std::vector<std::uint32_t> stack{root_};
    while (!stack.empty()) {
      const std::uint32_t s = stack.back();
      stack.pop_back();
      (tags_[s].alive ? live : free_).push_back(s);
      for (int q = 3; q >= 0; --q) {
        if (nodes_[s].child[q] != kNone) stack.push_back(nodes_[s].child[q]);
      }
    }
    assert(live.size() == alive_);
    // Shuffle before reinsertion: point quadtree depth depends on
    // insertion order; a deterministic shuffle restores expected O(log n).
    Rng rng(0x9d7f3c2b1ULL + live.size());
    std::shuffle(live.begin(), live.end(), rng);
    // Re-link in shuffled order. A slot's children are cut just before it
    // is linked, so every walk sees only slots already re-linked.
    root_ = kNone;
    for (const std::uint32_t s : live) {
      std::fill(std::begin(nodes_[s].child), std::end(nodes_[s].child), kNone);
      link(s);
    }
    dead_ = 0;
  }

  std::vector<Node> nodes_;
  std::vector<Tag> tags_;  // parallel to nodes_
  std::vector<std::uint32_t> free_;
  std::unordered_map<ObjectId, std::uint32_t> by_id_;
  std::uint32_t root_ = kNone;
  std::size_t alive_ = 0;
  std::size_t dead_ = 0;
  // Best-first heap for k_nearest, reused across calls (the owning server is
  // a single-threaded reactor, so const queries never run concurrently).
  mutable std::vector<Item> heap_;
};

}  // namespace

std::unique_ptr<SpatialIndex> make_point_quadtree() {
  return std::make_unique<PointQuadtree>();
}

}  // namespace locs::spatial

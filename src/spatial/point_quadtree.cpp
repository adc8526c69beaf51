// Point Quadtree (Samet [17]) -- the spatial index used by the paper's
// prototype (§7.1). Every node stores one data point which splits its region
// into four quadrants.
//
// Deletion in point quadtrees is notoriously awkward (Samet §2.3.1); like
// many production systems we use tombstones plus amortized rebuilding, which
// keeps removal O(1) and preserves query complexity.
#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <queue>
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
    Node* node = insert_node(id, pos);
    by_id_.emplace(id, node);
    ++alive_;
  }

  bool remove(ObjectId id) override {
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return false;
    it->second->alive = false;
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
  /// tombstoned and a recycled node attaches at the walk's end, reusing the
  /// existing by_id_ slot. Steady-state updates allocate nothing: the node
  /// free list is restocked wholesale by the amortized rebuilds.
  void update(ObjectId id, geo::Point pos) override {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) {
      insert(id, pos);
      return;
    }
    Node* node = it->second;
    Node* cur = root_.get();
    for (;;) {
      const int q = quadrant_of(cur->pos, pos);
      Node* next = cur->child[q].get();
      if (next == nullptr) {
        if (cur == node && is_leaf(node)) {
          node->pos = pos;
          return;
        }
        node->alive = false;
        ++dead_;
        cur->child[q] = make_node(id, pos);
        it->second = cur->child[q].get();
        maybe_rebuild();
        return;
      }
      cur = next;
    }
  }

  void query_rect(const geo::Rect& rect, std::vector<Entry>& out) const override {
    query_rect_rec(root_.get(), rect, out);
  }

  std::vector<Entry> k_nearest(geo::Point p, std::size_t k) const override {
    // Best-first search over (node, enclosing-region) pairs.
    struct Item {
      double dist2;
      bool is_point;  // true: a candidate data point; false: a subtree
      const Node* node;
      geo::Rect region;
    };
    const auto cmp = [](const Item& a, const Item& b) { return a.dist2 > b.dist2; };
    std::priority_queue<Item, std::vector<Item>, decltype(cmp)> heap(cmp);

    constexpr double inf = 1e300;
    const geo::Rect whole{{-inf, -inf}, {inf, inf}};
    if (root_) heap.push({0.0, false, root_.get(), whole});

    std::vector<Entry> result;
    while (!heap.empty() && result.size() < k) {
      const Item item = heap.top();
      heap.pop();
      if (item.is_point) {
        result.push_back({item.node->id, item.node->pos});
        continue;
      }
      const Node* n = item.node;
      if (n->alive) {
        heap.push({geo::distance2(p, n->pos), true, n, item.region});
      }
      for (int q = 0; q < 4; ++q) {
        if (!n->child[q]) continue;
        const geo::Rect sub = quadrant_region(item.region, n->pos, q);
        heap.push({sub.distance2_to(p), false, n->child[q].get(), sub});
      }
    }
    return result;
  }

  std::size_t size() const override { return alive_; }

  void clear() override {
    root_.reset();
    by_id_.clear();
    free_.clear();
    alive_ = 0;
    dead_ = 0;
  }

  const char* name() const override { return "point_quadtree"; }

 private:
  struct Node {
    ObjectId id;
    geo::Point pos;
    bool alive = true;
    std::unique_ptr<Node> child[4];
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

  static bool is_leaf(const Node* n) {
    return !n->child[0] && !n->child[1] && !n->child[2] && !n->child[3];
  }

  std::unique_ptr<Node> make_node(ObjectId id, geo::Point pos) {
    std::unique_ptr<Node> node;
    if (!free_.empty()) {
      node = std::move(free_.back());
      free_.pop_back();
      node->alive = true;
      for (auto& c : node->child) c.reset();
    } else {
      node = std::make_unique<Node>();
    }
    node->id = id;
    node->pos = pos;
    return node;
  }

  /// Moves an entire subtree into the free list (children first).
  void harvest(std::unique_ptr<Node> n) {
    if (!n) return;
    for (auto& c : n->child) harvest(std::move(c));
    free_.push_back(std::move(n));
  }

  Node* insert_node(ObjectId id, geo::Point pos) {
    if (!root_) {
      root_ = make_node(id, pos);
      return root_.get();
    }
    Node* cur = root_.get();
    for (;;) {
      const int q = quadrant_of(cur->pos, pos);
      if (!cur->child[q]) {
        cur->child[q] = make_node(id, pos);
        return cur->child[q].get();
      }
      cur = cur->child[q].get();
    }
  }

  void query_rect_rec(const Node* n, const geo::Rect& rect,
                      std::vector<Entry>& out) const {
    if (!n) return;
    if (n->alive && rect.contains(n->pos)) out.push_back({n->id, n->pos});
    // Prune quadrants that cannot intersect the query rectangle.
    const bool west = rect.min.x < n->pos.x;
    const bool east = rect.max.x >= n->pos.x;
    const bool south = rect.min.y < n->pos.y;
    const bool north = rect.max.y >= n->pos.y;
    if (west && south) query_rect_rec(n->child[0].get(), rect, out);
    if (east && south) query_rect_rec(n->child[1].get(), rect, out);
    if (west && north) query_rect_rec(n->child[2].get(), rect, out);
    if (east && north) query_rect_rec(n->child[3].get(), rect, out);
  }

  void maybe_rebuild() {
    if (dead_ < 64 || dead_ < alive_) return;
    std::vector<Entry> entries;
    entries.reserve(alive_);
    collect(root_.get(), entries);
    // Shuffle before reinsertion: point quadtree depth depends on
    // insertion order; a deterministic shuffle restores expected O(log n).
    Rng rng(0x9d7f3c2b1ULL + entries.size());
    std::shuffle(entries.begin(), entries.end(), rng);
    // Recycle every node (live and tombstoned): the free list this leaves
    // behind feeds make_node until the next rebuild, making steady-state
    // updates allocation-free.
    harvest(std::move(root_));
    by_id_.clear();
    dead_ = 0;
    alive_ = 0;
    for (const Entry& e : entries) {
      insert(e.id, e.pos);
    }
  }

  void collect(const Node* n, std::vector<Entry>& out) const {
    if (!n) return;
    if (n->alive) out.push_back({n->id, n->pos});
    for (const auto& c : n->child) collect(c.get(), out);
  }

  std::unique_ptr<Node> root_;
  std::vector<std::unique_ptr<Node>> free_;
  std::unordered_map<ObjectId, Node*> by_id_;
  std::size_t alive_ = 0;
  std::size_t dead_ = 0;
};

}  // namespace

std::unique_ptr<SpatialIndex> make_point_quadtree() {
  return std::make_unique<PointQuadtree>();
}

}  // namespace locs::spatial

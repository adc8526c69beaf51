// Linear scan over a flat entry vector: the brute-force oracle the point
// quadtree is checked against (test_spatial's contract cases) and the
// baseline of ablation A3, which the quadtree must outrun on queries.
#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <vector>

#include "spatial/spatial_index.hpp"

namespace locs::spatial {

namespace {

class LinearIndex final : public SpatialIndex {
 public:
  void insert(ObjectId id, geo::Point pos) override {
    assert(where_.find(id) == where_.end());
    where_[id] = entries_.size();
    entries_.push_back({id, pos});
  }

  bool remove(ObjectId id) override {
    auto it = where_.find(id);
    if (it == where_.end()) return false;
    const std::size_t idx = it->second;
    where_.erase(it);
    if (idx + 1 != entries_.size()) {
      entries_[idx] = entries_.back();
      where_[entries_[idx].id] = idx;
    }
    entries_.pop_back();
    return true;
  }

  void update(ObjectId id, geo::Point pos) override {
    const auto it = where_.find(id);
    assert(it != where_.end());
    entries_[it->second].pos = pos;
  }

  void query_rect(const geo::Rect& rect, std::vector<Entry>& out) const override {
    for (const Entry& e : entries_) {
      if (rect.contains(e.pos)) out.push_back(e);
    }
  }

  std::vector<Entry> k_nearest(geo::Point p, std::size_t k) const override {
    std::vector<Entry> sorted = entries_;
    std::sort(sorted.begin(), sorted.end(), [&](const Entry& a, const Entry& b) {
      return geo::distance2(p, a.pos) < geo::distance2(p, b.pos);
    });
    sorted.resize(std::min(sorted.size(), k));
    return sorted;
  }

  std::size_t size() const override { return entries_.size(); }

  void clear() override {
    entries_.clear();
    where_.clear();
  }

  const char* name() const override { return "linear"; }

 private:
  std::vector<Entry> entries_;
  std::unordered_map<ObjectId, std::size_t> where_;
};

}  // namespace

std::unique_ptr<SpatialIndex> make_linear_index() {
  return std::make_unique<LinearIndex>();
}

}  // namespace locs::spatial

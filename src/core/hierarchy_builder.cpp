#include "core/hierarchy_builder.hpp"

#include <cassert>

namespace locs::core {

namespace {

geo::Rect sub_rect(const geo::Rect& r, int fx, int fy, int ix, int iy) {
  const double w = r.width() / fx;
  const double h = r.height() / fy;
  return geo::Rect{{r.min.x + w * ix, r.min.y + h * iy},
                   {r.min.x + w * (ix + 1), r.min.y + h * (iy + 1)}};
}

}  // namespace

HierarchySpec HierarchyBuilder::grid(const geo::Rect& root_area, int fanout_x,
                                     int fanout_y, int levels,
                                     std::uint32_t first_id) {
  assert(fanout_x >= 1 && fanout_y >= 1 && levels >= 0);
  HierarchySpec spec;
  std::uint32_t next_id = first_id;

  struct Pending {
    NodeId id;
    geo::Rect area;
    NodeId parent;
    int depth;
  };
  std::vector<Pending> queue;
  const NodeId root_id{next_id++};
  queue.push_back({root_id, root_area, kNoNode, 0});
  spec.root = root_id;

  // Breadth-first so sibling ids are contiguous (nicer traces).
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const Pending cur = queue[qi];
    HierarchySpec::Node node;
    node.id = cur.id;
    node.cfg.sa = geo::Polygon::from_rect(cur.area);
    node.cfg.parent = cur.parent;
    if (cur.depth < levels) {
      for (int iy = 0; iy < fanout_y; ++iy) {
        for (int ix = 0; ix < fanout_x; ++ix) {
          const NodeId child_id{next_id++};
          const geo::Rect child_area = sub_rect(cur.area, fanout_x, fanout_y, ix, iy);
          node.cfg.children.push_back(
              {child_id, geo::Polygon::from_rect(child_area)});
          queue.push_back({child_id, child_area, cur.id, cur.depth + 1});
        }
      }
    }
    spec.nodes.push_back(std::move(node));
  }
  return spec;
}

HierarchySpec HierarchyBuilder::fig6(const geo::Rect& root_area) {
  HierarchySpec spec;
  spec.root = NodeId{1};
  const double mid_x = (root_area.min.x + root_area.max.x) / 2;
  const double mid_y = (root_area.min.y + root_area.max.y) / 2;
  const geo::Rect left{root_area.min, {mid_x, root_area.max.y}};
  const geo::Rect right{{mid_x, root_area.min.y}, root_area.max};
  const geo::Rect s4{left.min, {left.max.x, mid_y}};                       // SW of left
  const geo::Rect s5{{left.min.x, mid_y}, left.max};                       // NW of left
  const geo::Rect s6{right.min, {right.max.x, mid_y}};                     // SE
  const geo::Rect s7{{right.min.x, mid_y}, right.max};                     // NE

  const auto poly = [](const geo::Rect& r) { return geo::Polygon::from_rect(r); };

  HierarchySpec::Node s1{NodeId{1}, {poly(root_area), kNoNode,
                                     {{NodeId{2}, poly(left)}, {NodeId{3}, poly(right)}}}};
  HierarchySpec::Node n2{NodeId{2}, {poly(left), NodeId{1},
                                     {{NodeId{4}, poly(s4)}, {NodeId{5}, poly(s5)}}}};
  HierarchySpec::Node n3{NodeId{3}, {poly(right), NodeId{1},
                                     {{NodeId{6}, poly(s6)}, {NodeId{7}, poly(s7)}}}};
  HierarchySpec::Node n4{NodeId{4}, {poly(s4), NodeId{2}, {}}};
  HierarchySpec::Node n5{NodeId{5}, {poly(s5), NodeId{2}, {}}};
  HierarchySpec::Node n6{NodeId{6}, {poly(s6), NodeId{3}, {}}};
  HierarchySpec::Node n7{NodeId{7}, {poly(s7), NodeId{3}, {}}};
  spec.nodes = {s1, n2, n3, n4, n5, n6, n7};
  return spec;
}

HierarchySpec HierarchyBuilder::table2(const geo::Rect& root_area) {
  return grid(root_area, 2, 2, 1);
}

}  // namespace locs::core

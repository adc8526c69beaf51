// Builders for location-server hierarchies.
//
// "The performance of the system is influenced by the height of the
// hierarchy, the fan-out of nodes and the size of the (leaf) service areas"
// (§4); grid() sweeps exactly these parameters (ablation A1). fig6() and
// table2() reproduce the paper's concrete topologies.
#pragma once

#include "core/service_area.hpp"
#include "geo/rect.hpp"

namespace locs::core {

class HierarchyBuilder {
 public:
  /// Uniform hierarchy over a rectangular root area: every non-leaf splits
  /// its rectangle into a fanout_x * fanout_y grid of children, `levels`
  /// levels below the root (levels = 0 -> a single server; the centralized
  /// baseline). Node ids are assigned breadth-first starting at `first_id`.
  static HierarchySpec grid(const geo::Rect& root_area, int fanout_x, int fanout_y,
                            int levels, std::uint32_t first_id = 1);

  /// The 7-server, 3-level hierarchy of Fig 6: root s1; children s2, s3;
  /// s2's children s4, s5; s3's children s6, s7 (left/right halves split
  /// into quarters). Ids 1..7 match the figure.
  static HierarchySpec fig6(const geo::Rect& root_area);

  /// The Table-2 test configuration (§7.2, Fig 8): one root (id 1) with four
  /// leaf children (ids 2..5), each responsible for a quarter of the
  /// root area (the paper used 1.5 km x 1.5 km).
  static HierarchySpec table2(const geo::Rect& root_area);
};

}  // namespace locs::core

// The paper's evaluation as tier-1 checks: Table 2 (§7.2) and ablations A1
// and A5 (§4, §6.3, §6.4) in SimNetwork messages and virtual time, Table 1
// (§7.1) and A3 (§5) as wall-clock ratios. A2 and A4 are in test_caching
// and test_baseline.
//
// Virtual times use the LAN model (lan()), so they are exact and pinned.
// They move only when the message flow or the message sizes change; re-pin
// them then, deliberately, and say so in the change description. The
// paper's wall-clock figures come from 450 MHz SUN Ultras running Java, so
// of those only the orderings with wide gaps are checked, as ratios.
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>

#include "sim/mobility.hpp"
#include "spatial/spatial_index.hpp"
#include "store/sighting_db.hpp"
#include "test_support.hpp"

namespace locs::test {
namespace {

/// One position query for the object at `target`, entered at the leaf that
/// covers `entry`. The answer is its last message, so it ends at idle.
OpCost pos_query_cost(core::HierarchySpec spec, geo::Point entry, geo::Point target) {
  SimWorld w(std::move(spec), core::LocationServer::Options{}, lan());
  const auto obj = w.register_object(ObjectId{1}, target, 5.0, {25.0, 100.0});
  const auto qc = w.make_query_client(w.deployment->entry_leaf_for(entry));
  const std::uint64_t msgs = w.net.messages_sent();
  const TimePoint start = w.net.now();
  EXPECT_TRUE(w.pos_query(*qc, ObjectId{1}).found);
  return {w.net.now() - start, w.net.messages_sent() - msgs};
}

// --- Table 2 (§7.2): response times on the paper's test configuration ----

constexpr double kT2Side = 1500.0;
constexpr std::size_t kOpsPerRow = 32;

enum class Row { kUpdate, kLocalPos, kRemotePos, kLocalRange, kRemoteRange1,
                 kRemoteRange2, kRemoteRange4, kNN };

struct RowPin {
  Row row;
  const char* name;
  const char* paper;   // the paper's response time
  Duration median_us;  // median of kOpsPerRow operations
  std::uint64_t msgs;  // total over kOpsPerRow operations
};

constexpr RowPin kTable2[] = {
    {Row::kUpdate, "update", "1.2 ms", 504, 64},
    {Row::kLocalPos, "local position", "2.0 ms", 504, 64},
    {Row::kRemotePos, "remote position", "6.3 ms", 1264, 160},
    {Row::kLocalRange, "local range", "5.1 ms", 528, 64},
    {Row::kRemoteRange1, "remote range, 1 leaf", "13.0 ms", 1319, 160},
    {Row::kRemoteRange2, "remote range, 2 leaves", "14.6 ms", 1313, 210},
    {Row::kRemoteRange4, "remote range, 4 leaves", "13.8 ms", 1313, 288},
    {Row::kNN, "nearest neighbor", "not measured", 1273, 214},
};

/// Fig 8's configuration: one root and four leaves, each a quarter of a
/// 1,500 m square, with 10k objects registered at random positions.
struct Table2World {
  SimWorld w{core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kT2Side, kT2Side}}),
             core::LocationServer::Options{}, lan()};
  std::vector<NodeId> leaves = w.deployment->leaf_ids();
  std::map<NodeId, std::vector<ObjectId>> by_leaf;

  Table2World() {
    Rng place(11);
    const std::vector<geo::Point> at =
        sim::uniform_placement(geo::Rect{{0, 0}, {kT2Side, kT2Side}}, 10'000, place);
    register_at(w.net, at, [&](geo::Point p) { return w.deployment->entry_leaf_for(p); });
    for (std::size_t i = 0; i < at.size(); ++i) {
      by_leaf[w.deployment->entry_leaf_for(at[i])].push_back(ObjectId{i + 1});
    }
  }

  geo::Rect leaf_box(std::size_t i) {
    return w.deployment->server(leaves[i]).config().sa.bounding_box();
  }
};

/// Runs kOpsPerRow operations: `issue(rng)` starts one and returns a
/// predicate that holds once it is done. Returns the median virtual us and
/// the total messages.
OpCost run_row(Table2World& t, std::uint64_t seed,
               const std::function<std::function<bool()>(Rng&)>& issue) {
  Rng rng(seed);
  OpCost cost;
  std::vector<Duration> us;
  for (std::size_t i = 0; i < kOpsPerRow; ++i) {
    std::function<bool()> done;
    const OpCost op =
        timed_op(t.w.net, [&] { done = issue(rng); }, [&] { return done(); });
    us.push_back(op.us);
    cost.msgs += op.msgs;
  }
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  cost.us = us[us.size() / 2];
  return cost;
}

/// One row, run in a world of its own so that its pin moves only when its
/// own message flow does.
OpCost measure(Row row) {
  Table2World t;
  const auto qc = t.w.make_query_client(kNoNode);
  const bool remote = row != Row::kLocalPos && row != Row::kLocalRange;
  // The entry leaf: the home leaf, or for remote rows one of the other three.
  const auto entry = [&](Rng& rng, std::size_t home) {
    return t.leaves[remote ? (home + 1 + rng.next_below(3)) % 4 : home];
  };
  switch (row) {
    case Row::kUpdate: {
      const geo::Rect box = t.leaf_box(0);
      const auto obj = t.w.register_object(ObjectId{10'001}, box.center(), 5.0, {10.0, 100.0});
      return run_row(t, 21, [&](Rng& rng) -> std::function<bool()> {
        EXPECT_TRUE(obj->feed_position({rng.uniform(box.min.x + 1, box.max.x - 1),
                                        rng.uniform(box.min.y + 1, box.max.y - 1)}));
        return [&] { return !obj->update_pending(); };
      });
    }
    case Row::kLocalPos:
    case Row::kRemotePos:
      return run_row(t, 22, [&](Rng& rng) -> std::function<bool()> {
        const std::size_t target = rng.next_below(4);
        qc->set_entry(entry(rng, target));
        const std::vector<ObjectId>& objs = t.by_leaf[t.leaves[target]];
        const std::uint64_t id = qc->send_pos_query(objs[rng.next_below(objs.size())]);
        return [&, id] { return qc->take_pos(id).has_value(); };
      });
    case Row::kNN:
      return run_row(t, 24, [&](Rng& rng) -> std::function<bool()> {
        const geo::Point p{rng.uniform(0, kT2Side), rng.uniform(0, kT2Side)};
        qc->set_entry(t.leaves[rng.next_below(4)]);
        const std::uint64_t id = qc->send_nn_query(p, 50.0, 0.0);
        return [&, id] { return qc->take_nn(id).has_value(); };
      });
    default:
      // 50 m x 50 m areas (§7.2) inside one leaf, across the vertical leaf
      // boundary (2 leaves) or on the centre (4 leaves).
      return run_row(t, 23, [&](Rng& rng) -> std::function<bool()> {
        const std::size_t home = rng.next_below(4);
        const geo::Rect box = t.leaf_box(home);
        geo::Point c{kT2Side / 2, kT2Side / 2};
        if (row == Row::kLocalRange || row == Row::kRemoteRange1) {
          c.x = rng.uniform(box.min.x + 100, box.max.x - 100);
        }
        if (row != Row::kRemoteRange4) c.y = rng.uniform(box.min.y + 100, box.max.y - 100);
        qc->set_entry(entry(rng, home));
        const std::uint64_t id = qc->send_range_query(
            geo::Polygon::from_rect(geo::Rect::from_center(c, 25, 25)), 25.0, 0.5);
        return [&, id] { return qc->take_range(id).has_value(); };
      });
  }
}

TEST(Table2, RowsArePinnedAndOrderedAsInThePaper) {
  std::array<Duration, std::size(kTable2)> us{};
  for (const RowPin& pin : kTable2) {
    const OpCost got = measure(pin.row);
    std::printf("Table 2 %-22s %5lld us  %4.2f msgs/op   paper: %s\n", pin.name,
                static_cast<long long>(got.us),
                static_cast<double>(got.msgs) / kOpsPerRow, pin.paper);
    EXPECT_EQ(got.us, pin.median_us) << pin.name;
    EXPECT_EQ(got.msgs, pin.msgs) << pin.name;
    us[static_cast<std::size_t>(pin.row)] = got.us;
  }
  const auto at = [&](Row row) { return us[static_cast<std::size_t>(row)]; };
  EXPECT_LE(at(Row::kUpdate), at(Row::kLocalPos));
  EXPECT_LT(at(Row::kLocalPos), at(Row::kRemotePos));
  for (const Row remote : {Row::kRemoteRange1, Row::kRemoteRange2, Row::kRemoteRange4}) {
    EXPECT_LT(at(Row::kLocalRange), at(remote));
  }
}

// --- A1 (§4): the shape of the hierarchy ----------------------------------

const geo::Rect kCity{{0, 0}, {8000, 8000}};

struct FleetCost {
  std::uint64_t updates = 0;
  std::uint64_t msgs = 0;
  std::uint64_t handovers = 0;
};

/// A 200-object random-waypoint fleet (Rng(17)) on a fanout x fanout grid
/// `levels` deep, reporting in 50 bursts of 10 simulated seconds each.
FleetCost drive_fleet(int fanout, int levels) {
  SimWorld w(core::HierarchyBuilder::grid(kCity, fanout, fanout, levels),
             core::LocationServer::Options{}, lan());
  Rng rng(17);
  std::vector<std::unique_ptr<TrackedObject>> fleet;
  std::vector<std::unique_ptr<sim::MobilityModel>> paths;
  for (std::uint64_t i = 1; i <= 200; ++i) {
    const geo::Point start{rng.uniform(0, 8000), rng.uniform(0, 8000)};
    fleet.push_back(
        std::make_unique<TrackedObject>(w.client_node(), ObjectId{i}, w.net, w.net.clock()));
    fleet.back()->start_register(w.deployment->entry_leaf_for(start), start, 5.0,
                                 {25.0, 100.0});
    paths.push_back(sim::make_random_waypoint(kCity, start, 10.0, 30.0, seconds(2), rng));
  }
  w.run();
  const std::uint64_t msgs = w.net.messages_sent();
  const std::uint64_t handovers = w.deployment->total_stats().handovers_accepted;
  FleetCost cost;
  for (int burst = 0; burst < 50; ++burst) {
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (fleet[i]->feed_position(paths[i]->step(seconds(10)))) ++cost.updates;
    }
    w.run();
  }
  cost.msgs = w.net.messages_sent() - msgs;
  cost.handovers = w.deployment->total_stats().handovers_accepted - handovers;
  return cost;
}

TEST(HierarchyShape, UpdateCostRisesWithLeafCountAndDepth) {
  const FleetCost leaves4 = drive_fleet(2, 1);
  const FleetCost leaves16 = drive_fleet(4, 1);
  const FleetCost leaves16_deep = drive_fleet(2, 2);
  const FleetCost leaves64 = drive_fleet(2, 3);
  // Every grid sees the same updates, so totals compare as per-update costs.
  for (const FleetCost* c : {&leaves16, &leaves16_deep, &leaves64}) {
    ASSERT_EQ(c->updates, leaves4.updates);
  }
  for (const FleetCost* mid : {&leaves16, &leaves16_deep}) {
    EXPECT_LT(leaves4.msgs, mid->msgs);
    EXPECT_LT(mid->msgs, leaves64.msgs);
    EXPECT_LT(leaves4.handovers, mid->handovers);
    EXPECT_LT(mid->handovers, leaves64.handovers);
  }
  // 4x4 at one level and 2x2 at two levels share a 16-leaf grid: depth
  // costs messages, not handovers.
  EXPECT_EQ(leaves16.handovers, leaves16_deep.handovers);
  EXPECT_LT(leaves16.msgs, leaves16_deep.msgs);
}

TEST(HierarchyShape, RemotePositionQueryCostGrowsWithDepth) {
  // From the opposite corner, so the query crosses the root: two hops more
  // per level. The deeper 4x4 grids read 1 us more, since their node ids
  // above 127 take a second varint byte.
  struct Pin {
    int fanout;
    int levels;
    std::uint64_t msgs;
    Duration us;
  };
  const Pin pins[] = {{2, 1, 5, 1264}, {2, 2, 7, 1766}, {2, 3, 9, 2268},
                      {4, 1, 5, 1264}, {4, 2, 7, 1767}, {4, 3, 9, 2269}};
  for (const Pin& pin : pins) {
    const OpCost got = pos_query_cost(
        core::HierarchyBuilder::grid(kCity, pin.fanout, pin.fanout, pin.levels),
        {100, 100}, {7900, 7900});
    EXPECT_EQ(got.msgs, pin.msgs) << pin.fanout << "x" << pin.fanout << ", " << pin.levels;
    EXPECT_EQ(got.us, pin.us) << pin.fanout << "x" << pin.fanout << ", " << pin.levels;
  }
}

// --- A5 (§4, §6.3, §6.4): locality pays -----------------------------------

/// The 64-leaf binary split of the 8 km square: 1 km leaves, three levels.
core::HierarchySpec binary_split() { return core::HierarchyBuilder::grid(kCity, 2, 2, 3); }

TEST(Locality, PositionQueryCostRisesWithHierarchyDistance) {
  struct Pin {
    const char* distance;
    geo::Point target;
    std::uint64_t msgs;
    Duration us;
  };
  // Entered at the leaf of (100, 100).
  const Pin pins[] = {{"0, same leaf", {600, 600}, 2, 504},
                      {"1, sibling leaf", {1600, 600}, 5, 1264},
                      {"2, same quadrant", {3600, 3600}, 7, 1766},
                      {"3, opposite corner", {7600, 7600}, 9, 2268}};
  for (const Pin& pin : pins) {
    const OpCost got = pos_query_cost(binary_split(), {100, 100}, pin.target);
    EXPECT_EQ(got.msgs, pin.msgs) << pin.distance;
    EXPECT_EQ(got.us, pin.us) << pin.distance;
  }
}

TEST(Locality, RangeQueryCostRisesWithSpan) {
  // "The cost of processing a query depends on the number of leaf servers
  // involved" (§6.4): 2,000 objects, 32 square queries per span, each
  // entered at the leaf under its centre.
  OpCost previous;
  for (const double span : {100.0, 500.0, 2000.0, 6000.0}) {
    SimWorld w(binary_split(), core::LocationServer::Options{}, lan());
    Rng rng(51);
    register_at(w.net, sim::uniform_placement(kCity, 2000, rng),
                [&](geo::Point p) { return w.deployment->entry_leaf_for(p); });
    const auto qc = w.make_query_client(kNoNode);
    OpCost total;
    for (std::size_t q = 0; q < kOpsPerRow; ++q) {
      const geo::Point c{rng.uniform(span / 2, 8000 - span / 2),
                         rng.uniform(span / 2, 8000 - span / 2)};
      qc->set_entry(w.deployment->entry_leaf_for(c));
      const std::uint64_t msgs = w.net.messages_sent();
      const TimePoint start = w.net.now();  // the answer is the last message
      w.range_query(*qc, geo::Polygon::from_rect(geo::Rect::from_center(c, span / 2, span / 2)),
                    25.0, 0.5);
      total.us += w.net.now() - start;
      total.msgs += w.net.messages_sent() - msgs;
    }
    EXPECT_GT(total.msgs, previous.msgs) << span;
    EXPECT_GT(total.us, previous.us) << span;
    previous = total;
  }
}

// --- Table 1 (§7.1) and A3 (§5): the data store, in wall-clock ratios -----

const geo::Rect kTable1Area{{0, 0}, {10'000, 10'000}};
constexpr std::size_t kTable1Objects = 25'000;

/// Best of three wall-clock runs of `ops` calls to `op`, in seconds per call.
template <typename Op>
double best_of_three(std::size_t ops, Op op) {
  double best = std::numeric_limits<double>::infinity();
  for (int run = 0; run < 3; ++run) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < ops; ++i) op();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start).count());
  }
  return best / static_cast<double>(ops);
}

std::vector<geo::Point> table1_positions() {
  Rng rng(1);
  return sim::uniform_placement(kTable1Area, kTable1Objects, rng);
}

geo::Rect random_square(Rng& rng, double side) {
  const geo::Point corner{rng.uniform(0, kTable1Area.max.x - side),
                          rng.uniform(0, kTable1Area.max.y - side)};
  return {corner, {corner.x + side, corner.y + side}};
}

TEST(Table1, DataStoreOrderingsHold) {
  // The paper reads 384,615 position queries/s against 41,494 updates/s
  // (9.3x) and 18,450 range queries/s over 100 m against 1,813 over 1 km
  // (10.2x); 3x leaves room for host noise.
  store::SightingDb db([] { return spatial::make_point_quadtree(); });
  const std::vector<geo::Point> at = table1_positions();
  for (std::size_t i = 0; i < at.size(); ++i) {
    db.insert(Sighting{ObjectId{i + 1}, 0, at[i], 5.0}, 25.0, 1'000'000'000);
  }
  Rng rng(2);
  const auto random_object = [&] { return ObjectId{1 + rng.next_below(kTable1Objects)}; };
  TimePoint t = 0;
  const double update_s = best_of_three(10'000, [&] {
    db.update(Sighting{random_object(), ++t, {rng.uniform(0, 10'000), rng.uniform(0, 10'000)},
                       5.0},
              1'000'000'000);
  });
  std::size_t found = 0;
  const double position_s =
      best_of_three(100'000, [&] { found += db.find(random_object()) != nullptr; });
  EXPECT_EQ(found, 300'000u);

  std::vector<core::ObjectResult> out;
  const auto range_s = [&](double side, std::size_t queries) {
    return best_of_three(queries, [&] {
      out.clear();
      db.objects_in_area(geo::Polygon::from_rect(random_square(rng, side)), 50.0, 0.5, out);
    });
  };
  const double range100_s = range_s(100, 2'000);
  const double range1k_s = range_s(1000, 200);
  std::printf("Table 1: %.0f updates/s, %.0f position queries/s (%.1fx; paper 9.3x)\n",
              1 / update_s, 1 / position_s, update_s / position_s);
  std::printf("Table 1: %.0f range queries/s over 100 m, %.0f over 1 km (%.1fx; paper 10.2x)\n",
              1 / range100_s, 1 / range1k_s, range1k_s / range100_s);
  EXPECT_GE(update_s / position_s, 3.0);
  EXPECT_GE(range1k_s / range100_s, 3.0);
}

TEST(SpatialIndexChoice, QuadtreeOutrunsTheLinearScanOnQueries) {
  // Queries only: the linear scan updates faster (a hash-map write, where
  // the quadtree moves an entry inside the tree), so "the quadtree beats
  // the linear scan" does not hold for updates.
  const std::vector<geo::Point> at = table1_positions();
  Rng rng(3);
  // Few queries per run keep each timed quadtree run well inside one
  // scheduler slice, so host load rarely lands in all three.
  std::vector<geo::Rect> small, large;
  std::vector<geo::Point> probes;
  for (int i = 0; i < 200; ++i) small.push_back(random_square(rng, 100));
  for (int i = 0; i < 100; ++i) large.push_back(random_square(rng, 1000));
  for (int i = 0; i < 50; ++i) probes.push_back({rng.uniform(0, 10'000), rng.uniform(0, 10'000)});
  const char* const kinds[] = {"100 m range", "1 km range", "8-NN"};

  // Seconds per query of each kind; `id_sum` sums every answer's ids, so
  // equal sums mean the two indexes did the same work.
  const auto time_queries = [&](spatial::SpatialIndex& index, std::uint64_t& id_sum) {
    for (std::size_t i = 0; i < at.size(); ++i) index.insert(ObjectId{i + 1}, at[i]);
    std::vector<spatial::Entry> out;
    const auto timed = [&](std::size_t n, const std::function<void(std::size_t)>& query) {
      std::size_t i = 0;
      return best_of_three(n, [&] {
        out.clear();
        query(i++ % n);
        for (const spatial::Entry& e : out) id_sum += e.id.value;
      });
    };
    return std::array<double, 3>{
        timed(small.size(), [&](std::size_t i) { index.query_rect(small[i], out); }),
        timed(large.size(), [&](std::size_t i) { index.query_rect(large[i], out); }),
        timed(probes.size(), [&](std::size_t i) { out = index.k_nearest(probes[i], 8); })};
  };
  std::uint64_t linear_ids = 0;
  const std::array<double, 3> linear = time_queries(*spatial::make_linear_index(), linear_ids);
  std::uint64_t quadtree_ids = 0;
  const std::array<double, 3> quadtree =
      time_queries(*spatial::make_point_quadtree(), quadtree_ids);
  EXPECT_EQ(quadtree_ids, linear_ids);
  for (std::size_t k = 0; k < quadtree.size(); ++k) {
    EXPECT_GE(linear[k] / quadtree[k], 5.0) << kinds[k];
  }
}

}  // namespace
}  // namespace locs::test

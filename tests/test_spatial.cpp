// Spatial index implementations validated against a brute-force oracle --
// parameterized over all four index types (paper's Point Quadtree, R-Tree,
// plus grid / linear ablation baselines), so every implementation satisfies
// the same contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>

#include "spatial/spatial_index.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace locs::spatial {
namespace {

struct IndexCase {
  const char* name;
  IndexFactory factory;
};

const geo::Rect kArea{{0, 0}, {1000, 1000}};

std::vector<IndexCase> index_cases() {
  return {
      {"quadtree", [] { return make_point_quadtree(); }},
      {"rtree", [] { return make_rtree(); }},
      {"grid", [] { return make_grid_index(kArea, 1024); }},
      {"linear", [] { return make_linear_index(); }},
  };
}

class SpatialIndexContract
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  std::unique_ptr<SpatialIndex> make() {
    return index_cases()[std::get<0>(GetParam())].factory();
  }
  std::uint64_t seed() const { return std::get<1>(GetParam()); }
};

std::vector<Entry> brute_rect(const std::map<std::uint64_t, geo::Point>& truth,
                              const geo::Rect& rect) {
  std::vector<Entry> out;
  for (const auto& [id, pos] : truth) {
    if (rect.contains(pos)) out.push_back({ObjectId{id}, pos});
  }
  return out;
}

std::vector<std::uint64_t> ids_of(std::vector<Entry> entries) {
  std::vector<std::uint64_t> ids;
  for (const Entry& e : entries) ids.push_back(e.id.value);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_P(SpatialIndexContract, InsertQueryRemoveMatchesBruteForce) {
  auto index = make();
  Rng rng(seed());
  std::map<std::uint64_t, geo::Point> truth;

  // Mixed workload: inserts, removes, updates, with interleaved queries.
  for (int step = 0; step < 400; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.5 || truth.empty()) {
      const std::uint64_t id = rng.next_below(100000);
      if (truth.count(id)) continue;
      const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      truth[id] = p;
      index->insert(ObjectId{id}, p);
    } else if (roll < 0.7) {
      auto it = truth.begin();
      std::advance(it, static_cast<long>(rng.next_below(truth.size())));
      index->remove(ObjectId{it->first});
      truth.erase(it);
    } else if (roll < 0.9) {
      auto it = truth.begin();
      std::advance(it, static_cast<long>(rng.next_below(truth.size())));
      const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      it->second = p;
      index->update(ObjectId{it->first}, p);
    } else {
      const geo::Rect q = geo::Rect::from_center(
          {rng.uniform(0, 1000), rng.uniform(0, 1000)}, rng.uniform(10, 300),
          rng.uniform(10, 300));
      std::vector<Entry> got;
      index->query_rect(q, got);
      EXPECT_EQ(ids_of(std::move(got)), ids_of(brute_rect(truth, q)))
          << "step " << step;
    }
    ASSERT_EQ(index->size(), truth.size()) << "step " << step;
  }
}

TEST_P(SpatialIndexContract, KNearestOrderedAndCorrect) {
  auto index = make();
  Rng rng(seed() * 31 + 7);
  std::map<std::uint64_t, geo::Point> truth;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    truth[i] = p;
    index->insert(ObjectId{i}, p);
  }
  for (int q = 0; q < 20; ++q) {
    const geo::Point p{rng.uniform(-100, 1100), rng.uniform(-100, 1100)};
    const std::size_t k = 1 + rng.next_below(20);
    const auto got = index->k_nearest(p, k);
    ASSERT_EQ(got.size(), std::min<std::size_t>(k, truth.size()));
    // Ordered by distance.
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_LE(geo::distance(got[i - 1].pos, p), geo::distance(got[i].pos, p) + 1e-9);
    }
    // Matches brute force k-th distance (positions may tie).
    std::vector<double> dists;
    for (const auto& [id, pos] : truth) dists.push_back(geo::distance(pos, p));
    std::sort(dists.begin(), dists.end());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(geo::distance(got[i].pos, p), dists[i], 1e-9) << "rank " << i;
    }
  }
}

TEST_P(SpatialIndexContract, QueryCircleFiltersExactly) {
  auto index = make();
  Rng rng(seed() * 97 + 3);
  std::map<std::uint64_t, geo::Point> truth;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
    truth[i] = p;
    index->insert(ObjectId{i}, p);
  }
  for (int q = 0; q < 10; ++q) {
    const geo::Circle c{{rng.uniform(0, 1000), rng.uniform(0, 1000)},
                        rng.uniform(20, 400)};
    std::vector<Entry> got;
    index->query_circle(c, got);
    std::vector<std::uint64_t> expected;
    for (const auto& [id, pos] : truth) {
      if (c.contains(pos)) expected.push_back(id);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ids_of(std::move(got)), expected);
  }
}

TEST_P(SpatialIndexContract, ClearEmptiesIndex) {
  auto index = make();
  for (std::uint64_t i = 0; i < 50; ++i) {
    index->insert(ObjectId{i}, {static_cast<double>(i), static_cast<double>(i)});
  }
  index->clear();
  EXPECT_EQ(index->size(), 0u);
  std::vector<Entry> got;
  index->query_rect(geo::Rect{{-1e9, -1e9}, {1e9, 1e9}}, got);
  EXPECT_TRUE(got.empty());
  // Usable after clear.
  index->insert(ObjectId{7}, {1, 1});
  EXPECT_EQ(index->size(), 1u);
}

TEST_P(SpatialIndexContract, RemoveReturnsFalseForUnknown) {
  auto index = make();
  EXPECT_FALSE(index->remove(ObjectId{424242}));
  index->insert(ObjectId{1}, {5, 5});
  EXPECT_TRUE(index->remove(ObjectId{1}));
  EXPECT_FALSE(index->remove(ObjectId{1}));
}

TEST_P(SpatialIndexContract, DuplicatePositionsSupported) {
  auto index = make();
  const geo::Point same{100, 100};
  for (std::uint64_t i = 0; i < 20; ++i) index->insert(ObjectId{i}, same);
  std::vector<Entry> got;
  index->query_rect(geo::Rect::from_center(same, 1, 1), got);
  EXPECT_EQ(got.size(), 20u);
  const auto nn = index->k_nearest({101, 101}, 5);
  EXPECT_EQ(nn.size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, SpatialIndexContract,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Values(11u, 22u, 33u)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& info) {
      return std::string(index_cases()[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

using Keyed = std::vector<std::tuple<std::uint64_t, double, double>>;

Keyed keyed(const std::vector<Entry>& entries) {
  Keyed out;
  for (const Entry& e : entries) out.emplace_back(e.id.value, e.pos.x, e.pos.y);
  return out;
}

/// Range answers (as sets) and k-nearest answers (in order), ids and
/// positions both, against the oracle over [0, 100]^2.
void expect_answers_match(const SpatialIndex& index,
                          const std::map<std::uint64_t, geo::Point>& truth, Rng& rng,
                          const char* phase) {
  ASSERT_EQ(index.size(), truth.size()) << phase;
  for (int q = 0; q < 12; ++q) {
    const geo::Rect rect =
        q == 0 ? geo::Rect{{-1, -1}, {101, 101}}
               : geo::Rect::from_center({rng.uniform(0, 100), rng.uniform(0, 100)},
                                        rng.uniform(2, 30), rng.uniform(2, 30));
    std::vector<Entry> got;
    index.query_rect(rect, got);
    Keyed sorted = keyed(got);
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, keyed(brute_rect(truth, rect))) << phase << ", rect " << q;
  }
  for (int q = 0; q < 8; ++q) {
    const geo::Point p{rng.uniform(0, 100), rng.uniform(0, 100)};
    const std::size_t k = 1 + rng.next_below(12);
    std::vector<std::pair<double, std::uint64_t>> by_dist;
    for (const auto& [id, pos] : truth) by_dist.emplace_back(geo::distance2(p, pos), id);
    std::sort(by_dist.begin(), by_dist.end());
    std::vector<Entry> want;
    for (std::size_t i = 0; i < std::min(k, by_dist.size()); ++i) {
      want.push_back({ObjectId{by_dist[i].second}, truth.at(by_dist[i].second)});
    }
    EXPECT_EQ(keyed(index.k_nearest(p, k)), keyed(want)) << phase << ", k " << k;
  }
}

TEST(PointQuadtree, TombstoneRebuildKeepsAnswers) {
  // Heavy churn triggers the amortized rebuilds: removes drive the first
  // ones, far moves (which tombstone) the next. Every answer keeps its ids
  // and positions, and clear() after a rebuild leaves an index that
  // rebuilds and recycles slots again.
  auto index = make_point_quadtree();
  Rng rng(5150);
  std::map<std::uint64_t, geo::Point> truth;
  const auto insert = [&](std::uint64_t id) {
    const geo::Point p{rng.uniform(0, 100), rng.uniform(0, 100)};
    truth[id] = p;
    index->insert(ObjectId{id}, p);
  };
  for (std::uint64_t i = 0; i < 2000; ++i) insert(i);
  // Remove 90%: rebuilds after 1000, 1500 and 1750 removals.
  for (std::uint64_t i = 0; i < 1800; ++i) {
    ASSERT_TRUE(index->remove(ObjectId{i}));
    truth.erase(i);
  }
  expect_answers_match(*index, truth, rng, "after removes");

  // Far moves: one rebuild per 200-300 of them (19 in all). Removed ids
  // come back in between, onto recycled slots.
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t back = rng.next_below(1800);
    if (step % 50 == 0 && truth.count(back) == 0) {
      insert(back);
      continue;
    }
    auto it = truth.begin();
    std::advance(it, static_cast<long>(rng.next_below(truth.size())));
    it->second = {rng.uniform(0, 100), rng.uniform(0, 100)};
    index->update(ObjectId{it->first}, it->second);
  }
  expect_answers_match(*index, truth, rng, "after far moves");

  // After clear() the index holds more entries than it ever did before,
  // so no slot from before the clear can still be handed out. A rebuild
  // after 1250 removals restocks the free list; the inserts after it take
  // those slots.
  index->clear();
  truth.clear();
  expect_answers_match(*index, truth, rng, "after clear");
  for (std::uint64_t i = 10000; i < 12500; ++i) insert(i);
  for (std::uint64_t i = 10000; i < 11300; ++i) {
    ASSERT_TRUE(index->remove(ObjectId{i}));
    truth.erase(i);
  }
  for (std::uint64_t i = 20000; i < 20500; ++i) insert(i);
  expect_answers_match(*index, truth, rng, "reused after clear");
}

TEST(PointQuadtree, ShapeIsPinnedAcrossRebuilds) {
  // The tree's shape fixes the order of every answer, and the leaf's
  // answers are pinned downstream (golden traces, flash-crowd fingerprint).
  // A seeded churn of 60k operations over 1,500 ids crosses 29 tombstone
  // rebuilds and folds each answer, in returned order, into one CRC: a
  // change to the insert walk, the in-place move rule or the rebuild's
  // reinsertion order moves it.
  constexpr std::uint64_t kIds = 1500;
  auto index = make_point_quadtree();
  Rng rng(2121);
  std::vector<geo::Point> pos(kIds);
  for (geo::Point& p : pos) p = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
  std::vector<char> live(kIds, 0);
  std::size_t alive = 0;
  std::uint32_t crc = 0;
  const auto fold = [&crc](const std::vector<Entry>& entries) {
    for (const Entry& e : entries) {
      crc = crc32(&e.id.value, sizeof e.id.value, crc);
      crc = crc32(&e.pos.x, sizeof e.pos.x, crc);
      crc = crc32(&e.pos.y, sizeof e.pos.y, crc);
    }
  };
  for (int step = 0; step < 60000; ++step) {
    const std::uint64_t id = rng.next_below(kIds);
    const double roll = rng.next_double();
    if (!live[id]) {
      // Fresh and previously removed ids; a fifth land on another id's
      // (possibly occupied) position.
      if (roll < 0.2) pos[id] = pos[rng.next_below(kIds)];
      else pos[id] = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
      index->insert(ObjectId{id}, pos[id]);
      live[id] = 1;
      ++alive;
    } else if (roll < 0.35) {
      ASSERT_TRUE(index->remove(ObjectId{id}));
      live[id] = 0;
      --alive;
    } else if (roll < 0.55) {
      // Small moves: most end at the object's own childless node and move
      // in place.
      pos[id] = {pos[id].x + rng.uniform(-0.5, 0.5), pos[id].y + rng.uniform(-0.5, 0.5)};
      index->update(ObjectId{id}, pos[id]);
    } else if (roll < 0.85) {
      // Far moves tombstone the old node.
      pos[id] = {rng.uniform(0, 1000), rng.uniform(0, 1000)};
      index->update(ObjectId{id}, pos[id]);
    } else if (roll < 0.93) {
      std::vector<Entry> got;
      index->query_rect(geo::Rect::from_center(pos[rng.next_below(kIds)],
                                               rng.uniform(5, 80), rng.uniform(5, 80)),
                        got);
      fold(got);
    } else {
      fold(index->k_nearest({rng.uniform(-50, 1050), rng.uniform(-50, 1050)},
                            1 + rng.next_below(16)));
    }
    ASSERT_EQ(index->size(), alive) << "step " << step;
  }
  EXPECT_EQ(index->size(), 1089u);
  EXPECT_EQ(crc, 0x74ed003au) << std::hex << crc;
}

TEST(RTree, DeepDeleteCondenses) {
  auto index = make_rtree();
  Rng rng(777);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    index->insert(ObjectId{i}, {rng.uniform(0, 1000), rng.uniform(0, 1000)});
    ids.push_back(i);
  }
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < 995; ++i) {
    ASSERT_TRUE(index->remove(ObjectId{ids[i]})) << i;
  }
  EXPECT_EQ(index->size(), 5u);
  std::vector<Entry> got;
  index->query_rect(geo::Rect{{-1, -1}, {1001, 1001}}, got);
  EXPECT_EQ(got.size(), 5u);
}

}  // namespace
}  // namespace locs::spatial

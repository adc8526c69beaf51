// Mobility models, placement and update bursts (sim substrate).
#include <gtest/gtest.h>

#include "sim/mobility.hpp"
#include "sim/scenario.hpp"

namespace locs::sim {
namespace {

const geo::Rect kArea{{0, 0}, {1000, 1000}};

class MobilityModels : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<MobilityModel> make(Rng& rng) {
    switch (GetParam()) {
      case 0:
        return make_random_waypoint(kArea, {500, 500}, 1.0, 10.0, seconds(5), rng);
      default:
        return make_manhattan(kArea, {500, 500}, 100.0, 5.0, rng);
    }
  }
};

TEST_P(MobilityModels, StaysInsideArea) {
  Rng rng(42 + GetParam());
  auto model = make(rng);
  for (int i = 0; i < 2000; ++i) {
    const geo::Point p = model->step(seconds(1));
    ASSERT_GE(p.x, kArea.min.x - 1e-9);
    ASSERT_LE(p.x, kArea.max.x + 1e-9);
    ASSERT_GE(p.y, kArea.min.y - 1e-9);
    ASSERT_LE(p.y, kArea.max.y + 1e-9);
  }
}

TEST_P(MobilityModels, SpeedBounded) {
  Rng rng(77 + GetParam());
  auto model = make(rng);
  geo::Point prev = model->position();
  for (int i = 0; i < 500; ++i) {
    const geo::Point p = model->step(seconds(1));
    // Max configured speed is 10 m/s; allow generous headroom.
    ASSERT_LE(geo::distance(prev, p), 40.0) << "step " << i;
    prev = p;
  }
}

TEST_P(MobilityModels, ActuallyMoves) {
  Rng rng(99 + GetParam());
  auto model = make(rng);
  const geo::Point start = model->position();
  double total = 0.0;
  geo::Point prev = start;
  for (int i = 0; i < 600; ++i) {
    const geo::Point p = model->step(seconds(1));
    total += geo::distance(prev, p);
    prev = p;
  }
  EXPECT_GT(total, 100.0);
}

TEST_P(MobilityModels, DeterministicUnderSeed) {
  Rng rng1(123), rng2(123);
  auto a = make(rng1);
  auto b = make(rng2);
  for (int i = 0; i < 200; ++i) {
    const geo::Point pa = a->step(seconds(1));
    const geo::Point pb = b->step(seconds(1));
    ASSERT_EQ(pa, pb) << "step " << i;
  }
}

std::string model_name(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"waypoint", "manhattan"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Models, MobilityModels, ::testing::Values(0, 1),
                         model_name);

TEST(Placement, UniformCoversArea) {
  Rng rng(5);
  const auto points = uniform_placement(kArea, 1000, rng);
  ASSERT_EQ(points.size(), 1000u);
  int quadrant_counts[4] = {};
  for (const geo::Point& p : points) {
    ASSERT_TRUE(kArea.contains(p));
    const int q = (p.x >= 500 ? 1 : 0) + (p.y >= 500 ? 2 : 0);
    ++quadrant_counts[q];
  }
  for (const int count : quadrant_counts) EXPECT_GT(count, 150);
}

TEST(BurstModel, BurstsStayInBoundsAndMix) {
  const BurstModel model{/*burst_prob=*/0.5, /*burst_min=*/4, /*burst_max=*/16};
  Rng rng(21);
  std::size_t singles = 0, bursts = 0, total = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t n = model.draw(rng);
    total += n;
    if (n == 1) {
      ++singles;
    } else {
      EXPECT_GE(n, 4u);
      EXPECT_LE(n, 16u);
      ++bursts;
    }
  }
  // Both arrival modes occur, and bursts push the mean well above 1 (the
  // batching lever bench_batched_update exercises).
  EXPECT_GT(singles, 0u);
  EXPECT_GT(bursts, 0u);
  EXPECT_GT(static_cast<double>(total) / 2000.0, 2.0);

  // Degenerate model: never bursts.
  const BurstModel flat{0.0, 4, 16};
  Rng rng2(22);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(flat.draw(rng2), 1u);
}

}  // namespace
}  // namespace locs::sim

// City-scale macro-scenario suite (sim/scenario.hpp) + shard routing under
// skew (ShardedLocationServer::shard_of):
//
//  * every scenario kind replays bit-identically (same seed => same trace
//    CRC; population via LOCS_MACRO_OBJECTS, default 100k -- the suite
//    carries the `macro`/`slow` ctest labels),
//  * sharded leaves answer exactly like unsharded ones at N in {1, 4}
//    (answer-CRC equivalence),
//  * the sharded flash crowd at bench_macro's parameters keeps its pinned
//    trace CRC, answer CRC and message / byte counts,
//  * the shard key is pinned: the splitmix64 mix spreads a strided-id crowd
//    that a raw modulo would alias onto ONE shard.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/sharded_location_server.hpp"
#include "sim/scenario.hpp"

namespace locs::test {
namespace {

using core::ShardedLocationServer;

std::size_t macro_objects() {
  const char* v = std::getenv("LOCS_MACRO_OBJECTS");
  if (v == nullptr || *v == '\0') return 100000;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

sim::ScenarioParams macro_params(sim::ScenarioKind kind, std::size_t objects,
                                 int rounds) {
  sim::ScenarioParams p;
  p.kind = kind;
  p.seed = 23;
  p.objects = objects;
  p.rounds = rounds;
  return p;
}

TEST(MacroScenarios, EveryKindReplaysBitIdentically) {
  const std::size_t objects = macro_objects();
  const sim::ScenarioKind kinds[] = {
      sim::ScenarioKind::kCommuterRush, sim::ScenarioKind::kFlashCrowd,
      sim::ScenarioKind::kConvoys, sim::ScenarioKind::kDayNight};
  for (const sim::ScenarioKind kind : kinds) {
    SCOPED_TRACE(sim::scenario_name(kind));
    const sim::ScenarioParams p = macro_params(kind, objects, 3);
    sim::DriveOptions opts;
    opts.pos_probes = 64;
    const sim::DriveResult a = sim::drive_scenario(p, opts);
    const sim::DriveResult b = sim::drive_scenario(p, opts);
    EXPECT_EQ(a.trace_crc, b.trace_crc);
    EXPECT_EQ(a.answer_crc, b.answer_crc);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.sightings_emitted, b.sightings_emitted);
    EXPECT_GT(a.sightings_emitted, 0u);
  }
}

TEST(MacroScenarios, DifferentSeedsDiverge) {
  sim::ScenarioParams p = macro_params(sim::ScenarioKind::kCommuterRush, 2000, 2);
  sim::DriveOptions opts;
  opts.pos_probes = 32;
  const sim::DriveResult a = sim::drive_scenario(p, opts);
  p.seed = 24;
  const sim::DriveResult b = sim::drive_scenario(p, opts);
  EXPECT_NE(a.trace_crc, b.trace_crc);
}

// Pins the sharded flash crowd at bench_macro's parameters -- 4x4 leaves x 4
// shards, default shard key, seed 11, 30k objects, 6 rounds -- so a change to
// shard routing or to the sharded leaf's message flow shows up as a changed
// trace, not only as changed answers.
TEST(MacroScenarios, ShardedFlashCrowdFingerprintIsPinned) {
  sim::ScenarioParams p;
  p.kind = sim::ScenarioKind::kFlashCrowd;
  p.seed = 11;
  p.objects = 30000;
  p.rounds = 6;
  sim::DriveOptions opts;
  opts.leaf_shards = 4;
  const sim::DriveResult r = sim::drive_scenario(p, opts);
  EXPECT_EQ(r.trace_crc, 0x2c258e76u) << std::hex << r.trace_crc;
  EXPECT_EQ(r.answer_crc, 0xd4757147u) << std::hex << r.answer_crc;
  EXPECT_EQ(r.messages, 378020u);
  EXPECT_EQ(r.bytes, 32696661u);
}

// Sharding is an implementation detail of a leaf: for N in {1, 4} the
// flash-crowd run must produce the same query answers as plain
// LocationServer leaves (the trace differs -- batches are split per shard --
// but the soft state and the answers must not).
TEST(MacroScenarios, ShardedAnswersMatchUnshardedAtN1AndN4) {
  const sim::ScenarioParams p =
      macro_params(sim::ScenarioKind::kFlashCrowd, 4000, 3);
  sim::DriveOptions unsharded;
  unsharded.pos_probes = 64;
  const sim::DriveResult base = sim::drive_scenario(p, unsharded);
  ASSERT_GT(base.sightings_emitted, 0u);

  sim::DriveOptions n1 = unsharded;
  n1.leaf_shards = 1;
  n1.force_leaf_sharding = true;
  const sim::DriveResult one = sim::drive_scenario(p, n1);
  EXPECT_EQ(one.answer_crc, base.answer_crc);
  // The single-shard wrapper is pass-through: even the trace is identical.
  EXPECT_EQ(one.trace_crc, base.trace_crc);

  sim::DriveOptions n4 = unsharded;
  n4.leaf_shards = 4;
  const sim::DriveResult four = sim::drive_scenario(p, n4);
  EXPECT_EQ(four.answer_crc, base.answer_crc);
}

// Pin the shard-key distribution: crowd ids 1 + 64j all satisfy
// id % 4 == 1, so a raw modulo would put the whole strided set on one shard;
// shard_of's splitmix64 mix spreads it.
TEST(MacroScenarios, ShardKeyMixingFixesStridedAliasing) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::size_t kIds = 512;
  constexpr std::uint64_t kStride = 64;

  std::vector<std::size_t> counts(kShards, 0);
  for (std::size_t j = 0; j < kIds; ++j) {
    ++counts[ShardedLocationServer::shard_of(ObjectId{1 + j * kStride}, kShards)];
  }
  // No shard holds more than ~35% of a worst-case strided set.
  for (const std::size_t c : counts) {
    EXPECT_LT(c, static_cast<std::size_t>(0.35 * kIds));
    EXPECT_GT(c, 0u);
  }
}

}  // namespace
}  // namespace locs::test

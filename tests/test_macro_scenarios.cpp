// City-scale macro-scenario suite (sim/scenario.hpp):
//
//  * every scenario kind replays bit-identically (same seed => same trace
//    CRC; 100k objects -- the suite carries the `macro`/`slow` ctest
//    labels),
//  * different seeds diverge,
//  * the flash crowd at bench_macro's parameters keeps its pinned trace
//    CRC, answer CRC and message / byte counts.
#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace locs::test {
namespace {

constexpr std::size_t kMacroObjects = 100000;

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
  const sim::ScenarioKind kinds[] = {
      sim::ScenarioKind::kCommuterRush, sim::ScenarioKind::kFlashCrowd,
      sim::ScenarioKind::kConvoys, sim::ScenarioKind::kDayNight};
  for (const sim::ScenarioKind kind : kinds) {
    SCOPED_TRACE(sim::scenario_name(kind));
    const sim::ScenarioParams p = macro_params(kind, kMacroObjects, 3);
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

// Pins the flash crowd at bench_macro's parameters on plain leaves -- 4x4
// leaves, seed 11, 30k objects, 6 rounds -- so a change to the leaf's
// message flow shows up as a changed trace, not only as changed answers.
// The trace CRC also covers the order of items inside range answers, which
// follows the quadtree's shape. That order changed when sightings at the
// stored position stopped reaching the index (trace 585b0238 -> d3ad4f09);
// the answer CRC, message count and byte count did not move.
TEST(MacroScenarios, FlashCrowdFingerprintIsPinned) {
  sim::ScenarioParams p;
  p.kind = sim::ScenarioKind::kFlashCrowd;
  p.seed = 11;
  p.objects = 30000;
  p.rounds = 6;
  const sim::DriveResult r = sim::drive_scenario(p, sim::DriveOptions{});
  EXPECT_EQ(r.trace_crc, 0xd3ad4f09u) << std::hex << r.trace_crc;
  EXPECT_EQ(r.answer_crc, 0xd4757147u) << std::hex << r.answer_crc;
  EXPECT_EQ(r.messages, 350898u);
  EXPECT_EQ(r.bytes, 32487491u);
}

}  // namespace
}  // namespace locs::test

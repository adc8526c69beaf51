// Query workload generation: "the concrete mix of different types of
// queries and their degree of locality" (§8).
//
// --- Authoring a macro scenario (sim/scenario.hpp) ---------------------------
//
// The city-scale suite composes three layers; a new scenario only ever adds
// to the first one:
//
//  1. Population model -- a ScenarioKind case in Scenario. Contract:
//     * ALL rng draws happen in the constructor and step_round() in
//       ascending object order, from the Scenario's single seeded Rng.
//       Never draw conditionally on anything except (params, round, i):
//       same params must mean the same draw schedule, or replay breaks.
//     * oid(i) defines the wire identity. Keep ids dense (1 + i); the flash
//       crowd's strided ids (1 + 64j) are fixed so its pinned trace stays
//       stable.
//     * step_round(round, emit) calls emit(i, pos) once per update,
//       ascending i. Motion may be closed-form (commuters, convoys: cheap,
//       1M-object friendly) or per-object MobilityModels (wanderers).
//       Correlation is the point: move GROUPS together (a zone flow, a
//       convoy, a converging crowd), because correlated load is what the
//       hierarchy and the coalescer must absorb.
//       Bursty arrival (day/night) draws per-active-object burst lengths
//       from the BurstModel below.
//  2. Deterministic driver -- drive_scenario() registers the population
//     through one gateway UpdateCoalescer, replays the rounds over
//     SimNetwork, and folds two CRCs: trace_crc (bit-identical replay) and
//     answer_crc (query-answer equivalence across traces that differ). New
//     scenarios get both for free; never add wall-clock-dependent logic to
//     the driven path.
//  3. Gates -- tests/test_macro_scenarios.cpp pins replay and the flash
//     crowd's fingerprint;
//     bench/bench_macro.cpp emits BENCH_macro.json, gated by
//     bench/baselines/macro.json via scripts/check_bench.py.
#pragma once

#include <vector>

#include "geo/polygon.hpp"
#include "geo/rect.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace locs::sim {

struct QueryMix {
  double p_pos = 0.5;
  double p_range = 0.4;
  double p_nn = 0.1;
};

/// Update arrival model: real sensor feeds are bursty (a gateway uploads a
/// whole window of sightings at once, a fleet reports on a shared timer), so
/// many updates land on one leaf within one latency window -- exactly the
/// pattern batched coalescing (core/update_coalescer.hpp) amortizes. With
/// probability `burst_prob` an arrival slot opens a burst of
/// [burst_min, burst_max] updates; otherwise a single update arrives.
struct BurstModel {
  double burst_prob = 0.3;
  std::uint32_t burst_min = 4;
  std::uint32_t burst_max = 16;
};

struct WorkloadParams {
  geo::Rect area;
  QueryMix mix;
  /// Probability that a query targets the client's vicinity instead of a
  /// uniformly random location ("users ... are typically interested in
  /// objects in their vicinity", §4).
  double locality = 0.8;
  /// Radius of "the vicinity" in metres.
  double local_radius = 200.0;
  /// Edge length of range-query areas.
  double range_extent = 50.0;
  /// Arrival pattern for position updates (see BurstModel).
  BurstModel update_burst;
};

struct QueryOp {
  enum class Kind { kPos, kRange, kNN };
  Kind kind = Kind::kPos;
  ObjectId target;      // kPos
  geo::Polygon area;    // kRange
  geo::Point p;         // kNN
};

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadParams params, std::uint64_t seed)
      : params_(params), rng_(seed) {}

  /// Produces the next query as seen from a client at `client_pos`, drawing
  /// position-query targets from `population`.
  QueryOp next(geo::Point client_pos, const std::vector<ObjectId>& population);

  /// The anchor point for a query issued at `client_pos` under the
  /// configured locality.
  geo::Point anchor(geo::Point client_pos);

  /// Number of updates arriving in the next arrival slot (>= 1), drawn from
  /// the configured BurstModel.
  std::uint32_t next_update_burst();

  Rng& rng() { return rng_; }

 private:
  WorkloadParams params_;
  Rng rng_;
};

}  // namespace locs::sim

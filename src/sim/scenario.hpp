// City-scale macro scenarios (§7/§8: "the density of the tracked objects or
// their moving patterns"): deterministic, seed-parameterized object
// populations whose CORRELATED motion stresses exactly the load patterns a
// hierarchical location service must absorb.
//
//  * kUniform      -- random-waypoint wanderers, the no-skew control.
//  * kCommuterRush -- zone-to-zone flows: every commuter travels from a home
//                     cluster to a work cluster on its own schedule, so the
//                     leaves holding the work zones see a correlated inbound
//                     wave (spatial skew building up over rounds).
//  * kFlashCrowd   -- a stadium event: a crowd fraction converges on ONE
//                     point inside one leaf, so that leaf absorbs a hot spot
//                     of updates plus the handover storm of the arrival.
//                     Crowd member j carries ObjectId 1 + 64j; the
//                     non-crowd ids follow densely.
//  * kConvoys      -- vehicle fleets crossing the grid in formation: whole
//                     convoys hit leaf boundaries together, producing
//                     correlated handover storms.
//  * kDayNight     -- a sinusoidal active fraction (night floor -> full day
//                     load) with BurstModel gateway bursts: load cycles that
//                     exercise expiry sweeps and batch coalescing.
//
// Replay contract: a Scenario is a pure function of (params, seed). All rng
// draws happen in ascending object order, so two instances with equal
// params emit bit-identical update streams -- driven over SimNetwork (see
// drive_scenario) whole runs replay bit-identically (trace CRC equality,
// pinned by tests/test_macro_scenarios.cpp).
//
// --- Authoring a macro scenario ---------------------------------------------
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
//     crowd's fingerprint, and floors the flash crowd's message throughput
//     against the uniform control's.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geo/point.hpp"
#include "geo/rect.hpp"
#include "sim/mobility.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace locs::sim {

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

  /// Number of updates arriving in the next arrival slot (>= 1).
  std::uint32_t draw(Rng& rng) const {
    return rng.bernoulli(burst_prob)
               ? static_cast<std::uint32_t>(rng.uniform_int(burst_min, burst_max))
               : 1;
  }
};

enum class ScenarioKind { kUniform, kCommuterRush, kFlashCrowd, kConvoys, kDayNight };

const char* scenario_name(ScenarioKind kind);

struct ScenarioParams {
  ScenarioKind kind = ScenarioKind::kUniform;
  std::uint64_t seed = 1;
  /// Population size; the suite runs 100k by default and scales to 1M.
  std::size_t objects = 100000;
  /// Update rounds driven through the deployment (one emit sweep each).
  int rounds = 8;
  /// Model-time step per round (mobility distance = speed * round_dt).
  Duration round_dt = seconds(10);
  geo::Rect area{{0.0, 0.0}, {6000.0, 6000.0}};

  // -- kCommuterRush --
  std::size_t zones = 8;          // home/work cluster count (each)
  double zone_sigma = 180.0;      // Gaussian cluster radius, metres
  // -- kFlashCrowd --
  double crowd_fraction = 0.6;    // fraction of objects in the crowd
  geo::Point stadium{750.0, 750.0};  // inside one leaf of the default grid
  int crowd_ramp_rounds = 4;         // rounds until the crowd has arrived
  // -- kConvoys --
  std::size_t convoys = 32;
  double convoy_speed = 30.0;     // leader speed, m/s (eastbound)
  double convoy_spread = 40.0;    // member offset sigma, metres
  // -- kDayNight --
  BurstModel burst;               // per-active-object gateway bursts
  double night_floor = 0.15;      // minimum active fraction
};

/// One deterministic scenario instance. Emission API: oid(i) names object
/// `i` on the wire, initial_position(i) seeds registration, and
/// step_round(round, emit) advances every object by round_dt and invokes
/// `emit(i, new_pos)` once per update (ascending i; day/night bursts emit
/// several per active object, inactive objects emit none).
class Scenario {
 public:
  explicit Scenario(ScenarioParams params);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  const ScenarioParams& params() const { return p_; }
  std::size_t object_count() const { return p_.objects; }

  ObjectId oid(std::size_t i) const;
  geo::Point initial_position(std::size_t i) const { return start_[i]; }

  using EmitFn = std::function<void(std::size_t index, geo::Point pos)>;
  void step_round(int round, const EmitFn& emit);

 private:
  struct Commuter {
    geo::Point home, work;
    int depart = 0, arrive = 1;
  };

  geo::Point clamped(geo::Point p) const;

  ScenarioParams p_;
  Rng rng_;
  std::vector<geo::Point> start_;
  // Model-driven kinds (uniform, flash-crowd wanderers, day/night); entries
  // for closed-form objects stay null.
  std::vector<std::unique_ptr<MobilityModel>> models_;
  std::vector<Commuter> commuters_;         // kCommuterRush
  std::size_t crowd_size_ = 0;              // kFlashCrowd
  std::vector<geo::Point> crowd_target_;    // per-member stadium offset
  std::vector<double> convoy_speed_;        // per-convoy leader speed
  std::vector<geo::Point> convoy_origin_;   // per-convoy start point
  std::vector<geo::Point> member_offset_;   // kConvoys, per object
  std::vector<double> activity_u_;          // kDayNight, per object
};

// --- Deterministic macro driver ---------------------------------------------

/// One drive_scenario run deploys a 4x4 grid of leaves under one root over
/// the scenario area, on a SimNetwork with latency seed 42.
struct DriveOptions {
  /// Position-query probes folded into answer_crc after the run (plus one
  /// whole-leaf range query per leaf).
  std::size_t pos_probes = 256;
};

struct DriveResult {
  /// CRC over every delivered datagram (time, endpoints, payload): equal
  /// CRCs mean bit-identical replay.
  std::uint32_t trace_crc = 0;
  /// CRC over canonicalized query answers (pos probes in probe order, range
  /// results sorted by oid): equal CRCs mean the deployments are
  /// answer-equivalent even when their traces differ.
  std::uint32_t answer_crc = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t round_messages = 0;  // delivered during the update rounds
  std::uint64_t sightings_emitted = 0;
  double rounds_wall_seconds = 0.0; // update rounds only (throughput basis)
};

DriveResult drive_scenario(const ScenarioParams& sp, const DriveOptions& opts);

}  // namespace locs::sim

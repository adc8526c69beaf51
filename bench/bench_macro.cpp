// City-scale macro bench -- shard routing under the flash-crowd scenario
// (sim/scenario.hpp), gated by scripts/check_bench.py against
// bench/baselines/macro.json.
//
// Four deterministic SimNetwork runs over a 4x4 leaf grid:
//
//   uniform/sharded    -- no-skew control for the throughput ratio,
//   flash/sharded      -- 4 shard reactors per leaf: the crowd's strided
//                         ObjectIds must spread over the stadium leaf's
//                         shards (ShardedLocationServer::shard_of),
//   flash/sharded bis  -- replay: trace CRC equality = bit-identical runs,
//   flash/unsharded    -- plain LocationServer leaves: the answer CRC must
//                         equal the sharded run's.
//
// Headline metrics: hot-leaf max/mean shard occupancy (~1 when the key
// spreads the crowd), p99 shard occupancy, and flash-vs-uniform wall-clock
// message throughput (target: within ~1.5x).
// Scale via LOCS_MACRO_OBJECTS / LOCS_MACRO_ROUNDS (defaults 30000 / 6).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace {

using namespace locs;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

sim::ScenarioParams scenario(sim::ScenarioKind kind) {
  sim::ScenarioParams p;
  p.kind = kind;
  p.seed = 11;
  p.objects = env_size("LOCS_MACRO_OBJECTS", 30000);
  p.rounds = static_cast<int>(env_size("LOCS_MACRO_ROUNDS", 6));
  return p;
}

sim::DriveOptions deployment(std::uint32_t leaf_shards) {
  sim::DriveOptions o;
  o.leaf_shards = leaf_shards;
  return o;
}

/// max/mean shard occupancy inside the most loaded leaf (the stadium leaf in
/// the flash-crowd runs; shard_occupancy is leaf-major, `shards` per leaf).
double hot_leaf_imbalance(const sim::DriveResult& r, std::size_t shards) {
  const auto hot = std::max_element(r.leaf_occupancy.begin(), r.leaf_occupancy.end());
  const std::size_t li =
      static_cast<std::size_t>(hot - r.leaf_occupancy.begin());
  std::size_t max_occ = 0, total = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t occ = r.shard_occupancy[li * shards + s];
    max_occ = std::max(max_occ, occ);
    total += occ;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(max_occ) * static_cast<double>(shards) /
         static_cast<double>(total);
}

double p99_occupancy(const sim::DriveResult& r) {
  std::vector<std::size_t> occ = r.shard_occupancy;
  std::sort(occ.begin(), occ.end());
  if (occ.empty()) return 0.0;
  const std::size_t idx =
      std::min(occ.size() - 1, static_cast<std::size_t>(0.99 * occ.size()));
  return static_cast<double>(occ[idx]);
}

double updates_per_sec(const sim::DriveResult& r) {
  return r.rounds_wall_seconds > 0.0
             ? static_cast<double>(r.sightings_emitted) / r.rounds_wall_seconds
             : 0.0;
}

/// Datagrams processed per wall second over the update rounds. The fair
/// throughput basis for the flash-vs-uniform comparison: the flash crowd
/// triggers a mass-handover storm (every crowd member changes leaves on its
/// way to the stadium), so it does strictly more PROTOCOL work per emitted
/// update; what must not collapse under skew is the message processing rate.
double messages_per_sec(const sim::DriveResult& r) {
  return r.rounds_wall_seconds > 0.0
             ? static_cast<double>(r.round_messages) / r.rounds_wall_seconds
             : 0.0;
}

std::string size_list(const std::vector<std::size_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(v[i]);
  }
  return out + "]";
}

std::string u64_list(const std::vector<std::uint64_t>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + std::to_string(v[i]);
  }
  return out + "]";
}

}  // namespace

int main() {
  const sim::ScenarioParams uniform = scenario(sim::ScenarioKind::kUniform);
  const sim::ScenarioParams flash = scenario(sim::ScenarioKind::kFlashCrowd);
  std::printf("bench_macro: %zu objects, %d rounds, 4x4 leaves x 4 shards "
              "(SimNetwork, deterministic)\n",
              flash.objects, flash.rounds);

  const sim::DriveResult uni = sim::drive_scenario(uniform, deployment(4));
  const sim::DriveResult fl = sim::drive_scenario(flash, deployment(4));
  const sim::DriveResult rep = sim::drive_scenario(flash, deployment(4));
  const sim::DriveResult plain = sim::drive_scenario(flash, deployment(1));

  const double imbalance = hot_leaf_imbalance(fl, 4);
  const bool answers_equal = fl.answer_crc == plain.answer_crc;
  const bool deterministic =
      fl.trace_crc == rep.trace_crc && fl.answer_crc == rep.answer_crc;
  const double uni_tp = updates_per_sec(uni);
  const double flash_tp = updates_per_sec(fl);
  const double uni_mps = messages_per_sec(uni);
  const double flash_mps = messages_per_sec(fl);
  const double tp_ratio = uni_mps > 0.0 ? flash_mps / uni_mps : 0.0;

  std::printf("  hot-leaf shard imbalance (max/mean): %.3f\n", imbalance);
  std::printf("  p99 shard occupancy: %.0f\n", p99_occupancy(fl));
  std::printf("  answers sharded vs unsharded: %s (crc %08x)\n",
              answers_equal ? "EQUAL" : "DIVERGED", fl.answer_crc);
  std::printf("  deterministic replay: %s (trace crc %08x)\n",
              deterministic ? "yes" : "NO", fl.trace_crc);
  std::printf("  throughput: uniform %.0f up/s (%.0f msg/s), flash-crowd "
              "%.0f up/s (%.0f msg/s); message-rate ratio %.2f\n",
              uni_tp, uni_mps, flash_tp, flash_mps, tp_ratio);

  FILE* f = std::fopen("BENCH_macro.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"macro_flash_crowd\",\n"
      "  \"transport\": \"sim_deterministic\",\n"
      "  \"objects\": %zu,\n"
      "  \"rounds\": %d,\n"
      "  \"leaf_shards\": 4,\n"
      "  \"hot_imbalance\": %.3f,\n"
      "  \"p99_shard_occupancy\": %.0f,\n"
      "  \"answers_equal_sharded_vs_unsharded\": %s,\n"
      "  \"deterministic\": %s,\n"
      "  \"uniform_updates_per_sec\": %.1f,\n"
      "  \"flash_updates_per_sec\": %.1f,\n"
      "  \"uniform_messages_per_sec\": %.1f,\n"
      "  \"flash_messages_per_sec\": %.1f,\n"
      "  \"flash_vs_uniform_throughput\": %.3f,\n"
      "  \"per_leaf_updates_flash\": %s,\n"
      "  \"leaf_occupancy_flash\": %s,\n"
      "  \"shard_occupancy_flash\": %s\n"
      "}\n",
      flash.objects, flash.rounds, imbalance, p99_occupancy(fl),
      answers_equal ? "true" : "false", deterministic ? "true" : "false",
      uni_tp, flash_tp, uni_mps, flash_mps, tp_ratio,
      u64_list(fl.per_leaf_updates).c_str(),
      size_list(fl.leaf_occupancy).c_str(),
      size_list(fl.shard_occupancy).c_str());
  std::fclose(f);

  // Self-check: sharding must not change answers, and the whole scenario
  // must replay bit-identically.
  return (answers_equal && deterministic) ? 0 : 1;
}

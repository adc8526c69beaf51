// City-scale macro bench -- the flash-crowd scenario (sim/scenario.hpp)
// against a uniform control, gated by scripts/check_bench.py against
// bench/baselines/macro.json.
//
// Three deterministic SimNetwork runs over a 4x4 grid of plain leaves:
//
//   uniform    -- no-skew control for the throughput ratio,
//   flash      -- a crowd converging on one stadium leaf, with the handover
//                 storm of its arrival,
//   flash bis  -- replay: trace CRC equality = bit-identical runs.
//
// Headline metric: flash-vs-uniform wall-clock message throughput (the hot
// leaf must not collapse the deployment's message rate under skew).
// Every run drives 30000 objects for 6 rounds.
#include <cstdio>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace {

using namespace locs;

sim::ScenarioParams scenario(sim::ScenarioKind kind) {
  sim::ScenarioParams p;
  p.kind = kind;
  p.seed = 11;
  p.objects = 30000;
  p.rounds = 6;
  return p;
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
  std::printf("bench_macro: %zu objects, %d rounds, 4x4 leaves "
              "(SimNetwork, deterministic)\n",
              flash.objects, flash.rounds);

  const sim::DriveOptions opts;
  const sim::DriveResult uni = sim::drive_scenario(uniform, opts);
  const sim::DriveResult fl = sim::drive_scenario(flash, opts);
  const sim::DriveResult rep = sim::drive_scenario(flash, opts);

  const bool deterministic =
      fl.trace_crc == rep.trace_crc && fl.answer_crc == rep.answer_crc;
  const double uni_tp = updates_per_sec(uni);
  const double flash_tp = updates_per_sec(fl);
  const double uni_mps = messages_per_sec(uni);
  const double flash_mps = messages_per_sec(fl);
  const double tp_ratio = uni_mps > 0.0 ? flash_mps / uni_mps : 0.0;

  std::printf("  deterministic replay: %s (trace crc %08x, answer crc %08x)\n",
              deterministic ? "yes" : "NO", fl.trace_crc, fl.answer_crc);
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
      "  \"deterministic\": %s,\n"
      "  \"uniform_updates_per_sec\": %.1f,\n"
      "  \"flash_updates_per_sec\": %.1f,\n"
      "  \"uniform_messages_per_sec\": %.1f,\n"
      "  \"flash_messages_per_sec\": %.1f,\n"
      "  \"flash_vs_uniform_throughput\": %.3f,\n"
      "  \"per_leaf_updates_flash\": %s\n"
      "}\n",
      flash.objects, flash.rounds, deterministic ? "true" : "false", uni_tp,
      flash_tp, uni_mps, flash_mps, tp_ratio,
      u64_list(fl.per_leaf_updates).c_str());
  std::fclose(f);

  // Self-check: the whole scenario must replay bit-identically.
  return deterministic ? 0 : 1;
}

// Batched update coalescing -- the amortization bench for
// core/update_coalescer.hpp + wire::BatchedUpdateReq.
//
// Scenario: the Table-2 topology over the DETERMINISTIC SimNetwork, with a
// bursty update arrival pattern (sim::BurstModel -- sensor gateways report
// whole windows of sightings at once, so many updates land on one leaf
// within one latency window). The same pre-generated update schedule is
// driven twice:
//   * unbatched -- one UpdateReq datagram per sighting (the seed path),
//   * batched   -- through an UpdateCoalescer (flush on size / byte budget,
//                  deadline drain at the end of each arrival window).
// We count leaf-bound datagrams with the SimNetwork tracer (deterministic:
// identical across runs and machines) and measure wall-clock drive
// throughput. The Table-2 update row should improve roughly by the batching
// factor; the CI gate (scripts/check_bench.py) pins the deterministic
// datagram ratio.
//
// Plain executable (no Google Benchmark dependency); writes
// BENCH_batched.json next to the binary, mirroring bench_hot_leaf_update.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "core/update_coalescer.hpp"
#include "net/sim_network.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace locs;

constexpr double kAreaSize = 1500.0;
constexpr std::size_t kObjects = 2000;
constexpr int kRounds = 40;
constexpr int kSlotsPerRound = 60;  // arrival windows per round

struct Schedule {
  // One arrival window: sightings that land within one latency window, all
  // on the same leaf (the gateway burst pattern coalescing exploits).
  struct Slot {
    NodeId leaf;
    std::vector<core::Sighting> sightings;
  };
  std::vector<Slot> slots;
  std::size_t total_updates = 0;
};

struct World {
  net::SimNetwork net;
  std::unique_ptr<core::Deployment> deployment;
  std::vector<NodeId> leaves;
  // Objects grouped by their agent leaf, plus each leaf's rectangle.
  std::vector<std::vector<ObjectId>> by_leaf;
  std::vector<geo::Rect> leaf_rects;

  World() {
    deployment = std::make_unique<core::Deployment>(
        net, net.clock(),
        core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kAreaSize, kAreaSize}}),
        core::Deployment::Config{});
    leaves = deployment->leaf_ids();
    std::sort(leaves.begin(), leaves.end());
    by_leaf.resize(leaves.size());
    for (const NodeId leaf : leaves) {
      leaf_rects.push_back(deployment->server(leaf).config().sa.bounding_box());
    }

    Rng rng(7);
    for (std::uint64_t i = 1; i <= kObjects; ++i) {
      const geo::Point p{rng.uniform(1, kAreaSize - 1),
                         rng.uniform(1, kAreaSize - 1)};
      const NodeId leaf = deployment->entry_leaf_for(p);
      wire::RegisterReq req;
      req.s = core::Sighting{ObjectId{i}, 0, p, 5.0};
      req.acc_range = {10.0, 100.0};
      req.reg_inst = NodeId{91};
      req.req_id = i;
      net.send(NodeId{91}, leaf, wire::encode_envelope(NodeId{91}, req));
      const std::size_t idx = static_cast<std::size_t>(
          std::find(leaves.begin(), leaves.end(), leaf) - leaves.begin());
      by_leaf[idx].push_back(ObjectId{i});
    }
    net.run_until_idle();
  }
};

/// The identical bursty schedule both runs drive (seeded; leaf-local bursts
/// with positions jittered inside the leaf so no update triggers handover).
Schedule make_schedule(const World& w) {
  Schedule sched;
  const sim::BurstModel bursts{/*burst_prob=*/0.85, /*burst_min=*/4, /*burst_max=*/16};
  Rng rng(/*seed=*/42);
  for (int r = 0; r < kRounds; ++r) {
    for (int s = 0; s < kSlotsPerRound; ++s) {
      Schedule::Slot slot;
      const std::size_t leaf_idx = rng.next_below(w.leaves.size());
      slot.leaf = w.leaves[leaf_idx];
      const geo::Rect& rect = w.leaf_rects[leaf_idx];
      const std::uint32_t burst = bursts.draw(rng);
      const auto& pool = w.by_leaf[leaf_idx];
      for (std::uint32_t u = 0; u < burst; ++u) {
        const ObjectId oid = pool[rng.next_below(pool.size())];
        slot.sightings.push_back(core::Sighting{
            oid, 0,
            {rng.uniform(rect.min.x + 1, rect.max.x - 1),
             rng.uniform(rect.min.y + 1, rect.max.y - 1)},
            5.0});
      }
      sched.total_updates += slot.sightings.size();
      sched.slots.push_back(std::move(slot));
    }
  }
  return sched;
}

struct RunResult {
  std::uint64_t leaf_datagrams = 0;  // datagrams DELIVERED to a leaf server
  std::uint64_t updates_applied = 0;
  std::uint64_t update_batches = 0;
  double updates_per_sec = 0.0;
  double batching_factor = 1.0;
};

template <typename DriveSlot, typename Drain>
RunResult run(const Schedule& sched, DriveSlot&& drive_slot, Drain&& drain,
              World& w) {
  RunResult res;
  w.net.set_tracer([&](TimePoint, NodeId, NodeId to, const wire::Buffer&) {
    for (const NodeId leaf : w.leaves) {
      if (to == leaf) {
        ++res.leaf_datagrams;
        return;
      }
    }
  });
  const auto start = std::chrono::steady_clock::now();
  for (const Schedule::Slot& slot : sched.slots) {
    drive_slot(slot);
    drain();
    w.net.run_until_idle();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  w.net.set_tracer(nullptr);
  res.updates_per_sec = static_cast<double>(sched.total_updates) / elapsed;
  const core::LocationServer::Stats stats = w.deployment->total_stats();
  res.updates_applied = stats.updates_applied;
  res.update_batches = stats.update_batches;
  return res;
}

}  // namespace

int main() {
  std::size_t total_updates = 0;
  std::size_t total_slots = 0;

  // --- unbatched: one UpdateReq datagram per sighting ------------------------
  RunResult unbatched;
  {
    World w;
    const Schedule s = make_schedule(w);
    total_updates = s.total_updates;
    total_slots = s.slots.size();
    std::printf("bench_batched_update: %zu objects, %zu bursty updates in %zu "
                "arrival windows (SimNetwork, deterministic)\n",
                kObjects, total_updates, total_slots);
    const NodeId driver{92};  // acks are dropped at delivery (not attached)
    unbatched = run(
        s,
        [&](const Schedule::Slot& slot) {
          for (const core::Sighting& sg : slot.sightings) {
            net::send_message(w.net, driver, slot.leaf, wire::UpdateReq{sg});
          }
        },
        [] {}, w);
  }
  std::printf("  unbatched: %8llu leaf-bound datagrams, %llu applied, "
              "%10.0f updates/s\n",
              static_cast<unsigned long long>(unbatched.leaf_datagrams),
              static_cast<unsigned long long>(unbatched.updates_applied),
              unbatched.updates_per_sec);

  // --- batched: through the UpdateCoalescer ----------------------------------
  RunResult batched;
  {
    World w;
    const Schedule s = make_schedule(w);
    core::UpdateCoalescer::Options opts;
    opts.max_batch = 8;
    opts.max_bytes = 1200;
    opts.max_delay = milliseconds(2);
    core::UpdateCoalescer coalescer(NodeId{93}, w.net, w.net.clock(), opts);
    batched = run(
        s,
        [&](const Schedule::Slot& slot) {
          for (const core::Sighting& sg : slot.sightings) {
            coalescer.enqueue(slot.leaf, sg);
          }
        },
        // End of the arrival window: the deadline flush would fire within
        // max_delay; drain deterministically instead of modelling the wait.
        [&] { coalescer.flush_all(); }, w);
    batched.batching_factor =
        static_cast<double>(coalescer.stats().sightings_enqueued) /
        static_cast<double>(coalescer.stats().batches_sent);
  }
  std::printf("  batched:   %8llu leaf-bound datagrams, %llu applied, "
              "%10.0f updates/s (%llu batches, factor %.2f)\n",
              static_cast<unsigned long long>(batched.leaf_datagrams),
              static_cast<unsigned long long>(batched.updates_applied),
              batched.updates_per_sec,
              static_cast<unsigned long long>(batched.update_batches),
              batched.batching_factor);

  const double ratio =
      batched.leaf_datagrams > 0
          ? static_cast<double>(unbatched.leaf_datagrams) /
                static_cast<double>(batched.leaf_datagrams)
          : 0.0;
  const double speedup = unbatched.updates_per_sec > 0
                             ? batched.updates_per_sec / unbatched.updates_per_sec
                             : 0.0;
  const bool equivalent = unbatched.updates_applied == batched.updates_applied;
  std::printf("  leaf datagram ratio: %.2fx fewer, drive speedup %.2fx, "
              "applied-equivalent: %s\n",
              ratio, speedup, equivalent ? "yes" : "NO");

  FILE* f = std::fopen("BENCH_batched.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"batched_update_coalescing\",\n"
               "  \"transport\": \"sim_deterministic\",\n"
               "  \"objects\": %zu,\n"
               "  \"updates\": %zu,\n"
               "  \"batching_factor\": %.3f,\n"
               "  \"unbatched_leaf_datagrams\": %llu,\n"
               "  \"batched_leaf_datagrams\": %llu,\n"
               "  \"leaf_datagram_ratio\": %.3f,\n"
               "  \"unbatched_updates_per_sec\": %.1f,\n"
               "  \"batched_updates_per_sec\": %.1f,\n"
               "  \"speedup\": %.3f,\n"
               "  \"updates_applied_equivalent\": %s\n"
               "}\n",
               kObjects, total_updates, batched.batching_factor,
               static_cast<unsigned long long>(unbatched.leaf_datagrams),
               static_cast<unsigned long long>(batched.leaf_datagrams), ratio,
               unbatched.updates_per_sec, batched.updates_per_sec, speedup,
               equivalent ? "true" : "false");
  std::fclose(f);
  // The acceptance bar from the issue: >=2x fewer leaf-bound datagrams at a
  // batching factor >= 4.
  return (batched.batching_factor >= 4.0 && ratio >= 2.0 && equivalent) ? 0 : 1;
}

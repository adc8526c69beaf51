// Hot-leaf update throughput over real UDP loopback.
//
// Scenario: the Table-2 topology, but with EVERY object registered on ONE
// leaf (the hotspot case). Closed-loop updater threads hammer the hot leaf's
// LocationServer, which runs on the node's one UDP receive thread; we
// measure acknowledged updates per second. Throughput depends on the host,
// so the gate only floors it against a collapse.
//
// Plain executable; writes BENCH_hot_leaf.json next to the binary,
// mirroring bench_hotpath_codec.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "udp_table2.hpp"

namespace {

using namespace locs;

constexpr std::uint64_t kObjects = 4000;
constexpr int kUpdaterThreads = 8;
constexpr auto kWarmup = std::chrono::milliseconds(300);
constexpr auto kMeasure = std::chrono::milliseconds(2000);
constexpr Duration kOpTimeout = seconds(2);

bench::LoopResult run_hot_leaf() {
  bench::UdpTable2 world;
  const NodeId hot_leaf = world.leaves[0];
  const geo::Rect leaf_rect = world.leaf_rect(0);

  Rng reg_rng(7);
  bench::register_paced(world.net, kObjects, [&](std::uint64_t) {
    return std::pair{hot_leaf, bench::inside(leaf_rect, reg_rng)};
  });

  std::vector<std::unique_ptr<bench::UpdateClient>> clients;
  for (int t = 0; t < kUpdaterThreads; ++t) {
    clients.push_back(std::make_unique<bench::UpdateClient>(
        NodeId{100 + static_cast<std::uint32_t>(t)}, world.net));
  }
  return bench::run_closed_loop(kUpdaterThreads, kWarmup, kMeasure, [&](int t) {
    return [&, t, rng = Rng(100 + static_cast<std::uint64_t>(t))]() mutable {
      const ObjectId oid{1 + rng.next_below(kObjects)};
      const core::Sighting s{oid, 0, bench::inside(leaf_rect, rng), 5.0};
      return clients[static_cast<std::size_t>(t)]->update_blocking(s, hot_leaf,
                                                                    kOpTimeout);
    };
  });
}

}  // namespace

int main() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("bench_hot_leaf_update: hot-leaf update throughput, %llu objects, "
              "%d closed-loop threads, %u cores\n",
              static_cast<unsigned long long>(kObjects), kUpdaterThreads, cores);

  const bench::LoopResult run = run_hot_leaf();
  const double ops_per_sec = static_cast<double>(run.completed) / run.seconds;
  std::printf("  %10.0f acked updates/s (%llu timeouts)\n", ops_per_sec,
              static_cast<unsigned long long>(run.failed));

  FILE* f = std::fopen("BENCH_hot_leaf.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"hot_leaf_update_throughput\",\n"
               "  \"transport\": \"udp_loopback\",\n"
               "  \"objects\": %llu,\n"
               "  \"updater_threads\": %d,\n"
               "  \"host_cores\": %u,\n"
               "  \"updates_per_sec\": %.1f,\n"
               "  \"timeouts\": %llu\n"
               "}\n",
               static_cast<unsigned long long>(kObjects), kUpdaterThreads, cores,
               ops_per_sec, static_cast<unsigned long long>(run.failed));
  std::fclose(f);
  return 0;
}

// Hot-leaf update throughput over real UDP loopback.
//
// Scenario: the Table-2 topology, but with EVERY object registered on ONE
// leaf (the hotspot case). Closed-loop updater threads hammer the hot leaf's
// LocationServer, which runs on the node's one UDP receive thread; we
// measure acknowledged updates per second. Throughput depends on the host,
// so the gate only floors it against a collapse.
//
// Plain executable (no Google Benchmark dependency); writes
// BENCH_hot_leaf.json next to the binary, mirroring bench_hotpath_codec.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/udp_network.hpp"
#include "util/rng.hpp"

namespace {

using namespace locs;

constexpr double kAreaSize = 1500.0;
constexpr std::size_t kObjects = 4000;
constexpr int kUpdaterThreads = 8;
constexpr auto kWarmup = std::chrono::milliseconds(300);
constexpr auto kMeasure = std::chrono::milliseconds(2000);
constexpr Duration kOpTimeout = seconds(2);

/// Closed-loop synchronous update client (one per thread; impersonates
/// tracked objects -- the envelope source receives the UpdateAck).
class UpdateClient {
 public:
  UpdateClient(NodeId self, net::Transport& net) : self_(self), net_(net) {
    net_.attach(self_, [this](const std::uint8_t* data, std::size_t len) {
      const auto env = wire::decode_envelope(data, len);
      if (!env.ok()) return;
      if (std::holds_alternative<wire::UpdateAck>(env.value().msg)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++acks_;
        cv_.notify_all();
      }
    });
  }

  ~UpdateClient() { net_.detach(self_); }

  bool update_blocking(const core::Sighting& s, NodeId agent) {
    std::uint64_t wait_for;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wait_for = acks_ + 1;
    }
    net::send_message(net_, self_, agent, wire::UpdateReq{s});
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::microseconds(kOpTimeout),
                        [&] { return acks_ >= wait_for; });
  }

 private:
  NodeId self_;
  net::Transport& net_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t acks_ = 0;
};

struct RunResult {
  double ops_per_sec = 0.0;
  std::uint64_t timeouts = 0;
};

RunResult run_hot_leaf() {
  net::UdpNetwork net(net::UdpNetwork::pick_free_base_port(/*span=*/300));
  SystemClock clock;
  core::Deployment deployment(
      net, clock,
      core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kAreaSize, kAreaSize}}));
  std::vector<NodeId> leaves = deployment.leaf_ids();
  std::sort(leaves.begin(), leaves.end());
  const NodeId hot_leaf = leaves[0];
  const geo::Rect leaf_rect =
      deployment.server(hot_leaf).config().sa.bounding_box();

  // Register every object on the hot leaf (paced so buffers never overflow).
  struct RegState {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t done = 0;
  } reg;
  net.attach(NodeId{91}, [&reg](const std::uint8_t* data, std::size_t len) {
    const auto env = wire::decode_envelope(data, len);
    if (!env.ok()) return;
    if (std::holds_alternative<wire::RegisterRes>(env.value().msg)) {
      std::lock_guard<std::mutex> lock(reg.mu);
      ++reg.done;
      reg.cv.notify_all();
    }
  });
  Rng reg_rng(7);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    wire::RegisterReq req;
    req.s = core::Sighting{ObjectId{i}, 0,
                           {reg_rng.uniform(leaf_rect.min.x + 1, leaf_rect.max.x - 1),
                            reg_rng.uniform(leaf_rect.min.y + 1, leaf_rect.max.y - 1)},
                           5.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = NodeId{91};
    req.req_id = i;
    net.send(NodeId{91}, hot_leaf,
             wire::encode_envelope(NodeId{91}, wire::Message{req}));
    if (i % 256 == 0) {
      std::unique_lock<std::mutex> lock(reg.mu);
      reg.cv.wait_for(lock, std::chrono::seconds(2),
                      [&] { return reg.done >= i - 128; });
    }
  }
  {
    std::unique_lock<std::mutex> lock(reg.mu);
    reg.cv.wait_for(lock, std::chrono::seconds(10),
                    [&] { return reg.done >= kObjects * 99 / 100; });
  }
  net.detach(NodeId{91});

  std::vector<std::unique_ptr<UpdateClient>> clients;
  for (int t = 0; t < kUpdaterThreads; ++t) {
    clients.push_back(std::make_unique<UpdateClient>(
        NodeId{100 + static_cast<std::uint32_t>(t)}, net));
  }

  std::atomic<bool> measuring{false}, stop{false};
  std::atomic<std::uint64_t> acked{0}, timeouts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaterThreads; ++t) {
    threads.emplace_back([&, t] {
      UpdateClient& client = *clients[static_cast<std::size_t>(t)];
      Rng rng(100 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const ObjectId oid{1 + rng.next_below(kObjects)};
        const core::Sighting s{
            oid, 0,
            {rng.uniform(leaf_rect.min.x + 1, leaf_rect.max.x - 1),
             rng.uniform(leaf_rect.min.y + 1, leaf_rect.max.y - 1)},
            5.0};
        const bool ok = client.update_blocking(s, hot_leaf);
        if (measuring.load(std::memory_order_relaxed)) {
          if (ok) {
            acked.fetch_add(1, std::memory_order_relaxed);
          } else {
            timeouts.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(kWarmup);
  const auto start = std::chrono::steady_clock::now();
  measuring.store(true, std::memory_order_release);
  std::this_thread::sleep_for(kMeasure);
  measuring.store(false, std::memory_order_release);
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  RunResult res;
  res.ops_per_sec = static_cast<double>(acked.load()) / elapsed;
  res.timeouts = timeouts.load();
  return res;
}

}  // namespace

int main() {
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("bench_hot_leaf_update: hot-leaf update throughput, %zu objects, "
              "%d closed-loop threads, %u cores\n",
              kObjects, kUpdaterThreads, cores);

  const RunResult run = run_hot_leaf();
  std::printf("  %10.0f acked updates/s (%llu timeouts)\n", run.ops_per_sec,
              static_cast<unsigned long long>(run.timeouts));

  FILE* f = std::fopen("BENCH_hot_leaf.json", "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"hot_leaf_update_throughput\",\n"
               "  \"transport\": \"udp_loopback\",\n"
               "  \"objects\": %zu,\n"
               "  \"updater_threads\": %d,\n"
               "  \"host_cores\": %u,\n"
               "  \"updates_per_sec\": %.1f,\n"
               "  \"timeouts\": %llu\n"
               "}\n",
               kObjects, kUpdaterThreads, cores, run.ops_per_sec,
               static_cast<unsigned long long>(run.timeouts));
  std::fclose(f);
  return 0;
}

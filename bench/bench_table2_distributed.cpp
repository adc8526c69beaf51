// Table 2 -- "Response time and overall throughput for different types of
// operations performed on the test configuration of the LS" (§7.2, Fig 8),
// over REAL UDP sockets (loopback), exactly the paper's transport.
//
// Configuration as in the paper: one root + four leaf servers, each leaf
// responsible for a quarter of a 1.5 km x 1.5 km service area; 10,000
// objects registered at random positions; range queries use 50 m x 50 m
// areas. Paper rows (450 MHz SUN Ultras, 100 Mbit Ethernet, Java):
//
//   position updates            1.2 ms (with ACK)   4,954 1/s
//   local position query        2.0 ms              2,809 1/s
//   remote position query       6.3 ms                728 1/s
//   local range query           5.1 ms              1,927 1/s
//   remote range query (1 srv) 13.0 ms                588 1/s
//   remote range query (2 srv) 14.6 ms                364 1/s
//   remote range query (4 srv) 13.8 ms                284 1/s
//
// Loopback compresses the constants (no physical NIC), but the orderings --
// updates fastest, local < remote, multi-server range dearer than local --
// are the reproduction target. Latency rows: single closed-loop client
// (time/op = response time). Throughput rows: the same op under 12
// closed-loop threads (items_per_second = overall throughput), mirroring
// the paper's "three load generator machines running parallel clients".
#include <benchmark/benchmark.h>

#include <condition_variable>
#include <mutex>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "core/update_coalescer.hpp"
#include "net/udp_network.hpp"
#include "util/rng.hpp"

namespace {

using namespace locs;

constexpr std::size_t kObjects = 10000;
constexpr double kAreaSize = 1500.0;
constexpr Duration kOpTimeout = seconds(5);
constexpr int kLoadThreads = 12;
constexpr int kBatchFactor = 8;  // sightings per BatchedUpdateReq row
// Node and client ids span [1, 180 + kLoadThreads]; id n binds base + n.
constexpr std::uint16_t kIdSpan = 180 + kLoadThreads;

/// Synchronous update client: impersonates tracked objects (the envelope
/// source receives the UpdateAck).
class UpdateClient {
 public:
  UpdateClient(NodeId self, net::Transport& net) : self_(self), net_(net) {
    net_.attach(self_, [this](const std::uint8_t* data, std::size_t len) {
      auto env = wire::decode_envelope(data, len);
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
    net_.send(self_, agent, wire::encode_envelope(self_, wire::UpdateReq{s}));
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

struct World {
  net::UdpNetwork net{net::UdpNetwork::pick_free_base_port(kIdSpan)};
  SystemClock clock;
  std::unique_ptr<core::Deployment> deployment;
  // Objects grouped by their agent leaf (index 0..3 in leaf id order).
  std::vector<NodeId> leaves;
  std::vector<std::vector<std::pair<ObjectId, geo::Point>>> by_leaf;
  // Pre-built clients: one update + one query client per load thread + one
  // for the single-client latency rows.
  std::vector<std::unique_ptr<UpdateClient>> updaters;
  std::vector<std::unique_ptr<core::QueryClient>> queriers;
  // Batched-update row: one coalescer per thread (adopt_pool is setup-only,
  // so they must be built here, not inside the benchmark threads) plus its
  // ack counter for the closed loop.
  struct BatchAckCounter {
    std::mutex mu;
    std::condition_variable cv;
    std::uint64_t acks = 0;
  };
  // Declared BEFORE the coalescers: the counters must outlive them, since a
  // coalescer's on_ack callback touches its counter until the coalescer's
  // destructor detaches from the (still-running) transport.
  std::vector<std::unique_ptr<BatchAckCounter>> batch_acks;
  std::vector<std::unique_ptr<core::UpdateCoalescer>> coalescers;

  World() {
    deployment = std::make_unique<core::Deployment>(
        net, clock,
        core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kAreaSize, kAreaSize}}));
    leaves = deployment->leaf_ids();
    std::sort(leaves.begin(), leaves.end());
    by_leaf.resize(leaves.size());

    // Register 10,000 objects at random positions through one registrar.
    Rng rng(7);
    struct Registrar {
      std::mutex mu;
      std::condition_variable cv;
      std::size_t done = 0;
    } reg_state;
    net.attach(NodeId{91}, [&reg_state](const std::uint8_t* data, std::size_t len) {
      auto env = wire::decode_envelope(data, len);
      if (!env.ok()) return;
      if (std::holds_alternative<wire::RegisterRes>(env.value().msg)) {
        std::lock_guard<std::mutex> lock(reg_state.mu);
        ++reg_state.done;
        reg_state.cv.notify_all();
      }
    });
    for (std::uint64_t i = 1; i <= kObjects; ++i) {
      const geo::Point p{rng.uniform(0, kAreaSize), rng.uniform(0, kAreaSize)};
      const NodeId leaf = deployment->entry_leaf_for(p);
      wire::RegisterReq req;
      req.s = core::Sighting{ObjectId{i}, 0, p, 5.0};
      req.acc_range = {10.0, 100.0};
      req.reg_inst = NodeId{91};
      req.req_id = i;
      net.send(NodeId{91}, leaf, wire::encode_envelope(NodeId{91}, wire::Message{req}));
      const std::size_t idx = static_cast<std::size_t>(
          std::find(leaves.begin(), leaves.end(), leaf) - leaves.begin());
      by_leaf[idx].emplace_back(ObjectId{i}, p);
      // Pace the registrations so the leaf socket buffers never overflow.
      if (i % 256 == 0) {
        std::unique_lock<std::mutex> lock(reg_state.mu);
        reg_state.cv.wait_for(lock, std::chrono::seconds(2),
                              [&] { return reg_state.done >= i - 128; });
      }
    }
    {
      std::unique_lock<std::mutex> lock(reg_state.mu);
      reg_state.cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return reg_state.done >= kObjects * 99 / 100; });
    }
    // The handler captures reg_state by reference; straggler RegisterRes
    // beyond the 99% wait must not touch it after this frame returns.
    net.detach(NodeId{91});

    for (int t = 0; t <= kLoadThreads; ++t) {
      updaters.push_back(std::make_unique<UpdateClient>(
          NodeId{100 + static_cast<std::uint32_t>(t)}, net));
      queriers.push_back(std::make_unique<core::QueryClient>(
          NodeId{150 + static_cast<std::uint32_t>(t)}, net, clock));
      core::UpdateCoalescer::Options copts;
      copts.max_batch = kBatchFactor;  // size-flush exactly once per round
      auto counter = std::make_unique<BatchAckCounter>();
      auto co = std::make_unique<core::UpdateCoalescer>(
          NodeId{180 + static_cast<std::uint32_t>(t)}, net, clock, copts);
      co->set_on_ack([c = counter.get()](ObjectId, double) {
        {
          std::lock_guard<std::mutex> lock(c->mu);
          ++c->acks;
        }
        c->cv.notify_all();
      });
      coalescers.push_back(std::move(co));
      batch_acks.push_back(std::move(counter));
    }
  }

  geo::Rect leaf_rect(std::size_t idx) const {
    const auto& sa = deployment->server(leaves[idx]).config().sa;
    return sa.bounding_box();
  }
};

World& world() {
  static World w;
  return w;
}

/// 50 m x 50 m query area centered at c (the paper's "medium size").
geo::Polygon range_area(geo::Point c) {
  return geo::Polygon::from_rect(geo::Rect::from_center(c, 25.0, 25.0));
}

// --- position updates (always local; "1.2 ms (with ACK)") -------------------

void BM_Table2_PositionUpdate(benchmark::State& state) {
  World& w = world();
  UpdateClient& client = *w.updaters[static_cast<std::size_t>(state.thread_index())];
  Rng rng(100 + static_cast<std::uint64_t>(state.thread_index()));
  const std::size_t leaf_idx = static_cast<std::size_t>(state.thread_index()) % 4;
  const auto& pool = w.by_leaf[leaf_idx];
  const geo::Rect leaf = w.leaf_rect(leaf_idx);
  std::int64_t failures = 0;
  for (auto _ : state) {
    const auto& [oid, base] = pool[rng.next_below(pool.size())];
    // New position anywhere inside the same leaf: never triggers handover.
    const core::Sighting s{oid, 0,
                           {rng.uniform(leaf.min.x + 1, leaf.max.x - 1),
                            rng.uniform(leaf.min.y + 1, leaf.max.y - 1)},
                           5.0};
    if (!client.update_blocking(s, w.leaves[leaf_idx])) ++failures;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["failures"] = static_cast<double>(failures);
}
BENCHMARK(BM_Table2_PositionUpdate)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Table2_PositionUpdate)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(kLoadThreads)
    ->UseRealTime();

// --- batched position updates (wire::BatchedUpdateReq) -----------------------
//
// The coalesced variant of the update row: each iteration packs kBatchFactor
// sightings for one leaf into a single datagram through an UpdateCoalescer
// and waits for the packed acknowledgement. items_per_second counts
// SIGHTINGS, so the improvement over BM_Table2_PositionUpdate's throughput
// is the amortization the batching factor buys end to end.

void BM_Table2_BatchedUpdate(benchmark::State& state) {
  World& w = world();
  const auto ti = static_cast<std::size_t>(state.thread_index());
  core::UpdateCoalescer& co = *w.coalescers[ti];
  World::BatchAckCounter& ctr = *w.batch_acks[ti];
  Rng rng(400 + static_cast<std::uint64_t>(ti));
  const std::size_t leaf_idx = ti % 4;
  const auto& pool = w.by_leaf[leaf_idx];
  const geo::Rect leaf = w.leaf_rect(leaf_idx);
  std::int64_t failures = 0;
  std::uint64_t expected;
  {
    std::lock_guard<std::mutex> lock(ctr.mu);
    expected = ctr.acks;
  }
  for (auto _ : state) {
    for (int i = 0; i < kBatchFactor; ++i) {
      const auto& [oid, base] = pool[rng.next_below(pool.size())];
      co.enqueue(w.leaves[leaf_idx],
                 core::Sighting{
                     oid, 0,
                     {rng.uniform(leaf.min.x + 1, leaf.max.x - 1),
                      rng.uniform(leaf.min.y + 1, leaf.max.y - 1)},
                     5.0});
    }
    expected += kBatchFactor;
    std::unique_lock<std::mutex> lock(ctr.mu);
    if (!ctr.cv.wait_for(lock, std::chrono::microseconds(kOpTimeout),
                         [&] { return ctr.acks >= expected; })) {
      ++failures;
      expected = ctr.acks;  // resync after a lost datagram
    }
  }
  state.SetItemsProcessed(state.iterations() * kBatchFactor);
  state.counters["failures"] = static_cast<double>(failures);
}

BENCHMARK(BM_Table2_BatchedUpdate)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Table2_BatchedUpdate)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(kLoadThreads)
    ->UseRealTime();

// --- position queries --------------------------------------------------------

void pos_query_loop(benchmark::State& state, bool remote) {
  World& w = world();
  core::QueryClient& qc = *w.queriers[static_cast<std::size_t>(state.thread_index())];
  Rng rng(200 + static_cast<std::uint64_t>(state.thread_index()));
  std::int64_t failures = 0;
  for (auto _ : state) {
    const std::size_t target_leaf = rng.next_below(4);
    const std::size_t entry_leaf = remote ? (target_leaf + 1 + rng.next_below(3)) % 4
                                          : target_leaf;
    const auto& pool = w.by_leaf[target_leaf];
    const auto& [oid, pos] = pool[rng.next_below(pool.size())];
    qc.set_entry(w.leaves[entry_leaf]);
    const auto res = qc.pos_query_blocking(oid, kOpTimeout);
    if (!res || !res->found) ++failures;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["failures"] = static_cast<double>(failures);
}

void BM_Table2_LocalPosQuery(benchmark::State& state) { pos_query_loop(state, false); }
void BM_Table2_RemotePosQuery(benchmark::State& state) { pos_query_loop(state, true); }

BENCHMARK(BM_Table2_LocalPosQuery)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Table2_LocalPosQuery)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(kLoadThreads)
    ->UseRealTime();
BENCHMARK(BM_Table2_RemotePosQuery)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Table2_RemotePosQuery)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(kLoadThreads)
    ->UseRealTime();

// --- range queries -----------------------------------------------------------

/// servers: how many leaf service areas the 50 m x 50 m area touches;
/// remote: whether the entry server is a leaf NOT covering the area.
void range_query_loop(benchmark::State& state, int servers, bool remote) {
  World& w = world();
  core::QueryClient& qc = *w.queriers[static_cast<std::size_t>(state.thread_index())];
  Rng rng(300 + static_cast<std::uint64_t>(state.thread_index()));
  std::int64_t failures = 0;
  for (auto _ : state) {
    const std::size_t home = rng.next_below(4);
    const geo::Rect leaf = w.leaf_rect(home);
    geo::Point center;
    switch (servers) {
      case 1:  // well inside one leaf
        center = {rng.uniform(leaf.min.x + 100, leaf.max.x - 100),
                  rng.uniform(leaf.min.y + 100, leaf.max.y - 100)};
        break;
      case 2:  // straddles one internal boundary
        center = {kAreaSize / 2,
                  rng.uniform(leaf.min.y + 100, leaf.max.y - 100)};
        break;
      default:  // the four-corner point
        center = {kAreaSize / 2, kAreaSize / 2};
        break;
    }
    const std::size_t entry = remote ? (home + 1 + rng.next_below(3)) % 4 : home;
    qc.set_entry(w.leaves[entry]);
    const auto res = qc.range_query_blocking(range_area(center), /*req_acc=*/25.0,
                                             /*req_overlap=*/0.5, kOpTimeout);
    if (!res || !res->complete) ++failures;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["failures"] = static_cast<double>(failures);
}

void BM_Table2_LocalRangeQuery(benchmark::State& state) {
  range_query_loop(state, 1, false);
}
void BM_Table2_RemoteRangeQuery1(benchmark::State& state) {
  range_query_loop(state, 1, true);
}
void BM_Table2_RemoteRangeQuery2(benchmark::State& state) {
  range_query_loop(state, 2, true);
}
void BM_Table2_RemoteRangeQuery4(benchmark::State& state) {
  range_query_loop(state, 4, true);
}

BENCHMARK(BM_Table2_LocalRangeQuery)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Table2_LocalRangeQuery)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(kLoadThreads)
    ->UseRealTime();
BENCHMARK(BM_Table2_RemoteRangeQuery1)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Table2_RemoteRangeQuery1)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(kLoadThreads)
    ->UseRealTime();
BENCHMARK(BM_Table2_RemoteRangeQuery2)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Table2_RemoteRangeQuery2)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(kLoadThreads)
    ->UseRealTime();
BENCHMARK(BM_Table2_RemoteRangeQuery4)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Table2_RemoteRangeQuery4)
    ->Unit(benchmark::kMicrosecond)
    ->Threads(kLoadThreads)
    ->UseRealTime();

}  // namespace

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
// are the reproduction target. Each operation runs for 0.5 s with a single
// closed-loop client (mean time per operation = response time) and for
// 0.5 s with 12 closed-loop clients (completed operations per second =
// overall throughput), mirroring the paper's "three load generator machines
// running parallel clients". A closed loop sends less while the service
// stalls, so its percentiles would understate the tail: the suite reports
// means only and gates nothing. Plain executable, no options; it exits
// non-zero only when a run completes no operation.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/client.hpp"
#include "core/update_coalescer.hpp"
#include "udp_table2.hpp"

namespace {

using namespace locs;
using bench::kAreaSize;

constexpr std::uint64_t kObjects = 10000;
constexpr Duration kOpTimeout = seconds(5);
constexpr int kLoadThreads = 12;
constexpr int kBatchFactor = 8;  // sightings per BatchedUpdateReq row
constexpr auto kRunTime = std::chrono::milliseconds(500);

struct World {
  bench::UdpTable2 udp;
  // Objects grouped by their agent leaf (index 0..3 in leaf id order).
  std::vector<std::vector<std::pair<ObjectId, geo::Point>>> by_leaf;
  // One update client, query client and coalescer per load thread; the
  // single-client runs use the first of each.
  std::vector<std::unique_ptr<bench::UpdateClient>> updaters;
  std::vector<std::unique_ptr<core::QueryClient>> queriers;
  // Batched-update row: the ack counter of each coalescer, for the closed
  // loop.
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
    by_leaf.resize(udp.leaves.size());
    Rng rng(7);
    bench::register_paced(udp.net, kObjects, [&](std::uint64_t i) {
      const geo::Point p{rng.uniform(0, kAreaSize), rng.uniform(0, kAreaSize)};
      const NodeId leaf = udp.deployment.entry_leaf_for(p);
      const auto idx = static_cast<std::size_t>(
          std::find(udp.leaves.begin(), udp.leaves.end(), leaf) - udp.leaves.begin());
      by_leaf[idx].emplace_back(ObjectId{i}, p);
      return std::pair{leaf, p};
    });

    for (int t = 0; t < kLoadThreads; ++t) {
      const auto id = static_cast<std::uint32_t>(t);
      updaters.push_back(
          std::make_unique<bench::UpdateClient>(NodeId{100 + id}, udp.net));
      queriers.push_back(
          std::make_unique<core::QueryClient>(NodeId{150 + id}, udp.net, udp.clock));
      core::UpdateCoalescer::Options copts;
      copts.max_batch = kBatchFactor;  // size-flush exactly once per operation
      auto counter = std::make_unique<BatchAckCounter>();
      auto co = std::make_unique<core::UpdateCoalescer>(NodeId{180 + id}, udp.net,
                                                        udp.clock, copts);
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
};

/// One closed-loop operation; returns whether it succeeded.
using Op = std::function<bool()>;

// --- position updates (always local; "1.2 ms (with ACK)") -------------------

Op position_update(World& w, std::size_t t) {
  const std::size_t leaf_idx = t % 4;
  return [&w, t, leaf_idx, leaf = w.udp.leaf_rect(leaf_idx),
          rng = Rng(100 + t)]() mutable {
    const auto& pool = w.by_leaf[leaf_idx];
    const ObjectId oid = pool[rng.next_below(pool.size())].first;
    const core::Sighting s{oid, 0, bench::inside(leaf, rng), 5.0};
    return w.updaters[t]->update_blocking(s, w.udp.leaves[leaf_idx], kOpTimeout);
  };
}

// --- batched position updates (wire::BatchedUpdateReq) -----------------------
//
// The coalesced variant of the update row: each operation packs kBatchFactor
// sightings for one leaf into a single datagram through an UpdateCoalescer
// and waits for the packed acknowledgement. Its throughput counts SIGHTINGS,
// so the improvement over the position-update row is the amortization the
// batching factor buys end to end.

Op batched_update(World& w, std::size_t t) {
  const std::size_t leaf_idx = t % 4;
  World::BatchAckCounter& ctr = *w.batch_acks[t];
  std::uint64_t expected;
  {
    std::lock_guard<std::mutex> lock(ctr.mu);
    expected = ctr.acks;
  }
  return [&w, &ctr, t, leaf_idx, leaf = w.udp.leaf_rect(leaf_idx),
          rng = Rng(400 + t), expected]() mutable {
    const auto& pool = w.by_leaf[leaf_idx];
    for (int i = 0; i < kBatchFactor; ++i) {
      const ObjectId oid = pool[rng.next_below(pool.size())].first;
      w.coalescers[t]->enqueue(w.udp.leaves[leaf_idx],
                               core::Sighting{oid, 0, bench::inside(leaf, rng), 5.0});
    }
    expected += kBatchFactor;
    std::unique_lock<std::mutex> lock(ctr.mu);
    if (ctr.cv.wait_for(lock, std::chrono::microseconds(kOpTimeout),
                        [&] { return ctr.acks >= expected; })) {
      return true;
    }
    expected = ctr.acks;  // resync after a lost datagram
    return false;
  };
}

// --- position queries --------------------------------------------------------

Op pos_query(World& w, std::size_t t, bool remote) {
  return [&w, t, remote, rng = Rng(200 + t)]() mutable {
    const std::size_t target_leaf = rng.next_below(4);
    const std::size_t entry_leaf =
        remote ? (target_leaf + 1 + rng.next_below(3)) % 4 : target_leaf;
    const auto& pool = w.by_leaf[target_leaf];
    const ObjectId oid = pool[rng.next_below(pool.size())].first;
    core::QueryClient& qc = *w.queriers[t];
    qc.set_entry(w.udp.leaves[entry_leaf]);
    const auto res = qc.pos_query_blocking(oid, kOpTimeout);
    return res && res->found;
  };
}

// --- range queries -----------------------------------------------------------

/// servers: how many leaf service areas the 50 m x 50 m area touches;
/// remote: whether the entry server is a leaf NOT covering the area.
Op range_query(World& w, std::size_t t, int servers, bool remote) {
  return [&w, t, servers, remote, rng = Rng(300 + t)]() mutable {
    const std::size_t home = rng.next_below(4);
    const geo::Rect leaf = w.udp.leaf_rect(home);
    geo::Point center;
    switch (servers) {
      case 1:  // well inside one leaf
        center = {rng.uniform(leaf.min.x + 100, leaf.max.x - 100),
                  rng.uniform(leaf.min.y + 100, leaf.max.y - 100)};
        break;
      case 2:  // straddles one internal boundary
        center = {kAreaSize / 2, rng.uniform(leaf.min.y + 100, leaf.max.y - 100)};
        break;
      default:  // the four-corner point
        center = {kAreaSize / 2, kAreaSize / 2};
        break;
    }
    const std::size_t entry = remote ? (home + 1 + rng.next_below(3)) % 4 : home;
    core::QueryClient& qc = *w.queriers[t];
    qc.set_entry(w.udp.leaves[entry]);
    // 50 m x 50 m query area (the paper's "medium size").
    const auto res = qc.range_query_blocking(
        geo::Polygon::from_rect(geo::Rect::from_center(center, 25.0, 25.0)),
        /*req_acc=*/25.0, /*req_overlap=*/0.5, kOpTimeout);
    return res && res->complete;
  };
}

struct Row {
  const char* name;
  const char* paper;  // response time / overall throughput
  int items;          // counted per completed operation
  std::function<Op(World&, std::size_t)> make_op;
};

const Row kRows[] = {
    {"position update", "1.2 ms / 4,954 1/s", 1, position_update},
    {"batched update (8 sightings)", "-", kBatchFactor, batched_update},
    {"local position query", "2.0 ms / 2,809 1/s", 1,
     [](World& w, std::size_t t) { return pos_query(w, t, false); }},
    {"remote position query", "6.3 ms / 728 1/s", 1,
     [](World& w, std::size_t t) { return pos_query(w, t, true); }},
    {"local range query", "5.1 ms / 1,927 1/s", 1,
     [](World& w, std::size_t t) { return range_query(w, t, 1, false); }},
    {"remote range query (1 srv)", "13.0 ms / 588 1/s", 1,
     [](World& w, std::size_t t) { return range_query(w, t, 1, true); }},
    {"remote range query (2 srv)", "14.6 ms / 364 1/s", 1,
     [](World& w, std::size_t t) { return range_query(w, t, 2, true); }},
    {"remote range query (4 srv)", "13.8 ms / 284 1/s", 1,
     [](World& w, std::size_t t) { return range_query(w, t, 4, true); }},
};

}  // namespace

int main() {
  std::printf("bench_table2_distributed: Table 2 over UDP loopback, %llu objects, "
              "%lld ms per run, %u cores\n",
              static_cast<unsigned long long>(kObjects),
              static_cast<long long>(kRunTime.count()),
              std::thread::hardware_concurrency());
  World w;
  std::printf("%-30s %12s %24s %9s   %s\n", "operation", "1 client",
              "12 clients", "failed", "paper: response / throughput");
  bool empty_run = false;
  for (const Row& row : kRows) {
    const auto make_op = [&](int t) {
      return row.make_op(w, static_cast<std::size_t>(t));
    };
    const bench::LoopResult one =
        bench::run_closed_loop(1, std::chrono::milliseconds(0), kRunTime, make_op);
    const bench::LoopResult many = bench::run_closed_loop(
        kLoadThreads, std::chrono::milliseconds(0), kRunTime, make_op);
    const std::uint64_t one_ops = one.completed + one.failed;
    const double mean_us =
        one_ops == 0 ? 0.0 : one.seconds * 1e6 / static_cast<double>(one_ops);
    const double per_sec =
        static_cast<double>(many.completed * static_cast<std::uint64_t>(row.items)) /
        many.seconds;
    std::printf("%-30s %9.1f us %12.0f %-11s %4llu/%-4llu   %s\n", row.name, mean_us,
                per_sec, row.items == 1 ? "ops/s" : "sightings/s",
                static_cast<unsigned long long>(one.failed),
                static_cast<unsigned long long>(many.failed), row.paper);
    if (one.completed == 0 || many.completed == 0) {
      std::fprintf(stderr, "bench_table2_distributed: %s completed no operation\n",
                   row.name);
      empty_run = true;
    }
  }
  return empty_run ? 1 : 0;
}

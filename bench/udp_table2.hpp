// The UDP Table-2 world that bench_table2_distributed and
// bench_hot_leaf_update share: the paper's test configuration (§7.2, Fig 8:
// one root and four leaf servers over a 1.5 km x 1.5 km service area) on
// real UDP loopback, a paced registrar, a blocking update client and one
// closed-loop thread runner.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/udp_network.hpp"
#include "util/rng.hpp"

namespace locs::bench {

constexpr double kAreaSize = 1500.0;

/// The Table-2 deployment on loopback ports the kernel picks. Servers are
/// nodes 1-5, the registrar is node 91 and the benches' clients take ids
/// from 100.
struct UdpTable2 {
  UdpTable2()
      : deployment(net, clock,
                   core::HierarchyBuilder::table2(
                       geo::Rect{{0, 0}, {kAreaSize, kAreaSize}})),
        leaves(deployment.leaf_ids()) {
    std::sort(leaves.begin(), leaves.end());
  }

  /// Bounding box of leaves[idx]'s service area.
  geo::Rect leaf_rect(std::size_t idx) const {
    return deployment.spec().find(leaves[idx])->cfg.sa.bounding_box();
  }

  net::UdpNetwork net;
  SystemClock clock;
  core::Deployment deployment;
  std::vector<NodeId> leaves;  // ascending
};

/// A uniform position at least 1 m inside `leaf`: an update there never
/// hands over.
inline geo::Point inside(const geo::Rect& leaf, Rng& rng) {
  return {rng.uniform(leaf.min.x + 1, leaf.max.x - 1),
          rng.uniform(leaf.min.y + 1, leaf.max.y - 1)};
}

/// Registers objects 1..n through registrar node 91: `place(i)` returns the
/// (leaf, position) object i registers at, called in ascending i. Paced so
/// the leaf socket buffers never overflow: after every 256 registrations it
/// waits up to 2 s for i - 128 answers, and at the end up to 10 s for 99%.
template <typename Place>
void register_paced(net::Transport& net, std::uint64_t n, Place place) {
  constexpr NodeId kRegistrar{91};
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t done = 0;
  net.attach(kRegistrar, [&](const std::uint8_t* data, std::size_t len) {
    const auto env = wire::decode_envelope(data, len);
    if (!env.ok() || !std::holds_alternative<wire::RegisterRes>(env.value().msg)) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    ++done;
    cv.notify_all();
  });
  for (std::uint64_t i = 1; i <= n; ++i) {
    const auto [leaf, pos] = place(i);
    wire::RegisterReq req;
    req.s = core::Sighting{ObjectId{i}, 0, pos, 5.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = kRegistrar;
    req.req_id = i;
    net::send_message(net, kRegistrar, leaf, req);
    if (i % 256 == 0) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(2), [&] { return done >= i - 128; });
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return done >= n * 99 / 100; });
  }
  // The handler captures this frame's locals: answers arriving after the
  // 99% wait must not reach it once the frame returns.
  net.detach(kRegistrar);
}

/// Synchronous update client: impersonates tracked objects (the envelope
/// source receives the UpdateAck).
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

  UpdateClient(const UpdateClient&) = delete;
  UpdateClient& operator=(const UpdateClient&) = delete;

  /// Sends `s` to `agent` and waits for the next acknowledgement.
  bool update_blocking(const core::Sighting& s, NodeId agent, Duration timeout) {
    std::uint64_t wait_for;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wait_for = acks_ + 1;
    }
    net::send_message(net_, self_, agent, wire::UpdateReq{s});
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::microseconds(timeout),
                        [&] { return acks_ >= wait_for; });
  }

 private:
  NodeId self_;
  net::Transport& net_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t acks_ = 0;
};

struct LoopResult {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;  // length of the measured window
};

/// Runs `threads` closed-loop clients. Thread t calls make_op(t) once, then
/// calls the op it returned until stopped; an op returns whether it
/// succeeded. Operations that finish after `warmup`, inside the measured
/// `window`, are counted.
template <typename MakeOp>
LoopResult run_closed_loop(int threads, std::chrono::milliseconds warmup,
                           std::chrono::milliseconds window, MakeOp make_op) {
  std::atomic<bool> measuring{false}, stop{false};
  std::atomic<std::uint64_t> completed{0}, failed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&, t] {
      auto op = make_op(t);
      while (!stop.load(std::memory_order_acquire)) {
        const bool ok = op();
        if (measuring.load(std::memory_order_relaxed)) {
          (ok ? completed : failed).fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::this_thread::sleep_for(warmup);
  const auto start = std::chrono::steady_clock::now();
  measuring.store(true, std::memory_order_release);
  std::this_thread::sleep_for(window);
  measuring.store(false, std::memory_order_release);
  LoopResult res;
  res.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  stop.store(true, std::memory_order_release);
  for (std::thread& th : clients) th.join();
  res.completed = completed.load();
  res.failed = failed.load();
  return res;
}

}  // namespace locs::bench

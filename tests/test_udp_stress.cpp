// Multi-threaded soak of a deployment over REAL UDP loopback: a table-2
// deployment hammered by concurrent updater threads (including cross-leaf
// moves, i.e. handovers) and query threads, with a bounded runtime. Verifies
// liveness (operations keep completing), final consistency (every object's
// last acknowledged position is queryable), and -- under TSan in CI -- that
// the Deployment's per-node lock serializes the receive threads, the
// driver's ticks and cross-thread find_sighting probes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/udp_network.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

namespace locs::test {
namespace {

constexpr double kArea = 1500.0;
constexpr auto kSoakDuration = std::chrono::milliseconds(1200);
constexpr Duration kOpTimeout = seconds(2);

/// Thread-confined synchronous client driving registration and updates for a
/// disjoint set of objects (the update path of a tracked object, minus the
/// accuracy-threshold logic, so every call is a real wire round trip).
class SyncUpdater {
 public:
  SyncUpdater(NodeId self, net::Transport& net) : self_(self), net_(net) {
    net_.attach(self_, [this](const std::uint8_t* data, std::size_t len) {
      const auto env = wire::decode_envelope(data, len);
      if (!env.ok()) return;
      std::lock_guard<std::mutex> lock(mu_);
      if (const auto* res = std::get_if<wire::RegisterRes>(&env.value().msg)) {
        agents_[ObjectId{res->req_id}] = res->agent;  // req_id == oid below
        ++completions_;
      } else if (const auto* ack = std::get_if<wire::UpdateAck>(&env.value().msg)) {
        acked_[ack->oid] = pending_pos_[ack->oid];
        ++completions_;
      } else if (const auto* ch = std::get_if<wire::AgentChanged>(&env.value().msg)) {
        if (ch->new_agent.valid()) {
          agents_[ch->oid] = ch->new_agent;
          // The handover carried the triggering sighting to the new agent.
          acked_[ch->oid] = pending_pos_[ch->oid];
        }
        ++completions_;
      } else if (const auto* unk = std::get_if<wire::UnknownObject>(&env.value().msg)) {
        // The agent lost the object's record (a restarted leaf without its
        // visitor log); update_blocking re-registers. The same answer from a
        // former agent, to a straggler update, is ignored.
        const auto agent = agents_.find(unk->oid);
        if (agent != agents_.end() && agent->second == env.value().src) {
          unknown_.insert(unk->oid);
          ++completions_;
        }
      }
      cv_.notify_all();
    });
  }

  ~SyncUpdater() { net_.detach(self_); }

  bool register_blocking(ObjectId oid, geo::Point pos, NodeId entry) {
    {
      // Forget any previous agent so the completion wait below really waits
      // for THIS registration's response (re-registration after an
      // UnknownObject).
      std::lock_guard<std::mutex> lock(mu_);
      agents_.erase(oid);
    }
    wire::RegisterReq req;
    req.s = core::Sighting{oid, 0, pos, 5.0};
    req.acc_range = {10.0, 100.0};
    req.reg_inst = self_;
    req.req_id = oid.value;  // lets the handler key the agent map
    const std::uint64_t wait_for = completion_count() + 1;
    net::send_message(net_, self_, entry, req);
    if (!wait_until([&] { return agents_.count(oid) > 0; }, wait_for)) return false;
    std::lock_guard<std::mutex> lock(mu_);
    acked_[oid] = pos;
    return true;
  }

  /// Registration entry point used when the agent answers an update with
  /// UnknownObject (it lost its state in a crash) and the object must
  /// re-register.
  void set_reregister_entry(NodeId entry) { reregister_entry_ = entry; }

  /// Sends an update and waits for the UpdateAck (or the AgentChanged that a
  /// cross-leaf move produces). Retries around handover races; an
  /// UnknownObject from a restarted agent triggers re-registration when an
  /// entry hint is set.
  bool update_blocking(ObjectId oid, geo::Point pos, int attempts = 8) {
    for (int i = 0; i < attempts; ++i) {
      NodeId agent;
      {
        std::lock_guard<std::mutex> lock(mu_);
        agent = agents_[oid];
        pending_pos_[oid] = pos;
        unknown_.erase(oid);
      }
      if (!agent.valid()) return false;
      const std::uint64_t wait_for = completion_count() + 1;
      net::send_message(net_, self_, agent,
                        wire::UpdateReq{core::Sighting{oid, 0, pos, 5.0}});
      const bool done = wait_until(
          [&] { return acked_[oid] == pos || unknown_.count(oid) > 0; }, wait_for);
      if (done) {
        const bool lost = [&] {
          std::lock_guard<std::mutex> lock(mu_);
          return unknown_.erase(oid) > 0;
        }();
        if (!lost) return true;
        if (!reregister_entry_.valid()) return false;
        if (!register_blocking(oid, pos, reregister_entry_)) continue;
        return true;  // registration carried the position as its sighting
      }
      // Timeout: stale agent or a dropped datagram; re-resolve and retry.
    }
    return false;
  }

  geo::Point acked_position(ObjectId oid) {
    std::lock_guard<std::mutex> lock(mu_);
    return acked_[oid];
  }

  NodeId agent_of(ObjectId oid) {
    std::lock_guard<std::mutex> lock(mu_);
    return agents_[oid];
  }

 private:
  std::uint64_t completion_count() {
    std::lock_guard<std::mutex> lock(mu_);
    return completions_;
  }

  template <typename Pred>
  bool wait_until(Pred done, std::uint64_t min_completions) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::microseconds(kOpTimeout), [&] {
      return completions_ >= min_completions && done();
    });
  }

  NodeId self_;
  net::Transport& net_;
  NodeId reregister_entry_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t completions_ = 0;
  std::unordered_map<ObjectId, NodeId> agents_;
  std::unordered_map<ObjectId, geo::Point> pending_pos_;
  std::unordered_map<ObjectId, geo::Point> acked_;
  std::unordered_set<ObjectId> unknown_;
};

TEST(UdpStress, ConcurrentUpdatesQueriesAndHandovers) {
  constexpr int kUpdaterThreads = 4;
  constexpr int kQueryThreads = 2;
  constexpr std::uint64_t kObjectsPerThread = 16;

  net::UdpNetwork net;
  SystemClock clock;
  core::Deployment deployment(
      net, clock, core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}));
  const std::vector<NodeId> leaves = [&] {
    auto l = deployment.leaf_ids();
    std::sort(l.begin(), l.end());
    return l;
  }();

  // Register every object up front (serially; the soak then runs bounded).
  std::vector<std::unique_ptr<SyncUpdater>> updaters;
  for (int t = 0; t < kUpdaterThreads; ++t) {
    updaters.push_back(std::make_unique<SyncUpdater>(
        NodeId{100 + static_cast<std::uint32_t>(t)}, net));
  }
  Rng seed_rng(5);
  for (int t = 0; t < kUpdaterThreads; ++t) {
    for (std::uint64_t i = 0; i < kObjectsPerThread; ++i) {
      const ObjectId oid{static_cast<std::uint64_t>(t) * kObjectsPerThread + i + 1};
      const geo::Point p{seed_rng.uniform(10, kArea - 10),
                         seed_rng.uniform(10, kArea - 10)};
      ASSERT_TRUE(
          updaters[static_cast<std::size_t>(t)]->register_blocking(
              oid, p, deployment.entry_leaf_for(p)))
          << "registration failed for object " << oid.value;
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> updates_ok{0}, updates_failed{0};
  std::atomic<std::uint64_t> queries_done{0}, queries_timed_out{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaterThreads; ++t) {
    threads.emplace_back([&, t] {
      SyncUpdater& up = *updaters[static_cast<std::size_t>(t)];
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const ObjectId oid{static_cast<std::uint64_t>(t) * kObjectsPerThread +
                           rng.next_below(kObjectsPerThread) + 1};
        // Updates jump to a uniformly random position -- frequently a
        // different quadrant, forcing a handover between leaves.
        const geo::Point p{rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
        if (up.update_blocking(oid, p)) {
          updates_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          updates_failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      core::QueryClient qc(NodeId{150 + static_cast<std::uint32_t>(t)}, net, clock);
      Rng rng(2000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        qc.set_entry(leaves[rng.next_below(leaves.size())]);
        const std::uint64_t kind = rng.next_below(3);
        bool completed = false;
        if (kind == 0) {
          const ObjectId oid{rng.next_below(kUpdaterThreads * kObjectsPerThread) + 1};
          completed = qc.pos_query_blocking(oid, kOpTimeout).has_value();
        } else if (kind == 1) {
          const geo::Point c{rng.uniform(100, kArea - 100),
                             rng.uniform(100, kArea - 100)};
          const auto res = qc.range_query_blocking(
              geo::Polygon::from_rect(geo::Rect::from_center(c, 150, 150)),
              /*req_acc=*/60.0, /*req_overlap=*/0.3, kOpTimeout);
          completed = res.has_value();
        } else {
          const geo::Point p{rng.uniform(0, kArea), rng.uniform(0, kArea)};
          completed = qc.nn_query_blocking(p, 60.0, 10.0, kOpTimeout).has_value();
        }
        if (completed) {
          queries_done.fetch_add(1, std::memory_order_relaxed);
        } else {
          queries_timed_out.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Main thread: periodic maintenance sweeps racing the receive threads
  // (tick_all takes each node's lock).
  const auto deadline = std::chrono::steady_clock::now() + kSoakDuration;
  while (std::chrono::steady_clock::now() < deadline) {
    deployment.tick_all(clock.now());
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  // Liveness: the soak must have made real progress on both sides.
  EXPECT_GT(updates_ok.load(), 100u);
  EXPECT_GT(queries_done.load(), 10u);
  // A few failures are legal under handover races / dropped datagrams, but
  // they must stay the exception.
  EXPECT_LT(updates_failed.load(), updates_ok.load() / 4 + 8);

  // Final consistency: settle every object with one more acknowledged
  // update, then its position must be queryable everywhere.
  core::QueryClient verifier(NodeId{160}, net, clock);
  Rng rng(3);
  for (int t = 0; t < kUpdaterThreads; ++t) {
    for (std::uint64_t i = 0; i < kObjectsPerThread; ++i) {
      const ObjectId oid{static_cast<std::uint64_t>(t) * kObjectsPerThread + i + 1};
      const geo::Point p{rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
      ASSERT_TRUE(updaters[static_cast<std::size_t>(t)]->update_blocking(oid, p, 20))
          << "object " << oid.value << " failed to settle";
      verifier.set_entry(leaves[i % leaves.size()]);
      const auto res = verifier.pos_query_blocking(oid, kOpTimeout);
      ASSERT_TRUE(res.has_value()) << "object " << oid.value;
      ASSERT_TRUE(res->found) << "object " << oid.value;
      EXPECT_EQ(res->ld.pos, p) << "object " << oid.value;
    }
  }

  // No leaf's transmit ring ever dropped a datagram.
  for (const NodeId leaf : leaves) {
    EXPECT_EQ(net.tx_stats(leaf).dropped, 0u) << "leaf " << leaf.value;
  }
}

/// Crash/restart soak over real UDP: a leaf is killed and restarted
/// WHILE updater and query threads hammer the deployment. Drives the
/// sim::FaultPlan wall-clock hook (take_due), Deployment::crash/restart over
/// a live UdpNetwork (handler swap on the surviving socket), and the
/// client re-registration after UnknownObject; under ASan/TSan in CI this is
/// the teardown-vs-traffic race check for the whole fault subsystem.
TEST(UdpStress, CrashRestartUnderConcurrentLoad) {
  constexpr int kUpdaterThreads = 3;
  constexpr std::uint64_t kObjectsPerThread = 12;
  constexpr auto kSoak = std::chrono::milliseconds(1500);

  net::UdpNetwork net;
  SystemClock clock;
  core::Deployment::Config cfg;
  // In-memory visitorDBs: the crash is a TOTAL state loss, recovered through
  // updates answered with UnknownObject + client re-registration.
  core::Deployment deployment(
      net, clock, core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
      cfg);
  const std::vector<NodeId> leaves = [&] {
    auto l = deployment.leaf_ids();
    std::sort(l.begin(), l.end());
    return l;
  }();
  const NodeId victim = leaves[0];

  std::vector<std::unique_ptr<SyncUpdater>> updaters;
  for (int t = 0; t < kUpdaterThreads; ++t) {
    updaters.push_back(std::make_unique<SyncUpdater>(
        NodeId{200 + static_cast<std::uint32_t>(t)}, net));
    updaters.back()->set_reregister_entry(leaves[1]);
  }
  Rng seed_rng(17);
  for (int t = 0; t < kUpdaterThreads; ++t) {
    for (std::uint64_t i = 0; i < kObjectsPerThread; ++i) {
      const ObjectId oid{static_cast<std::uint64_t>(t) * kObjectsPerThread + i + 1};
      const geo::Point p{seed_rng.uniform(10, kArea - 10),
                         seed_rng.uniform(10, kArea - 10)};
      ASSERT_TRUE(updaters[static_cast<std::size_t>(t)]->register_blocking(
          oid, p, deployment.entry_leaf_for(p)));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> updates_ok{0}, updates_failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kUpdaterThreads; ++t) {
    threads.emplace_back([&, t] {
      SyncUpdater& up = *updaters[static_cast<std::size_t>(t)];
      Rng rng(4000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const ObjectId oid{static_cast<std::uint64_t>(t) * kObjectsPerThread +
                           rng.next_below(kObjectsPerThread) + 1};
        const geo::Point p{rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
        // One attempt per op: while the victim is down these time out fast
        // enough for the thread to keep making progress elsewhere.
        if (up.update_blocking(oid, p, /*attempts=*/1)) {
          updates_ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          updates_failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread query_thread([&] {
    core::QueryClient qc(NodeId{250}, net, clock);
    Rng rng(5000);
    while (!stop.load(std::memory_order_acquire)) {
      qc.set_entry(leaves[1 + rng.next_below(leaves.size() - 1)]);
      const geo::Point c{rng.uniform(100, kArea - 100), rng.uniform(100, kArea - 100)};
      (void)qc.range_query_blocking(
          geo::Polygon::from_rect(geo::Rect::from_center(c, 150, 150)),
          /*req_acc=*/60.0, /*req_overlap=*/0.3, kOpTimeout);
    }
  });

  // Wall-clock fault schedule through the UDP harness hook: TimePoints are
  // microseconds since soak start.
  sim::FaultPlan plan;
  plan.crash_at(milliseconds(300), victim).restart_at(milliseconds(700), victim);
  const auto start = std::chrono::steady_clock::now();
  bool crashed = false, restarted = false;
  while (std::chrono::steady_clock::now() - start < kSoak) {
    const auto now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    for (const sim::FaultPlan::Event& ev : plan.take_due(now_us)) {
      if (ev.kind == sim::FaultPlan::Event::Kind::kCrash) {
        deployment.crash(ev.node);
        crashed = true;
      } else {
        deployment.restart(ev.node, /*announce=*/true);
        restarted = true;
      }
    }
    deployment.tick_all(clock.now());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  query_thread.join();
  ASSERT_TRUE(crashed);
  ASSERT_TRUE(restarted);
  EXPECT_FALSE(deployment.is_down(victim));
  EXPECT_GT(updates_ok.load(), 50u);

  // Settle-phase maintenance: handovers that were initiated INTO the dead
  // leaf stay pending until the timeout sweep clears them; without ticks the
  // blocked objects could never settle. Safe to run from its own thread now
  // -- crash/restart is over, so tick_all races no teardown. RAII so an
  // ASSERT early-return still joins the thread.
  struct Ticker {
    core::Deployment& deployment;
    SystemClock& clock;
    std::atomic<bool> stop{false};
    std::thread thread;
    explicit Ticker(core::Deployment& d, SystemClock& c) : deployment(d), clock(c) {
      thread = std::thread([this] {
        while (!stop.load(std::memory_order_acquire)) {
          deployment.tick_all(clock.now());
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
      });
    }
    ~Ticker() {
      stop.store(true, std::memory_order_release);
      thread.join();
    }
  } ticker(deployment, clock);

  // Final consistency: every object settles (re-registering through the
  // UnknownObject path where the crash erased it) and is queryable
  // everywhere.
  core::QueryClient verifier(NodeId{260}, net, clock);
  Rng rng(6);
  for (int t = 0; t < kUpdaterThreads; ++t) {
    for (std::uint64_t i = 0; i < kObjectsPerThread; ++i) {
      const ObjectId oid{static_cast<std::uint64_t>(t) * kObjectsPerThread + i + 1};
      const geo::Point p{rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
      SyncUpdater& up = *updaters[static_cast<std::size_t>(t)];
      ASSERT_TRUE(up.update_blocking(oid, p, 20))
          << "object " << oid.value << " failed to settle after restart";
      // Query via the object's CURRENT agent: re-registration (unlike
      // handover) leaves the previous agent's replica to soft-state expiry,
      // so a third-party entry may legally serve a stale answer until the
      // TTL -- the agent's own answer is the authoritative convergence
      // check.
      verifier.set_entry(up.agent_of(oid));
      const auto res = verifier.pos_query_blocking(oid, kOpTimeout);
      ASSERT_TRUE(res.has_value()) << "object " << oid.value;
      ASSERT_TRUE(res->found) << "object " << oid.value;
      EXPECT_EQ(res->ld.pos, p) << "object " << oid.value;
    }
  }
}

/// Regression: cross-thread find_sighting probes must serialize against the
/// receive thread. The node lock covers them; TSan is the real assertion
/// here.
TEST(UdpStress, FindSightingRacesReactorSafely) {
  net::UdpNetwork net;
  SystemClock clock;
  core::Deployment deployment(
      net, clock, core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}));

  SyncUpdater updater(NodeId{120}, net);
  const geo::Point start{200, 200};
  const NodeId leaf = deployment.entry_leaf_for(start);
  ASSERT_TRUE(updater.register_blocking(ObjectId{1}, start, leaf));

  std::atomic<bool> stop{false};
  std::thread prober([&] {
    store::SightingDb::Record rec;
    while (!stop.load(std::memory_order_acquire)) {
      (void)deployment.find_sighting(leaf, ObjectId{1}, rec);
    }
  });
  Rng rng(11);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(300);
  while (std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(updater.update_blocking(
        ObjectId{1}, {rng.uniform(10, kArea / 2 - 10), rng.uniform(10, kArea / 2 - 10)}));
  }
  stop.store(true, std::memory_order_release);
  prober.join();

  store::SightingDb::Record rec;
  ASSERT_TRUE(deployment.find_sighting(leaf, ObjectId{1}, rec));
  EXPECT_EQ(rec.sighting.pos, updater.acked_position(ObjectId{1}));
}

}  // namespace
}  // namespace locs::test

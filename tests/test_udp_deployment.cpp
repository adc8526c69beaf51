// End-to-end over real UDP loopback: the Table-2 topology (1 root + 4
// leaves) with registration, updates, handover and all three query types
// running through actual sockets, exactly like the paper's prototype.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/deployment.hpp"
#include "core/hierarchy_builder.hpp"
#include "net/udp_network.hpp"

namespace locs::test {
namespace {

using core::AccuracyRange;
using core::QueryClient;
using core::TrackedObject;

constexpr Duration kTimeout = seconds(5);

class UdpDeploymentTest : public ::testing::Test {
 protected:
  UdpDeploymentTest()
      : spec_(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1500, 1500}})) {
    deployment_ = std::make_unique<core::Deployment>(net_, clock_, spec_);
  }

  /// Spin-waits (real time) until `pred` is true or ~2 s elapse.
  template <typename Pred>
  bool wait_for(Pred pred) {
    for (int i = 0; i < 400; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  net::UdpNetwork net_;
  SystemClock clock_;
  core::HierarchySpec spec_;
  std::unique_ptr<core::Deployment> deployment_;
  std::uint32_t next_client_ = 5000;
};

TEST_F(UdpDeploymentTest, RegisterUpdateHandoverAndQueries) {
  TrackedObject obj(NodeId{next_client_++}, ObjectId{1}, net_, clock_);
  obj.start_register(deployment_->entry_leaf_for({100, 100}), {100, 100}, 1.0,
                     AccuracyRange{10.0, 50.0});
  ASSERT_TRUE(wait_for([&] { return obj.tracked(); }));
  const NodeId first_agent = obj.agent();
  EXPECT_EQ(first_agent, deployment_->entry_leaf_for({100, 100}));

  // Local update; completion is the UpdateAck clearing the pending flag
  // (observing through the protocol, not by poking the reactor's database
  // from another thread).
  obj.feed_position({150, 150});
  ASSERT_TRUE(wait_for([&] { return !obj.update_pending(); }));

  // Handover into the opposite quadrant.
  obj.feed_position({1200, 1200});
  ASSERT_TRUE(wait_for([&] {
    return obj.agent() == deployment_->entry_leaf_for({1200, 1200});
  }));

  // Position query from a remote entry.
  QueryClient qc(NodeId{next_client_++}, net_, clock_);
  qc.set_entry(deployment_->entry_leaf_for({100, 100}));
  const auto pos = qc.pos_query_blocking(ObjectId{1}, kTimeout);
  ASSERT_TRUE(pos.has_value());
  ASSERT_TRUE(pos->found);
  EXPECT_EQ(pos->ld.pos, (geo::Point{1200, 1200}));

  // Range query across the leaf the object lives in.
  const auto range = qc.range_query_blocking(
      geo::Polygon::from_rect(geo::Rect{{1100, 1100}, {1300, 1300}}), 25.0, 0.5,
      kTimeout);
  ASSERT_TRUE(range.has_value());
  EXPECT_TRUE(range->complete);
  ASSERT_EQ(range->objects.size(), 1u);
  EXPECT_EQ(range->objects[0].oid, ObjectId{1});

  // NN query.
  const auto nn = qc.nn_query_blocking({1150, 1150}, 50.0, 0.0, kTimeout);
  ASSERT_TRUE(nn.has_value());
  ASSERT_TRUE(nn->found);
  EXPECT_EQ(nn->nearest.oid, ObjectId{1});
}

TEST_F(UdpDeploymentTest, ConcurrentClientsFromMultipleThreads) {
  // Several objects + query clients hammering the deployment concurrently;
  // all operations must succeed (loopback, no loss expected).
  constexpr int kObjects = 8;
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (int i = 0; i < kObjects; ++i) {
    objs.push_back(std::make_unique<TrackedObject>(NodeId{next_client_++},
                                                   ObjectId{static_cast<std::uint64_t>(i + 1)},
                                                   net_, clock_));
    const geo::Point p{100.0 + 160.0 * i, 100.0 + 160.0 * i};
    objs.back()->start_register(deployment_->entry_leaf_for(p), p, 1.0,
                                AccuracyRange{10.0, 50.0});
  }
  ASSERT_TRUE(wait_for([&] {
    return std::all_of(objs.begin(), objs.end(),
                       [](const auto& o) { return o->tracked(); });
  }));

  std::atomic<int> successes{0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<QueryClient>> clients;
  for (int t = 0; t < 4; ++t) {
    clients.push_back(
        std::make_unique<QueryClient>(NodeId{next_client_++}, net_, clock_));
    clients.back()->set_entry(spec_.leaves()[static_cast<std::size_t>(t)]);
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      QueryClient& qc = *clients[static_cast<std::size_t>(t)];
      for (int i = 0; i < 20; ++i) {
        const auto res = qc.pos_query_blocking(
            ObjectId{static_cast<std::uint64_t>(i % kObjects + 1)}, kTimeout);
        if (res && res->found) successes.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(successes.load(), 80);
}

}  // namespace
}  // namespace locs::test

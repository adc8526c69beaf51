// Soft state (§5): sighting expiry deregisters objects bottom-up, and an
// object whose record expired registers again on its next update. Crash
// recovery: the persistent visitorDB restores forwarding paths; sightings
// are restored via refresh requests / incoming updates.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/update_coalescer.hpp"
#include "test_support.hpp"

namespace locs::test {
namespace {

namespace fs = std::filesystem;
const geo::Rect kArea{{0, 0}, {1000, 1000}};

TEST(SoftState, ExpiryRemovesWholePath) {
  core::LocationServer::Options opts;
  opts.sighting_ttl = seconds(10);
  SimWorld world(core::HierarchyBuilder::fig6(kArea), opts);
  auto obj = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());
  // No updates for 30 virtual seconds: the sighting expires, the visitor
  // records disappear from the entire hierarchy.
  world.advance(seconds(30));
  for (std::uint32_t id = 1; id <= 7; ++id) {
    EXPECT_FALSE(has_visitor(world.deployment->server(NodeId{id}), ObjectId{1}))
        << "server " << id;
  }
  EXPECT_GE(world.deployment->server(NodeId{4}).stats().sightings_expired, 1u);
}

TEST(SoftState, ActiveObjectSurvivesWhileSilentOneExpires) {
  core::LocationServer::Options opts;
  opts.sighting_ttl = seconds(10);
  SimWorld world(core::HierarchyBuilder::fig6(kArea), opts);
  auto active = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  auto silent = world.register_object(ObjectId{2}, {200, 200}, 1.0, {10.0, 50.0});
  for (int i = 0; i < 6; ++i) {
    world.advance(seconds(5), 1);
    active->feed_position({100.0 + 20.0 * (i + 1), 100});
    world.run();
  }
  EXPECT_TRUE(has_visitor(world.deployment->server(NodeId{4}), ObjectId{1}));
  EXPECT_FALSE(has_visitor(world.deployment->server(NodeId{4}), ObjectId{2}));
}

TEST(SoftState, ExpiredObjectQueriesNotFound) {
  core::LocationServer::Options opts;
  opts.sighting_ttl = seconds(10);
  SimWorld world(core::HierarchyBuilder::fig6(kArea), opts);
  auto obj = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  world.advance(seconds(30));
  auto qc = world.make_query_client(NodeId{7});
  EXPECT_FALSE(world.pos_query(*qc, ObjectId{1}).found);
  const auto range = world.range_query(
      *qc, geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}}), 50.0, 0.1);
  EXPECT_TRUE(range.objects.empty());
}

TEST(SoftState, ExpiredObjectRegistersAgainOnItsNextUpdate) {
  // Default options (120 s TTL). The object stays within its offered
  // accuracy, so it sends nothing, and its record expires everywhere while
  // the client still counts itself tracked.
  SimWorld world(core::HierarchyBuilder::fig6(kArea));
  auto obj = world.register_object(ObjectId{1}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());
  ASSERT_EQ(obj->agent(), NodeId{4});
  world.advance(seconds(130));
  const core::LocationServer& leaf = world.deployment->server(NodeId{4});
  ASSERT_EQ(leaf.stats().sightings_expired, 1u);
  ASSERT_FALSE(has_visitor(leaf, ObjectId{1}));
  ASSERT_TRUE(obj->tracked());

  // The next update reaches a leaf without a record of the object: it
  // answers UnknownObject, and the object registers again through it.
  ASSERT_TRUE(obj->feed_position({300, 200}));
  world.run();
  EXPECT_EQ(leaf.stats().updates_unknown, 1u);
  EXPECT_EQ(obj->reregistrations(), 1u);
  EXPECT_TRUE(obj->tracked());
  EXPECT_EQ(obj->agent(), NodeId{4});
  EXPECT_EQ(leaf.stats().registrations, 2u);
  auto qc = world.make_query_client(NodeId{7});
  const auto res = world.pos_query(*qc, ObjectId{1});
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.ld.pos, (geo::Point{300, 200}));
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("locs_recovery_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::function<store::VisitorLog(NodeId)> vdb_factory() {
    return [this](NodeId id) {
      auto log = store::VisitorLog::open(
          (dir_ / ("visitor_" + std::to_string(id.value) + ".log")).string());
      EXPECT_TRUE(log.ok());
      return std::move(log).value();
    };
  }

  fs::path dir_;
};

TEST_F(RecoveryTest, ForwardingPathsSurviveRestart) {
  net::SimNetwork net1;
  core::Deployment::Config cfg;
  cfg.visitor_db_factory = vdb_factory();
  {
    core::Deployment deployment(net1, net1.clock(),
                                core::HierarchyBuilder::fig6(kArea), cfg);
    core::TrackedObject obj(NodeId{1 << 20}, ObjectId{1}, net1, net1.clock());
    obj.start_register(NodeId{4}, {100, 100}, 1.0, {10.0, 50.0});
    net1.run_until_idle();
    ASSERT_TRUE(obj.tracked());
    // Move to another leaf so the persisted path reflects a handover.
    obj.feed_position({600, 100});
    net1.run_until_idle();
    ASSERT_EQ(obj.agent(), NodeId{6});
  }
  // "Restart": a fresh network + deployment over the same visitor logs.
  net::SimNetwork net2;
  core::Deployment recovered(net2, net2.clock(),
                             core::HierarchyBuilder::fig6(kArea), cfg);
  // Forwarding path root->3->6 survived, and so did the leaf record's
  // visitor part; its sighting is gone.
  EXPECT_EQ(recovered.server(NodeId{1}).visitors()->find(ObjectId{1}), NodeId{3});
  EXPECT_EQ(recovered.server(NodeId{3}).visitors()->find(ObjectId{1}), NodeId{6});
  const store::SightingDb::Record* s6_rec =
      recovered.server(NodeId{6}).sightings()->find(ObjectId{1});
  ASSERT_NE(s6_rec, nullptr);
  EXPECT_FALSE(s6_rec->has_sighting);
  EXPECT_DOUBLE_EQ(s6_rec->offered_acc, 10.0);
  EXPECT_EQ(s6_rec->reg_info.reg_inst, NodeId{1 << 20});
  EXPECT_EQ(s6_rec->reg_info.acc_range, (AccuracyRange{10.0, 50.0}));
  // Stale branch from before the handover is NOT present at s2/s4.
  EXPECT_FALSE(has_visitor(recovered.server(NodeId{2}), ObjectId{1}));
  EXPECT_FALSE(has_visitor(recovered.server(NodeId{4}), ObjectId{1}));
}

TEST_F(RecoveryTest, QueryAfterRestartTriggersRefresh) {
  core::Deployment::Config cfg;
  cfg.visitor_db_factory = vdb_factory();
  // Phase 1: register and persist.
  {
    net::SimNetwork net1;
    core::Deployment deployment(net1, net1.clock(),
                                core::HierarchyBuilder::fig6(kArea), cfg);
    core::TrackedObject obj(NodeId{(1 << 20) + 1}, ObjectId{7}, net1, net1.clock());
    obj.start_register(NodeId{4}, {100, 100}, 1.0, {10.0, 50.0});
    net1.run_until_idle();
    ASSERT_TRUE(obj.tracked());
  }
  // Phase 2: restart; the tracked object reattaches at the SAME node id
  // (its address is in the persisted regInfo).
  net::SimNetwork net2;
  core::Deployment recovered(net2, net2.clock(),
                             core::HierarchyBuilder::fig6(kArea), cfg);
  core::TrackedObject obj(NodeId{(1 << 20) + 1}, ObjectId{7}, net2, net2.clock());
  // The object is alive and still considers itself tracked at agent s4: we
  // emulate by re-registering its client state cheaply -- feed its state
  // machine a RegisterRes equivalent via start_register... instead, use a
  // fresh registration-free path: the refresh handler only fires when
  // tracked, so register through the recovered service first.
  obj.start_register(NodeId{4}, {120, 120}, 1.0, {10.0, 50.0});
  net2.run_until_idle();
  ASSERT_TRUE(obj.tracked());

  // A query for the object now succeeds (sighting restored by registration).
  core::QueryClient qc(NodeId{(1 << 20) + 2}, net2, net2.clock());
  qc.set_entry(NodeId{7});
  const std::uint64_t id = qc.send_pos_query(ObjectId{7});
  net2.run_until_idle();
  const auto res = qc.take_pos(id);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->found);
}

TEST_F(RecoveryTest, RefreshRestoresSightingForWaitingQuery) {
  // A leaf crashes and restarts over its persistent log WITHOUT announcing
  // itself, so no recovery sweep runs: its visitor records are back, its
  // sightings are not, and a position query has to wait for a refresh.
  core::Deployment::Config cfg;
  cfg.visitor_db_factory = vdb_factory();
  cfg.server.sighting_ttl = seconds(10);
  SimWorld world(core::HierarchyBuilder::fig6(kArea), cfg);
  auto obj = world.register_object(ObjectId{9}, {100, 100}, 1.0, {10.0, 50.0});
  ASSERT_TRUE(obj->tracked());
  ASSERT_EQ(obj->agent(), NodeId{4});
  // Within the offered accuracy of the registered position: the object
  // remembers it but sends no update, so only a refresh can deliver it.
  const geo::Point last_fed{104, 103};
  ASSERT_FALSE(obj->feed_position(last_fed));

  world.deployment->crash(NodeId{4});
  world.deployment->restart(NodeId{4}, /*announce=*/false);
  const core::LocationServer& leaf = world.deployment->server(NodeId{4});

  // In that window a range query over the object leaves it out, ...
  auto qc = world.make_query_client(NodeId{7});
  const auto range = world.range_query(
      *qc, geo::Polygon::from_rect(geo::Rect{{50, 50}, {150, 150}}), 50.0, 0.1);
  EXPECT_TRUE(range.complete);
  EXPECT_TRUE(range.objects.empty());
  // ... and ticks well past the TTL expire nothing: a record without a
  // sighting has nothing to expire.
  world.advance(seconds(30));
  EXPECT_EQ(leaf.stats().sightings_expired, 0u);
  EXPECT_EQ(obj->refreshes_answered(), 0u);

  // The position query sends exactly one refresh request and is answered,
  // once the refresh arrives, with the object's last fed position.
  const auto res = world.pos_query(*qc, ObjectId{9});
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.ld.pos, last_fed);
  EXPECT_EQ(leaf.stats().refresh_requests, 1u);
  EXPECT_EQ(obj->refreshes_answered(), 1u);
}

TEST_F(RecoveryTest, GatewayAnswersTheRefreshOfAWaitingQuery) {
  // The object registered through a sensor gateway, so the gateway's
  // UpdateCoalescer is its registering instance (as in drive_scenario and
  // bench_recovery). A waiting position query's refresh request must reach
  // the gateway's refresh callback like a recovery sweep does.
  core::Deployment::Config cfg;
  cfg.visitor_db_factory = vdb_factory();
  SimWorld world(core::HierarchyBuilder::fig6(kArea), cfg);
  core::UpdateCoalescer gateway(world.client_node(), world.net, world.net.clock(), {});
  const geo::Point last_fed{104, 103};
  std::uint64_t refreshes = 0;
  gateway.set_on_refresh([&](ObjectId oid) {
    ++refreshes;
    gateway.enqueue(NodeId{4}, Sighting{oid, 0, last_fed, 5.0});
  });
  net::send_message(world.net, gateway.node(), NodeId{4},
                    wire::RegisterReq{Sighting{ObjectId{9}, 0, {100, 100}, 5.0}, "",
                                      {10.0, 50.0}, gateway.node(), 1});
  world.run();
  ASSERT_TRUE(has_visitor(world.deployment->server(NodeId{4}), ObjectId{9}));

  world.deployment->crash(NodeId{4});
  world.deployment->restart(NodeId{4}, /*announce=*/false);
  const core::LocationServer& leaf = world.deployment->server(NodeId{4});

  auto qc = world.make_query_client(NodeId{7});
  const std::uint64_t id = qc->send_pos_query(ObjectId{9});
  world.run();
  EXPECT_EQ(leaf.stats().refresh_requests, 1u);
  EXPECT_EQ(refreshes, 1u);
  gateway.flush_all();
  world.run();
  const auto res = qc->take_pos(id);
  ASSERT_TRUE(res.has_value()) << "the waiting query was never answered";
  EXPECT_TRUE(res->found);
  EXPECT_EQ(res->ld.pos, last_fed);
}

}  // namespace
}  // namespace locs::test

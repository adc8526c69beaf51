// Fault-tolerance subsystem: deterministic crash-restart scenarios over the
// SimNetwork fault-injection layer (sim/fault.hpp).
//
//  * failure detection -- a parent running heartbeats marks a crashed leaf
//    suspect and answers queries on its behalf instead of timing out,
//  * batched soft-state recovery -- a restarted leaf (persistent visitorDB
//    replayed) announces RecoveryHello; the parent's BatchedRefreshReq sweep
//    drives client refreshes that rebuild the volatile SightingDb,
//  * reconvergence -- after recovery, every position/range/NN answer equals
//    the answers of an unfaulted control run over the same workload,
//    and the whole faulted execution is bit-identical run to run,
//  * total-state loss -- an in-memory leaf that lost its visitorDB nacks
//    unknown updates (AgentChanged{kNoNode}) and clients re-register,
//  * per-link drop/duplicate/jitter faults leave the protocols converging.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "sim/fault.hpp"
#include "test_support.hpp"
#include "util/crc32.hpp"

namespace locs::test {
namespace {

namespace fs = std::filesystem;

constexpr double kArea = 1200.0;
constexpr std::size_t kObjects = 48;
const NodeId kRoot{1};
const NodeId kCrashLeaf{2};  // table2 leaf over the lower-left quadrant

core::LocationServer::Options fault_opts() {
  core::LocationServer::Options opts;
  opts.heartbeat_interval = seconds(1);
  return opts;
}

/// Temp dir wrapper for persistent visitor logs.
struct LogDir {
  fs::path dir;
  explicit LogDir(const std::string& tag) {
    dir = fs::temp_directory_path() /
          ("locs_fault_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  ~LogDir() { fs::remove_all(dir); }

  std::function<store::VisitorLog(NodeId)> factory() {
    return [this](NodeId id) {
      auto log = store::VisitorLog::open(
          (dir / ("visitor_" + std::to_string(id.value) + ".log")).string());
      EXPECT_TRUE(log.ok());
      return std::move(log).value();
    };
  }
};

/// Everything externally observable about one scenario run.
struct Observation {
  std::vector<std::string> during_fault;  // answers while the leaf is down
  std::vector<std::string> final_answers;  // answers after reconvergence
  std::uint32_t trace_crc = 0;
  std::uint64_t messages = 0;
  std::uint64_t suspected = 0;
  std::uint64_t short_circuits = 0;
  std::uint64_t refresh_batches = 0;
};

std::string fmt_ld(const core::LocationDescriptor& ld) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(%.6f,%.6f,%.3f)", ld.pos.x, ld.pos.y, ld.acc);
  return buf;
}

std::string fmt_results(std::vector<core::ObjectResult> rs) {
  std::sort(rs.begin(), rs.end(),
            [](const core::ObjectResult& a, const core::ObjectResult& b) {
              return a.oid < b.oid;
            });
  std::string out;
  for (const core::ObjectResult& r : rs) {
    out += std::to_string(r.oid.value) + fmt_ld(r.ld) + ";";
  }
  return out;
}

std::string fmt_nn(QueryClient::NNResult nn) {
  return "nn:" + (nn.found ? std::to_string(nn.nearest.oid.value) +
                                 fmt_ld(nn.nearest.ld) + "|" +
                                 fmt_results(std::move(nn.near_set))
                           : std::string("miss"));
}

/// The crash-restart acceptance scenario: a loaded table2 deployment whose
/// leaf 2 crashes mid-workload and restarts with its persistent visitorDB.
/// With `fault` false the identical workload runs crash-free (the control).
Observation run_scenario(bool fault, const std::string& tag) {
  LogDir logs(tag);
  core::Deployment::Config cfg;
  cfg.server = fault_opts();
  cfg.visitor_db_factory = logs.factory();
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             cfg);

  Observation obs;
  w.net.set_tracer([&](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
    obs.trace_crc = crc32(&at, sizeof at, obs.trace_crc);
    obs.trace_crc = crc32(&from.value, sizeof from.value, obs.trace_crc);
    obs.trace_crc = crc32(&to.value, sizeof to.value, obs.trace_crc);
    obs.trace_crc = crc32(b.data(), b.size(), obs.trace_crc);
  });

  // Registration: objects spread over all four leaves, plus their leaf rects
  // for in-leaf jitter moves.
  Rng rng(0xFA01);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  std::vector<geo::Point> pos(kObjects + 1);
  std::vector<geo::Rect> rects(kObjects + 1);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    pos[i] = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
    objs.push_back(w.register_object(ObjectId{i}, pos[i]));
    EXPECT_TRUE(objs.back()->tracked()) << "object " << i;
    rects[i] = w.deployment->server(objs.back()->agent())
                   .config().sa.bounding_box();
  }

  sim::FaultPlan plan;
  sim::FaultPlan::Hooks hooks;
  hooks.tick = [&](TimePoint t) { w.deployment->tick_all(t); };
  hooks.tick_every = milliseconds(500);
  hooks.crash = [&](NodeId node) {
    w.deployment->crash(node);
    w.net.set_node_down(node, true);
  };
  hooks.restart = [&](NodeId node) {
    w.net.set_node_down(node, false);
    w.deployment->restart(node, /*announce=*/true);
  };

  const TimePoint t0 = w.net.now();
  const TimePoint crash_at = t0 + seconds(2);
  const TimePoint restart_at = crash_at + seconds(8);
  if (fault) plan.crash_at(crash_at, kCrashLeaf).restart_at(restart_at, kCrashLeaf);

  // Jittered in-leaf moves for a deterministic subset of objects (distance >
  // offered accuracy, so every feed sends an update).
  const auto feed_round = [&](int round) {
    for (std::uint64_t i = 1; i <= kObjects; ++i) {
      if ((i + static_cast<std::uint64_t>(round)) % 3 == 0) continue;
      const geo::Rect& r = rects[i];
      pos[i] = {std::clamp(pos[i].x + rng.uniform(-60, 60), r.min.x + 5, r.max.x - 5),
                std::clamp(pos[i].y + rng.uniform(-60, 60), r.min.y + 5, r.max.y - 5)};
      objs[i - 1]->feed_position(pos[i]);
    }
  };

  // Phase 1: healthy workload, then the crash fires mid-schedule.
  feed_round(0);
  plan.run(w.net, hooks, crash_at + seconds(1));
  // Phase 2: workload against the crashed leaf (updates into it are lost).
  feed_round(1);
  plan.run(w.net, hooks, crash_at + seconds(5));
  feed_round(2);
  plan.run(w.net, hooks, crash_at + seconds(6));

  // Mid-fault queries: with the detector running these complete WITHOUT any
  // timeout sweep -- run_until_idle performs no ticks, so completion proves
  // the suspect fast path answered for the dead leaf.
  auto qc = w.make_query_client(NodeId{5});
  if (fault) {
    EXPECT_TRUE(w.deployment->server(kRoot).child_suspect(kCrashLeaf));
    for (std::uint64_t i = 1; i <= kObjects; i += 7) {
      const auto res = w.pos_query(*qc, ObjectId{i});
      obs.during_fault.push_back("pos:" + std::to_string(i) + ":" +
                                 (res.found ? fmt_ld(res.ld) : "miss"));
    }
    auto range = w.range_query(
        *qc, geo::Polygon::from_rect(geo::Rect{{0, 0}, {kArea, kArea}}), 50.0, 0.1);
    obs.during_fault.push_back("range:" + fmt_results(std::move(range.objects)));
    // The probe disks around the centre reach every leaf; the root credits
    // the dead leaf's share instead of probing it.
    const std::uint64_t short_circuits =
        w.deployment->total_stats().suspect_short_circuits;
    obs.during_fault.push_back(fmt_nn(w.nn_query(*qc, {kArea / 2, kArea / 2}, 60.0, 30.0)));
    EXPECT_GT(w.deployment->total_stats().suspect_short_circuits, short_circuits);
  }

  // Phase 3: restart + recovery sweep, then let heartbeats clear suspicion.
  plan.run(w.net, hooks, restart_at + seconds(4));
  if (fault) {
    EXPECT_FALSE(w.deployment->server(kRoot).child_suspect(kCrashLeaf));
    EXPECT_FALSE(w.deployment->is_down(kCrashLeaf));
  }
  // One more workload round spanning the recovered leaf (includes two
  // cross-leaf moves -> handovers through the recovered paths).
  feed_round(3);
  pos[1] = {kArea - 40, kArea - 40};
  objs[0]->feed_position(pos[1]);
  pos[2] = {40, kArea - 40};
  objs[1]->feed_position(pos[2]);
  plan.run(w.net, hooks, restart_at + seconds(6));
  w.net.run_until_idle();

  // Final answers: every object found at its last fed position; range + NN
  // over the whole area.
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    const auto res = w.pos_query(*qc, ObjectId{i});
    obs.final_answers.push_back("pos:" + std::to_string(i) + ":" +
                                (res.found ? fmt_ld(res.ld) : "miss"));
    EXPECT_TRUE(res.found) << "object " << i << " lost after recovery";
  }
  auto range = w.range_query(
      *qc, geo::Polygon::from_rect(geo::Rect{{0, 0}, {kArea, kArea}}), 50.0, 0.1);
  obs.final_answers.push_back("range:" + fmt_results(std::move(range.objects)));
  obs.final_answers.push_back(fmt_nn(w.nn_query(*qc, {kArea / 2, kArea / 2}, 60.0, 30.0)));

  obs.messages = w.net.messages_sent();
  const core::LocationServer::Stats stats = w.deployment->total_stats();
  obs.suspected = stats.children_suspected;
  obs.short_circuits = stats.suspect_short_circuits;
  obs.refresh_batches = stats.refresh_batches_sent;
  return obs;
}

TEST(FaultTolerance, CrashedLeafIsSuspectedAndQueriesCompleteWithoutTimeout) {
  const Observation obs = run_scenario(/*fault=*/true, "suspect");
  EXPECT_GE(obs.suspected, 1u);
  EXPECT_GE(obs.short_circuits, 1u);
  // Mid-fault: objects on the dead leaf are unavailable, everyone else
  // answers; the full-area range query completed with the surviving leaves.
  bool saw_miss = false, saw_hit = false;
  for (const std::string& a : obs.during_fault) {
    if (a.rfind("pos:", 0) == 0) {
      (a.find(":miss") != std::string::npos ? saw_miss : saw_hit) = true;
    }
  }
  EXPECT_TRUE(saw_miss);
  EXPECT_TRUE(saw_hit);
}

TEST(FaultTolerance, RecoveryReconvergesToUnfaultedAnswers) {
  const Observation faulted = run_scenario(/*fault=*/true, "reconv_f");
  const Observation control = run_scenario(/*fault=*/false, "reconv_c");
  // Acceptance bar: after the batched recovery sweep, every position/range/
  // NN answer is identical to the crash-free control run.
  EXPECT_EQ(faulted.final_answers, control.final_answers);
  EXPECT_GE(faulted.refresh_batches, 1u);
  EXPECT_EQ(control.suspected, 0u);
  EXPECT_EQ(control.refresh_batches, 0u);
}

TEST(FaultTolerance, FaultedScenarioIsBitIdenticalRunToRun) {
  const Observation a = run_scenario(/*fault=*/true, "det_a");
  const Observation b = run_scenario(/*fault=*/true, "det_b");
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.during_fault, b.during_fault);
  EXPECT_EQ(a.final_answers, b.final_answers);
}

TEST(FaultTolerance, TotalStateLossRecoversViaNackAndReregistration) {
  core::Deployment::Config cfg;
  cfg.server = fault_opts();
  cfg.server.nack_unknown_updates = true;  // in-memory visitorDBs: total loss
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             cfg);

  core::TrackedObject::Options obj_opts;
  obj_opts.reregister_on_agent_loss = true;
  core::TrackedObject obj(w.client_node(), ObjectId{7}, w.net, w.net.clock(),
                          obj_opts);
  obj.start_register(kCrashLeaf, {100, 100}, 1.0, {10.0, 100.0});
  w.run();
  ASSERT_TRUE(obj.tracked());

  w.deployment->crash(kCrashLeaf);
  w.net.set_node_down(kCrashLeaf, true);
  w.run();
  w.net.set_node_down(kCrashLeaf, false);
  w.deployment->restart(kCrashLeaf, /*announce=*/true);
  w.run();

  // The leaf forgot the object entirely; the next update is nacked, the
  // client re-registers through the recovered leaf and tracking resumes.
  obj.feed_position({150, 150});
  w.run();
  EXPECT_EQ(obj.reregistrations(), 1u);
  EXPECT_TRUE(obj.tracked());
  EXPECT_EQ(obj.agent(), kCrashLeaf);
  auto qc = w.make_query_client(NodeId{3});
  const auto res = w.pos_query(*qc, ObjectId{7});
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.ld.pos, (geo::Point{150, 150}));
}

TEST(FaultTolerance, NackIsSuppressedForUpdatesRacingAHandover) {
  core::Deployment::Config cfg;
  cfg.server = fault_opts();
  cfg.server.nack_unknown_updates = true;
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             cfg);
  auto obj = w.register_object(ObjectId{3}, {100, 100});
  ASSERT_TRUE(obj->tracked());
  ASSERT_EQ(obj->agent(), kCrashLeaf);
  // Hand the object over to another leaf; kCrashLeaf drops its record.
  obj->feed_position({kArea - 100, kArea - 100});
  w.run();
  ASSERT_NE(obj->agent(), kCrashLeaf);

  // A stale update racing the handover must NOT be nacked -- the legitimate
  // AgentChanged already went out, and a nack would trigger a spurious
  // re-registration.
  const NodeId stale_client = w.client_node();
  std::uint64_t nacks = 0;
  w.net.attach(stale_client, [&](const std::uint8_t* data, std::size_t len) {
    const auto env = wire::decode_envelope(data, len);
    if (!env.ok()) return;
    if (const auto* ch = std::get_if<wire::AgentChanged>(&env.value().msg)) {
      if (!ch->new_agent.valid()) ++nacks;
    }
  });
  const auto send_stale_update = [&] {
    net::send_message(w.net, stale_client, kCrashLeaf,
                      wire::UpdateReq{core::Sighting{ObjectId{3}, 0, {110, 110}, 5.0}});
    w.run();
  };
  send_stale_update();
  EXPECT_EQ(nacks, 0u);  // inside the suppression window: silently dropped
  // Once the window passes, an unknown update IS state loss and gets nacked.
  w.advance(cfg.server.pending_timeout + seconds(1), 2);
  send_stale_update();
  EXPECT_EQ(nacks, 1u);
  w.net.detach(stale_client);
}

TEST(FaultTolerance, LinkFaultsDropDuplicateAndJitterStillConverge) {
  const auto run_once = [] {
    SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}));
    auto obj = w.register_object(ObjectId{1}, {100, 100});
    EXPECT_TRUE(obj->tracked());
    // A lossy, duplicating, jittery client->leaf link; acks are clean.
    net::SimNetwork::LinkFault f;
    f.drop_prob = 0.3;
    f.dup_prob = 0.25;
    f.extra_delay = milliseconds(3);
    f.jitter_frac = 0.5;
    w.net.set_link_fault(obj->node(), kCrashLeaf, f);

    geo::Point p{100, 100};
    for (int i = 0; i < 30; ++i) {
      p = {100.0 + 15.0 * (i + 1), 100.0};
      obj->feed_position(p);
      w.run();
      if (obj->update_pending()) {
        // Dropped: wait out the retry window and re-feed (client protocol).
        w.advance(seconds(3), 1);
        obj->feed_position(p);
        w.run();
      }
    }
    EXPECT_FALSE(obj->update_pending());
    store::SightingDb::Record rec;
    EXPECT_TRUE(w.deployment->find_sighting(kCrashLeaf, ObjectId{1}, rec));
    EXPECT_EQ(rec.sighting.pos, p);
    return std::pair{w.net.messages_sent(), w.net.messages_dropped()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GT(a.second, 0u);  // the fault actually dropped datagrams
  EXPECT_EQ(a, b);          // and did so deterministically
}

// --------------------------------------------------------------------------
// Hot-standby replication (Deployment::Config::leaf_standby): the primary
// tees every accepted sighting to a replica; on miss-threshold suspicion the
// parent promotes it (StandbyPromote) and queries route there instead of the
// suspect short-circuit -- the acceptance bar is ANSWERS EQUAL TO AN
// UNFAULTED CONTROL during the blackout, not mere completion.

const NodeId kStandby{12};  // outside table2's NodeId range

/// Everything externally observable about one replicated scenario run.
struct RepObservation {
  std::vector<std::string> blackout_answers;  // while the primary is down
  std::vector<std::string> final_answers;     // after reconciliation
  std::vector<ObjectId> final_range_ids;      // full-area range, sorted
  std::size_t final_found = 0;                // position hits at the end
  std::uint32_t trace_crc = 0;
  std::uint64_t messages = 0;
  core::LocationServer::Stats stats;
};

/// The run_scenario workload over a deployment whose crash leaf has a hot
/// standby. The schedule keeps the blackout feed rounds AFTER the promotion
/// fan-out (clients re-pointed), so the standby sees the same per-object
/// update order the control's primary sees -- the answers must match.
RepObservation run_replicated_scenario(bool fault, const std::string& tag) {
  LogDir logs(tag);
  core::Deployment::Config cfg;
  cfg.server = fault_opts();
  cfg.visitor_db_factory = logs.factory();
  cfg.leaf_standby = {{kCrashLeaf, kStandby}};
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             cfg);

  RepObservation obs;
  w.net.set_tracer([&](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
    obs.trace_crc = crc32(&at, sizeof at, obs.trace_crc);
    obs.trace_crc = crc32(&from.value, sizeof from.value, obs.trace_crc);
    obs.trace_crc = crc32(&to.value, sizeof to.value, obs.trace_crc);
    obs.trace_crc = crc32(b.data(), b.size(), obs.trace_crc);
  });

  Rng rng(0xFA01);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  std::vector<geo::Point> pos(kObjects + 1);
  std::vector<geo::Rect> rects(kObjects + 1);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    pos[i] = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
    objs.push_back(w.register_object(ObjectId{i}, pos[i]));
    EXPECT_TRUE(objs.back()->tracked()) << "object " << i;
    rects[i] = w.deployment->server(objs.back()->agent())
                   .config().sa.bounding_box();
  }

  sim::FaultPlan plan;
  sim::FaultPlan::Hooks hooks;
  hooks.tick = [&](TimePoint t) { w.deployment->tick_all(t); };
  hooks.tick_every = milliseconds(500);
  hooks.crash = [&](NodeId node) {
    w.deployment->crash(node);
    w.net.set_node_down(node, true);
  };
  hooks.restart = [&](NodeId node) {
    w.net.set_node_down(node, false);
    w.deployment->restart(node, /*announce=*/true);
  };

  const TimePoint t0 = w.net.now();
  const TimePoint crash_at = t0 + seconds(2);
  const TimePoint restart_at = crash_at + seconds(10);
  if (fault) plan.crash_at(crash_at, kCrashLeaf).restart_at(restart_at, kCrashLeaf);

  const auto feed_round = [&](int round) {
    for (std::uint64_t i = 1; i <= kObjects; ++i) {
      if ((i + static_cast<std::uint64_t>(round)) % 3 == 0) continue;
      const geo::Rect& r = rects[i];
      pos[i] = {std::clamp(pos[i].x + rng.uniform(-60, 60), r.min.x + 5, r.max.x - 5),
                std::clamp(pos[i].y + rng.uniform(-60, 60), r.min.y + 5, r.max.y - 5)};
      objs[i - 1]->feed_position(pos[i]);
    }
  };

  // Phase 1: healthy workload, crash mid-schedule; then the failover window
  // (3 missed 1s heartbeats trip the detector, StandbyPromote fans
  // AgentChanged at every mirrored client) BEFORE the blackout feeds.
  feed_round(0);
  plan.run(w.net, hooks, crash_at + seconds(1));
  plan.run(w.net, hooks, crash_at + seconds(5));
  if (fault) {
    EXPECT_TRUE(w.deployment->server(kRoot).child_suspect(kCrashLeaf));
    EXPECT_TRUE(w.deployment->server(kStandby).standby_active());
  }
  // Phase 2: blackout workload -- the promoted standby is the agent now.
  feed_round(1);
  plan.run(w.net, hooks, crash_at + seconds(6));
  feed_round(2);
  plan.run(w.net, hooks, crash_at + seconds(7));

  // Blackout answers, collected in BOTH runs for the equality bar.
  auto qc = w.make_query_client(NodeId{5});
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    const auto res = w.pos_query(*qc, ObjectId{i});
    obs.blackout_answers.push_back("pos:" + std::to_string(i) + ":" +
                                   (res.found ? fmt_ld(res.ld) : "miss"));
  }
  {
    auto range = w.range_query(
        *qc, geo::Polygon::from_rect(geo::Rect{{0, 0}, {kArea, kArea}}), 50.0, 0.1);
    obs.blackout_answers.push_back("range:" + std::to_string(range.complete) +
                                   ":" + fmt_results(std::move(range.objects)));
    obs.blackout_answers.push_back(
        fmt_nn(w.nn_query(*qc, {kArea / 2, kArea / 2}, 60.0, 30.0)));
  }

  // Phase 3: primary returns -- RecoveryHello demotes the standby, whose
  // fan-out points the clients back while the refresh sweep (plus the
  // demote-race bounce path) rebuilds the primary's volatile state.
  plan.run(w.net, hooks, restart_at + seconds(4));
  if (fault) {
    EXPECT_FALSE(w.deployment->server(kRoot).child_suspect(kCrashLeaf));
    EXPECT_FALSE(w.deployment->is_down(kCrashLeaf));
    EXPECT_FALSE(w.deployment->server(kStandby).standby_active());
  }
  feed_round(3);
  pos[1] = {kArea - 40, kArea - 40};
  objs[0]->feed_position(pos[1]);
  pos[2] = {40, kArea - 40};
  objs[1]->feed_position(pos[2]);
  plan.run(w.net, hooks, restart_at + seconds(6));
  w.net.run_until_idle();

  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    const auto res = w.pos_query(*qc, ObjectId{i});
    obs.final_answers.push_back("pos:" + std::to_string(i) + ":" +
                                (res.found ? fmt_ld(res.ld) : "miss"));
    if (res.found) ++obs.final_found;
    EXPECT_TRUE(res.found) << "object " << i << " lost after reconciliation";
  }
  auto range = w.range_query(
      *qc, geo::Polygon::from_rect(geo::Rect{{0, 0}, {kArea, kArea}}), 50.0, 0.1);
  obs.final_range_ids = sorted_ids(range.objects);
  obs.final_answers.push_back("range:" + fmt_results(std::move(range.objects)));
  obs.final_answers.push_back(fmt_nn(w.nn_query(*qc, {kArea / 2, kArea / 2}, 60.0, 30.0)));

  obs.messages = w.net.messages_sent();
  obs.stats = w.deployment->total_stats();
  return obs;
}

TEST(FaultTolerance, ReplicatedBlackoutAnswersEqualUnfaultedControl) {
  const RepObservation faulted = run_replicated_scenario(/*fault=*/true, "rep_f");
  const RepObservation control = run_replicated_scenario(/*fault=*/false, "rep_c");
  // Answer-complete failover: the SAME query schedule, answered by the
  // promoted standby, returns exactly the control run's answers -- during
  // the blackout and after reconciliation.
  EXPECT_EQ(faulted.blackout_answers, control.blackout_answers);
  EXPECT_EQ(faulted.final_answers, control.final_answers);
  EXPECT_GE(faulted.stats.standbys_engaged, 1u);
  EXPECT_GE(faulted.stats.standby_promotions, 1u);
  EXPECT_GE(faulted.stats.standby_routed_queries, 1u);
  EXPECT_GT(faulted.stats.tee_entries_applied, 0u);
  // The control never promotes, but its tee flows all the same.
  EXPECT_EQ(control.stats.standby_promotions, 0u);
  EXPECT_EQ(control.stats.standby_routed_queries, 0u);
  EXPECT_GT(control.stats.tee_datagrams_sent, 0u);
}

TEST(FaultTolerance, ReplicatedPromotionIsDeterministicAcrossReruns) {
  const RepObservation a = run_replicated_scenario(/*fault=*/true, "rep_det_a");
  const RepObservation b = run_replicated_scenario(/*fault=*/true, "rep_det_b");
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.blackout_answers, b.blackout_answers);
  EXPECT_EQ(a.final_answers, b.final_answers);
}

TEST(FaultTolerance, ReplicatedReconciliationNeitherLosesNorDuplicatesVisitors) {
  const RepObservation obs = run_replicated_scenario(/*fault=*/true, "rep_reconc");
  // The primary returned: demotion fired, every object is answerable again
  // (no visitor lost -- also asserted per object inside the run), and the
  // full-area range lists no object twice (no visitor duplicated between
  // the recovered primary and the demoted mirror).
  EXPECT_GE(obs.stats.standby_demotions, 1u);
  EXPECT_EQ(obs.final_found, kObjects);
  EXPECT_EQ(std::adjacent_find(obs.final_range_ids.begin(),
                               obs.final_range_ids.end()),
            obs.final_range_ids.end());
}

TEST(FaultTolerance, HeartbeatAcksKeepHealthyChildrenUnsuspected) {
  core::Deployment::Config cfg;
  cfg.server = fault_opts();
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             cfg);
  // Many heartbeat rounds with everyone alive: no suspicion, no fast paths.
  w.advance(seconds(20), 40);
  const core::LocationServer::Stats stats = w.deployment->total_stats();
  EXPECT_GT(stats.heartbeats_sent, 0u);
  EXPECT_EQ(stats.children_suspected, 0u);
  for (const NodeId leaf : w.deployment->leaf_ids()) {
    EXPECT_FALSE(w.deployment->server(kRoot).child_suspect(leaf));
  }
}

}  // namespace
}  // namespace locs::test

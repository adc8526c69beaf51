// Batched update coalescing: end-to-end equivalence and edge cases.
//
//  * batched-vs-unbatched ANSWER equivalence over the deterministic
//    SimNetwork: the same seeded workload -- bursty updates, cross-leaf jumps (handover in
//    the middle of a batch), all three query types -- must yield identical
//    answers with strictly fewer network datagrams,
//  * coalescer flush policies: size, byte budget, deadline, forced,
//  * wire edge cases: empty batch, single-sighting batch (explicitly
//    distinct from a plain UpdateReq on the wire, same effect).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/local_service.hpp"
#include "core/update_coalescer.hpp"
#include "test_support.hpp"

namespace locs::test {
namespace {

using core::UpdateCoalescer;

// --------------------------------------------------------------------------
// end-to-end equivalence through LocalLocationService

struct ServiceObservation {
  std::vector<std::string> answers;
  std::uint64_t messages = 0;
  std::uint64_t updates_applied = 0;
};

std::string fmt_ld(const core::LocationDescriptor& ld) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "(%.6f,%.6f,%.3f)", ld.pos.x, ld.pos.y, ld.acc);
  return buf;
}

std::string fmt_results(std::vector<ObjectResult> rs) {
  std::sort(rs.begin(), rs.end(),
            [](const ObjectResult& a, const ObjectResult& b) {
              return a.oid < b.oid;
            });
  std::string out;
  for (const ObjectResult& r : rs) {
    out += std::to_string(r.oid.value) + fmt_ld(r.ld) + ";";
  }
  return out;
}

ServiceObservation run_service_workload(bool coalesce) {
  constexpr double kArea = 4000.0;
  constexpr std::size_t kObjects = 96;
  core::LocalLocationService::Config cfg;
  cfg.area = geo::Rect{{0, 0}, {kArea, kArea}};
  cfg.coalesce_updates = coalesce;
  cfg.coalescing.max_batch = 8;
  cfg.coalescing.max_delay = milliseconds(5);
  core::LocalLocationService ls(cfg);

  ServiceObservation obs;
  Rng rng(0xBA7C4);
  std::vector<geo::Point> pos(kObjects + 1);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    pos[i] = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
    const auto offered = ls.register_object(ObjectId{i}, pos[i], 5.0, {10.0, 100.0});
    EXPECT_TRUE(offered.ok()) << "object " << i;
  }

  std::vector<std::uint64_t> ids(kObjects);
  for (std::uint64_t i = 0; i < kObjects; ++i) ids[i] = i + 1;

  for (int round = 0; round < 5; ++round) {
    // Bursty feeds: one arrival window where a random subset of objects
    // reports once each (the gateway pattern) -- local jitter plus
    // occasional cross-leaf jumps, so some batches carry handover-triggering
    // sightings in the middle. Each object reports at most once per window:
    // an object whose handover is still in flight would drop a second
    // update, batched or not, but at different points in time.
    std::shuffle(ids.begin(), ids.end(), rng);
    for (int u = 0; u < 72; ++u) {
      const std::uint64_t oid = ids[static_cast<std::size_t>(u)];
      geo::Point next;
      if (u % 7 == 0) {
        next = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
      } else {
        next = {std::clamp(pos[oid].x + rng.uniform(-60, 60), 10.0, kArea - 10),
                std::clamp(pos[oid].y + rng.uniform(-60, 60), 10.0, kArea - 10)};
      }
      pos[oid] = next;
      ls.feed_position(ObjectId{oid}, next);
    }
    // End of the arrival window: drain buffered batches, then query.
    ls.flush_updates();

    for (int q = 0; q < 10; ++q) {
      const std::uint64_t oid = 1 + rng.next_below(kObjects);
      const auto ld = ls.position(ObjectId{oid});
      obs.answers.push_back("pos:" + std::to_string(oid) + ":" +
                            (ld ? fmt_ld(*ld) : "miss"));
    }
    for (int q = 0; q < 4; ++q) {
      const geo::Point c{rng.uniform(100, kArea - 100), rng.uniform(100, kArea - 100)};
      const geo::Polygon area =
          geo::Polygon::from_rect(geo::Rect::from_center(c, 150 + 100 * q, 200));
      obs.answers.push_back(
          "range:" + fmt_results(ls.range_query(area, 50.0, 0.3)));
    }
    for (int q = 0; q < 3; ++q) {
      const geo::Point p{rng.uniform(0, kArea), rng.uniform(0, kArea)};
      const auto nn = ls.neighbor_query(p, 60.0, 30.0);
      obs.answers.push_back(
          "nn:" + (nn.found ? std::to_string(nn.nearest.oid.value) +
                                  fmt_ld(nn.nearest.ld) + "|" +
                                  fmt_results(nn.near_set)
                            : std::string("miss")));
    }
    ls.advance_time(seconds(1));
  }
  obs.messages = ls.network().messages_sent();
  obs.updates_applied = ls.deployment().total_stats().updates_applied;
  return obs;
}

TEST(BatchedUpdateEquivalence, AnswersMatchUnbatchedWithFewerDatagrams) {
  const ServiceObservation plain = run_service_workload(false);
  const ServiceObservation batched = run_service_workload(true);
  EXPECT_EQ(plain.answers, batched.answers);
  EXPECT_EQ(plain.updates_applied, batched.updates_applied);
  // Coalescing must strictly reduce the datagram count (updates dominate
  // this workload; acks are batched too).
  EXPECT_LT(batched.messages, plain.messages);
}

TEST(BatchedUpdateEquivalence, DeterministicAcrossRuns) {
  const ServiceObservation a = run_service_workload(true);
  const ServiceObservation b = run_service_workload(true);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.messages, b.messages);
}

// --------------------------------------------------------------------------
// coalescer flush policies (size / byte budget / deadline / forced)

struct CoalescerHarness {
  SimWorld w;
  NodeId leaf;
  std::unique_ptr<TrackedObject> obj;

  CoalescerHarness()
      : w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}})) {
    obj = w.register_object(ObjectId{1}, {100, 100});
    leaf = obj->agent();
  }

  core::Sighting sighting(double x, double y) const {
    return {ObjectId{1}, w.net.now(), {x, y}, 5.0};
  }
};

TEST(UpdateCoalescer, SizeFlush) {
  CoalescerHarness h;
  UpdateCoalescer::Options opts;
  opts.max_batch = 4;
  opts.max_delay = seconds(10);
  UpdateCoalescer c(h.w.client_node(), h.w.net, h.w.net.clock(), opts);
  const std::uint64_t before = h.w.net.messages_sent();
  for (int i = 0; i < 3; ++i) c.enqueue(h.leaf, h.sighting(100 + i, 100));
  EXPECT_EQ(h.w.net.messages_sent(), before);  // under every threshold
  EXPECT_EQ(c.pending_sightings(), 3u);
  c.enqueue(h.leaf, h.sighting(110, 100));  // 4th: size flush
  EXPECT_EQ(h.w.net.messages_sent(), before + 1);
  EXPECT_EQ(c.pending_sightings(), 0u);
  h.w.run();
  EXPECT_EQ(c.stats().flushes_size, 1u);
  EXPECT_EQ(c.stats().acks_received, 4u);
  EXPECT_EQ(h.w.deployment->total_stats().updates_applied, 4u);
  EXPECT_EQ(h.w.deployment->total_stats().update_batches, 1u);
}

TEST(UpdateCoalescer, ByteBudgetFlush) {
  CoalescerHarness h;
  UpdateCoalescer::Options opts;
  opts.max_batch = 1000;
  opts.max_bytes = 3 * 33;  // a packed sighting is at most ~33 bytes
  opts.max_delay = seconds(10);
  UpdateCoalescer c(h.w.client_node(), h.w.net, h.w.net.clock(), opts);
  const std::uint64_t before = h.w.net.messages_sent();
  for (int i = 0; i < 16 && h.w.net.messages_sent() == before; ++i) {
    c.enqueue(h.leaf, h.sighting(100 + i, 100));
  }
  EXPECT_EQ(h.w.net.messages_sent(), before + 1);
  EXPECT_EQ(c.stats().flushes_bytes, 1u);
  EXPECT_LE(c.stats().sightings_enqueued, 5u);  // budget bit long before 16
}

TEST(UpdateCoalescer, DeadlineFlush) {
  CoalescerHarness h;
  UpdateCoalescer::Options opts;
  opts.max_batch = 1000;
  opts.max_delay = milliseconds(5);
  UpdateCoalescer c(h.w.client_node(), h.w.net, h.w.net.clock(), opts);
  const std::uint64_t before = h.w.net.messages_sent();
  c.enqueue(h.leaf, h.sighting(120, 100));
  c.tick(h.w.net.now());  // deadline not reached yet
  EXPECT_EQ(h.w.net.messages_sent(), before);
  h.w.net.clock().advance(milliseconds(5));
  c.tick(h.w.net.now());
  EXPECT_EQ(h.w.net.messages_sent(), before + 1);
  EXPECT_EQ(c.stats().flushes_deadline, 1u);
}

TEST(UpdateCoalescer, ForcedFlushAndAgentChangeFanIn) {
  CoalescerHarness h;
  UpdateCoalescer::Options opts;
  opts.max_batch = 1000;
  opts.max_delay = seconds(10);
  UpdateCoalescer c(h.w.client_node(), h.w.net, h.w.net.clock(), opts);
  std::vector<std::pair<ObjectId, NodeId>> changes;
  c.set_on_agent_changed([&](ObjectId oid, NodeId agent, double) {
    changes.emplace_back(oid, agent);
  });
  // A sighting OUTSIDE the agent's quadrant triggers a handover; the
  // AgentChanged lands on the coalescer and fans back out.
  c.enqueue(h.leaf, h.sighting(900, 900));
  c.flush_all();
  EXPECT_EQ(c.stats().flushes_forced, 1u);
  h.w.run();
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].first, ObjectId{1});
  EXPECT_TRUE(changes[0].second.valid());
  EXPECT_NE(changes[0].second, h.leaf);
}

// --------------------------------------------------------------------------
// wire edge cases against a live server

/// Sends one raw BatchedUpdateReq from `src` to `leaf` and runs the network.
void send_batch(SimWorld& w, NodeId src, NodeId leaf,
                const wire::BatchedUpdateReq& batch) {
  w.net.send(src, leaf, wire::encode_envelope(src, wire::Message{batch}));
  w.run();
}

TEST(BatchedUpdateEdge, EmptyBatchIsHandledSilently) {
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}));
  auto obj = w.register_object(ObjectId{1}, {100, 100});
  const NodeId leaf = obj->agent();
  const std::uint64_t before = w.net.messages_sent();
  wire::BatchedUpdateReq empty;
  send_batch(w, w.client_node(), leaf, empty);
  const core::LocationServer::Stats stats = w.deployment->total_stats();
  EXPECT_EQ(stats.update_batches, 1u);
  EXPECT_EQ(stats.updates_applied, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
  // No ack for an empty batch: the only datagram was ours.
  EXPECT_EQ(w.net.messages_sent(), before + 1);
}

TEST(BatchedUpdateEdge, SingleSightingBatchIsDistinctButEquivalent) {
  const core::Sighting s{ObjectId{7}, 3, {120, 130}, 5.0};
  // Explicitly distinct on the wire from a plain UpdateReq (MsgType byte).
  wire::BatchedUpdateReq batch;
  batch.sightings.append(s);
  const wire::Buffer batch_wire = wire::encode_envelope(NodeId{5}, batch);
  const wire::Buffer plain_wire =
      wire::encode_envelope(NodeId{5}, wire::UpdateReq{s});
  EXPECT_NE(batch_wire, plain_wire);
  ASSERT_GT(batch_wire.size(), 2u);
  EXPECT_EQ(static_cast<wire::MsgType>(batch_wire[1]),
            wire::MsgType::kBatchedUpdateReq);
  EXPECT_EQ(static_cast<wire::MsgType>(plain_wire[1]), wire::MsgType::kUpdateReq);

  // ... and equivalent in effect: same sighting applied, one packed ack.
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}));
  auto obj = w.register_object(ObjectId{7}, {100, 100});
  const NodeId leaf = obj->agent();

  std::vector<std::pair<ObjectId, double>> acks;
  const NodeId ack_sink = w.client_node();
  w.net.attach(ack_sink, [&](const std::uint8_t* data, std::size_t len) {
    const auto env = wire::decode_envelope(data, len);
    ASSERT_TRUE(env.ok());
    if (const auto* m = std::get_if<wire::BatchedUpdateAck>(&env.value().msg)) {
      auto items = m->acks.items();
      while (const auto ack = items.next()) {
        acks.emplace_back(ack->value.oid, ack->value.offered_acc);
      }
    }
  });
  send_batch(w, ack_sink, leaf, batch);
  store::SightingDb::Record rec;
  ASSERT_TRUE(w.deployment->find_sighting(leaf, ObjectId{7}, rec));
  EXPECT_EQ(rec.sighting.pos, (geo::Point{120, 130}));
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].first, ObjectId{7});
  w.net.detach(ack_sink);
}

TEST(BatchedUpdateEdge, UnknownObjectsAreSkippedKnownOnesApplied) {
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {1000, 1000}}));
  auto obj = w.register_object(ObjectId{1}, {100, 100});
  const NodeId leaf = obj->agent();
  wire::BatchedUpdateReq batch;
  batch.sightings.append({ObjectId{999}, 1, {110, 110}, 5.0});  // never registered
  batch.sightings.append({ObjectId{1}, 1, {140, 150}, 5.0});
  send_batch(w, w.client_node(), leaf, batch);
  const core::LocationServer::Stats stats = w.deployment->total_stats();
  EXPECT_EQ(stats.updates_applied, 1u);
  EXPECT_EQ(stats.updates_unknown, 1u);
  store::SightingDb::Record rec;
  ASSERT_TRUE(w.deployment->find_sighting(leaf, ObjectId{1}, rec));
  EXPECT_EQ(rec.sighting.pos, (geo::Point{140, 150}));
}

}  // namespace
}  // namespace locs::test

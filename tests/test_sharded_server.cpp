// Shard-merge equivalence for the sharded leaf server
// (core/sharded_location_server.hpp): for N in {1, 2, 4, 8}, an identical
// seeded workload -- registration, updates, handovers, all three query
// types, events, soft-state ticks -- must yield identical query answers and
// identical network message counts vs. the unsharded server, and at N = 1
// the full SimNetwork trace must be BIT-identical (the wrapper is
// pass-through). Also pins the shard-routing invariant: every object's
// sighting lives exactly in the slice of shard_of(oid).
#include <gtest/gtest.h>

#include <string>

#include "core/sharded_location_server.hpp"
#include "test_support.hpp"
#include "util/crc32.hpp"

namespace locs::test {
namespace {

using core::ShardedLocationServer;

constexpr double kArea = 1200.0;
constexpr std::size_t kObjects = 160;

/// Canonicalized record of everything externally observable about one
/// workload run: every query answer plus the transport-level counters.
struct WorkloadObservation {
  std::vector<std::string> answers;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint32_t trace_crc = 0;  // over (from, to, payload) of every delivery
  std::uint64_t events_fired = 0;
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

WorkloadObservation run_workload(std::uint32_t shards, bool force_sharding,
                                 bool caches = false) {
  core::Deployment::Config cfg;
  cfg.leaf_shards = shards;
  cfg.force_leaf_sharding = force_sharding;
  if (caches) {
    cfg.server.enable_leaf_area_cache = true;
    cfg.server.enable_agent_cache = true;
    cfg.server.enable_position_cache = true;
  }
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             cfg);

  WorkloadObservation obs;
  w.net.set_tracer([&](TimePoint at, NodeId from, NodeId to, const wire::Buffer& b) {
    obs.trace_crc = crc32(&at, sizeof at, obs.trace_crc);
    obs.trace_crc = crc32(&from.value, sizeof from.value, obs.trace_crc);
    obs.trace_crc = crc32(&to.value, sizeof to.value, obs.trace_crc);
    obs.trace_crc = crc32(b.data(), b.size(), obs.trace_crc);
  });

  Rng rng(0xC0FFEE);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  std::vector<geo::Point> pos(kObjects + 1);
  for (std::uint64_t i = 1; i <= kObjects; ++i) {
    pos[i] = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
    objs.push_back(w.register_object(ObjectId{i}, pos[i]));
    EXPECT_TRUE(objs.back()->tracked()) << "object " << i;
  }

  auto qc = w.make_query_client(w.deployment->leaf_ids()[0]);
  const std::vector<NodeId> leaves = w.deployment->leaf_ids();

  // Event predicate over the center (spans all four leaves), installed up
  // front so updates on every shard feed the coordinator's membership set.
  const geo::Polygon event_area = geo::Polygon::from_rect(
      geo::Rect::from_center({kArea / 2, kArea / 2}, 260, 260));
  qc->subscribe_area_count(event_area, 10);
  w.run();

  for (int round = 0; round < 6; ++round) {
    // Updates: a mix of local jitter and long cross-leaf jumps (handover).
    for (int u = 0; u < 60; ++u) {
      const std::uint64_t oid = 1 + rng.next_below(kObjects);
      TrackedObject& obj = *objs[oid - 1];
      if (!obj.tracked()) continue;
      geo::Point next;
      if (u % 5 == 0) {
        next = {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)};
      } else {
        next = {std::clamp(pos[oid].x + rng.uniform(-40, 40), 10.0, kArea - 10),
                std::clamp(pos[oid].y + rng.uniform(-40, 40), 10.0, kArea - 10)};
      }
      pos[oid] = next;
      obj.feed_position(next);
      w.run();
    }

    // Position queries from rotating entry leaves.
    for (int q = 0; q < 12; ++q) {
      const std::uint64_t oid = 1 + rng.next_below(kObjects);
      qc->set_entry(leaves[q % leaves.size()]);
      const auto res = w.pos_query(*qc, ObjectId{oid});
      obs.answers.push_back("pos:" + std::to_string(oid) + ":" +
                            (res.found ? fmt_ld(res.ld) : "miss"));
    }

    // Range queries: leaf-local, boundary-straddling, and all-leaf sizes.
    for (int q = 0; q < 6; ++q) {
      const geo::Point c{rng.uniform(60, kArea - 60), rng.uniform(60, kArea - 60)};
      const double half = 30.0 + 90.0 * (q % 3);
      const geo::Polygon area =
          geo::Polygon::from_rect(geo::Rect::from_center(c, half, half));
      qc->set_entry(leaves[q % leaves.size()]);
      auto res = w.range_query(*qc, area, /*req_acc=*/50.0, /*req_overlap=*/0.3);
      obs.answers.push_back("range:" + std::string(res.complete ? "c" : "p") +
                            ":" + fmt_results(std::move(res.objects)));
    }

    // Nearest-neighbor queries.
    for (int q = 0; q < 4; ++q) {
      const geo::Point p{rng.uniform(0, kArea), rng.uniform(0, kArea)};
      qc->set_entry(leaves[(q + round) % leaves.size()]);
      auto res = w.nn_query(*qc, p, /*req_acc=*/60.0, /*near_qual=*/25.0);
      std::string line = "nn:";
      if (res.found) {
        line += std::to_string(res.nearest.oid.value) + fmt_ld(res.nearest.ld) +
                "|" + fmt_results(std::move(res.near_set));
      } else {
        line += "miss";
      }
      obs.answers.push_back(line);
    }

    // Soft-state sweep (no expiry at this time scale; exercises tick).
    w.advance(seconds(1), /*slices=*/2);
  }

  for (const wire::EventNotify& ev : qc->take_events()) {
    obs.answers.push_back("event:" + std::to_string(ev.sub_id) + ":" +
                          (ev.fired ? "f" : "u") + std::to_string(ev.count));
  }
  obs.messages = w.net.messages_sent();
  obs.bytes = w.net.bytes_sent();
  obs.events_fired = w.deployment->total_stats().events_fired;
  return obs;
}

TEST(ShardedServer, SingleShardWrapperIsTraceIdentical) {
  const WorkloadObservation plain = run_workload(1, /*force_sharding=*/false);
  const WorkloadObservation sharded = run_workload(1, /*force_sharding=*/true);
  EXPECT_EQ(plain.trace_crc, sharded.trace_crc);
  EXPECT_EQ(plain.messages, sharded.messages);
  EXPECT_EQ(plain.bytes, sharded.bytes);
  EXPECT_EQ(plain.answers, sharded.answers);
}

class ShardedEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardedEquivalence, AnswersAndMessageCountsMatchUnsharded) {
  const WorkloadObservation plain = run_workload(1, /*force_sharding=*/false);
  const WorkloadObservation sharded = run_workload(GetParam(), false);
  EXPECT_EQ(plain.answers, sharded.answers);
  EXPECT_EQ(plain.messages, sharded.messages);
  EXPECT_EQ(plain.events_fired, sharded.events_fired);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedEquivalence,
                         ::testing::Values(1u, 2u, 4u, 8u));

/// §6.5 caches are SHARED across shard reactors (LocationServer::
/// share_caches): with every cache enabled, a sharded leaf must produce the
/// same answers AND the same message counts as an unsharded one -- cache hit
/// patterns (handover shortcuts, direct range fan-out, agent-cache queries)
/// may not depend on the shard count.
class ShardedCacheEquivalence : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardedCacheEquivalence, CacheHitPatternsMatchUnsharded) {
  const WorkloadObservation plain =
      run_workload(1, /*force_sharding=*/false, /*caches=*/true);
  const WorkloadObservation sharded =
      run_workload(GetParam(), false, /*caches=*/true);
  EXPECT_EQ(plain.answers, sharded.answers);
  EXPECT_EQ(plain.messages, sharded.messages);
  EXPECT_EQ(plain.bytes, sharded.bytes);
  EXPECT_EQ(plain.events_fired, sharded.events_fired);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedCacheEquivalence,
                         ::testing::Values(2u, 4u));

TEST(ShardedServer, DeterministicAcrossRuns) {
  const WorkloadObservation a = run_workload(4, false);
  const WorkloadObservation b = run_workload(4, false);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.answers, b.answers);
}

TEST(ShardedServer, ObjectsLiveInTheirOwningShardSlice) {
  core::Deployment::Config cfg;
  cfg.leaf_shards = 4;
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             cfg);
  Rng rng(77);
  std::vector<std::unique_ptr<TrackedObject>> objs;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    objs.push_back(w.register_object(
        ObjectId{i}, {rng.uniform(10, kArea - 10), rng.uniform(10, kArea - 10)}));
  }
  std::size_t checked = 0;
  for (const NodeId leaf : w.deployment->leaf_ids()) {
    core::ShardedLocationServer* sharded = w.deployment->sharded(leaf);
    ASSERT_NE(sharded, nullptr);
    EXPECT_EQ(sharded->shard_count(), 4u);
    for (std::uint64_t i = 1; i <= 64; ++i) {
      const std::uint32_t owner = ShardedLocationServer::shard_of(ObjectId{i}, 4);
      for (std::uint32_t s = 0; s < 4; ++s) {
        const store::SightingDb* slice = sharded->shard(s).sightings();
        ASSERT_NE(slice, nullptr);
        const bool present = slice->find(ObjectId{i}) != nullptr;
        if (present) {
          EXPECT_EQ(s, owner) << "object " << i << " in a foreign slice";
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 64u);  // every object tracked in exactly one slice
}

TEST(ShardedServer, HandoverKeepsOwningShardAcrossLeaves) {
  core::Deployment::Config cfg;
  cfg.leaf_shards = 4;
  SimWorld w(core::HierarchyBuilder::table2(geo::Rect{{0, 0}, {kArea, kArea}}),
             cfg);
  auto obj = w.register_object(ObjectId{42}, {100, 100});
  ASSERT_TRUE(obj->tracked());
  const NodeId first = obj->agent();
  obj->feed_position({kArea - 100, kArea - 100});  // opposite quadrant
  w.run();
  ASSERT_NE(obj->agent(), first);
  const std::uint32_t owner = ShardedLocationServer::shard_of(ObjectId{42}, 4);
  store::SightingDb::Record rec;
  ASSERT_TRUE(w.deployment->find_sighting(obj->agent(), ObjectId{42}, rec));
  EXPECT_EQ(rec.sighting.pos, (geo::Point{kArea - 100, kArea - 100}));
  // The record sits in the owning shard of the NEW agent.
  EXPECT_NE(
      w.deployment->sharded(obj->agent())->shard(owner).sightings()->find(ObjectId{42}),
      nullptr);
  // And is gone from every shard of the old agent.
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(w.deployment->sharded(first)->shard(s).sightings()->find(ObjectId{42}),
              nullptr);
  }
}

}  // namespace
}  // namespace locs::test

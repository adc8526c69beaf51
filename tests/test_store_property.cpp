// Randomized property suites for the storage layer: SightingDb against a
// plain-map oracle under mixed insert/update/remove/expiry churn, and
// VisitorDb persistence equivalence across random mutation sequences and
// reopen/compaction cycles.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "store/sighting_db.hpp"
#include "store/visitor_db.hpp"
#include "util/rng.hpp"

namespace locs::store {
namespace {

namespace fs = std::filesystem;

class SightingDbChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SightingDbChurn, MatchesOracleUnderMixedOps) {
  SightingDb db([] { return spatial::make_point_quadtree(); });
  struct OracleRec {
    geo::Point pos;
    double acc;
    TimePoint expiry;
  };
  std::map<std::uint64_t, OracleRec> oracle;
  Rng rng(GetParam());
  TimePoint now = 0;

  for (int step = 0; step < 3000; ++step) {
    const double roll = rng.next_double();
    now += static_cast<Duration>(rng.next_below(1000));
    if (roll < 0.40) {
      const std::uint64_t oid = rng.next_below(500);
      const geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      const double acc = rng.uniform(1, 100);
      const TimePoint expiry = now + static_cast<Duration>(rng.next_below(100000));
      if (oracle.count(oid)) {
        db.update({ObjectId{oid}, now, p, 1.0}, expiry);
        db.set_offered_acc(ObjectId{oid}, acc);
        oracle[oid] = {p, acc, expiry};
      } else {
        db.insert({ObjectId{oid}, now, p, 1.0}, acc, expiry);
        oracle[oid] = {p, acc, expiry};
      }
    } else if (roll < 0.55 && !oracle.empty()) {
      auto it = oracle.begin();
      std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
      EXPECT_TRUE(db.remove(ObjectId{it->first}));
      oracle.erase(it);
    } else if (roll < 0.70) {
      // Expiry sweep.
      const auto expired = db.expire_until(now);
      for (const ObjectId oid : expired) {
        const auto it = oracle.find(oid.value);
        ASSERT_NE(it, oracle.end()) << "expired unknown object " << oid.value;
        EXPECT_LE(it->second.expiry, now);
        oracle.erase(it);
      }
      // Everything left must be unexpired.
      for (const auto& [oid, rec] : oracle) {
        EXPECT_GT(rec.expiry, now) << "object " << oid << " should have expired";
      }
    } else if (roll < 0.85) {
      // Point lookup.
      const std::uint64_t oid = rng.next_below(500);
      const SightingDb::Record* rec = db.find(ObjectId{oid});
      const auto it = oracle.find(oid);
      ASSERT_EQ(rec != nullptr, it != oracle.end()) << "oid " << oid;
      if (rec != nullptr) {
        EXPECT_EQ(rec->sighting.pos, it->second.pos);
        EXPECT_EQ(rec->offered_acc, it->second.acc);
      }
    } else {
      // Area query vs oracle.
      const geo::Polygon area = geo::Polygon::from_rect(geo::Rect::from_center(
          {rng.uniform(0, 1000), rng.uniform(0, 1000)}, rng.uniform(20, 200),
          rng.uniform(20, 200)));
      const double req_acc = rng.uniform(5, 120);
      std::vector<core::ObjectResult> got;
      db.objects_in_area(area, req_acc, 0.3, got);
      std::vector<std::uint64_t> got_ids;
      for (const auto& r : got) got_ids.push_back(r.oid.value);
      std::sort(got_ids.begin(), got_ids.end());
      std::vector<std::uint64_t> want_ids;
      for (const auto& [oid, rec] : oracle) {
        if (rec.acc > req_acc) continue;
        if (geo::overlap_degree(area, {rec.pos, rec.acc}) >= 0.3) {
          want_ids.push_back(oid);
        }
      }
      EXPECT_EQ(got_ids, want_ids) << "step " << step;
    }
    ASSERT_EQ(db.size(), oracle.size()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SightingDbChurn, ::testing::Values(3u, 5u, 8u, 13u));

using Record = SightingDb::Record;

class VisitorDbPersistence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("locs_vdb_prop_" + std::to_string(::getpid()) + "_" +
              std::to_string(GetParam())))
                .string();
    fs::remove(path_);
  }
  void TearDown() override { fs::remove(path_); }
  std::string path_;
};

TEST_P(VisitorDbPersistence, RandomMutationsSurviveReopenAndCompaction) {
  struct OracleRec {
    bool leaf;
    std::uint32_t fwd;
    double acc;
  };
  std::map<std::uint64_t, OracleRec> oracle;
  Rng rng(GetParam() * 7 + 1);

  const auto matches = [&](const VisitorRecord& got, const OracleRec& rec) {
    EXPECT_EQ(got.leaf.has_value(), rec.leaf) << "oid " << got.oid.value;
    if (rec.leaf && got.leaf) {
      EXPECT_DOUBLE_EQ(got.leaf->offered_acc, rec.acc) << "oid " << got.oid.value;
      EXPECT_EQ(got.leaf->reg_info.reg_inst, NodeId{9}) << "oid " << got.oid.value;
      EXPECT_EQ(got.forward_ref, kNoNode) << "oid " << got.oid.value;
    } else if (!rec.leaf) {
      EXPECT_EQ(got.forward_ref.value, rec.fwd) << "oid " << got.oid.value;
    }
  };
  const auto verify = [&](const VisitorDb& db) {
    ASSERT_EQ(db.size(), oracle.size());
    for (const auto& [oid, rec] : oracle) {
      const std::optional<VisitorRecord> got = db.find(ObjectId{oid});
      ASSERT_NE(got, std::nullopt) << "oid " << oid;
      EXPECT_EQ(got->oid, ObjectId{oid});
      matches(*got, rec);
    }
    // for_each visits every record exactly once, leaf and forward alike.
    std::set<std::uint64_t> visited;
    db.for_each([&](const VisitorRecord& got) {
      EXPECT_TRUE(visited.insert(got.oid.value).second)
          << "oid " << got.oid.value << " visited twice";
      const auto it = oracle.find(got.oid.value);
      ASSERT_NE(it, oracle.end()) << "oid " << got.oid.value;
      matches(got, it->second);
    });
    EXPECT_EQ(visited.size(), oracle.size());
  };

  for (int round = 0; round < 4; ++round) {
    auto opened = VisitorDb::open(path_);
    ASSERT_TRUE(opened.ok());
    VisitorDb db = std::move(opened).value();
    verify(db);
    for (int step = 0; step < 300; ++step) {
      const double roll = rng.next_double();
      const std::uint64_t oid = rng.next_below(200);
      if (roll < 0.4) {
        const auto fwd = static_cast<std::uint32_t>(1 + rng.next_below(30));
        db.set_forward(ObjectId{oid}, NodeId{fwd});
        oracle[oid] = {false, fwd, 0};
      } else if (roll < 0.7) {
        const double acc = rng.uniform(1, 100);
        db.insert_leaf(ObjectId{oid}, acc, {NodeId{9}, {acc, acc * 2}});
        oracle[oid] = {true, 0, acc};
      } else if (roll < 0.85) {
        const double acc = rng.uniform(1, 100);
        db.set_offered_acc(ObjectId{oid}, acc);
        const auto it = oracle.find(oid);
        if (it != oracle.end() && it->second.leaf) it->second.acc = acc;
      } else if (roll < 0.95) {
        db.remove(ObjectId{oid});
        oracle.erase(oid);
      } else {
        // A small batch, absent ids and repeats included.
        std::vector<ObjectId> batch{ObjectId{oid}};
        for (int extra = 0; extra < 3; ++extra) batch.push_back(ObjectId{rng.next_below(200)});
        std::size_t expected = 0;
        for (const ObjectId id : batch) expected += oracle.erase(id.value);
        EXPECT_EQ(db.remove_batch(batch), expected);
      }
    }
    if (round % 2 == 1) {
      ASSERT_TRUE(db.compact().is_ok());
    }
    verify(db);
    // db goes out of scope = clean close; next round reopens from disk.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisitorDbPersistence, ::testing::Values(1u, 2u, 3u));

TEST(VisitorDbCompaction, ServerTickTriggersCompaction) {
  const std::string path =
      (fs::temp_directory_path() / "locs_vdb_autocompact").string();
  fs::remove(path);
  auto opened = VisitorDb::open(path);
  ASSERT_TRUE(opened.ok());
  VisitorDb db = std::move(opened).value();
  for (std::uint64_t i = 0; i < 600; ++i) {
    db.set_forward(ObjectId{i % 10}, NodeId{static_cast<std::uint32_t>(i % 5 + 1)});
  }
  EXPECT_GE(db.log_appended(), 600u);
  ASSERT_TRUE(db.maybe_compact(500).is_ok());
  EXPECT_EQ(db.log_appended(), 0u);  // fresh log after rewrite
  EXPECT_EQ(db.size(), 10u);
  // Below threshold: no-op.
  db.set_forward(ObjectId{1}, NodeId{2});
  ASSERT_TRUE(db.maybe_compact(500).is_ok());
  EXPECT_EQ(db.log_appended(), 1u);
  fs::remove(path);
}

}  // namespace
}  // namespace locs::store

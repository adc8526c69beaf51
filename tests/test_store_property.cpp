// Randomized property suites for the storage layer: SightingDb against a
// plain-map oracle under mixed insert/update/remove/expiry churn (a third
// of the updates at the stored position, some records without a sighting),
// and persistence equivalence of both tables -- the leaf table's visitor
// part and the forwarding references -- across random mutation sequences
// and reopen/compaction cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "store/sighting_db.hpp"
#include "store/visitor_db.hpp"
#include "store/visitor_log.hpp"
#include "util/rng.hpp"

namespace locs::store {
namespace {

namespace fs = std::filesystem;

class SightingDbChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SightingDbChurn, MatchesOracleUnderMixedOps) {
  SightingDb db([] { return spatial::make_point_quadtree(); });
  struct OracleRec {
    bool has_sighting;
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
      geo::Point p{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      const double acc = rng.uniform(1, 100);
      const TimePoint expiry = now + static_cast<Duration>(rng.next_below(100000));
      if (const auto known = oracle.find(oid); known != oracle.end()) {
        // A third of the updates re-send the stored position: the record,
        // accuracy and expiry are refreshed without an index call.
        if (known->second.has_sighting && rng.next_below(3) == 0) {
          p = known->second.pos;
        }
        if (rng.next_below(2) == 0) {
          db.upsert({ObjectId{oid}, now, p, 1.0}, acc, expiry);
        } else {
          SightingDb::Record* rec = db.find(ObjectId{oid});
          ASSERT_NE(rec, nullptr);
          db.update(*rec, {ObjectId{oid}, now, p, 1.0}, expiry);
          db.set_visitor(*rec, acc, rec->reg_info);
        }
        known->second = {true, p, acc, expiry};
      } else if (rng.next_below(8) == 0) {
        // A visitor whose sighting has not arrived (a replayed record).
        db.set_visitor(ObjectId{oid}, acc, {});
        oracle[oid] = {false, {}, acc, 0};
      } else {
        db.insert({ObjectId{oid}, now, p, 1.0}, acc, expiry);
        oracle[oid] = {true, p, acc, expiry};
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
        EXPECT_TRUE(it->second.has_sighting) << "oid " << oid.value;
        EXPECT_LE(it->second.expiry, now);
        oracle.erase(it);
      }
      // Every sighting left must be unexpired.
      for (const auto& [oid, rec] : oracle) {
        if (!rec.has_sighting) continue;
        EXPECT_GT(rec.expiry, now) << "object " << oid << " should have expired";
      }
    } else if (roll < 0.85) {
      // Point lookup.
      const std::uint64_t oid = rng.next_below(500);
      const SightingDb::Record* rec = db.find(ObjectId{oid});
      const auto it = oracle.find(oid);
      ASSERT_EQ(rec != nullptr, it != oracle.end()) << "oid " << oid;
      if (rec != nullptr) {
        ASSERT_EQ(rec->has_sighting, it->second.has_sighting) << "oid " << oid;
        EXPECT_EQ(rec->offered_acc, it->second.acc);
        if (rec->has_sighting) {
          EXPECT_EQ(rec->sighting.pos, it->second.pos);
          EXPECT_EQ(rec->expiry, it->second.expiry);
        }
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
        if (!rec.has_sighting || rec.acc > req_acc) continue;
        if (geo::overlap_degree(area, {rec.pos, rec.acc}) >= 0.3) {
          want_ids.push_back(oid);
        }
      }
      EXPECT_EQ(got_ids, want_ids) << "step " << step;
    }
    ASSERT_EQ(db.size(), oracle.size()) << "step " << step;
    ASSERT_EQ(db.index().size(),
              static_cast<std::size_t>(std::count_if(
                  oracle.begin(), oracle.end(),
                  [](const auto& kv) { return kv.second.has_sighting; })))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SightingDbChurn, ::testing::Values(3u, 5u, 8u, 13u));

class VisitorDbPersistence : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    const std::string stem = (fs::temp_directory_path() /
                              ("locs_vdb_prop_" + std::to_string(::getpid()) + "_" +
                               std::to_string(GetParam())))
                                 .string();
    fwd_path_ = stem + ".fwd";
    leaf_path_ = stem + ".leaf";
    fs::remove(fwd_path_);
    fs::remove(leaf_path_);
  }
  void TearDown() override {
    fs::remove(fwd_path_);
    fs::remove(leaf_path_);
  }
  static VisitorLog open_log(const std::string& path) {
    auto log = VisitorLog::open(path);
    EXPECT_TRUE(log.ok());
    return std::move(log).value();
  }
  std::string fwd_path_;
  std::string leaf_path_;
};

TEST_P(VisitorDbPersistence, RandomMutationsSurviveReopenAndCompaction) {
  // Both tables of the persistent visitorDB: a non-leaf server's forwarding
  // references and a leaf table, whose visitor part alone persists.
  struct LeafRec {
    double acc;
    std::uint32_t reg_inst;
  };
  std::map<std::uint64_t, std::uint32_t> fwd_oracle;
  std::map<std::uint64_t, LeafRec> leaf_oracle;
  Rng rng(GetParam() * 7 + 1);

  const auto verify = [&](const VisitorDb& fwd, const SightingDb& leaf) {
    ASSERT_EQ(fwd.size(), fwd_oracle.size());
    for (const auto& [oid, child] : fwd_oracle) {
      EXPECT_EQ(fwd.find(ObjectId{oid}), NodeId{child}) << "oid " << oid;
    }
    std::set<std::uint64_t> visited;
    fwd.for_each([&](ObjectId oid, NodeId child) {
      EXPECT_TRUE(visited.insert(oid.value).second) << "oid " << oid.value;
      EXPECT_EQ(fwd_oracle.at(oid.value), child.value) << "oid " << oid.value;
    });
    EXPECT_EQ(visited.size(), fwd_oracle.size());

    ASSERT_EQ(leaf.size(), leaf_oracle.size());
    for (const auto& [oid, want] : leaf_oracle) {
      const SightingDb::Record* got = leaf.find(ObjectId{oid});
      ASSERT_NE(got, nullptr) << "oid " << oid;
      EXPECT_DOUBLE_EQ(got->offered_acc, want.acc) << "oid " << oid;
      EXPECT_EQ(got->reg_info.reg_inst, NodeId{want.reg_inst}) << "oid " << oid;
      EXPECT_EQ(got->reg_info.acc_range, (core::AccuracyRange{want.acc, want.acc * 2}))
          << "oid " << oid;
    }
  };

  for (int round = 0; round < 4; ++round) {
    VisitorDb fwd(open_log(fwd_path_));
    SightingDb leaf([] { return spatial::make_point_quadtree(); }, open_log(leaf_path_));
    verify(fwd, leaf);
    // Sightings are volatile: a reopened leaf table holds none.
    leaf.for_each([](ObjectId oid, const SightingDb::Record& rec) {
      EXPECT_FALSE(rec.has_sighting) << "oid " << oid.value;
    });
    TimePoint now = 0;
    for (int step = 0; step < 300; ++step) {
      const double roll = rng.next_double();
      const std::uint64_t oid = rng.next_below(200);
      const double acc = rng.uniform(1, 100);
      const auto reg_inst = static_cast<std::uint32_t>(1 + rng.next_below(30));
      const core::RegInfo reg{NodeId{reg_inst}, {acc, acc * 2}};
      now += 10;
      if (roll < 0.25) {
        fwd.set_forward(ObjectId{oid}, NodeId{reg_inst});
        fwd_oracle[oid] = reg_inst;
      } else if (roll < 0.35) {
        EXPECT_EQ(fwd.remove(ObjectId{oid}), fwd_oracle.erase(oid) == 1);
      } else if (roll < 0.55) {
        // Registration or handover-in: visitor part and sighting.
        leaf.upsert({ObjectId{oid}, now, {acc, acc}, 1.0}, acc, now + 500, reg);
        leaf_oracle[oid] = {acc, reg_inst};
      } else if (roll < 0.65) {
        // Accuracy change through a found record, or a mirrored one by id.
        if (SightingDb::Record* rec = leaf.find(ObjectId{oid}); rec && roll < 0.6) {
          leaf.set_visitor(*rec, acc, reg);
        } else {
          leaf.set_visitor(ObjectId{oid}, acc, reg);
        }
        leaf_oracle[oid] = {acc, reg_inst};
      } else if (roll < 0.80) {
        // A position update persists nothing.
        leaf.update({ObjectId{oid}, now, {acc, 1.0}, 1.0}, now + 500);
      } else if (roll < 0.92) {
        EXPECT_EQ(leaf.remove(ObjectId{oid}), leaf_oracle.erase(oid) == 1);
      } else {
        for (const ObjectId gone : leaf.expire_until(now)) {
          EXPECT_EQ(leaf_oracle.erase(gone.value), 1u) << "oid " << gone.value;
        }
      }
    }
    if (round % 2 == 1) {
      ASSERT_TRUE(fwd.compact().is_ok());
      ASSERT_TRUE(leaf.compact().is_ok());
    }
    verify(fwd, leaf);
    // The tables go out of scope = clean close; the next round reopens.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VisitorDbPersistence, ::testing::Values(1u, 2u, 3u));

TEST(VisitorDbCompaction, ServerTickTriggersCompaction) {
  const std::string path =
      (fs::temp_directory_path() / "locs_vdb_autocompact").string();
  fs::remove(path);
  auto opened = VisitorLog::open(path);
  ASSERT_TRUE(opened.ok());
  VisitorDb db(std::move(opened).value());
  for (std::uint64_t i = 0; i < 600; ++i) {
    db.set_forward(ObjectId{i % 10}, NodeId{static_cast<std::uint32_t>(i % 5 + 1)});
  }
  EXPECT_GE(db.log_appended(), 600u);
  ASSERT_TRUE(db.compact(500).is_ok());
  EXPECT_EQ(db.log_appended(), 0u);  // fresh log after rewrite
  EXPECT_EQ(db.size(), 10u);
  // Below threshold: no-op.
  db.set_forward(ObjectId{1}, NodeId{2});
  ASSERT_TRUE(db.compact(500).is_ok());
  EXPECT_EQ(db.log_appended(), 1u);
  fs::remove(path);
}

}  // namespace
}  // namespace locs::store

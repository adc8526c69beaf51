// Data-storage components: persistent log (WAL), sighting DB (main memory),
// visitor DB (persistent forwarding paths). §5 of the paper.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "store/persistent_log.hpp"
#include "store/sighting_db.hpp"
#include "store/visitor_db.hpp"
#include "util/rng.hpp"

namespace locs::store {
namespace {

namespace fs = std::filesystem;

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("locs_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

using PersistentLogTest = TempDir;
using VisitorDbTest = TempDir;

TEST_F(PersistentLogTest, AppendAndReplay) {
  auto log = PersistentLog::open(path("wal"));
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 10; ++i) {
    wire::Buffer rec{static_cast<std::uint8_t>(i), 0xaa, 0xbb};
    ASSERT_TRUE(log.value().append(rec).is_ok());
  }
  std::vector<int> seen;
  ASSERT_TRUE(log.value()
                  .replay([&](const std::uint8_t* d, std::size_t n) {
                    ASSERT_EQ(n, 3u);
                    seen.push_back(d[0]);
                  })
                  .is_ok());
  EXPECT_EQ(seen.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(seen[i], i);
}

TEST_F(PersistentLogTest, SurvivesReopen) {
  {
    auto log = PersistentLog::open(path("wal"));
    ASSERT_TRUE(log.ok());
    log.value().append({1, 2, 3});
  }
  auto log = PersistentLog::open(path("wal"));
  ASSERT_TRUE(log.ok());
  int count = 0;
  log.value().replay([&](const std::uint8_t*, std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST_F(PersistentLogTest, TornTailIgnored) {
  {
    auto log = PersistentLog::open(path("wal"));
    ASSERT_TRUE(log.ok());
    log.value().append({1});
    log.value().append({2});
  }
  // Chop a few bytes off the end (simulated crash mid-append).
  const auto full = fs::file_size(path("wal"));
  fs::resize_file(path("wal"), full - 3);
  auto log = PersistentLog::open(path("wal"));
  std::vector<int> seen;
  log.value().replay([&](const std::uint8_t* d, std::size_t) { seen.push_back(d[0]); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], 1);
}

TEST_F(PersistentLogTest, CorruptRecordStopsReplay) {
  {
    auto log = PersistentLog::open(path("wal"));
    ASSERT_TRUE(log.ok());
    log.value().append({10, 20, 30, 40});
    log.value().append({50});
  }
  // Flip a payload byte of the first record (offset 8 = after len+crc).
  {
    FILE* f = std::fopen(path("wal").c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 9, SEEK_SET);
    std::fputc(0xEE, f);
    std::fclose(f);
  }
  auto log = PersistentLog::open(path("wal"));
  int count = 0;
  log.value().replay([&](const std::uint8_t*, std::size_t) { ++count; });
  EXPECT_EQ(count, 0);  // CRC failure stops the replay at the bad frame
}

TEST_F(PersistentLogTest, RewriteCompacts) {
  auto log = PersistentLog::open(path("wal"));
  ASSERT_TRUE(log.ok());
  for (int i = 0; i < 100; ++i) log.value().append({static_cast<std::uint8_t>(i)});
  ASSERT_TRUE(log.value().rewrite({{7}, {8}}).is_ok());
  std::vector<int> seen;
  log.value().replay([&](const std::uint8_t* d, std::size_t) { seen.push_back(d[0]); });
  EXPECT_EQ(seen, (std::vector<int>{7, 8}));
  // Still appendable after rewrite.
  ASSERT_TRUE(log.value().append({9}).is_ok());
  seen.clear();
  log.value().replay([&](const std::uint8_t* d, std::size_t) { seen.push_back(d[0]); });
  EXPECT_EQ(seen, (std::vector<int>{7, 8, 9}));
}

// --------------------------------------------------------------------------

core::Sighting sighting(std::uint64_t oid, double x, double y) {
  return {ObjectId{oid}, 1000, {x, y}, 5.0};
}

SightingDb make_db() {
  return SightingDb([] { return spatial::make_point_quadtree(); });
}

TEST(SightingDb, InsertFindUpdateRemove) {
  SightingDb db = make_db();
  db.insert(sighting(1, 10, 10), 20.0, 5000);
  ASSERT_NE(db.find(ObjectId{1}), nullptr);
  EXPECT_EQ(db.find(ObjectId{1})->offered_acc, 20.0);
  EXPECT_TRUE(db.update(sighting(1, 30, 30), 6000));
  EXPECT_EQ(db.find(ObjectId{1})->sighting.pos, (geo::Point{30, 30}));
  EXPECT_TRUE(db.remove(ObjectId{1}));
  EXPECT_EQ(db.find(ObjectId{1}), nullptr);
  EXPECT_FALSE(db.update(sighting(1, 0, 0), 7000));
}

TEST(SightingDb, ExpiryPopsDueRecords) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  db.insert(sighting(2, 1, 1), 10, 2000);
  db.insert(sighting(3, 2, 2), 10, 3000);
  auto expired = db.expire_until(2000);
  std::sort(expired.begin(), expired.end());
  EXPECT_EQ(expired, (std::vector<ObjectId>{ObjectId{1}, ObjectId{2}}));
  EXPECT_EQ(db.size(), 1u);
}

TEST(SightingDb, UpdateExtendsExpiry) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  db.update(sighting(1, 1, 1), 5000);  // visitor contacted the server again
  EXPECT_TRUE(db.expire_until(1500).empty());
  const auto expired = db.expire_until(5000);
  EXPECT_EQ(expired.size(), 1u);
}

TEST(SightingDb, RemovedObjectNeverExpires) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  db.remove(ObjectId{1});
  EXPECT_TRUE(db.expire_until(10000).empty());
}

TEST(SightingDb, RefreshesQueueNoExpiries) {
  // One queued expiry per record: K records refreshed N times each, with no
  // expire_until in between, leave K entries, not one per refresh.
  SightingDb db = make_db();
  constexpr std::uint64_t kRecords = 50;
  constexpr TimePoint kRefreshes = 20;
  for (std::uint64_t i = 1; i <= kRecords; ++i) {
    db.insert(sighting(i, 0, static_cast<double>(i)), 10.0, 1000);
  }
  for (TimePoint n = 1; n <= kRefreshes; ++n) {
    for (std::uint64_t i = 1; i <= kRecords; ++i) {
      // Moves through update, stationary repeats through upsert.
      if (n % 2 == 1) {
        EXPECT_TRUE(db.update(sighting(i, static_cast<double>(n), static_cast<double>(i)),
                              1000 + 100 * n));
      } else {
        db.upsert(sighting(i, static_cast<double>(n - 1), static_cast<double>(i)), 10.0,
                  1000 + 100 * n);
      }
    }
  }
  EXPECT_EQ(db.queued_expiries(), kRecords);

  // The entries pop at the first expiry and go back in at the latest one.
  const TimePoint latest = 1000 + 100 * kRefreshes;
  EXPECT_TRUE(db.expire_until(latest - 1).empty());
  EXPECT_EQ(db.queued_expiries(), kRecords);
  EXPECT_EQ(db.expire_until(latest).size(), kRecords);
  EXPECT_EQ(db.queued_expiries(), 0u);
  EXPECT_EQ(db.size(), 0u);
}

TEST(SightingDb, RefreshToAnEarlierExpiryExpiresEarlier) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 5000);
  db.insert(sighting(2, 1, 1), 10, 5000);
  db.update(sighting(1, 0, 0), 2000);
  EXPECT_TRUE(db.expire_until(1999).empty());
  EXPECT_EQ(db.expire_until(2000), (std::vector<ObjectId>{ObjectId{1}}));
  // Object 1's entry at 5000 was superseded and is dropped when it pops.
  EXPECT_EQ(db.expire_until(5000), (std::vector<ObjectId>{ObjectId{2}}));
  EXPECT_EQ(db.queued_expiries(), 0u);

  // Earlier, then later again: the earlier entry pops and goes back in at
  // the latest expiry; the superseded one is dropped without re-queueing.
  db.insert(sighting(3, 2, 2), 10, 9000);
  db.update(sighting(3, 2, 2), 7000);
  db.update(sighting(3, 2, 2), 12000);
  EXPECT_EQ(db.queued_expiries(), 2u);
  EXPECT_TRUE(db.expire_until(9000).empty());
  EXPECT_EQ(db.queued_expiries(), 1u);
  EXPECT_TRUE(db.expire_until(11999).empty());
  EXPECT_EQ(db.expire_until(12000), (std::vector<ObjectId>{ObjectId{3}}));
  EXPECT_EQ(db.queued_expiries(), 0u);
}

TEST(SightingDb, ReinsertedObjectExpiresOnceAtItsOwnTime) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  EXPECT_TRUE(db.remove(ObjectId{1}));
  db.insert(sighting(1, 5, 5), 10, 3000);
  // The removed incarnation's entry stays queued until it pops, then is
  // dropped rather than queued again for the new one.
  EXPECT_EQ(db.queued_expiries(), 2u);
  EXPECT_TRUE(db.expire_until(1000).empty());
  EXPECT_EQ(db.queued_expiries(), 1u);
  EXPECT_NE(db.find(ObjectId{1}), nullptr);
  EXPECT_TRUE(db.expire_until(2999).empty());
  EXPECT_EQ(db.expire_until(3000), (std::vector<ObjectId>{ObjectId{1}}));
  EXPECT_TRUE(db.expire_until(100000).empty());
  EXPECT_EQ(db.queued_expiries(), 0u);
}

TEST(SightingDb, ObjectsInAreaAppliesAccuracyAndOverlap) {
  SightingDb db = make_db();
  // Fig 3 scenario: query area [0,100]^2.
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {100, 100}});
  db.insert(sighting(1, 50, 50), 10.0, 1e9);    // fully inside
  db.insert(sighting(2, 300, 300), 10.0, 1e9);  // fully outside
  db.insert(sighting(3, 0, 50), 10.0, 1e9);     // straddles: overlap 0.5
  db.insert(sighting(4, 50, 50), 200.0, 1e9);   // insufficient accuracy (o5)

  std::vector<core::ObjectResult> out;
  db.objects_in_area(area, 50.0, 0.4, out);
  std::vector<std::uint64_t> ids;
  for (const auto& r : out) ids.push_back(r.oid.value);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 3}));

  out.clear();
  db.objects_in_area(area, 50.0, 0.6, out);  // overlap 0.5 no longer qualifies
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].oid, ObjectId{1});
}

TEST(SightingDb, ObjectsInAreaCandidateMarginCatchesOutsideCenters) {
  SightingDb db = make_db();
  // Center outside the area but the location circle overlaps heavily.
  db.insert(sighting(1, 104, 50), 10.0, 1e9);
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {100, 100}});
  std::vector<core::ObjectResult> out;
  db.objects_in_area(area, 10.0, 0.1, out);
  ASSERT_EQ(out.size(), 1u);
}

TEST(SightingDb, KNearestRespectsAccuracyFilter) {
  SightingDb db = make_db();
  db.insert(sighting(1, 10, 0), 100.0, 1e9);  // nearest but inaccurate
  db.insert(sighting(2, 20, 0), 5.0, 1e9);
  db.insert(sighting(3, 30, 0), 5.0, 1e9);
  const auto nn = db.k_nearest({0, 0}, 1, 50.0);
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].oid, ObjectId{2});
}

// Forwards to a point quadtree and counts inserts and updates.
struct IndexCalls {
  int inserts = 0;
  int updates = 0;
};

class CountingIndex : public spatial::SpatialIndex {
 public:
  explicit CountingIndex(IndexCalls& calls) : calls_(calls) {}
  void insert(ObjectId id, geo::Point pos) override {
    ++calls_.inserts;
    inner_->insert(id, pos);
  }
  bool remove(ObjectId id) override { return inner_->remove(id); }
  void update(ObjectId id, geo::Point pos) override {
    ++calls_.updates;
    inner_->update(id, pos);
  }
  void query_rect(const geo::Rect& rect,
                  std::vector<spatial::Entry>& out) const override {
    inner_->query_rect(rect, out);
  }
  void query_circle(const geo::Circle& circle,
                    std::vector<spatial::Entry>& out) const override {
    inner_->query_circle(circle, out);
  }
  std::vector<spatial::Entry> k_nearest(geo::Point p, std::size_t k) const override {
    return inner_->k_nearest(p, k);
  }
  std::size_t size() const override { return inner_->size(); }
  void clear() override { inner_->clear(); }
  const char* name() const override { return "counting"; }

 private:
  IndexCalls& calls_;
  std::unique_ptr<spatial::SpatialIndex> inner_ = spatial::make_point_quadtree();
};

TEST(SightingDb, StationarySightingSkipsTheIndex) {
  IndexCalls calls;
  SightingDb db([&calls] { return std::make_unique<CountingIndex>(calls); });
  // Object 1 is the quadtree's root, so its node has children; object 40,
  // inserted last, sits on a childless node.
  Rng rng(5);
  for (std::uint64_t i = 1; i <= 40; ++i) {
    db.insert(sighting(i, rng.uniform(0, 1000), rng.uniform(0, 1000)), 10.0, 1000);
  }
  ASSERT_EQ(calls.inserts, 40);
  const geo::Polygon area = geo::Polygon::from_rect(geo::Rect{{0, 0}, {1000, 1000}});
  const auto ids_and_positions = [&] {
    std::vector<core::ObjectResult> out;
    db.objects_in_area(area, 50.0, 0.5, out);
    std::vector<std::pair<std::uint64_t, geo::Point>> got;
    for (const core::ObjectResult& r : out) got.emplace_back(r.oid.value, r.ld.pos);
    return got;
  };
  const auto before = ids_and_positions();
  ASSERT_EQ(before.size(), 40u);

  for (const std::uint64_t oid : {std::uint64_t{1}, std::uint64_t{40}}) {
    const geo::Point stored = db.find(ObjectId{oid})->sighting.pos;
    const core::Sighting upserted{ObjectId{oid}, 2000, stored, 3.0};
    db.upsert(upserted, 25.0, 5000);
    const core::Sighting updated{ObjectId{oid}, 3000, stored, 4.0};
    EXPECT_TRUE(db.update(updated, 9000));
    EXPECT_EQ(calls.updates, 0) << "oid " << oid;

    // The record, its accuracy and its expiry are refreshed all the same.
    const SightingDb::Record* rec = db.find(ObjectId{oid});
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->sighting, updated);
    EXPECT_EQ(rec->offered_acc, 25.0);
    EXPECT_EQ(rec->expiry, 9000);
  }
  EXPECT_EQ(ids_and_positions(), before);

  // Between the old and the new expiry nothing expires; at the new one the
  // two refreshed objects do.
  auto expired = db.expire_until(1000);
  EXPECT_EQ(expired.size(), 38u);
  EXPECT_TRUE(db.expire_until(8999).empty());
  expired = db.expire_until(9000);
  std::sort(expired.begin(), expired.end());
  EXPECT_EQ(expired, (std::vector<ObjectId>{ObjectId{1}, ObjectId{40}}));
  EXPECT_EQ(db.size(), 0u);

  // A moved sighting is one index update.
  db.insert(sighting(7, 100, 100), 10.0, 20000);
  EXPECT_TRUE(db.update(sighting(7, 100, 101), 21000));
  EXPECT_EQ(calls.updates, 1);
  db.upsert(sighting(7, 100, 101), 12.0, 22000);
  EXPECT_EQ(calls.updates, 1);
  db.upsert(sighting(7, 101, 101), 12.0, 23000);
  EXPECT_EQ(calls.updates, 2);
  std::vector<core::ObjectResult> out;
  db.objects_in_area(geo::Polygon::from_rect(geo::Rect{{90, 90}, {110, 110}}), 50.0,
                     0.5, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ld.pos, (geo::Point{101, 101}));
}

TEST(SightingDb, ClearResets) {
  SightingDb db = make_db();
  db.insert(sighting(1, 0, 0), 10, 1000);
  db.clear();
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.find(ObjectId{1}), nullptr);
  db.insert(sighting(1, 0, 0), 10, 1000);  // usable after clear
  EXPECT_EQ(db.size(), 1u);
}

// --------------------------------------------------------------------------

TEST(VisitorDb, InMemoryBasics) {
  VisitorDb db;
  db.set_forward(ObjectId{1}, NodeId{5});
  ASSERT_NE(db.find(ObjectId{1}), std::nullopt);
  EXPECT_EQ(db.find(ObjectId{1})->forward_ref, NodeId{5});
  EXPECT_FALSE(db.find(ObjectId{1})->leaf.has_value());

  db.insert_leaf(ObjectId{2}, 25.0, {NodeId{9}, {10, 100}});
  ASSERT_TRUE(db.find(ObjectId{2})->leaf.has_value());
  EXPECT_EQ(db.find(ObjectId{2})->leaf->offered_acc, 25.0);

  // A leaf record can become a forwarding record (never both).
  db.set_forward(ObjectId{2}, NodeId{7});
  EXPECT_FALSE(db.find(ObjectId{2})->leaf.has_value());

  EXPECT_TRUE(db.remove(ObjectId{1}));
  EXPECT_FALSE(db.remove(ObjectId{1}));
  EXPECT_EQ(db.size(), 1u);
}

TEST_F(VisitorDbTest, PersistsAcrossReopen) {
  {
    auto db = VisitorDb::open(path("vdb"));
    ASSERT_TRUE(db.ok());
    db.value().set_forward(ObjectId{1}, NodeId{5});
    db.value().insert_leaf(ObjectId{2}, 25.0, {NodeId{9}, {10.0, 100.0}});
    db.value().set_offered_acc(ObjectId{2}, 30.0);
    db.value().set_forward(ObjectId{3}, NodeId{6});
    db.value().remove(ObjectId{3});
  }
  auto db = VisitorDb::open(path("vdb"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().size(), 2u);
  ASSERT_NE(db.value().find(ObjectId{1}), std::nullopt);
  EXPECT_EQ(db.value().find(ObjectId{1})->forward_ref, NodeId{5});
  ASSERT_NE(db.value().find(ObjectId{2}), std::nullopt);
  ASSERT_TRUE(db.value().find(ObjectId{2})->leaf.has_value());
  EXPECT_EQ(db.value().find(ObjectId{2})->leaf->offered_acc, 30.0);
  EXPECT_EQ(db.value().find(ObjectId{2})->leaf->reg_info.reg_inst, NodeId{9});
  EXPECT_EQ(db.value().find(ObjectId{3}), std::nullopt);
}

TEST_F(PersistentLogTest, AppendBatchMatchesIndividualAppends) {
  {
    auto log = PersistentLog::open(path("batched"));
    ASSERT_TRUE(log.ok());
    std::vector<wire::Buffer> records;
    for (std::uint8_t i = 0; i < 10; ++i) records.push_back({i, 0xcc});
    ASSERT_TRUE(log.value().append_batch(records).is_ok());
    EXPECT_EQ(log.value().appended(), 10u);
    ASSERT_TRUE(log.value().append_batch({}).is_ok());  // empty batch: no-op
    EXPECT_EQ(log.value().appended(), 10u);
  }
  {
    auto log = PersistentLog::open(path("individual"));
    ASSERT_TRUE(log.ok());
    for (std::uint8_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(log.value().append({i, 0xcc}).is_ok());
    }
  }
  // One frame write per batch, but byte-identical on disk.
  std::ifstream a(path("batched"), std::ios::binary);
  std::ifstream b(path("individual"), std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)), {});
  const std::string bytes_b((std::istreambuf_iterator<char>(b)), {});
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST_F(VisitorDbTest, RemoveBatchPersistsAndSkipsUnknown) {
  {
    auto db = VisitorDb::open(path("vdb"), /*fsync_each=*/true);
    ASSERT_TRUE(db.ok());
    for (std::uint64_t i = 1; i <= 8; ++i) {
      db.value().insert_leaf(ObjectId{i}, 25.0, {NodeId{9}, {10.0, 100.0}});
    }
    const std::vector<ObjectId> to_remove = {ObjectId{2}, ObjectId{4},
                                             ObjectId{99}, ObjectId{6}};
    EXPECT_EQ(db.value().remove_batch(to_remove), 3u);  // 99 was never there
    EXPECT_EQ(db.value().size(), 5u);
    // One batched append of 3 remove records on top of the 8 inserts.
    EXPECT_EQ(db.value().log_appended(), 11u);
  }
  auto db = VisitorDb::open(path("vdb"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().size(), 5u);
  EXPECT_EQ(db.value().find(ObjectId{2}), std::nullopt);
  EXPECT_EQ(db.value().find(ObjectId{4}), std::nullopt);
  EXPECT_EQ(db.value().find(ObjectId{6}), std::nullopt);
  ASSERT_NE(db.value().find(ObjectId{5}), std::nullopt);
}

TEST_F(VisitorDbTest, CompactionPreservesState) {
  {
    auto db = VisitorDb::open(path("vdb"));
    ASSERT_TRUE(db.ok());
    for (std::uint64_t i = 0; i < 100; ++i) {
      db.value().set_forward(ObjectId{i}, NodeId{static_cast<std::uint32_t>(i % 7 + 1)});
    }
    for (std::uint64_t i = 0; i < 90; ++i) db.value().remove(ObjectId{i});
    ASSERT_TRUE(db.value().compact().is_ok());
  }
  const auto size_after = fs::file_size(path("vdb"));
  EXPECT_LT(size_after, 1000u);  // 10 small records, not 190 log entries
  auto db = VisitorDb::open(path("vdb"));
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().size(), 10u);
  EXPECT_EQ(db.value().find(ObjectId{95})->forward_ref, NodeId{95 % 7 + 1});
}

}  // namespace
}  // namespace locs::store

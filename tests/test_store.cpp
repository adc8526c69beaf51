// Data-storage components: persistent log (WAL), sighting DB (main memory),
// visitor DB (persistent forwarding paths). §5 of the paper.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "store/persistent_log.hpp"
#include "store/sighting_db.hpp"
#include "store/visitor_db.hpp"
#include "store/visitor_log.hpp"
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
using VisitorLogGolden = TempDir;

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

TEST(SightingDb, VisitorWithoutSightingIsInNeitherIndexNorHeap) {
  SightingDb db = make_db();
  const core::RegInfo reg{NodeId{9}, {10.0, 100.0}};
  SightingDb::Record& rec = db.set_visitor(ObjectId{1}, 20.0, reg);
  EXPECT_FALSE(rec.has_sighting);
  EXPECT_EQ(rec.sighting.oid, ObjectId{1});
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.index().size(), 0u);
  EXPECT_EQ(db.queued_expiries(), 0u);
  // Queries skip it and expiry never reaches it.
  std::vector<core::ObjectResult> out;
  db.objects_in_area(geo::Polygon::from_rect(geo::Rect{{-1e6, -1e6}, {1e6, 1e6}}),
                     1e9, 1e-9, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(db.k_nearest({0, 0}, 1, 1e9).empty());
  EXPECT_TRUE(db.expire_until(1'000'000'000).empty());
  ASSERT_NE(db.find(ObjectId{1}), nullptr);

  // The first sighting enters the index and queues one expiry; the visitor
  // part is kept.
  db.update(*db.find(ObjectId{1}), sighting(1, 5, 5), 2'000'000'000);
  const SightingDb::Record* got = db.find(ObjectId{1});
  ASSERT_NE(got, nullptr);
  EXPECT_TRUE(got->has_sighting);
  EXPECT_EQ(got->reg_info, reg);
  EXPECT_DOUBLE_EQ(got->offered_acc, 20.0);
  EXPECT_EQ(db.index().size(), 1u);
  EXPECT_EQ(db.queued_expiries(), 1u);
  EXPECT_EQ(db.expire_until(2'000'000'000), (std::vector<ObjectId>{ObjectId{1}}));
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.index().size(), 0u);
}

// --------------------------------------------------------------------------
// The visitor log's bytes. A restarted server replays logs that earlier
// builds wrote, so each record kind's layout is pinned byte for byte, and a
// committed log must keep replaying to the same records.

const core::RegInfo kGoldenReg{NodeId{1048581}, {10.0, 100.0}};
constexpr ObjectId kGoldenLeaf{0x1122334455};
constexpr ObjectId kGoldenFwd{300};

TEST_F(VisitorLogGolden, RecordBytesArePinned) {
  EXPECT_EQ(VisitorLog::set_forward(kGoldenFwd, NodeId{5}),
            (wire::Buffer{0x01, 0xac, 0x02, 0x05}));
  EXPECT_EQ(VisitorLog::insert_leaf(kGoldenLeaf, 25.0, kGoldenReg),
            (wire::Buffer{0x02, 0xd5, 0x88, 0xcd, 0x91, 0x92, 0x02,  // op, oid
                          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x39, 0x40,  // 25.0
                          0x85, 0x80, 0x40,                                // reg_inst
                          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x40,  // 10.0
                          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x59, 0x40}));  // 100.0
  EXPECT_EQ(VisitorLog::set_acc(kGoldenLeaf, 30.0),
            (wire::Buffer{0x03, 0xd5, 0x88, 0xcd, 0x91, 0x92, 0x02,
                          0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3e, 0x40}));
  EXPECT_EQ(VisitorLog::remove(kGoldenFwd), (wire::Buffer{0x04, 0xac, 0x02}));
}

TEST_F(VisitorLogGolden, CommittedLogReplays) {
  // Frames of [len u32][crc32 u32][record]: insert_leaf, set_forward, a
  // record with the unknown op 9, set_acc, remove, set_forward, then a torn
  // frame (a header and 5 of its 34 bytes).
  const std::vector<std::uint8_t> bytes = {
      0x22, 0x00, 0x00, 0x00, 0x27, 0x5e, 0x1f, 0x9d, 0x02, 0xd5, 0x88, 0xcd,
      0x91, 0x92, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x39, 0x40, 0x85,
      0x80, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x24, 0x40, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x59, 0x40, 0x04, 0x00, 0x00, 0x00, 0x70, 0x8a,
      0xc6, 0x0b, 0x01, 0xac, 0x02, 0x05, 0x03, 0x00, 0x00, 0x00, 0x54, 0x70,
      0x2c, 0x1c, 0x09, 0xac, 0x02, 0x0f, 0x00, 0x00, 0x00, 0x23, 0x08, 0x3f,
      0x16, 0x03, 0xd5, 0x88, 0xcd, 0x91, 0x92, 0x02, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x3e, 0x40, 0x03, 0x00, 0x00, 0x00, 0x07, 0xe3, 0xf4, 0x14,
      0x04, 0xac, 0x02, 0x04, 0x00, 0x00, 0x00, 0x70, 0x8a, 0xc6, 0x0b, 0x01,
      0xac, 0x02, 0x05, 0x22, 0x00, 0x00, 0x00, 0x27, 0x5e, 0x1f, 0x9d, 0x02,
      0xd5, 0x88, 0xcd, 0x91,
  };
  {
    std::ofstream out(path("golden"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  auto log = VisitorLog::open(path("golden"));
  ASSERT_TRUE(log.ok());
  std::vector<VisitorLog::Record> got;
  log.value().replay([&](const VisitorLog::Record& rec) { got.push_back(rec); });

  using Op = VisitorLog::Op;
  const std::vector<VisitorLog::Record> want = {
      {Op::kInsertLeaf, kGoldenLeaf, kNoNode, 25.0, kGoldenReg},
      {Op::kSetForward, kGoldenFwd, NodeId{5}, 0.0, {}},
      {Op::kSetAcc, kGoldenLeaf, kNoNode, 30.0, {}},
      {Op::kRemove, kGoldenFwd, kNoNode, 0.0, {}},
      {Op::kSetForward, kGoldenFwd, NodeId{5}, 0.0, {}},
  };
  EXPECT_EQ(got, want);
}

// --------------------------------------------------------------------------

TEST(VisitorDb, InMemoryBasics) {
  VisitorDb db;
  db.set_forward(ObjectId{1}, NodeId{5});
  EXPECT_EQ(db.find(ObjectId{1}), NodeId{5});
  db.set_forward(ObjectId{1}, NodeId{7});  // path repair repoints
  EXPECT_EQ(db.find(ObjectId{1}), NodeId{7});
  db.set_forward(ObjectId{2}, NodeId{5});
  EXPECT_TRUE(db.remove(ObjectId{1}));
  EXPECT_FALSE(db.remove(ObjectId{1}));
  EXPECT_EQ(db.find(ObjectId{1}), std::nullopt);
  EXPECT_EQ(db.size(), 1u);
}

VisitorLog open_log(const std::string& path, bool fsync_each = false) {
  auto log = VisitorLog::open(path, fsync_each);
  EXPECT_TRUE(log.ok());
  return std::move(log).value();
}

TEST_F(VisitorDbTest, PersistsAcrossReopen) {
  {
    VisitorDb db(open_log(path("vdb")));
    db.set_forward(ObjectId{1}, NodeId{5});
    db.set_forward(ObjectId{3}, NodeId{6});
    db.remove(ObjectId{3});
    db.set_forward(ObjectId{1}, NodeId{4});
    EXPECT_EQ(db.log_appended(), 4u);
  }
  VisitorDb db(open_log(path("vdb")));
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.find(ObjectId{1}), NodeId{4});
  EXPECT_EQ(db.find(ObjectId{3}), std::nullopt);
  EXPECT_EQ(db.log_appended(), 0u);  // replay appends nothing
}

TEST_F(VisitorDbTest, LeafTablePersistsTheVisitorPart) {
  const core::RegInfo reg{NodeId{9}, {10.0, 100.0}};
  {
    SightingDb db([] { return spatial::make_point_quadtree(); },
                  open_log(path("leaf")));
    db.upsert(sighting(1, 10, 10), 25.0, 5000, reg);
    db.upsert(sighting(2, 20, 20), 25.0, 5000, reg);
    db.set_visitor(*db.find(ObjectId{2}), 30.0, {NodeId{8}, {30.0, 60.0}});
    db.update(sighting(2, 21, 21), 6000);  // sightings are not persisted
    db.upsert(sighting(3, 30, 30), 25.0, 5000, reg);
    EXPECT_TRUE(db.remove(ObjectId{3}));
    EXPECT_EQ(db.log_appended(), 5u);
  }
  SightingDb db([] { return spatial::make_point_quadtree(); }, open_log(path("leaf")));
  EXPECT_EQ(db.size(), 2u);
  EXPECT_EQ(db.index().size(), 0u);
  EXPECT_EQ(db.queued_expiries(), 0u);
  const SightingDb::Record* one = db.find(ObjectId{1});
  ASSERT_NE(one, nullptr);
  EXPECT_FALSE(one->has_sighting);
  EXPECT_DOUBLE_EQ(one->offered_acc, 25.0);
  EXPECT_EQ(one->reg_info, reg);
  const SightingDb::Record* two = db.find(ObjectId{2});
  ASSERT_NE(two, nullptr);
  EXPECT_DOUBLE_EQ(two->offered_acc, 30.0);
  EXPECT_EQ(two->reg_info, (core::RegInfo{NodeId{8}, {30.0, 60.0}}));
  EXPECT_EQ(db.find(ObjectId{3}), nullptr);
}

TEST_F(VisitorDbTest, EachTableReplaysOnlyItsOwnRecords) {
  // A leaf keeps no forwarding references and a non-leaf server no leaf
  // records, so each replays only its own kinds from a log holding both.
  {
    auto log = open_log(path("mixed"));
    log.append(VisitorLog::insert_leaf(ObjectId{1}, 25.0, {NodeId{9}, {10.0, 100.0}}));
    log.append(VisitorLog::set_forward(ObjectId{1}, NodeId{5}));
    log.append(VisitorLog::set_forward(ObjectId{2}, NodeId{6}));
  }
  const VisitorDb fwd(open_log(path("mixed")));
  EXPECT_EQ(fwd.size(), 2u);
  EXPECT_EQ(fwd.find(ObjectId{1}), NodeId{5});
  const SightingDb leaf([] { return spatial::make_point_quadtree(); },
                        open_log(path("mixed")));
  EXPECT_EQ(leaf.size(), 1u);
  ASSERT_NE(leaf.find(ObjectId{1}), nullptr);
  EXPECT_DOUBLE_EQ(leaf.find(ObjectId{1})->offered_acc, 25.0);
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

TEST_F(VisitorDbTest, ExpiryPersistsItsRemovalsInOneBatch) {
  {
    SightingDb db([] { return spatial::make_point_quadtree(); },
                  open_log(path("leaf"), /*fsync_each=*/true));
    for (std::uint64_t i = 1; i <= 8; ++i) {
      db.upsert(sighting(i, static_cast<double>(i), 0), 25.0,
                i % 2 == 0 ? 1000 : 9000, {NodeId{9}, {10.0, 100.0}});
    }
    EXPECT_EQ(db.expire_until(5000).size(), 4u);
    EXPECT_EQ(db.size(), 4u);
    // One batched append of 4 remove records on top of the 8 inserts.
    EXPECT_EQ(db.log_appended(), 12u);
  }
  SightingDb db([] { return spatial::make_point_quadtree(); }, open_log(path("leaf")));
  EXPECT_EQ(db.size(), 4u);
  for (std::uint64_t i = 1; i <= 8; ++i) {
    EXPECT_EQ(db.find(ObjectId{i}) != nullptr, i % 2 == 1) << i;
  }
}

TEST_F(VisitorDbTest, CompactionPreservesState) {
  {
    VisitorDb db(open_log(path("vdb")));
    for (std::uint64_t i = 0; i < 100; ++i) {
      db.set_forward(ObjectId{i}, NodeId{static_cast<std::uint32_t>(i % 7 + 1)});
    }
    for (std::uint64_t i = 0; i < 90; ++i) db.remove(ObjectId{i});
    ASSERT_TRUE(db.compact().is_ok());
  }
  const auto size_after = fs::file_size(path("vdb"));
  EXPECT_LT(size_after, 1000u);  // 10 small records, not 190 log entries
  VisitorDb db(open_log(path("vdb")));
  EXPECT_EQ(db.size(), 10u);
  EXPECT_EQ(db.find(ObjectId{95}), NodeId{95 % 7 + 1});
}

TEST_F(VisitorDbTest, LeafCompactionKeepsOneRecordPerVisitor) {
  const core::RegInfo reg{NodeId{9}, {10.0, 100.0}};
  {
    SightingDb db([] { return spatial::make_point_quadtree(); },
                  open_log(path("leaf")));
    for (std::uint64_t i = 1; i <= 100; ++i) {
      db.upsert(sighting(i, static_cast<double>(i), 0), 25.0, 5000, reg);
    }
    for (std::uint64_t i = 1; i <= 90; ++i) db.remove(ObjectId{i});
    db.set_visitor(*db.find(ObjectId{95}), 40.0, reg);
    EXPECT_EQ(db.log_appended(), 191u);
    ASSERT_TRUE(db.compact(500).is_ok());  // below the threshold
    EXPECT_EQ(db.log_appended(), 191u);
    ASSERT_TRUE(db.compact(100).is_ok());
    EXPECT_EQ(db.log_appended(), 0u);
  }
  SightingDb db([] { return spatial::make_point_quadtree(); }, open_log(path("leaf")));
  EXPECT_EQ(db.size(), 10u);
  ASSERT_NE(db.find(ObjectId{95}), nullptr);
  EXPECT_DOUBLE_EQ(db.find(ObjectId{95})->offered_acc, 40.0);
  EXPECT_EQ(db.find(ObjectId{95})->reg_info, reg);
}

}  // namespace
}  // namespace locs::store

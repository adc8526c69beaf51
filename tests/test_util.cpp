#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/clock.hpp"
#include "util/crc32.hpp"
#include "util/ids.hpp"
#include "util/oid_set.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace locs {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5.0, 5.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalRoughMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const char data[] = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, ChunkedEqualsWhole) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(s.data(), s.size());
  const std::uint32_t first = crc32(s.data(), 10);
  // Chunked continuation uses the previous CRC as seed.
  const std::uint32_t chunked = crc32(s.data() + 10, s.size() - 10, first);
  EXPECT_EQ(whole, chunked);
}

TEST(Crc32, DetectsBitFlip) {
  std::string s = "hello world";
  const std::uint32_t before = crc32(s.data(), s.size());
  s[3] ^= 0x01;
  EXPECT_NE(before, crc32(s.data(), s.size()));
}

TEST(Result, ValueAndStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);

  Result<int> err(StatusCode::kNotFound, "nope");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(Result, StatusToString) {
  const Status s(StatusCode::kIoError, "disk on fire");
  EXPECT_EQ(s.to_string(), "IO_ERROR: disk on fire");
  EXPECT_EQ(Status::ok().to_string(), "OK");
}

TEST(Ids, NodeValidity) {
  EXPECT_FALSE(kNoNode.valid());
  EXPECT_TRUE(NodeId{3}.valid());
  EXPECT_EQ(NodeId{3}, NodeId{3});
  EXPECT_NE(NodeId{3}, NodeId{4});
}

TEST(Ids, ObjectIdHashSpreads) {
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    hashes.insert(std::hash<ObjectId>{}(ObjectId{i}));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(Clock, ManualClockAdvances) {
  ManualClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(milliseconds(5));
  EXPECT_EQ(clock.now(), 100 + 5000);
  clock.set(0);
  EXPECT_EQ(clock.now(), 0);
}

TEST(Clock, DurationConversions) {
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(milliseconds(3), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(7)), 7.0);
}

TEST(OidSet, InsertContainsAndReuseAfterClear) {
  util::OidSet set;
  EXPECT_FALSE(set.contains(ObjectId{0}));
  for (std::uint64_t i = 0; i < 1000; ++i) EXPECT_TRUE(set.insert(ObjectId{i * 7}));
  EXPECT_FALSE(set.insert(ObjectId{0}));  // key 0 lives out of band
  EXPECT_FALSE(set.insert(ObjectId{7}));
  EXPECT_EQ(set.size(), 1000u);
  for (std::uint64_t i = 0; i < 7000; ++i) {
    EXPECT_EQ(set.contains(ObjectId{i}), i % 7 == 0) << i;
  }
  const std::size_t capacity = set.capacity();
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.capacity(), capacity);  // clear() keeps the slot array
  EXPECT_FALSE(set.contains(ObjectId{0}));
  EXPECT_FALSE(set.contains(ObjectId{7}));
  EXPECT_TRUE(set.insert(ObjectId{0}));
  EXPECT_TRUE(set.insert(ObjectId{14}));
  EXPECT_TRUE(set.contains(ObjectId{0}));
  EXPECT_FALSE(set.contains(ObjectId{21}));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.capacity(), capacity);
}

// The slot function of util::OidMap (oid_set.hpp): the home slot of key `v`
// in a table of `capacity` slots.
std::size_t home_slot(std::uint64_t v, std::size_t capacity) {
  std::uint64_t x = v + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::size_t>(x) & (capacity - 1);
}

// OidMap against std::unordered_map under a seeded mix of try_emplace, find,
// erase (by key, or through a pointer from find) and clear, in two key
// ranges. Both include key 0, which lives out of
// band.
//  * 60 keys, at most 44 live, so the table keeps its first 64 slots (it
//    grows at the 45th) at up to 69% load. Half the keys have their home in
//    the last four slots, so probe runs are long and wrap past the end of the
//    slot array, where the backward-shift erase must move entries across the
//    wrap. The test checks that runs did wrap.
//  * 5,000 keys, unbounded: growth.
TEST(OidMap, MatchesUnorderedMapUnderChurn) {
  std::vector<std::uint64_t> dense;
  for (std::uint64_t k = 0; k < 30; ++k) dense.push_back(k);
  for (std::uint64_t k = 1000; dense.size() < 60; ++k) {
    if (home_slot(k, 64) >= 60) dense.push_back(k);
  }
  const std::set<std::uint64_t> homed_at_end(dense.begin() + 30, dense.end());
  std::vector<std::uint64_t> wide;
  for (std::uint64_t k = 0; k < 5'000; ++k) wide.push_back(k);

  struct Range {
    const std::vector<std::uint64_t>* keys;
    std::size_t max_live;
    bool wraps;  // 64 slots throughout, with runs that wrap
  };
  for (const Range range : {Range{&dense, 44, true}, Range{&wide, 5'000, false}}) {
    const std::vector<std::uint64_t>& keys = *range.keys;
    SCOPED_TRACE(std::to_string(keys.size()) + " keys");
    Rng rng(0x0d1d + keys.size());
    util::OidMap<std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    int wrapped_checks = 0;
    const auto check_all = [&] {
      ASSERT_EQ(map.size(), oracle.size());
      EXPECT_EQ(map.empty(), oracle.empty());
      std::set<std::uint64_t> seen;
      bool wrapped = false;
      map.for_each([&](ObjectId id, const std::uint64_t& value) {
        // Slots 60..63 hold at most the last four entries visited; a key
        // homed there but visited earlier sits past the wrap.
        if (range.wraps && homed_at_end.count(id.value) > 0 &&
            seen.size() + 4 < oracle.size()) {
          wrapped = true;
        }
        EXPECT_TRUE(seen.insert(id.value).second) << "key " << id.value << " twice";
        const auto it = oracle.find(id.value);
        ASSERT_NE(it, oracle.end()) << "key " << id.value;
        EXPECT_EQ(value, it->second) << "key " << id.value;
      });
      EXPECT_EQ(seen.size(), oracle.size());
      wrapped_checks += wrapped ? 1 : 0;
    };
    for (int op = 0; op < 100'000; ++op) {
      const ObjectId id{keys[rng.next_below(keys.size())]};
      const double roll = rng.next_double();
      const bool may_add = oracle.size() < range.max_live || oracle.count(id.value) > 0;
      if (roll < 0.45 && may_add) {
        const auto [value, added] = map.try_emplace(id);
        const auto [it, oracle_added] = oracle.try_emplace(id.value, 0);
        ASSERT_EQ(added, oracle_added) << "op " << op << " key " << id.value;
        ASSERT_EQ(*value, it->second) << "op " << op;  // new entries read 0
        *value = it->second = rng.next_u64();
      } else if (roll < 0.7) {
        const std::uint64_t* value =
            op % 2 == 0 ? map.find(id) : std::as_const(map).find(id);
        const auto it = oracle.find(id.value);
        ASSERT_EQ(value != nullptr, it != oracle.end()) << "op " << op << " key " << id.value;
        if (value != nullptr) {
          ASSERT_EQ(*value, it->second) << "op " << op;
        }
      } else if (roll < 0.9999) {
        if (op % 2 == 0) {
          ASSERT_EQ(map.erase(id), oracle.erase(id.value) == 1)
              << "op " << op << " key " << id.value;
        } else if (const std::uint64_t* value = map.find(id)) {
          // Erase through the pointer a lookup returned, no second probe.
          map.erase(value);
          ASSERT_EQ(oracle.erase(id.value), 1u) << "op " << op << " key " << id.value;
        }
      } else {
        map.clear();
        oracle.clear();
      }
      if (op % 1000 == 999) {
        check_all();
        if (HasFatalFailure()) return;
      }
    }
    check_all();
    if (range.wraps) {
      EXPECT_GT(wrapped_checks, 50);
    }
  }
}

}  // namespace
}  // namespace locs

#include <gtest/gtest.h>

#include <set>

#include "util/clock.hpp"
#include "util/crc32.hpp"
#include "util/ids.hpp"
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

}  // namespace
}  // namespace locs

// Tests for src/common: status, hashing, RNG/Zipf, thread pool, stats.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/timer.h"

namespace idf {
namespace {

// ---- Status / Result ------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "key 42");
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  IDF_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(10, &out).ok());
  EXPECT_EQ(out, 5);
  Status s = UseHalf(7, &out);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// ---- Hashing ----------------------------------------------------------------

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  EXPECT_NE(Mix64(1), Mix64(2));
  // Consecutive inputs should differ in roughly half the bits.
  int total_flips = 0;
  for (uint64_t i = 0; i < 256; ++i) {
    total_flips += std::popcount(Mix64(i) ^ Mix64(i + 1));
  }
  const double avg = total_flips / 256.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(HashTest, HashBytesMatchesByLengthClass) {
  // Exercise every tail path: <4, 4..7, 8..31, >=32 bytes.
  std::string data(100, 'x');
  for (size_t len : {0u, 1u, 3u, 4u, 7u, 8u, 15u, 31u, 32u, 33u, 64u, 100u}) {
    const uint64_t h1 = HashBytes(data.data(), len);
    const uint64_t h2 = HashBytes(data.data(), len);
    EXPECT_EQ(h1, h2) << len;
    if (len > 0) {
      std::string other = data.substr(0, len);
      other[len - 1] = 'y';
      EXPECT_NE(HashBytes(other.data(), len), h1) << len;
    }
  }
}

TEST(HashTest, SeedChangesHash) {
  EXPECT_NE(HashString("abc", 0), HashString("abc", 1));
}

TEST(HashTest, DoubleNegativeZeroEqualsPositiveZero) {
  EXPECT_EQ(HashDouble(0.0), HashDouble(-0.0));
}

TEST(HashTest, LowCollisionRateOnSmallStrings) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 20000; ++i) {
    seen.insert(HashString("key_" + std::to_string(i)));
  }
  EXPECT_EQ(seen.size(), 20000u);  // 64-bit: collisions vanishingly unlikely
}

// ---- RNG ------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Below(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextStringHasRequestedLengthAndAlphabet) {
  Rng rng(3);
  std::string s = rng.NextString(16);
  EXPECT_EQ(s.size(), 16u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

// ---- Zipf -------------------------------------------------------------------

TEST(ZipfTest, SamplesWithinDomain) {
  Rng rng(17);
  ZipfSampler zipf(1000, 1.1);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(rng), 1000u);
}

TEST(ZipfTest, SingleElementDomain) {
  Rng rng(17);
  ZipfSampler zipf(1, 1.0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0u);
}

TEST(ZipfTest, RankZeroDominates) {
  Rng rng(23);
  ZipfSampler zipf(10000, 1.2);
  int rank0 = 0, rank_tail = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t r = zipf.Sample(rng);
    if (r == 0) ++rank0;
    if (r >= 5000) ++rank_tail;
  }
  // For s=1.2, P(rank 0) ~ 1/zeta ~ 17%+; the upper half carries a few %.
  EXPECT_GT(rank0, kDraws / 10);
  EXPECT_LT(rank_tail, kDraws / 10);
}

TEST(ZipfTest, ExponentOneSupported) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 100u);
}

TEST(ZipfTest, FrequenciesAreMonotoneOverLeadingRanks) {
  Rng rng(31);
  ZipfSampler zipf(1000, 1.0);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 200000; ++i) ++counts[zipf.Sample(rng)];
  // Smooth check: rank 0 > rank 3 > rank 30 > rank 300 (allowing noise).
  EXPECT_GT(counts[0], counts[3]);
  EXPECT_GT(counts[3], counts[30]);
  EXPECT_GT(counts[30], counts[300]);
}

// ---- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.Submit([] { return 7 * 6; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ManyConcurrentIncrements) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 1000; ++i) {
    done.push_back(pool.Submit([&counter] { counter++; }));
  }
  for (std::future<void>& f : done) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

// ---- Stats ------------------------------------------------------------------

TEST(StatsTest, SampleQuantiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.25), 25.75, 1e-9);
  EXPECT_NEAR(s.Quantile(0.75), 75.25, 1e-9);
  EXPECT_DOUBLE_EQ(s.Mean(), 50.5);
}

TEST(StatsTest, SampleSingleElement) {
  Sample s;
  s.Add(3.5);
  EXPECT_DOUBLE_EQ(s.Median(), 3.5);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 3.5);
}

TEST(TimerTest, StopwatchAdvances) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.ElapsedNanos(), 0u);
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
}

}  // namespace
}  // namespace idf

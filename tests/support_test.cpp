//===- tests/support_test.cpp - support module tests ----------------------===//

#include "support/AlignedBuffer.h"
#include "support/Parse.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

using namespace primsel;

TEST(AlignedBuffer, AllocatesAligned) {
  AlignedBuffer B(100);
  EXPECT_EQ(B.size(), 100u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(B.data()) % 64, 0u);
}

TEST(AlignedBuffer, FillAndIndex) {
  AlignedBuffer B(10);
  B.fill(3.5f);
  for (size_t I = 0; I < B.size(); ++I)
    EXPECT_EQ(B[I], 3.5f);
  B[4] = -1.0f;
  EXPECT_EQ(B[4], -1.0f);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer A(8);
  A.fill(1.0f);
  float *Ptr = A.data();
  AlignedBuffer B(std::move(A));
  EXPECT_EQ(B.data(), Ptr);
  EXPECT_EQ(A.data(), nullptr);
  EXPECT_EQ(A.size(), 0u);
}

TEST(AlignedBuffer, ResetReallocates) {
  AlignedBuffer B(4);
  B.reset(16);
  EXPECT_EQ(B.size(), 16u);
  B.fill(0.0f);
  EXPECT_EQ(B[15], 0.0f);
}

TEST(AlignedBuffer, EmptyIsSafe) {
  AlignedBuffer B;
  EXPECT_TRUE(B.empty());
  AlignedBuffer C(std::move(B));
  EXPECT_TRUE(C.empty());
}

TEST(Rng, Deterministic) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 10; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(Rng, FloatRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    float V = R.nextFloat();
    EXPECT_GE(V, 0.0f);
    EXPECT_LT(V, 1.0f);
  }
}

TEST(Rng, FillRandomIsSeedStable) {
  std::vector<float> A(64), B(64);
  fillRandom(A.data(), A.size(), 11);
  fillRandom(B.data(), B.size(), 11);
  EXPECT_EQ(A, B);
}

TEST(Stats, MinMaxMean) {
  SampleStats S;
  S.add(3.0);
  S.add(1.0);
  S.add(2.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 3.0);
  EXPECT_DOUBLE_EQ(S.mean(), 2.0);
}

TEST(Stats, MedianOddEven) {
  SampleStats S;
  S.add(5.0);
  S.add(1.0);
  S.add(3.0);
  EXPECT_DOUBLE_EQ(S.median(), 3.0);
  S.add(7.0);
  EXPECT_DOUBLE_EQ(S.median(), 4.0);
}

TEST(Stats, StddevOfConstantIsZero) {
  SampleStats S;
  S.add(2.0);
  S.add(2.0);
  EXPECT_DOUBLE_EQ(S.stddev(), 0.0);
}

TEST(Stats, PercentileSingleSampleIsEveryPercentile) {
  // n = 1: index round(P * 0) = 0 for every P, including the extremes.
  std::vector<double> One{7.5};
  EXPECT_DOUBLE_EQ(percentileOfSorted(One, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentileOfSorted(One, 0.50), 7.5);
  EXPECT_DOUBLE_EQ(percentileOfSorted(One, 0.99), 7.5);
  EXPECT_DOUBLE_EQ(percentileOfSorted(One, 1.0), 7.5);
}

TEST(Stats, PercentileEmptyIsZero) {
  std::vector<double> None;
  EXPECT_DOUBLE_EQ(percentileOfSorted(None, 0.5), 0.0);
  LatencySummary S = summarizeLatencies(None);
  EXPECT_EQ(S.Count, 0u);
  EXPECT_DOUBLE_EQ(S.P99, 0.0);
}

TEST(Stats, PercentileExactIndices) {
  // 11 samples 0..10: P * (N-1) lands on integers, so p50 is exactly the
  // middle sample and p0/p100 the extremes -- no interpolation involved.
  std::vector<double> V{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 1.0), 10.0);
}

TEST(Stats, PercentileNearestRankRounding) {
  // 5 samples: p95 -> index round(0.95 * 4) = round(3.8) = 4 (the max);
  // p50 -> round(2.0) = 2; p60 -> round(2.4) = 2 (rounds down).
  std::vector<double> V{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.95), 50.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.50), 30.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.60), 30.0);
}

TEST(Stats, PercentileTiesCollapse) {
  // Ties: every rank between the duplicates reads the same value, so the
  // percentile is stable however the sort ordered them.
  std::vector<double> V{1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 9.0};
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.50), 2.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 0.75), 2.0);
}

TEST(Stats, PercentileClampsOutOfRangeP) {
  std::vector<double> V{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(percentileOfSorted(V, 1.5), 3.0);
}

TEST(Stats, SummarizeLatenciesSortsAndSummarizes) {
  std::vector<double> V{4.0, 1.0, 3.0, 2.0};
  LatencySummary S = summarizeLatencies(V);
  EXPECT_EQ(S.Count, 4u);
  EXPECT_DOUBLE_EQ(S.Mean, 2.5);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 4.0);
  // p50 -> round(0.5 * 3) = 2 -> the third-smallest sample.
  EXPECT_DOUBLE_EQ(S.P50, 3.0);
  EXPECT_DOUBLE_EQ(S.P99, 4.0);
  EXPECT_TRUE(std::is_sorted(V.begin(), V.end()));
}

TEST(Stats, SummaryTailsMatchHandComputedNearestRank) {
  // 20 samples 1..20 in scrambled order: every tail index is computed by
  // hand against the nearest-rank rule index = trunc(P * (N-1) + 0.5),
  // pinning the exact values the serve path reports.
  //   p50: trunc(0.50 * 19 + 0.5) = trunc(10.00) = 10 -> sample 11
  //   p95: trunc(0.95 * 19 + 0.5) = trunc(18.55) = 18 -> sample 19
  //   p99: trunc(0.99 * 19 + 0.5) = trunc(19.31) = 19 -> sample 20
  std::vector<double> V;
  for (int I = 20; I >= 1; --I)
    V.push_back(static_cast<double>(I));
  LatencySummary S = summarizeLatencies(V);
  EXPECT_EQ(S.Count, 20u);
  EXPECT_DOUBLE_EQ(S.Mean, 10.5);
  EXPECT_DOUBLE_EQ(S.Min, 1.0);
  EXPECT_DOUBLE_EQ(S.Max, 20.0);
  EXPECT_DOUBLE_EQ(S.P50, 11.0);
  EXPECT_DOUBLE_EQ(S.P95, 19.0);
  EXPECT_DOUBLE_EQ(S.P99, 20.0);
  // The summary must agree with percentileOfSorted on the same data --
  // one rounding rule, not two.
  EXPECT_DOUBLE_EQ(S.P50, percentileOfSorted(V, 0.50));
  EXPECT_DOUBLE_EQ(S.P95, percentileOfSorted(V, 0.95));
  EXPECT_DOUBLE_EQ(S.P99, percentileOfSorted(V, 0.99));
}

TEST(Stats, SummaryP999MatchesHandComputedNearestRank) {
  // 1000 samples 1..1000 in scrambled order. By hand, with
  // index = trunc(P * (N-1) + 0.5) and N-1 = 999:
  //   p99:   trunc(0.99  * 999 + 0.5) = trunc(989.51) = 989 -> sample 990
  //   p99.9: trunc(0.999 * 999 + 0.5) = trunc(998.501) = 998 -> sample 999
  // so p99.9 is strictly between p99 and the max -- the saturation tail
  // the serve report needs, not just an alias for worst-case.
  std::vector<double> V;
  for (int I = 1000; I >= 1; --I)
    V.push_back(static_cast<double>(I));
  LatencySummary S = summarizeLatencies(V);
  EXPECT_EQ(S.Count, 1000u);
  EXPECT_DOUBLE_EQ(S.P99, 990.0);
  EXPECT_DOUBLE_EQ(S.P999, 999.0);
  EXPECT_DOUBLE_EQ(S.Max, 1000.0);
  EXPECT_DOUBLE_EQ(S.P999, percentileOfSorted(V, 0.999));
  // Small sample sets degrade gracefully: p99.9 of 4 samples is the max.
  std::vector<double> Small{4.0, 1.0, 3.0, 2.0};
  LatencySummary T = summarizeLatencies(Small);
  EXPECT_DOUBLE_EQ(T.P999, 4.0);
  // Empty stays all-zero.
  std::vector<double> None;
  EXPECT_DOUBLE_EQ(summarizeLatencies(None).P999, 0.0);
}

TEST(Parse, CountAcceptsPlainDecimalsInRange) {
  unsigned Out = 0;
  EXPECT_TRUE(parseCount("1", Out, 10));
  EXPECT_EQ(Out, 1u);
  EXPECT_TRUE(parseCount("10", Out, 10));
  EXPECT_EQ(Out, 10u);
  EXPECT_TRUE(parseCount("007", Out, 10));
  EXPECT_EQ(Out, 7u);
}

TEST(Parse, CountRefusesGarbageAndLeavesOutAlone) {
  for (const char *Bad : {"", "10abc", "1e3", "0x1", "1e999", "2x", "-3",
                          "+3", " 3", "3.0", "0", "11",
                          "99999999999999999999999"}) {
    unsigned Out = 5;
    EXPECT_FALSE(parseCount(Bad, Out, 10)) << "'" << Bad << "'";
    EXPECT_EQ(Out, 5u) << "'" << Bad << "'";
  }
}

TEST(Parse, DoubleAcceptsDecimalNotation) {
  double Out = 0.0;
  EXPECT_TRUE(parseDouble("0.25", Out));
  EXPECT_DOUBLE_EQ(Out, 0.25);
  EXPECT_TRUE(parseDouble("1e3", Out));
  EXPECT_DOUBLE_EQ(Out, 1000.0);
  EXPECT_TRUE(parseDouble("-2.5E-1", Out));
  EXPECT_DOUBLE_EQ(Out, -0.25);
  EXPECT_TRUE(parseDouble("0", Out));
  EXPECT_DOUBLE_EQ(Out, 0.0);
}

TEST(Parse, DoubleRefusesGarbageAndLeavesOutAlone) {
  for (const char *Bad : {"", "abc", "10abc", "0x1", "1e999", "-1e999",
                          "inf", "nan", " 1", "1 ", "5ms", "2q", ".", "e",
                          "1e"}) {
    double Out = 7.0;
    EXPECT_FALSE(parseDouble(Bad, Out)) << "'" << Bad << "'";
    EXPECT_DOUBLE_EQ(Out, 7.0) << "'" << Bad << "'";
  }
}

TEST(Timer, MeasuresNonNegative) {
  Timer T;
  volatile double Sink = 0;
  for (int I = 0; I < 1000; ++I)
    Sink = Sink + I;
  EXPECT_GE(T.seconds(), 0.0);
  EXPECT_GE(T.millis(), 0.0);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  std::vector<int> Hits(10, 0);
  Pool.parallelFor(0, 10, [&](int64_t I) { Hits[static_cast<size_t>(I)]++; });
  for (int H : Hits)
    EXPECT_EQ(H, 1);
}

TEST(ThreadPool, CoversEveryIndexOnce) {
  ThreadPool Pool(4);
  constexpr int64_t N = 1000;
  std::vector<std::atomic<int>> Hits(N);
  Pool.parallelFor(0, N, [&](int64_t I) { Hits[static_cast<size_t>(I)]++; });
  for (int64_t I = 0; I < N; ++I)
    EXPECT_EQ(Hits[static_cast<size_t>(I)].load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool Pool(4);
  bool Ran = false;
  Pool.parallelFor(5, 5, [&](int64_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool Pool(3);
  for (int Round = 0; Round < 20; ++Round) {
    std::atomic<int64_t> Sum{0};
    Pool.parallelFor(0, 100, [&](int64_t I) { Sum += I; });
    EXPECT_EQ(Sum.load(), 4950);
  }
}

TEST(ThreadPool, LargeChunkyWork) {
  ThreadPool Pool(2);
  std::atomic<int64_t> Sum{0};
  Pool.parallelFor(0, 7, [&](int64_t I) {
    int64_t Local = 0;
    for (int64_t J = 0; J < 10000; ++J)
      Local += (I + 1);
    Sum += Local;
  });
  EXPECT_EQ(Sum.load(), 10000 * (1 + 2 + 3 + 4 + 5 + 6 + 7));
}

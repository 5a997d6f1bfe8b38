//===- tests/cost_test.cpp - cost model, profiler, database ---------------===//

#include "cost/AnalyticModel.h"
#include "cost/CostDatabase.h"
#include "cost/MachineProfile.h"
#include "cost/Profiler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

using namespace primsel;

namespace {

const PrimitiveLibrary &lib() {
  static PrimitiveLibrary L = buildFullLibrary();
  return L;
}

TEST(MachineProfile, PresetsAreSane) {
  MachineProfile Intel = MachineProfile::haswell();
  MachineProfile Arm = MachineProfile::cortexA57();
  EXPECT_EQ(Intel.VectorWidth, 8u);
  EXPECT_EQ(Arm.VectorWidth, 4u);
  EXPECT_GT(Intel.PeakGFlopsPerCore, Arm.PeakGFlopsPerCore);
  EXPECT_GT(Intel.LastLevelCacheBytes, Arm.LastLevelCacheBytes);
  EXPECT_EQ(Intel.Cores, 4u);
  EXPECT_EQ(Arm.Cores, 4u);
}

TEST(AnalyticModel, CostsArePositiveAndFinite) {
  MachineProfile P = MachineProfile::haswell();
  ConvScenario S{64, 28, 28, 1, 3, 64, 1};
  for (PrimitiveId Id = 0; Id < lib().size(); ++Id) {
    if (!lib().get(Id).supports(S))
      continue;
    double C = analyticConvCost(lib().get(Id), S, P, 1);
    EXPECT_GT(C, 0.0) << lib().get(Id).name();
    EXPECT_TRUE(std::isfinite(C)) << lib().get(Id).name();
  }
}

TEST(AnalyticModel, Deterministic) {
  MachineProfile P = MachineProfile::haswell();
  ConvScenario S{32, 14, 14, 1, 3, 32, 1};
  PrimitiveId Id = lib().sum2dBaseline();
  EXPECT_DOUBLE_EQ(analyticConvCost(lib().get(Id), S, P, 1),
                   analyticConvCost(lib().get(Id), S, P, 1));
}

TEST(AnalyticModel, CostGrowsWithWork) {
  MachineProfile P = MachineProfile::haswell();
  PrimitiveId Id = lib().sum2dBaseline();
  ConvScenario Small{16, 14, 14, 1, 3, 16, 1};
  ConvScenario BigC = Small;
  BigC.C = 64;
  ConvScenario BigHW = Small;
  BigHW.H = BigHW.W = 56;
  ConvScenario BigM = Small;
  BigM.M = 64;
  double Base = analyticConvCost(lib().get(Id), Small, P, 1);
  EXPECT_GT(analyticConvCost(lib().get(Id), BigC, P, 1), Base);
  EXPECT_GT(analyticConvCost(lib().get(Id), BigHW, P, 1), Base);
  EXPECT_GT(analyticConvCost(lib().get(Id), BigM, P, 1), Base);
}

TEST(AnalyticModel, StrideReducesCost) {
  MachineProfile P = MachineProfile::haswell();
  PrimitiveId Id = *lib().findByName("direct-mckk-chw-chw");
  ConvScenario Dense{32, 56, 56, 1, 3, 32, 1};
  ConvScenario Strided = Dense;
  Strided.Stride = 2;
  EXPECT_LT(analyticConvCost(lib().get(Id), Strided, P, 1),
            analyticConvCost(lib().get(Id), Dense, P, 1));
}

TEST(AnalyticModel, MultithreadingHelps) {
  MachineProfile P = MachineProfile::haswell();
  ConvScenario S{64, 56, 56, 1, 3, 64, 1};
  PrimitiveId Id = *lib().findByName("im2col-b-chw-chw");
  double T1 = analyticConvCost(lib().get(Id), S, P, 1);
  double T4 = analyticConvCost(lib().get(Id), S, P, 4);
  EXPECT_LT(T4, T1);
  // Threads are clamped to the profile's core count.
  EXPECT_DOUBLE_EQ(analyticConvCost(lib().get(Id), S, P, 8), T4);
}

TEST(AnalyticModel, WinogradBeatsDirectFor3x3Haswell) {
  // The headline effect: for VGG-style 3x3 layers, 2D Winograd should be
  // the fast family on the desktop profile.
  MachineProfile P = MachineProfile::haswell();
  ConvScenario S{128, 28, 28, 1, 3, 128, 1};
  double Wino = analyticConvCost(
      lib().get(*lib().findByName("wino2d-m4r3-vf8-chw-chw")), S, P, 1);
  double Direct = analyticConvCost(
      lib().get(*lib().findByName("direct-mckk-chw-chw")), S, P, 1);
  double Sum2D =
      analyticConvCost(lib().get(lib().sum2dBaseline()), S, P, 1);
  EXPECT_LT(Wino, Direct);
  EXPECT_LT(Direct, Sum2D);
}

TEST(AnalyticModel, OneDWinogradPreferredOnSmallCacheArm) {
  // The paper's Figure 4 finding: on Cortex-A57, 1D Winograd variants beat
  // the memory-hungry 2D ones for large working sets.
  MachineProfile Arm = MachineProfile::cortexA57();
  ConvScenario S{192, 56, 56, 1, 3, 192, 1};
  double TwoD = analyticConvCost(
      lib().get(*lib().findByName("wino2d-m4r3-vf4-chw-chw")), S, Arm, 1);
  double OneD = analyticConvCost(
      lib().get(*lib().findByName("wino1d-m4r3-vf4-chw-chw")), S, Arm, 1);
  EXPECT_LT(OneD, TwoD);

  // On Haswell's 6 MB LLC with a smaller layer, 2D wins.
  MachineProfile Intel = MachineProfile::haswell();
  ConvScenario Small{64, 14, 14, 1, 3, 64, 1};
  double TwoDIntel = analyticConvCost(
      lib().get(*lib().findByName("wino2d-m4r3-vf8-chw-chw")), Small, Intel,
      1);
  double OneDIntel = analyticConvCost(
      lib().get(*lib().findByName("wino1d-m4r3-vf8-chw-chw")), Small, Intel,
      1);
  EXPECT_LT(TwoDIntel, OneDIntel);
}

TEST(AnalyticModel, VectorFactorMatchesArchitecture) {
  // vf8 should win on 8-wide AVX2, vf4 on 4-wide NEON (Figure 4).
  ConvScenario S{64, 14, 14, 1, 3, 64, 1};
  const ConvPrimitive &VF8 =
      lib().get(*lib().findByName("wino2d-m4r3-vf8-chw-chw"));
  const ConvPrimitive &VF4 =
      lib().get(*lib().findByName("wino2d-m4r3-vf4-chw-chw"));
  MachineProfile Intel = MachineProfile::haswell();
  MachineProfile Arm = MachineProfile::cortexA57();
  EXPECT_LT(analyticConvCost(VF8, S, Intel, 1),
            analyticConvCost(VF4, S, Intel, 1));
  EXPECT_LT(analyticConvCost(VF4, S, Arm, 1),
            analyticConvCost(VF8, S, Arm, 1));
}

TEST(AnalyticModel, TransformCostScalesWithSize) {
  MachineProfile P = MachineProfile::haswell();
  TensorShape Small{16, 14, 14};
  TensorShape Big{64, 56, 56};
  EXPECT_LT(analyticTransformCost(Layout::CHW, Layout::HWC, Small, P, 1),
            analyticTransformCost(Layout::CHW, Layout::HWC, Big, P, 1));
}

TEST(AnalyticProvider, ImplementsCostProvider) {
  AnalyticCostProvider Prov(lib(), MachineProfile::haswell(), 1);
  ConvScenario S{16, 14, 14, 1, 3, 16, 1};
  EXPECT_GT(Prov.cost({S, lib().sum2dBaseline()}).totalMs(), 0.0);
  EXPECT_GT(Prov.transformCost(Layout::CHW, Layout::HWC, {16, 14, 14}), 0.0);
}

TEST(CostDatabase, SetGetHas) {
  CostDatabase DB;
  ConvScenario S{16, 14, 14, 1, 3, 16, 1};
  EXPECT_FALSE(DB.hasConvCost(S, "sum2d", 1));
  DB.setConvCost(S, "sum2d", 1.25, 1);
  EXPECT_TRUE(DB.hasConvCost(S, "sum2d", 1));
  EXPECT_DOUBLE_EQ(DB.convCost(S, "sum2d", 1), 1.25);
  DB.setConvCost(S, "sum2d", 2.0, 1); // overwrite
  EXPECT_DOUBLE_EQ(DB.convCost(S, "sum2d", 1), 2.0);
  // Each thread count is a record of its own.
  EXPECT_FALSE(DB.hasConvCost(S, "sum2d", 4));
  DB.setConvCost(S, "sum2d", 3.0, 4);
  EXPECT_DOUBLE_EQ(DB.convCost(S, "sum2d", 4), 3.0);
  EXPECT_DOUBLE_EQ(DB.convCost(S, "sum2d", 1), 2.0);
}

TEST(CostDatabase, TransformEntries) {
  CostDatabase DB;
  TensorShape Sh{4, 8, 8};
  EXPECT_FALSE(DB.hasTransformCost(Layout::CHW, Layout::HWC, Sh));
  DB.setTransformCost(Layout::CHW, Layout::HWC, Sh, 0.5);
  EXPECT_TRUE(DB.hasTransformCost(Layout::CHW, Layout::HWC, Sh));
  // Distinct direction is a distinct entry.
  EXPECT_FALSE(DB.hasTransformCost(Layout::HWC, Layout::CHW, Sh));
}

TEST(CostDatabase, SaveLoadRoundTrip) {
  CostDatabase DB;
  ConvScenario S{16, 14, 14, 1, 3, 16, 1};
  DB.setConvCost(S, "sum2d", 1.5, 1);
  DB.setConvCost(S, "im2col-b-chw-chw", 0.25, 2);
  DB.setTransformCost(Layout::CHW, Layout::HWC, {16, 14, 14}, 0.125);

  std::string Path = ::testing::TempDir() + "/primsel_costdb_test.txt";
  ASSERT_TRUE(DB.save(Path));
  CostDatabase Loaded;
  ASSERT_TRUE(Loaded.load(Path));
  EXPECT_EQ(Loaded.numConvEntries(), 2u);
  EXPECT_EQ(Loaded.numTransformEntries(), 1u);
  EXPECT_DOUBLE_EQ(Loaded.convCost(S, "sum2d", 1), 1.5);
  EXPECT_DOUBLE_EQ(Loaded.convCost(S, "im2col-b-chw-chw", 2), 0.25);
  EXPECT_DOUBLE_EQ(
      Loaded.transformCost(Layout::CHW, Layout::HWC, {16, 14, 14}), 0.125);
  std::remove(Path.c_str());
}

TEST(CostDatabase, LoadSkipsRunRecordsWithoutThreadCount) {
  // Older tables stored the profiler's configured count in an un-suffixed
  // run record that does not say which count it was. Such a record must
  // answer no count, so load() drops it and it is measured again.
  ConvScenario S{16, 14, 14, 1, 3, 16, 1};
  std::string Path = ::testing::TempDir() + "/primsel_costdb_old.txt";
  {
    std::ofstream Out(Path);
    Out << "conv " << S.key() << "|sum2d 1.5\n";
    Out << "conv " << S.key() << "|sum2d|t4 2.5\n";
  }
  CostDatabase Loaded;
  ASSERT_TRUE(Loaded.load(Path));
  EXPECT_EQ(Loaded.numConvEntries(), 1u);
  EXPECT_FALSE(Loaded.hasConvCost(S, "sum2d", 1));
  EXPECT_DOUBLE_EQ(Loaded.convCost(S, "sum2d", 4), 2.5);
  std::remove(Path.c_str());
}

TEST(CostDatabase, LoadMissingFileFails) {
  CostDatabase DB;
  EXPECT_FALSE(DB.load("/nonexistent/path/db.txt"));
}

TEST(Profiler, MeasuresAndCaches) {
  ProfilerOptions Opts;
  Opts.Repeats = 1;
  Opts.Warmups = 0;
  MeasuredCostProvider Prov(lib(), Opts);
  ConvScenario S{4, 10, 10, 1, 3, 4, 1};
  PrimitiveId Id = *lib().findByName("im2col-b-chw-chw");
  double C1 = Prov.cost({S, Id}).PerRunMs;
  EXPECT_GT(C1, 0.0);
  // Second query must come from the cache: identical value.
  EXPECT_DOUBLE_EQ(Prov.cost({S, Id}).PerRunMs, C1);
  EXPECT_TRUE(Prov.database().hasConvCost(S, "im2col-b-chw-chw", 1));
  EXPECT_TRUE(Prov.database().hasPrepareCost(S, "im2col-b-chw-chw"));
}

TEST(Profiler, ExplicitOneThreadTimesKeepTheirOwnRecord) {
  ProfilerOptions Opts;
  Opts.Threads = 4;
  Opts.Repeats = 1;
  Opts.Warmups = 0;
  MeasuredCostProvider Prov(lib(), Opts);
  ConvScenario S{4, 10, 10, 1, 3, 4, 1};
  const std::string Name = "im2col-b-chw-chw";
  PrimitiveId Id = *lib().findByName(Name);

  // A 1-thread query on a 4-thread profiler lands in its own record, not
  // in the one that holds the configured-count time.
  EXPECT_GT(Prov.cost({S, Id, 1}).PerRunMs, 0.0);
  EXPECT_TRUE(Prov.database().hasConvCost(S, Name, 1));
  EXPECT_FALSE(Prov.database().hasConvCost(S, Name, 4));

  // The configured count is measured separately: it neither reads nor
  // overwrites the 1-thread record (marked here with a sentinel).
  Prov.database().setConvCost(S, Name, 1000.0, 1);
  double Configured = Prov.cost({S, Id}).PerRunMs;
  EXPECT_TRUE(Prov.database().hasConvCost(S, Name, 4));
  EXPECT_LT(Configured, 1000.0);
  EXPECT_DOUBLE_EQ(Prov.cost({S, Id, 4}).PerRunMs, Configured);
  EXPECT_DOUBLE_EQ(Prov.cost({S, Id, 1}).PerRunMs, 1000.0);
}

TEST(Profiler, TableSavedAtOneThreadDoesNotPriceFourThreads) {
  // optimize --measured --threads 1 --costs T, then the same command at
  // --threads 4: the 4-thread provider must measure its own count rather
  // than read the 1-thread time the first run saved.
  ConvScenario S{4, 10, 10, 1, 3, 4, 1};
  const std::string Name = "im2col-b-chw-chw";
  PrimitiveId Id = *lib().findByName(Name);
  std::string Path = ::testing::TempDir() + "/primsel_costs_threads.txt";

  ProfilerOptions Opts;
  Opts.Repeats = 1;
  Opts.Warmups = 0;
  {
    MeasuredCostProvider One(lib(), Opts);
    EXPECT_GT(One.cost({S, Id}).PerRunMs, 0.0);
    // A sentinel no real measurement reaches marks the saved time.
    One.database().setConvCost(S, Name, 1000.0, 1);
    ASSERT_TRUE(One.database().save(Path));
  }

  Opts.Threads = 4;
  MeasuredCostProvider Four(lib(), Opts);
  ASSERT_TRUE(Four.database().load(Path));
  EXPECT_LT(Four.cost({S, Id}).PerRunMs, 1000.0);
  EXPECT_LT(Four.cost({S, Id, 4}).PerRunMs, 1000.0);
  // The saved record still answers the count it was measured at.
  EXPECT_DOUBLE_EQ(Four.cost({S, Id, 1}).PerRunMs, 1000.0);
  std::remove(Path.c_str());
}

TEST(Profiler, LoadedRunRecordWithoutPrepareMeasuresOnlyPrepare) {
  ProfilerOptions Opts;
  Opts.Repeats = 1;
  Opts.Warmups = 0;
  MeasuredCostProvider Prov(lib(), Opts);
  ConvScenario S{4, 10, 10, 1, 3, 4, 1};
  const std::string Name = "im2col-b-chw-chw";
  PrimitiveId Id = *lib().findByName(Name);
  // A table saved before one-shot costs included prepare() has run
  // records only: the run record is served as loaded and only the
  // prepare time is measured.
  Prov.database().setConvCost(S, Name, 1000.0, 1);
  CostBreakdown B = Prov.cost({S, Id});
  EXPECT_DOUBLE_EQ(B.PerRunMs, 1000.0);
  EXPECT_GT(B.AmortizedMs, 0.0);
  EXPECT_TRUE(Prov.database().hasPrepareCost(S, Name));
}

TEST(Profiler, MeasuresTransforms) {
  ProfilerOptions Opts;
  Opts.Repeats = 1;
  Opts.Warmups = 0;
  MeasuredCostProvider Prov(lib(), Opts);
  double C = Prov.transformCost(Layout::CHW, Layout::HWC, {8, 16, 16});
  EXPECT_GT(C, 0.0);
  EXPECT_DOUBLE_EQ(Prov.transformCost(Layout::CHW, Layout::HWC, {8, 16, 16}),
                   C);
}

} // namespace

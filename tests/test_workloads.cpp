//===- tests/test_workloads.cpp - benchmark suite integration --------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every Figure-1/2 benchmark must (a) run clean uninstrumented, (b) run
/// clean and byte-identical under SoftBound in every mode x facility
/// combination (no false positives, §6.4), and (c) show the pointer-density
/// ordering Figure 1 depends on.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

class WorkloadTransparency
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(WorkloadTransparency, InstrumentedMatchesPlain) {
  const Workload &W = benchmarkSuite()[std::get<0>(GetParam())];
  int Cfg = std::get<1>(GetParam());
  const std::pair<CheckMode, FacilityKind> Cases[] = {
      {CheckMode::Full, FacilityKind::Shadow},
      {CheckMode::Full, FacilityKind::Hash},
      {CheckMode::StoreOnly, FacilityKind::Shadow},
      {CheckMode::StoreOnly, FacilityKind::Hash},
  };

  RunResult Plain =
      runSession(PipelinePlan().frontend(W.Source).optimize()).Combined;
  ASSERT_TRUE(Plain.ok()) << W.Name << ": " << Plain.Message;

  RunRequest R;
  R.Facility = Cases[Cfg].second;
  RunResult SB = runSession(PipelinePlan()
                                .frontend(W.Source)
                                .optimize()
                                .softbound({.Mode = Cases[Cfg].first})
                                .checkOpt(),
                            R)
                     .Combined;
  EXPECT_TRUE(SB.ok()) << W.Name << ": " << trapName(SB.Trap) << " "
                       << SB.Message;
  EXPECT_EQ(SB.ExitCode, Plain.ExitCode) << W.Name;
  EXPECT_EQ(SB.Output, Plain.Output) << W.Name;
}

std::string
transparencyCaseName(const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
  static const char *CfgNames[4] = {"FullShadow", "FullHash", "StoreShadow",
                                    "StoreHash"};
  return benchmarkSuite()[std::get<0>(Info.param)].Name + "_" +
         CfgNames[std::get<1>(Info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadTransparency,
    ::testing::Combine(::testing::Range(0, 15), ::testing::Range(0, 4)),
    transparencyCaseName);

TEST(WorkloadSuite, PointerDensityRampMatchesFigure1) {
  // Figure 1's x-axis: the suite is sorted by the fraction of memory
  // operations that load/store pointers. Verify the two ends and the
  // rough monotone shape (SPEC array codes low, Olden pointer codes high).
  std::vector<double> Density;
  for (const auto &W : benchmarkSuite()) {
    RunResult R =
        runSession(PipelinePlan().frontend(W.Source).optimize()).Combined;
    ASSERT_TRUE(R.ok()) << W.Name << ": " << R.Message;
    Density.push_back(R.Counters.ptrOpFraction());
  }
  // The five SPEC-style array kernels stay under 10%.
  for (int I = 0; I < 5; ++I)
    EXPECT_LT(Density[I], 0.10) << benchmarkSuite()[I].Name;
  // The paper: "over half of the memory operations in several of the
  // Olden benchmarks are loads and stores of pointers".
  EXPECT_GT(Density[13], 0.40) << "em3d";
  EXPECT_GT(Density[14], 0.40) << "treeadd";
  // The last five are clearly more pointer-dense than the first five.
  for (int I = 10; I < 15; ++I)
    EXPECT_GT(Density[I], Density[4] + 0.10)
        << benchmarkSuite()[I].Name << " vs ijpeg";
}

TEST(WorkloadSuite, AllBenchmarksAreNontrivial) {
  for (const auto &W : benchmarkSuite()) {
    RunResult R =
        runSession(PipelinePlan().frontend(W.Source).optimize()).Combined;
    ASSERT_TRUE(R.ok()) << W.Name;
    EXPECT_GT(R.Counters.Insts, 50'000u) << W.Name << " is too small";
    EXPECT_GT(R.Counters.memOps(), 5'000u) << W.Name;
  }
}

TEST(WorkloadSuite, OptimizerPreservesBehaviour) {
  for (const auto &W : benchmarkSuite()) {
    RunResult Raw = runSession(PipelinePlan().frontend(W.Source)).Combined;
    RunResult Opt =
        runSession(PipelinePlan().frontend(W.Source).optimize()).Combined;
    ASSERT_TRUE(Raw.ok() && Opt.ok()) << W.Name;
    EXPECT_EQ(Raw.ExitCode, Opt.ExitCode) << W.Name;
    // Register promotion must reduce dynamic memory operations.
    EXPECT_LT(Opt.Counters.memOps(), Raw.Counters.memOps()) << W.Name;
  }
}

} // namespace

//===- tests/test_bugbench.cpp - Table 4 detection matrix ------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table 4: detection of the BugBench overflow kernels by the Valgrind-
/// style red-zone baseline, the Mudflap-style object table, and SoftBound
/// in store-only and full modes. The expected matrix is the paper's:
///
///   benchmark  valgrind  mudflap  store  full
///   go         no        no       no     yes
///   compress   no        yes      yes    yes
///   polymorph  yes       yes      yes    yes
///   gzip       yes       yes      yes    yes
///
//===----------------------------------------------------------------------===//

#include "baselines/MemcheckLite.h"
#include "baselines/ObjectTableChecker.h"
#include "driver/Pipeline.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

bool detectedByMemcheck(const std::string &Src) {
  MemcheckLite Checker;
  RunRequest R;
  R.Checker = &Checker;
  return runSession(PipelinePlan().frontend(Src).optimize(), R)
      .Combined.violationDetected();
}

bool detectedByObjTable(const std::string &Src) {
  // Mudflap-style deployments pad tracked objects with guard zones so
  // off-by-one overflows into a neighbour are distinguishable; the
  // checker declares its own pads.
  ObjectTableChecker Checker;
  RunRequest R;
  R.Checker = &Checker;
  return runSession(PipelinePlan().frontend(Src).optimize(), R)
      .Combined.violationDetected();
}

/// The default instrumented pipeline over \p Src with checking \p Mode.
PipelinePlan softboundPlan(const std::string &Src, CheckMode Mode) {
  PipelinePlan Plan;
  Plan.frontend(Src).optimize().softbound({.Mode = Mode}).checkOpt();
  return Plan;
}

bool detectedBySoftBound(const std::string &Src, CheckMode Mode) {
  return runSession(softboundPlan(Src, Mode)).Combined.violationDetected();
}

struct Expect {
  const char *Name;
  bool Valgrind, Mudflap, StoreOnly, Full;
};

// The paper's Table 4 rows.
const Expect Table4[] = {
    {"go", false, false, false, true},
    {"compress", false, true, true, true},
    {"polymorph", true, true, true, true},
    {"gzip", true, true, true, true},
};

class BugBenchMatrix : public ::testing::TestWithParam<int> {};

TEST_P(BugBenchMatrix, MatchesPaperTable4) {
  const BugCase &Bug = bugbenchSuite()[GetParam()];
  const Expect &E = Table4[GetParam()];
  ASSERT_EQ(Bug.Name, E.Name);

  EXPECT_EQ(detectedByMemcheck(Bug.Source), E.Valgrind)
      << Bug.Name << " (valgrind-style)";
  EXPECT_EQ(detectedByObjTable(Bug.Source), E.Mudflap)
      << Bug.Name << " (mudflap-style)";
  EXPECT_EQ(detectedBySoftBound(Bug.Source, CheckMode::StoreOnly),
            E.StoreOnly)
      << Bug.Name << " (store-only)";
  EXPECT_EQ(detectedBySoftBound(Bug.Source, CheckMode::Full), E.Full)
      << Bug.Name << " (full)";
}

INSTANTIATE_TEST_SUITE_P(AllBugs, BugBenchMatrix, ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return bugbenchSuite()[Info.param].Name;
                         });

TEST(Baselines, SeeTheStringBytesBuiltinsRead) {
  // strlen, strcmp and print_str read their operands natively, so an
  // interposing checker must see those reads, as it sees memcpy's. Here
  // a holds "abcd" in a 4-byte block: each use reads its NUL at a[4].
  auto Run = [](const std::string &Use) {
    MemcheckLite Checker;
    RunRequest R;
    R.Checker = &Checker;
    std::string Src = "int main() {\n"
                      "  char *a = malloc(4); char *b = malloc(8);\n"
                      "  a[0] = 'a'; a[1] = 'b'; a[2] = 'c'; a[3] = 'd';\n"
                      "  strcpy(b, \"abcd\");\n  " +
                      Use + "\n  return 0;\n}";
    return runSession(PipelinePlan().frontend(Src).optimize(), R).Combined;
  };
  const std::pair<const char *, const char *> Cases[] = {
      {"strlen(a);", "memcheck: violation in strlen"},
      {"strcmp(a, b);", "memcheck: violation in strcmp"},
      {"strcmp(b, a);", "memcheck: violation in strcmp"},
      {"print_str(a);", "memcheck: violation in print_str"},
  };
  for (const auto &[Use, Message] : Cases) {
    RunResult R = Run(Use);
    EXPECT_EQ(R.Trap, TrapKind::BaselineViolation) << Use;
    EXPECT_EQ(R.Message, Message) << Use;
  }
  RunResult Clean = Run("return (int)strlen(b) + strcmp(b, b);");
  EXPECT_TRUE(Clean.ok()) << Clean.Message;
  EXPECT_EQ(Clean.ExitCode, 4);
}

//===----------------------------------------------------------------------===//
// §6.4 server case studies
//===----------------------------------------------------------------------===//

TEST(Servers, HttpTransformsWithNoFalsePositives) {
  RunRequest Plain;
  Plain.Args = {0};
  RunResult Base =
      runSession(PipelinePlan().frontend(httpServerSource()).optimize(), Plain)
          .Combined;
  ASSERT_TRUE(Base.ok()) << Base.Message;
  ASSERT_EQ(Base.ExitCode, 0);

  for (CheckMode Mode : {CheckMode::Full, CheckMode::StoreOnly}) {
    RunResult R =
        runSession(softboundPlan(httpServerSource(), Mode), Plain).Combined;
    EXPECT_TRUE(R.ok()) << R.Message;
    EXPECT_EQ(R.ExitCode, 0);
    EXPECT_EQ(R.Output, Base.Output);
  }
}

TEST(Servers, HttpVulnerableModeCaught) {
  RunRequest Vuln;
  Vuln.Args = {1};
  // Without protection: the long query overruns query[32] into path[],
  // silently corrupting the response (no crash).
  RunResult Base =
      runSession(PipelinePlan().frontend(httpServerSource()).optimize(), Vuln)
          .Combined;
  EXPECT_TRUE(Base.ok());

  // Production mode is enough (§6.3).
  RunResult R =
      runSession(softboundPlan(httpServerSource(), CheckMode::StoreOnly), Vuln)
          .Combined;
  EXPECT_EQ(R.Trap, TrapKind::SpatialViolation) << trapName(R.Trap);
}

TEST(Servers, FtpTransformsWithNoFalsePositives) {
  RunResult Base =
      runSession(PipelinePlan().frontend(ftpServerSource()).optimize())
          .Combined;
  ASSERT_TRUE(Base.ok()) << Base.Message;

  for (CheckMode Mode : {CheckMode::Full, CheckMode::StoreOnly}) {
    RunResult R = runSession(softboundPlan(ftpServerSource(), Mode)).Combined;
    EXPECT_TRUE(R.ok()) << R.Message;
    EXPECT_EQ(R.ExitCode, Base.ExitCode);
    EXPECT_EQ(R.Output, Base.Output);
  }
}

} // namespace

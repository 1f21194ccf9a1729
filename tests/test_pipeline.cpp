//===- tests/test_pipeline.cpp - PassManager / PipelinePlan API tests -------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the composable pipeline API (driver/PassManager.h):
///
///   * the pass table (its four passes, unknown-pass diagnostics, every
///     knob parsing to a canonical fixpoint),
///   * the pipeline-spec parser (round-trip canonicalization, nested
///     checkopt knobs, malformed-spec diagnostics),
///   * the SafeElision sub-pass surfaced through checkopt(safe),
///     including the §6.5 CCured-like spec and its sub-object trade-off,
///   * per-pass timing records in PipelineStats,
///   * deep CFGs building on a small stack (no recursive CFG or
///     dominator-tree walk).
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include <gtest/gtest.h>

#include <pthread.h>

using namespace softbound;

namespace {

const char *LoopSource = "int main() {\n"
                         "  int* p = (int*)malloc(64);\n"
                         "  int s = 0;\n"
                         "  for (int i = 0; i < 16; i++) { p[i] = i; s += p[i]; }\n"
                         "  return s;\n"
                         "}";

//===----------------------------------------------------------------------===//
// The pass table
//===----------------------------------------------------------------------===//

TEST(PassTable, ListsTheFourPasses) {
  std::vector<std::string> Names;
  for (const PassRow &P : passTable()) {
    Names.push_back(P.Name);
    EXPECT_NE(std::string(P.Description), "") << P.Name;
  }
  EXPECT_EQ(Names, (std::vector<std::string>{"checkopt", "optimize",
                                             "reoptimize", "softbound"}));
}

TEST(PassTable, UnknownPassDiagnosticNamesKnownPasses) {
  PipelinePlan Plan;
  std::string Err;
  EXPECT_FALSE(Plan.appendSpec("chekopt", &Err));
  EXPECT_EQ(Err, "pipeline spec: unknown pass 'chekopt' (known: checkopt, "
                 "optimize, reoptimize, softbound)");
}

TEST(PassTable, EveryKnobParsesAndCanonicalizes) {
  // Each table row, bare and with each of its knobs alone, parses; its
  // canonical form is a fixpoint of spec() and names the knob.
  for (const PassRow &P : passTable()) {
    std::vector<const char *> Knobs = {nullptr};
    for (const KnobRow &K : P.Knobs)
      Knobs.push_back(K.Name);
    for (const char *Knob : Knobs) {
      std::string Spec = P.Name;
      if (Knob)
        Spec += std::string("(") + Knob + ")";
      PipelinePlan Plan, Again;
      std::string Err;
      ASSERT_TRUE(Plan.appendSpec(Spec, &Err)) << Spec << ": " << Err;
      ASSERT_TRUE(Again.appendSpec(Plan.spec(), &Err)) << Spec << ": " << Err;
      EXPECT_EQ(Again.spec(), Plan.spec()) << Spec;
      if (Knob) {
        EXPECT_NE(Plan.spec().find(Knob), std::string::npos)
            << Spec << " canonicalizes to " << Plan.spec();
      }
    }
  }
}

TEST(PassTable, RefusesContradictoryKnobs) {
  // A knob list is a set of facts about the configuration: a later knob
  // that undoes an earlier one is an error, whichever comes first.
  PipelinePlan Plan;
  std::string Err;
  EXPECT_FALSE(Plan.appendSpec("softbound(store-only,metadata-only)", &Err));
  EXPECT_EQ(Err, "pipeline spec: softbound: knob 'metadata-only' "
                 "contradicts 'store-only'");
  EXPECT_FALSE(Plan.appendSpec("softbound(metadata-only,store-only)", &Err));
  EXPECT_EQ(Err, "pipeline spec: softbound: knob 'store-only' "
                 "contradicts 'metadata-only'");
  // A knob implying another is no contradiction.
  EXPECT_TRUE(Plan.appendSpec("checkopt(hoist,runtime-limit)", &Err)) << Err;
  EXPECT_TRUE(Plan.appendSpec("checkopt(runtime-limit,hoist)", &Err)) << Err;
  EXPECT_EQ(Plan.spec(),
            "checkopt(hoist,runtime-limit),checkopt(hoist,runtime-limit)");
}

TEST(PassTable, RefusesRepeatedKnobs) {
  PipelinePlan Plan;
  std::string Err;
  EXPECT_FALSE(Plan.appendSpec("checkopt(hoist,hoist)", &Err));
  EXPECT_EQ(Err, "pipeline spec: checkopt: knob 'hoist' named twice");
  EXPECT_FALSE(Plan.appendSpec("softbound(no-shrink,store-only,no-shrink)",
                               &Err));
  EXPECT_EQ(Err, "pipeline spec: softbound: knob 'no-shrink' named twice");
  EXPECT_EQ(Plan.size(), 0u);
}

//===----------------------------------------------------------------------===//
// Spec parser: round-trip and canonicalization
//===----------------------------------------------------------------------===//

TEST(PipelineSpec, RoundTripsCanonicalForms) {
  // Left: input spec. Right: expected canonical spec() output.
  const std::pair<const char *, const char *> Cases[] = {
      {"optimize,softbound,checkopt", "optimize,softbound,checkopt"},
      {" optimize , softbound( store-only , no-shrink ) ",
       "optimize,softbound(store-only,no-shrink)"},
      // The default sub-pass set now includes interproc, runtime-limit,
      // and partition; an explicit knob list enables exactly what it
      // names, so any older default spells itself out — in particular the
      // pre-partition default, which is the no-partition A/B baseline.
      {"checkopt(hoist,runtime-limit,interproc,partition)", "checkopt"},
      {"checkopt(hoist,runtime-limit,interproc)",
       "checkopt(hoist,runtime-limit,interproc)"},
      {"checkopt(hoist,interproc)", "checkopt(hoist,interproc)"},
      {"checkopt(partition)", "checkopt(partition)"},
      // runtime-limit implies (and canonically spells out) hoist.
      {"checkopt(runtime-limit)", "checkopt(hoist,runtime-limit)"},
      {"checkopt(hoist)", "checkopt(hoist)"},
      {"checkopt()", "checkopt"},
      {"checkopt(interproc)", "checkopt(interproc)"},
      {"checkopt(partition,interproc,hoist)",
       "checkopt(hoist,interproc,partition)"},
      {"checkopt(interproc,hoist)", "checkopt(hoist,interproc)"},
      {"checkopt(off)", "checkopt(off)"},
      {"checkopt(none)", "checkopt(none)"},
      {"checkopt(hoist,interproc,safe)", "checkopt(hoist,interproc,safe)"},
      {"softbound(no-reopt),reoptimize", "softbound(no-reopt),reoptimize"},
      {"optimize,softbound,checkopt(safe)",
       "optimize,softbound,checkopt(safe)"},
  };
  for (const auto &[Input, Canonical] : Cases) {
    PipelinePlan Plan;
    std::string Err;
    ASSERT_TRUE(Plan.appendSpec(Input, &Err)) << Input << ": " << Err;
    EXPECT_EQ(Plan.spec(), Canonical) << Input;
    // Re-parsing the canonical form is a fixpoint.
    PipelinePlan Again;
    ASSERT_TRUE(Again.appendSpec(Plan.spec(), &Err)) << Err;
    EXPECT_EQ(Again.spec(), Canonical);
  }
}

TEST(PipelineSpec, DiagnosesMalformedSpecs) {
  const std::pair<const char *, const char *> Cases[] = {
      {"optimize,chekopt", "unknown pass 'chekopt'"},
      {"checkopt(rnge)", "unknown knob 'rnge'"},
      // The retired dominance and range sub-passes are gone from the
      // table; InterProc's fact walk does their work.
      {"checkopt(redundant)", "unknown knob 'redundant'"},
      {"checkopt(range)", "unknown knob 'range'"},
      {"optimize(fast)", "takes no knobs"},
      {"checkopt(hoist", "unmatched '('"},
      {"checkopt)hoist(", "unmatched ')'"},
      {"checkopt(off,hoist)", "cannot be combined"},
      {"optimize,,softbound", "empty pass name"},
      {"checkopt(hoist,)", "empty knob"},
      {"checkopt(hoist)x", "trailing text"},
  };
  for (const auto &[Spec, Needle] : Cases) {
    PipelinePlan Plan;
    Plan.optimize();
    std::string Err;
    EXPECT_FALSE(Plan.appendSpec(Spec, &Err)) << Spec;
    EXPECT_NE(Err.find(Needle), std::string::npos)
        << Spec << " -> " << Err;
    EXPECT_EQ(Plan.size(), 1u) << "failed appendSpec must not modify the plan";
  }
}

TEST(PipelinePlan, MisuseSurfacesAsBuildErrors) {
  PipelineResult NoSource = PipelinePlan().optimize().build();
  EXPECT_FALSE(NoSource.ok());
  EXPECT_NE(NoSource.errorText().find("no frontend source"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Nested checkopt knobs drive the right sub-passes
//===----------------------------------------------------------------------===//

TEST(PipelineSpec, CheckOptKnobsSelectSubPasses) {
  PipelinePlan Hoist;
  std::string Err;
  ASSERT_TRUE(Hoist.appendSpec("optimize,softbound,checkopt(hoist)", &Err))
      << Err;
  PipelineResult PH = Hoist.frontend(LoopSource).build();
  ASSERT_TRUE(PH.ok()) << PH.errorText();
  EXPECT_GE(PH.Pipeline.CheckOpt.LoopChecksHoisted, 1u);
  EXPECT_EQ(PH.Pipeline.CheckOpt.InterProcChecksElided, 0u);
  EXPECT_EQ(PH.Pipeline.CheckOpt.SafeChecksElided, 0u);

  PipelinePlan None;
  ASSERT_TRUE(None.appendSpec("optimize,softbound,checkopt(off)", &Err));
  PipelineResult PN = None.frontend(LoopSource).build();
  ASSERT_TRUE(PN.ok()) << PN.errorText();
  EXPECT_EQ(PN.Pipeline.CheckOpt.ChecksBefore, 0u)
      << "checkopt(off) must not even count checks";
}

TEST(PipelineSpec, InterProcKnobSelectsOnlyInterProc) {
  // A caller-checked global access re-checked by a private callee: only
  // the interproc sub-pass may touch it.
  const char *Src = "int tbl[32];\n"
                    "int peek(int k) { return tbl[k]; }\n"
                    "int main() { tbl[5] = 9; return peek(5); }";
  PipelinePlan Only;
  std::string Err;
  ASSERT_TRUE(Only.appendSpec("optimize,softbound,checkopt(interproc)", &Err))
      << Err;
  PipelineResult P = Only.frontend(Src).build();
  ASSERT_TRUE(P.ok()) << P.errorText();
  EXPECT_GT(P.Pipeline.CheckOpt.InterProcChecksElided, 0u);
  EXPECT_EQ(P.Pipeline.CheckOpt.LoopChecksHoisted, 0u);
  EXPECT_EQ(P.Pipeline.CheckOpt.SafeChecksElided, 0u);
  RunResult R = runSession(P).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 9);

  // And the complementary set leaves interproc off.
  PipelinePlan Rest;
  ASSERT_TRUE(
      Rest.appendSpec(
          "optimize,softbound,checkopt(hoist,runtime-limit,partition)", &Err))
      << Err;
  PipelineResult PR = Rest.frontend(Src).build();
  ASSERT_TRUE(PR.ok()) << PR.errorText();
  EXPECT_EQ(PR.Pipeline.CheckOpt.InterProcChecksElided, 0u);
}

//===----------------------------------------------------------------------===//
// SafeElision through the pipeline
//===----------------------------------------------------------------------===//

TEST(SafeElision, ElidesProvableChecksAndKeepsViolations) {
  // In-bounds constant accesses into a global: provably safe, elided.
  const char *Safe = "int g[4];\n"
                     "int main() { g[2] = 5; return g[2]; }";
  PipelinePlan Plan;
  std::string Err;
  ASSERT_TRUE(
      Plan.appendSpec("optimize,softbound(no-reopt),checkopt(safe)", &Err))
      << Err;
  PipelineResult P = Plan.frontend(Safe).build();
  ASSERT_TRUE(P.ok()) << P.errorText();
  EXPECT_GE(P.Pipeline.CheckOpt.SafeChecksElided, 1u);
  RunResult R = runSession(P).Combined;
  ASSERT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 5);

  // A constant out-of-bounds store is not provable: the check stays and
  // still traps.
  const char *Bad = "int g[4];\n"
                    "int main() { g[7] = 1; return 0; }";
  PipelinePlan BadPlan;
  ASSERT_TRUE(
      BadPlan.appendSpec("optimize,softbound(no-reopt),checkopt(safe)", &Err));
  RunResult RB = runSession(BadPlan.frontend(Bad)).Combined;
  EXPECT_EQ(RB.Trap, TrapKind::SpatialViolation) << trapName(RB.Trap);
}

TEST(SafeElision, SubObjectTradeOffIsPinned) {
  // The documented §6.5 trade-off, pinned down: the elision proof judges
  // the leading pointer-arithmetic step against the whole object, so a
  // constant sub-object overflow through the decayed field pointer
  // (s.buf[9] inside struct S) loses its shrunk-bounds check under the
  // CCured-like spec, while the default pipeline still catches it.
  const char *Src = "struct S { char buf[8]; long count; };\n"
                    "int main() {\n"
                    "  struct S s;\n"
                    "  s.count = 7;\n"
                    "  s.buf[9] = 1;\n"
                    "  return (int)s.count;\n"
                    "}";
  PipelinePlan Plan;
  std::string Err;
  ASSERT_TRUE(Plan.appendSpec(
      "optimize,softbound(no-reopt),checkopt(safe),reoptimize,checkopt", &Err))
      << Err;
  PipelineResult N = Plan.frontend(Src).build();
  ASSERT_TRUE(N.ok()) << N.errorText();
  EXPECT_GE(N.Pipeline.CheckOpt.SafeChecksElided, 3u);

  // The write lands in count's second byte and comes back as the exit
  // code.
  RunResult RN = runSession(N).Combined;
  EXPECT_EQ(RN.Trap, TrapKind::None) << trapName(RN.Trap);
  EXPECT_EQ(RN.ExitCode, 7 + (1 << 8));

  // Without elision, SoftBound's shrunk field bounds catch the write.
  RunResult RF =
      runSession(PipelinePlan().frontend(Src).optimize().softbound().checkOpt())
          .Combined;
  EXPECT_EQ(RF.Trap, TrapKind::SpatialViolation) << trapName(RF.Trap);
}

//===----------------------------------------------------------------------===//
// Per-pass timings
//===----------------------------------------------------------------------===//

TEST(PipelineTimings, EveryPassIsRecordedInOrder) {
  PipelineResult Prog = PipelinePlan()
                            .frontend(LoopSource)
                            .optimize()
                            .softbound()
                            .checkOpt()
                            .build();
  ASSERT_TRUE(Prog.ok());
  ASSERT_EQ(Prog.Pipeline.Passes.size(), 3u);
  EXPECT_EQ(Prog.Pipeline.Passes[0].Pass, "optimize");
  EXPECT_EQ(Prog.Pipeline.Passes[1].Pass, "softbound");
  EXPECT_EQ(Prog.Pipeline.Passes[2].Pass, "checkopt");
  for (const auto &T : Prog.Pipeline.Passes)
    EXPECT_GE(T.Millis, 0.0);
  EXPECT_GE(Prog.Pipeline.totalMillis(), 0.0);
}

//===----------------------------------------------------------------------===//
// Deep CFGs
//===----------------------------------------------------------------------===//

struct DeepBuild {
  std::string Spec;
  int Ifs = 0;
  bool ElseIf = false; ///< Chain the ifs as `else if`s.
  bool Ok = false;
  std::string Errors{};
};

void *buildIfChain(void *P) {
  auto *D = static_cast<DeepBuild *>(P);
  std::string Src = "int g;\nint a[8];\nint main() {\n  int s = 0;\n";
  for (int I = 0; I < D->Ifs; ++I)
    Src += std::string(I && D->ElseIf ? "  else if (g == " : "  if (g > ") +
           std::to_string(I) + ") { s = s + a[" + std::to_string(I % 8) +
           "]; }\n";
  Src += "  return s;\n}\n";
  PipelinePlan Plan;
  Plan.frontend(Src);
  if (!Plan.appendSpec(D->Spec, &D->Errors))
    return nullptr;
  PipelineResult R = Plan.build();
  D->Ok = R.ok();
  D->Errors = R.errorText();
  return nullptr;
}

/// Builds \p D on a thread with a 128 KB stack.
void buildOnSmallStack(DeepBuild &D) {
  pthread_attr_t Attr;
  ASSERT_EQ(pthread_attr_init(&Attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&Attr, 128 * 1024), 0);
  pthread_t T;
  ASSERT_EQ(pthread_create(&T, &Attr, buildIfChain, &D), 0);
  pthread_join(T, nullptr);
  pthread_attr_destroy(&Attr);
}

TEST(DeepCFG, IfChainBuildsOnASmallStack) {
  // A chain of N ifs nests the dominator tree N joins deep and the CFG's
  // depth-first walk 2N blocks deep. Every walk over either must be
  // iterative: 800 ifs overflow a 128 KB stack under any recursive one.
  // An `else if` chain nests the same way in the parser itself, so the
  // frontend must read it without recursing once per link.
  for (const char *Spec : {"optimize,softbound,checkopt",
                           "softbound,checkopt(hoist)",
                           "softbound,checkopt(interproc)"}) {
    DeepBuild D{Spec, 800};
    buildOnSmallStack(D);
    EXPECT_TRUE(D.Ok) << Spec << ": " << D.Errors;
  }
  DeepBuild ElseIfs{"optimize,softbound,checkopt", 500, true};
  buildOnSmallStack(ElseIfs);
  EXPECT_TRUE(ElseIfs.Ok) << "else-if chain: " << ElseIfs.Errors;
}

} // namespace

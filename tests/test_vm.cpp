//===- tests/test_vm.cpp - VM substrate unit tests --------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests of the execution substrate: the simulated memory's heap
/// allocator (adjacency, free-list reuse, red-zone padding), segment
/// fault behaviour, the VM's control-data corruption detection that the
/// attack suite relies on, and the run limits (steps, output, heap).
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "vm/SimMemory.h"

#include <gtest/gtest.h>

using namespace softbound;

namespace {

/// Builds \p Src through the plain (uninstrumented) pipeline and runs it.
RunResult runPlain(const std::string &Src, const RunRequest &Req = {}) {
  return runSession(PipelinePlan().frontend(Src).optimize(), Req).Combined;
}

/// Builds \p Src through the default instrumented pipeline and runs it.
RunResult runInstrumented(const std::string &Src) {
  return runSession(
             PipelinePlan().frontend(Src).optimize().softbound().checkOpt())
      .Combined;
}

//===----------------------------------------------------------------------===//
// SimMemory
//===----------------------------------------------------------------------===//

TEST(SimMemory, SegmentsAndFaults) {
  SimMemory M(1 << 20, 1 << 20, 1 << 20);
  uint64_t V = 0;
  // Null page and random low addresses are unmapped.
  EXPECT_FALSE(M.read(0, 8, V));
  EXPECT_FALSE(M.write(0x10, 8, 1));
  // Globals are mapped from GlobalBase.
  EXPECT_TRUE(M.write(simlayout::GlobalBase, 8, 0x1234));
  EXPECT_TRUE(M.read(simlayout::GlobalBase, 8, V));
  EXPECT_EQ(V, 0x1234u);
  // Straddling a segment end faults.
  EXPECT_FALSE(M.read(simlayout::GlobalBase + (1 << 20) - 4, 8, V));
}

TEST(SimMemory, SubWordAccessLittleEndian) {
  SimMemory M(1 << 16, 1 << 16, 1 << 16);
  ASSERT_TRUE(M.write(simlayout::HeapBase, 8, 0x0102030405060708ULL));
  uint64_t B = 0;
  ASSERT_TRUE(M.read(simlayout::HeapBase, 1, B));
  EXPECT_EQ(B, 0x08u);
  ASSERT_TRUE(M.read(simlayout::HeapBase + 7, 1, B));
  EXPECT_EQ(B, 0x01u);
  ASSERT_TRUE(M.read(simlayout::HeapBase + 2, 2, B));
  EXPECT_EQ(B, 0x0506u);
}

TEST(SimMemory, HeapAdjacencyIsDeterministic) {
  // The attack suite depends on consecutive mallocs being adjacent
  // (16-byte aligned, no headers).
  SimMemory M(1 << 16, 1 << 20, 1 << 16);
  uint64_t A = M.heapAlloc(16);
  uint64_t B = M.heapAlloc(8);
  uint64_t C = M.heapAlloc(24);
  EXPECT_EQ(B, A + 16);
  EXPECT_EQ(C, B + 16); // 8 rounds up to 16.
}

TEST(SimMemory, FreeListReusesFirstFit) {
  SimMemory M(1 << 16, 1 << 20, 1 << 16);
  uint64_t A = M.heapAlloc(64);
  M.heapAlloc(16); // Keep the bump pointer moving.
  EXPECT_EQ(M.heapFree(A), 64u);
  // Same-size allocation reuses the freed block (stale-metadata test
  // depends on this).
  EXPECT_EQ(M.heapAlloc(64), A);
  // Splitting: a smaller allocation carves the front of a freed block.
  uint64_t D = M.heapAlloc(128);
  M.heapFree(D);
  EXPECT_EQ(M.heapAlloc(32), D);
  EXPECT_EQ(M.heapAlloc(32), D + 32);
}

TEST(SimMemory, RedzonePaddingSeparatesBlocks) {
  SimMemory M(1 << 16, 1 << 20, 1 << 16);
  uint64_t A = M.heapAlloc(16, /*RedzonePad=*/16);
  uint64_t B = M.heapAlloc(16, /*RedzonePad=*/16);
  EXPECT_GE(B - A, 32u);
  // The gap belongs to no live block.
  EXPECT_EQ(M.heapBlockContaining(A + 20).second, 0u);
  EXPECT_EQ(M.heapBlockContaining(A + 4).first, A);
}

TEST(SimMemory, RedzoneFreeReturnsThePad) {
  // A padded block's whole reservation, red-zone pad included, goes back
  // to the free list: malloc/free cycles reuse the block instead of
  // bumping the heap until it runs out.
  SimMemory M(1 << 16, 1 << 16, 1 << 16);
  uint64_t First = M.heapAlloc(64, /*RedzonePad=*/16);
  ASSERT_NE(First, 0u);
  ASSERT_EQ(M.heapFree(First), 64u);
  for (int I = 0; I < 10000; ++I) {
    uint64_t A = M.heapAlloc(64, /*RedzonePad=*/16);
    ASSERT_EQ(A, First) << "cycle " << I;
    ASSERT_EQ(M.heapBlockSize(A), 64u); // The user size, not the pad.
    ASSERT_EQ(M.heapFree(A), 64u);
  }
  EXPECT_EQ(M.heapHighWater(), 80u);
}

TEST(SimMemory, InvalidFreeReported) {
  SimMemory M(1 << 16, 1 << 20, 1 << 16);
  uint64_t A = M.heapAlloc(16);
  EXPECT_EQ(M.heapFree(A + 4), UINT64_MAX); // Interior pointer.
  EXPECT_EQ(M.heapFree(A), 16u);
  EXPECT_EQ(M.heapFree(A), UINT64_MAX); // Double free.
}

//===----------------------------------------------------------------------===//
// VM control-data integrity (the attack substrate)
//===----------------------------------------------------------------------===//

TEST(VMControlData, GarbageReturnAddressIsACrash) {
  // Corrupting the return word with a non-function value is a crash
  // (CorruptedReturn), not a hijack.
  RunResult R = runPlain("int f() {\n"
                         "  char buf[16];\n"
                         "  long* w = (long*)buf;\n"
                         "  w[3] = 0x41414141;\n"
                         "  return 1;\n"
                         "}\n"
                         "int main() { return f(); }");
  EXPECT_EQ(R.Trap, TrapKind::CorruptedReturn) << trapName(R.Trap);
}

TEST(VMControlData, FunctionAddressInReturnSlotHijacks) {
  RunResult R = runPlain("int pay(int x) { return x; }\n"
                         "int f() {\n"
                         "  char buf[16];\n"
                         "  long* w = (long*)buf;\n"
                         "  w[3] = (long)pay;\n"
                         "  return 1;\n"
                         "}\n"
                         "int main() { return f(); }");
  EXPECT_EQ(R.Trap, TrapKind::Hijacked);
  EXPECT_EQ(R.HijackTarget, "pay");
}

TEST(VMControlData, CorruptedJmpBufMagicTraps) {
  RunResult R = runPlain("long jb[4];\n"
                         "int main() {\n"
                         "  if (setjmp(jb) != 0) return 7;\n"
                         "  jb[0] = 12345;\n" // Smash the magic.
                         "  longjmp(jb, 1);\n"
                         "  return 0;\n"
                         "}");
  EXPECT_EQ(R.Trap, TrapKind::CorruptedJmpBuf);
}

TEST(VMControlData, LongjmpToDeadFrameTraps) {
  RunResult R = runPlain("long jb[4];\n"
                         "int arm() { return setjmp(jb); }\n"
                         "int main() {\n"
                         "  arm();\n" // The armed frame returns.
                         "  longjmp(jb, 1);\n"
                         "  return 0;\n"
                         "}");
  EXPECT_EQ(R.Trap, TrapKind::CorruptedJmpBuf);
}

TEST(VMControlData, DeepRecursionHitsStackGuard) {
  RunResult R = runPlain("int down(int n) {\n"
                         "  long pad[64];\n"
                         "  pad[0] = n;\n"
                         "  if (n == 0) return 0;\n"
                         "  return down(n - 1) + (int)pad[0];\n"
                         "}\n"
                         "int main() { return down(1000000); }");
  EXPECT_EQ(R.Trap, TrapKind::StackOverflow);
}

TEST(VMCounters, CycleModelComponentsAdd) {
  // Instrumented cycles = base + 3 per check + 5 per shadow metadata op.
  const char *Src = "int main() {\n"
                    "  long* p = (long*)malloc(80);\n"
                    "  long* q;\n"
                    "  for (int i = 0; i < 10; i++) p[i] = i;\n"
                    "  q = p;\n"
                    "  return (int)q[9];\n"
                    "}";
  RunResult Plain = runPlain(Src);
  RunResult SB = runInstrumented(Src);
  ASSERT_TRUE(Plain.ok() && SB.ok()) << SB.Message;
  EXPECT_EQ(SB.ExitCode, 9);
  uint64_t Expected = SB.Counters.Insts + 3 * SB.Counters.Checks +
                      5 * (SB.Counters.MetaLoads + SB.Counters.MetaStores);
  // Builtin costs (malloc) and frame metadata clearing add a remainder;
  // the modeled components must account for the bulk.
  EXPECT_GE(SB.Counters.Cycles, Expected);
  EXPECT_LT(SB.Counters.Cycles, Expected + 200);
}

TEST(VMCounters, MaxFrameDepthTracksRecursion) {
  RunResult R = runPlain("int f(int n) {\n"
                         "  if (n == 0) return 0;\n"
                         "  return f(n - 1) + 1;\n"
                         "}\n"
                         "int main() { return f(40); }");
  EXPECT_EQ(R.ExitCode, 40);
  EXPECT_GE(R.Counters.MaxFrameDepth, 41u);
}

//===----------------------------------------------------------------------===//
// Run limits
//===----------------------------------------------------------------------===//

TEST(VMLimits, StepLimitTrapsARunawayLoop) {
  RunRequest Req;
  Req.StepLimit = 1000;
  RunResult R = runPlain("int main() {\n"
                         "  int i = 0;\n"
                         "  while (1) i = i + 1;\n"
                         "  return i;\n"
                         "}",
                         Req);
  EXPECT_EQ(R.Trap, TrapKind::StepLimit) << trapName(R.Trap);
  EXPECT_EQ(R.Counters.Insts, Req.StepLimit + 1);
}

TEST(VMLimits, OutputStopsAtTheCap) {
  PipelineResult Prog = PipelinePlan()
                            .frontend("int main() {\n"
                                      "  for (int i = 0; i < 100; i++)\n"
                                      "    print_char(120);\n"
                                      "  return 3;\n"
                                      "}")
                            .optimize()
                            .build();
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  VMConfig Cfg;
  Cfg.Wrappers = WrapperMode::None;
  Cfg.OutputLimit = 10;
  RunResult R = VM(*Prog.M, Cfg).run("main", {});
  // Output past the cap is discarded; the run itself completes.
  EXPECT_TRUE(R.ok()) << R.Message;
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_EQ(R.Output, std::string(10, 'x'));
}

TEST(VMLimits, FrameLimitTrapsDeepRecursion) {
  // 64 frames this small stay far from the stack guard, so the frame
  // count is what stops the recursion.
  PipelineResult Prog = PipelinePlan()
                            .frontend("int f(int n) {\n"
                                      "  if (n == 0) return 0;\n"
                                      "  return 1 + f(n - 1);\n"
                                      "}\n"
                                      "int main() { return f(1000); }")
                            .optimize()
                            .build();
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  VMConfig Cfg;
  Cfg.Wrappers = WrapperMode::None;
  Cfg.MaxFrames = 64;
  RunResult R = VM(*Prog.M, Cfg).run("main", {});
  EXPECT_EQ(R.Trap, TrapKind::StackOverflow) << trapName(R.Trap);
  EXPECT_NE(R.Message.find("frame limit exceeded"), std::string::npos)
      << R.Message;
  EXPECT_EQ(R.Counters.MaxFrameDepth, 64u);

  // The default limit leaves room for the whole recursion.
  VMConfig Default;
  Default.Wrappers = WrapperMode::None;
  RunResult Full = VM(*Prog.M, Default).run("main", {});
  EXPECT_TRUE(Full.ok()) << trapName(Full.Trap) << ": " << Full.Message;
  EXPECT_EQ(Full.ExitCode, 1000);
}

TEST(VMLimits, MallocBeyondTheHeapReturnsNull) {
  // 100 MB exceeds the 64 MB heap segment: malloc returns NULL, the
  // program sees it, and later small allocations still succeed. A size
  // near 2^64 must not wrap the allocator's rounding into a tiny block.
  const char *Src = "int main() {\n"
                    "  char* big = (char*)malloc(100000000);\n"
                    "  if (big != NULL) return 1;\n"
                    "  char* wrap = (char*)malloc(-1);\n"
                    "  if (wrap != NULL) return 3;\n"
                    "  char* small = (char*)malloc(16);\n"
                    "  if (small == NULL) return 2;\n"
                    "  small[15] = 1;\n"
                    "  return 7;\n"
                    "}";
  ASSERT_GT(100000000u, simlayout::HeapSize);
  for (bool Instrumented : {false, true}) {
    RunResult R = Instrumented ? runInstrumented(Src) : runPlain(Src);
    EXPECT_TRUE(R.ok()) << trapName(R.Trap) << ": " << R.Message;
    EXPECT_EQ(R.ExitCode, 7) << "instrumented=" << Instrumented;
  }
}

TEST(VMLimits, BuiltinThroughANarrowerPointer) {
  // strcpy called through a one-parameter pointer type: the VM must not
  // read an argument the call did not pass.
  const char *Src = "int main() {\n"
                    "  char b[4];\n"
                    "  char *(*f)(char *) = (char *(*)(char *))strcpy;\n"
                    "  b[0] = 0;\n"
                    "  f(b);\n"
                    "  return 5;\n"
                    "}";
  RunResult Plain = runPlain(Src);
  EXPECT_EQ(Plain.Trap, TrapKind::BadIndirectCall);
  EXPECT_EQ(Plain.Message.rfind("call to @strcpy with too few arguments", 0),
            0u)
      << Plain.Message;
  // Instrumented, the call carries b's bounds as a second argument, so it
  // runs the plain builtin and stays inside its arguments.
  RunResult Instrumented = runInstrumented(Src);
  EXPECT_TRUE(Instrumented.ok()) << Instrumented.Message;
  EXPECT_EQ(Instrumented.ExitCode, 5);
}

TEST(VMLimits, OversizedObjectsAreRefused) {
  // Each object is far larger than its segment (or than 64 bits). None
  // may wrap an address computation or materialise its bytes on the
  // host: the frontend rejects what C rejects, and the VM refuses or
  // traps on what does not fit.
  auto Build = [](const std::string &Src, bool Instrumented) {
    PipelinePlan Plan;
    Plan.frontend(Src).optimize();
    if (Instrumented)
      Plan.softbound().checkOpt();
    return Plan.build();
  };
  const std::string Caller = "int g() { return 5 + f(); }\n"
                             "int main() { return g(); }\n";
  for (bool Instrumented : {false, true}) {
    SCOPED_TRACE(Instrumented ? "instrumented" : "plain");
    // Control: a 3 MB local overflows the 2 MB stack and traps.
    SessionResult Small = runSession(Build(
        "int f() { char a[3000000]; a[0] = 1; return 7; }\n" + Caller,
        Instrumented));
    EXPECT_EQ(Small.Combined.Trap, TrapKind::StackOverflow)
        << trapName(Small.Combined.Trap);

    // A 4 GB local must not wrap the frame computation past zero.
    SessionResult Local = runSession(Build(
        "int f() { char a[4000000000]; a[0] = 1; return 7; }\n" + Caller,
        Instrumented));
    EXPECT_EQ(Local.Combined.Trap, TrapKind::StackOverflow)
        << trapName(Local.Combined.Trap) << " exit "
        << Local.Combined.ExitCode;
    EXPECT_NE(Local.Combined.Message.find("stack exhausted in @"),
              std::string::npos)
        << Local.Combined.Message;

    // A negative dimension is a compile error.
    PipelineResult Negative =
        Build("int main() { char a[-1]; return 0; }", Instrumented);
    EXPECT_FALSE(Negative.ok());
    EXPECT_NE(Negative.errorText().find("negative array dimension"),
              std::string::npos)
        << Negative.errorText();

    // So is a dimension that only fits as an unsigned 64-bit literal
    // (it used to abort the host while zero-filling the initializer),
    PipelineResult AllOnes = Build(
        "char g[18446744073709551615];\nint main() { return 0; }",
        Instrumented);
    EXPECT_FALSE(AllOnes.ok());
    // and an array whose byte size overflows 64 bits.
    PipelineResult Overflow = Build(
        "long g[3000000000000000000];\nint main() { return 0; }",
        Instrumented);
    EXPECT_FALSE(Overflow.ok());
    EXPECT_NE(Overflow.errorText().find("overflows 64 bits"),
              std::string::npos)
        << Overflow.errorText();

    // A 4 GB global does not fit the global segment: the run is refused
    // by name, and the build never materialises its zero bytes.
    PipelineResult Global = Build(
        "char g[4000000000];\nint main() { g[0] = 1; return 0; }",
        Instrumented);
    ASSERT_TRUE(Global.ok()) << Global.errorText();
    SessionResult Big = runSession(Global);
    EXPECT_EQ(Big.Combined.Trap, TrapKind::OutOfMemory)
        << trapName(Big.Combined.Trap);
    EXPECT_NE(Big.Combined.Message.find("@g"), std::string::npos)
        << Big.Combined.Message;
  }
}

} // namespace

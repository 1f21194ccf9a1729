//===- examples/subobject_protection.cpp - §2.1's motivating bug -----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §2.1 example: a string overflow inside a struct that
/// overwrites an adjacent function pointer. Object-granularity tools
/// (Jones–Kelly / Mudflap style) cannot see it — the access never leaves
/// the struct. SoftBound's shrunk field bounds catch the write itself;
/// and even with shrinking disabled, the disjoint metadata still catches
/// the corrupted function pointer at the indirect call.
///
//===----------------------------------------------------------------------===//

#include "baselines/ObjectTableChecker.h"
#include "driver/Pipeline.h"

#include <cstdio>

using namespace softbound;

namespace {

// §2.1, verbatim structure:
//   struct { char str[8]; void (*func)(); } node;
//   char* ptr = node.str;
//   strcpy(ptr, "overflow...");
const char *Program = R"(
struct node { char str[8]; int (*func)(int); };

int good(int x) { return x; }

int main() {
  struct node n;
  n.func = good;
  char* ptr = n.str;
  strcpy(ptr, "overflow...");
  return n.func(7);
}
)";

} // namespace

int main() {
  std::printf("== Sub-object overflow (§2.1) across four tools ==\n\n");

  // 1. Unprotected: function pointer corrupted, call goes wild.
  PipelinePlan Uninstrumented = PipelinePlan().frontend(Program).optimize();
  RunResult Plain = runSession(Uninstrumented).Combined;
  std::printf("unprotected:            trap=%s (%s)\n", trapName(Plain.Trap),
              Plain.Message.c_str());

  // 2. Object-table baseline: the write stays inside `struct node`.
  ObjectTableChecker OT;
  RunRequest R;
  R.Checker = &OT;
  RunResult Obj = runSession(Uninstrumented, R).Combined;
  std::printf("object table (mudflap): trap=%s  <- in-object overflow "
              "invisible\n",
              trapName(Obj.Trap));

  // 3. SoftBound without sub-object shrinking: the write passes, but the
  //    forged function pointer fails the base==bound==ptr encoding check.
  PipelinePlan NoShrink;
  NoShrink.frontend(Program);
  std::string Err;
  if (!NoShrink.appendSpec("optimize,softbound(no-shrink),checkopt", &Err)) {
    std::fprintf(stderr, "bad pipeline spec: %s\n", Err.c_str());
    return 1;
  }
  RunResult NS = runSession(NoShrink).Combined;
  std::printf("softbound, no shrink:   trap=%s  <- caught at the indirect "
              "call\n",
              trapName(NS.Trap));

  // 4. Full SoftBound: the overflowing strcpy itself is rejected.
  RunResult SB =
      runSession(
          PipelinePlan().frontend(Program).optimize().softbound().checkOpt())
          .Combined;
  std::printf("softbound (full):       trap=%s  <- caught at the write\n",
              trapName(SB.Trap));
  std::printf("  %s\n", SB.Message.c_str());

  // The object table must NOT have flagged the overflow (the later crash
  // is the uninstrumented program's own wild call, not a detection).
  return SB.violationDetected() && NS.violationDetected() &&
                 !Obj.violationDetected()
             ? 0
             : 1;
}

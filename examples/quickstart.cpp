//===- examples/quickstart.cpp - five-minute tour ---------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: compile a C program with a latent off-by-one, run it
/// unprotected (silent memory corruption), then run it under SoftBound
/// (the overflowing store traps before any corruption). Builds go through
/// the composable PipelinePlan API (driver/PassManager.h); the example
/// also prints the per-pass timings and the instrumented IR of the hot
/// function so you can see the inserted metadata loads/stores and checks.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/IRPrinter.h"

#include <cstdio>

using namespace softbound;

namespace {

const char *Program = R"(
struct account { long balance[4]; long audit_flag; };

long total(struct account* a, int n) {
  long sum = 0;
  /* Off-by-one: reads/writes one slot past balance[4] — the audit flag. */
  for (int i = 0; i <= n; i++) sum += a->balance[i];
  a->balance[n] = sum;            /* clobbers audit_flag when n == 4 */
  return sum;
}

int main() {
  struct account acct;
  acct.audit_flag = 1;
  for (int i = 0; i < 4; i++) acct.balance[i] = 100 * (i + 1);
  long t = total(&acct, 4);
  print_str("total=");   print_int(t);
  print_str(" audit=");  print_int(acct.audit_flag);
  print_char('\n');
  return acct.audit_flag == 1 ? 0 : 1;
}
)";

} // namespace

int main() {
  std::printf("== SoftBound quickstart ==\n\n");

  // 1. Unprotected run: the program "works" but silently corrupts state.
  //    A pipeline is just frontend + optimizer.
  RunResult Plain =
      runSession(PipelinePlan().frontend(Program).optimize()).Combined;
  std::printf("unprotected run:  trap=%s exit=%lld\n", trapName(Plain.Trap),
              static_cast<long long>(Plain.ExitCode));
  std::printf("  output: %s", Plain.Output.c_str());
  std::printf("  -> the audit flag was silently overwritten (exit=1)\n\n");

  // 2. SoftBound full checking: append the instrumentation and the static
  //    check optimizer to the plan; the overflow traps at the faulty
  //    access. (Equivalently: plan.appendSpec("optimize,softbound,checkopt").)
  PipelinePlan ProtectedPlan =
      PipelinePlan().frontend(Program).optimize().softbound().checkOpt();
  PipelineResult Prog = ProtectedPlan.build();
  if (!Prog.ok()) {
    std::printf("build failed: %s\n", Prog.errorText().c_str());
    return 1;
  }
  std::printf("SoftBound transformation stats (pipeline: %s):\n",
              ProtectedPlan.spec().c_str());
  const SoftBoundStats &SB = Prog.Pipeline.SB;
  std::printf("  functions transformed: %u (renamed to _sb_*)\n",
              SB.FunctionsTransformed);
  std::printf("  spatial checks inserted: %u\n", SB.ChecksInserted);
  std::printf("  metadata loads/stores:   %u/%u\n", SB.MetaLoadsInserted,
              SB.MetaStoresInserted);
  std::printf("  sub-object bounds shrunk: %u\n", SB.BoundsShrunk);
  for (const auto &T : Prog.Pipeline.Passes)
    std::printf("  pass %-10s %6.2f ms\n", T.Pass.c_str(), T.Millis);
  std::printf("\n");

  RunResult Protected = runSession(Prog).Combined;
  std::printf("protected run:    trap=%s\n", trapName(Protected.Trap));
  std::printf("  message: %s\n\n", Protected.Message.c_str());

  // 3. Show the instrumented IR of the buggy function.
  std::printf("instrumented IR of total():\n%s\n",
              printFunction(*Prog.M->getFunction("_sb_total")).c_str());
  return Protected.violationDetected() ? 0 : 1;
}

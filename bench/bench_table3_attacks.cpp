//===- bench/bench_table3_attacks.cpp - Table 3 -----------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 3: the synthetic attack suite (Wilander-style), with
/// SoftBound detection under full and store-only checking. Paper's result:
/// 18/18 detected in both modes.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

using namespace softbound;
using namespace softbound::benchutil;

int main() {
  std::printf("=== Table 3: synthetic attack suite detection ===\n\n");
  TablePrinter T({"attack", "technique", "location", "target", "unprotected",
                  "full", "store-only"});

  int Landed = 0, FullDet = 0, StoreDet = 0;
  for (const auto &A : attackSuite()) {
    RunResult RPlain = runSession(mustBuild(A.Source, "optimize")).Combined;
    RunResult RFull =
        runSession(mustBuild(A.Source, "optimize,softbound,checkopt")).Combined;
    RunResult RStore =
        runSession(
            mustBuild(A.Source, "optimize,softbound(store-only),checkopt"))
            .Combined;

    bool L = RPlain.attackLanded();
    bool F = RFull.violationDetected();
    bool S = RStore.violationDetected();
    Landed += L;
    FullDet += F;
    StoreDet += S;
    T.addRow({A.Name, A.Technique, A.Location, A.Target,
              L ? "attack lands" : "NO EFFECT", F ? "yes" : "MISSED",
              S ? "yes" : "MISSED"});
  }
  T.print();
  std::printf("\nattacks landing unprotected: %d/18\n", Landed);
  std::printf("detected with full checking:  %d/18 (paper: 18/18)\n",
              FullDet);
  std::printf("detected with store-only:     %d/18 (paper: 18/18)\n",
              StoreDet);
  return (Landed == 18 && FullDet == 18 && StoreDet == 18) ? 0 : 1;
}

//===- opt/checks/CheckOpt.cpp - check-optimization driver ------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/checks/CheckOpt.h"

#include "opt/Passes.h"
#include "opt/checks/InterProc.h"
#include "opt/checks/LoopHoist.h"
#include "opt/checks/Partition.h"
#include "support/Casting.h"

#include <algorithm>

using namespace softbound;

namespace {

unsigned countSpatialChecks(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const auto &I : *BB)
      if (isa<SpatialCheckInst>(I.get()))
        ++N;
  return N;
}

} // namespace

CheckOptStats softbound::optimizeChecks(Module &M, const CheckOptConfig &Cfg) {
  CheckOptStats Stats;
  if (!Cfg.Enable)
    return Stats;
  // Top-down argument ranges let the runtime-limit hoister discharge its
  // trip/wrap guards statically. They lean on the closed-module
  // assumption, so any use is recorded as an entry contract below —
  // exactly as checkopt(interproc) records its own deletions.
  checkopt::InterProcArgRanges IPR;
  const std::map<const Argument *, checkopt::IntRange> *Ranges = nullptr;
  bool DischargeUsed = false;
  if (Cfg.HoistLoopChecks && Cfg.RuntimeLimitHulls && Cfg.InterProc) {
    IPR = checkopt::computeInterProcArgRanges(M);
    Ranges = &IPR.Ranges;
  }
  for (const auto &FP : M.functions()) {
    Function &F = *FP;
    if (!F.isDefinition())
      continue;
    Stats.ChecksBefore += countSpatialChecks(F);
    // CCured-SAFE elision first (opt-in): checks it deletes are statically
    // settled, so the later sub-passes need not reason about them at all.
    if (Cfg.ElideSafeChecks)
      checkopt::elideSafeChecks(F, Stats);
    if (Cfg.HoistLoopChecks) {
      checkopt::hoistLoopChecks(F, Stats, Cfg, Ranges, &DischargeUsed);
      // Several hull checks of one loop can materialize the same hull
      // arithmetic (the same i8 view of the root, the same K*L + C
      // offset); fold the copies before DCE sweeps what they strand.
      localCSE(F);
    }
    // Deleted checks strand their bounds/GEP arithmetic; sweep it.
    dce(F);
    Stats.ChecksAfter += countSpatialChecks(F);
  }
  if (DischargeUsed)
    M.recordInterProcContract(IPR.Internal);
  // Inter-procedural propagation runs after the per-function passes so
  // hoisted hull checks and surviving dominating checks serve as facts;
  // its fact walk also deletes every check a dominating fact covers.
  // When the hoister already computed the argument-range fixpoint above,
  // the propagation adopts it instead of repeating the most expensive
  // phase (the per-function passes never change a call argument's value).
  if (Cfg.InterProc) {
    unsigned Deleted = checkopt::propagateInterProcChecks(M, Stats, Ranges);
    Stats.ChecksAfter -= std::min(Deleted, Stats.ChecksAfter);
  }
  // Partitioning runs last: it can only prove a function once every other
  // sub-pass has discharged its checks, and it never creates or removes a
  // check itself — it converts check elision into metadata-op elision.
  if (Cfg.Partition)
    checkopt::partitionCheckedRegions(M, Stats);
  return Stats;
}

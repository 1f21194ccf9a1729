//===- opt/checks/RedundantChecks.cpp - dominance-based check RCE -----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominance-based redundant spatial-check elimination. A preorder walk of
/// the dominator tree (DomTree::walk) carries two scoped fact tables:
///
///   * Exact facts: proven intervals keyed by the checked pointer SSA
///     value itself — a later check on the same SSA pointer with an
///     equal-or-smaller access size is deleted (the dominance
///     generalization of the block-local eliminateRedundantChecks).
///   * Range facts: proven intervals keyed by the *decomposed* root, so a
///     dominating check on `p+8` with size 8 also kills a check on
///     `(int*)p + 3` with size 4 — different SSA pointers, same bytes.
///
/// Deleting a dominated check is sound because the dominating check traps
/// first on any path where the dominated one would have: both read only
/// SSA values, which nothing between them can change.
///
//===----------------------------------------------------------------------===//

#include "ir/InstOrder.h"
#include "opt/Dominators.h"
#include "opt/checks/CheckOpt.h"
#include "opt/checks/RangeAnalysis.h"

using namespace softbound;
using namespace softbound::checkopt;

bool softbound::instDominates(const DomTree &DT, const InstOrder &Ord,
                              const Instruction *A, const Instruction *B) {
  if (A == B)
    return false;
  if (A->parent() == B->parent())
    return Ord.precedes(A, B);
  return DT.dominates(A->parent(), B->parent());
}

namespace {

using CheckKey = std::pair<const Value *, const Value *>;

/// The dominator-tree walk's per-block work. Facts live in three scoped
/// tables; a function-pointer check's presence is recorded as the unit
/// interval [0, 1) of its (pointer, bounds) key.
class RCEWalker {
public:
  RCEWalker(Function &F, const CheckOptConfig &Cfg, CheckOptStats &Stats)
      : DT(F), Cfg(Cfg), Stats(Stats) {}

  void run() {
    DT.walk([this](BasicBlock *BB) { visit(BB); },
            [this](BasicBlock *) {
              Exact.leave();
              Ranged.leave();
              FuncPtrSeen.leave();
            });
  }

private:
  void visit(BasicBlock *BB);

  DomTree DT;
  const CheckOptConfig &Cfg;
  CheckOptStats &Stats;

  ScopedFacts<CheckKey> Exact;       ///< (checked pointer, bounds).
  ScopedFacts<CheckKey> Ranged;      ///< (decomposed root, bounds).
  ScopedFacts<CheckKey> FuncPtrSeen; ///< (function pointer, bounds).
};

void RCEWalker::visit(BasicBlock *BB) {
  Exact.enter();
  Ranged.enter();
  FuncPtrSeen.enter();

  for (auto It = BB->begin(); It != BB->end();) {
    Instruction *I = It->get();

    if (auto *Chk = dyn_cast<SpatialCheckInst>(I)) {
      Value *P = Chk->pointer();
      Value *B = Chk->bounds();
      int64_t Size = static_cast<int64_t>(Chk->accessSize());

      if (Cfg.EliminateDominated && Exact.covers({P, B}, 0, Size)) {
        It = BB->erase(It);
        ++Stats.DominatedEliminated;
        continue;
      }
      PtrOffset PO = decomposePointer(P);
      if (Cfg.RangeSubsumption &&
          Ranged.covers({PO.Root, B}, PO.Offset, PO.Offset + Size)) {
        It = BB->erase(It);
        ++Stats.RangeEliminated;
        continue;
      }
      // A guarded check (runtime-limit hull or its fallback) may be
      // *deleted* when a dominating unconditional check proves its bytes —
      // skipping a proven check is always sound — but it must never source
      // a fact: nothing guarantees it executed.
      if (!Chk->isGuarded()) {
        if (Cfg.EliminateDominated)
          Exact.add({P, B}, 0, Size);
        if (Cfg.RangeSubsumption)
          Ranged.add({PO.Root, B}, PO.Offset, PO.Offset + Size);
      }
      ++It;
      continue;
    }

    if (auto *FPC = dyn_cast<FuncPtrCheckInst>(I);
        FPC && Cfg.EliminateDominated) {
      CheckKey Key(FPC->pointer(), FPC->bounds());
      if (FuncPtrSeen.covers(Key, 0, 1)) {
        It = BB->erase(It);
        ++Stats.FuncPtrEliminated;
        continue;
      }
      FuncPtrSeen.add(Key, 0, 1);
      ++It;
      continue;
    }

    ++It;
  }
}

} // namespace

namespace softbound {
namespace checkopt {

void eliminateRedundantSpatialChecks(Function &F, const CheckOptConfig &Cfg,
                                     CheckOptStats &Stats) {
  if (!F.isDefinition())
    return;
  RCEWalker(F, Cfg, Stats).run();
}

} // namespace checkopt
} // namespace softbound

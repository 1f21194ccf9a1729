//===- opt/checks/SafeElision.cpp - CCured-SAFE check elision ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CCured-SAFE elision sub-pass (§6.5 comparison): a spatial check is
/// deleted when its pointer reaches a stack or global object of statically
/// known size through bitcasts and GEPs whose indices are all non-negative
/// constants with every *interior* (sub-object) step in range, and the
/// checked access fits inside the object. This models CCured's
/// SAFE-pointer inference: such accesses can never leave the allocation,
/// so the dynamic check is pure overhead.
///
/// Load, store and setjmp/longjmp-buffer checks are all eligible. An
/// out-of-range constant interior index
/// (s.buf[9] on char buf[8]) is *rejected* and its check survives to trap;
/// only containment of the leading pointer-arithmetic step is judged
/// against the whole object, so sub-object overflows through a derived
/// field pointer plus arithmetic can still be missed — the §6.5
/// compatibility/precision trade-off, and why this sub-pass is off by
/// default.
///
//===----------------------------------------------------------------------===//

#include "opt/checks/CheckOpt.h"
#include "support/Casting.h"

using namespace softbound;

namespace {

/// CCured-SAFE-style static proof: \p Ptr is a constant offset into an
/// object of known size and [offset, offset+AccessSize) is in bounds.
bool staticallyInBounds(Value *Ptr, uint64_t AccessSize) {
  uint64_t Offset = 0;
  Value *Cur = Ptr;
  for (int Depth = 0; Depth < 16; ++Depth) {
    if (auto *BC = dyn_cast<CastInst>(Cur);
        BC && BC->opcode() == CastInst::Op::Bitcast) {
      Cur = BC->source();
      continue;
    }
    if (auto *GI = dyn_cast<GEPInst>(Cur)) {
      // All indices must be constants to accumulate a static offset.
      Type *Ty = GI->sourceType();
      auto *First = dyn_cast<ConstantInt>(GI->index(0));
      if (!First || First->value() < 0)
        return false;
      Offset += static_cast<uint64_t>(First->value()) * Ty->sizeInBytes();
      for (unsigned K = 1; K < GI->numIndices(); ++K) {
        auto *CI = dyn_cast<ConstantInt>(GI->index(K));
        if (!CI || CI->value() < 0)
          return false;
        if (auto *AT = dyn_cast<ArrayType>(Ty)) {
          if (static_cast<uint64_t>(CI->value()) >= AT->count())
            return false;
          Offset += static_cast<uint64_t>(CI->value()) *
                    AT->element()->sizeInBytes();
          Ty = AT->element();
          continue;
        }
        auto *ST = cast<StructType>(Ty);
        Offset += ST->fieldOffset(static_cast<unsigned>(CI->value()));
        Ty = ST->field(static_cast<unsigned>(CI->value()));
      }
      Cur = GI->pointer();
      continue;
    }
    // Base object with statically known size?
    if (auto *AI = dyn_cast<AllocaInst>(Cur))
      return Offset + AccessSize <= AI->allocatedType()->sizeInBytes();
    if (auto *G = dyn_cast<GlobalVariable>(Cur))
      return Offset + AccessSize <= G->valueType()->sizeInBytes();
    return false;
  }
  return false;
}

} // namespace

void softbound::checkopt::elideSafeChecks(Function &F, CheckOptStats &Stats) {
  for (const auto &BB : F.blocks()) {
    for (auto It = BB->begin(); It != BB->end();) {
      auto *Chk = dyn_cast<SpatialCheckInst>(It->get());
      if (!Chk || !staticallyInBounds(Chk->pointer(), Chk->accessSize())) {
        ++It;
        continue;
      }
      It = BB->erase(It);
      ++Stats.SafeChecksElided;
    }
  }
}

//===- opt/checks/RangeAnalysis.cpp - symbolic pointer ranges ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/checks/RangeAnalysis.h"

#include "support/Casting.h"

#include <algorithm>

using namespace softbound;
using namespace softbound::checkopt;

namespace {

/// Offsets past this never appear in well-behaved programs; bailing out
/// (keeping the check) both avoids signed-overflow UB in the accumulation
/// below and keeps the facts honest where 64-bit address arithmetic could
/// wrap.
constexpr int64_t MaxDecomposedOffset = int64_t(1) << 40;

} // namespace

const Value *checkopt::safeConstantRoot(const Value *P, uint64_t &Offset) {
  Offset = 0;
  for (int Depth = 0; Depth < 16; ++Depth) {
    if (const auto *BC = dyn_cast<CastInst>(P);
        BC && BC->opcode() == CastInst::Op::Bitcast) {
      P = BC->source();
      continue;
    }
    const auto *G = dyn_cast<GEPInst>(P);
    if (!G)
      return P;
    if (!G->walkLayout([&](const GEPStep &S) {
          const auto *CI = dyn_cast<ConstantInt>(S.Index);
          if (!CI || CI->value() < 0)
            return false;
          auto Idx = static_cast<uint64_t>(CI->value());
          if (S.Kind == GEPStep::Array && Idx >= S.Count)
            return false;
          Offset += S.isField() ? S.Bytes : Idx * S.Bytes;
          return true;
        }))
      return nullptr;
    P = G->pointer();
  }
  return nullptr;
}

Value *checkopt::stripSExt(Value *V) {
  for (int Depth = 0; Depth < 64; ++Depth) {
    auto *C = dyn_cast<CastInst>(V);
    if (!C || C->opcode() != CastInst::Op::SExt)
      break;
    V = C->source();
  }
  return V;
}

LinearPtr checkopt::decomposeLinearPtr(Value *P) {
  LinearPtr Out;
  Out.Root = P;
  for (int Depth = 0; Depth < 64; ++Depth) {
    if (auto *BC = dyn_cast<CastInst>(Out.Root);
        BC && BC->opcode() == CastInst::Op::Bitcast) {
      Out.Root = BC->source();
      continue;
    }
    auto *G = dyn_cast<GEPInst>(Out.Root);
    if (!G)
      break;

    // Fold this GEP's indices; on any unsupported shape keep Root at the
    // GEP itself (facts still work, just less sharing).
    __int128 Base = Out.Base;
    __int128 Scale = Out.Scale;
    Value *Idx = Out.Index;
    bool OK = G->walkLayout([&](const GEPStep &S) {
      if (S.isField()) {
        Base += static_cast<int64_t>(S.Bytes);
        return true;
      }
      auto ElemSize = static_cast<int64_t>(S.Bytes);
      if (auto *CI = dyn_cast<ConstantInt>(S.Index)) {
        Base += __int128(CI->value()) * ElemSize;
        return true;
      }
      if (ElemSize == 0)
        return true; // Zero-sized step contributes nothing.
      Value *V = stripSExt(S.Index);
      if (Idx && Idx != V)
        return false; // Two distinct variable indices: stop at this GEP.
      Idx = V;
      Scale += ElemSize;
      return true;
    });
    if (!OK || Base < -__int128(MaxDecomposedOffset) ||
        Base > __int128(MaxDecomposedOffset) ||
        Scale > __int128(MaxDecomposedOffset))
      break;
    Out.Base = static_cast<int64_t>(Base);
    Out.Scale = static_cast<int64_t>(Scale);
    Out.Index = Idx;
    Out.Root = G->pointer();
  }
  if (Out.Scale == 0)
    Out.Index = nullptr;
  return Out;
}

bool IntervalSet::covers(int64_t Lo, int64_t Hi) const {
  if (Lo >= Hi)
    return true; // Empty access: trivially covered.
  // First interval whose Lo is > our Lo; the candidate is its predecessor.
  auto It = std::upper_bound(
      Iv.begin(), Iv.end(), Lo,
      [](int64_t V, const ByteInterval &B) { return V < B.Lo; });
  if (It == Iv.begin())
    return false;
  --It;
  return It->Lo <= Lo && Hi <= It->Hi;
}

void IntervalSet::add(int64_t Lo, int64_t Hi) {
  if (Lo >= Hi)
    return;
  // Find the insertion window: all intervals overlapping or adjacent to
  // [Lo, Hi) get merged into it.
  auto First = std::lower_bound(
      Iv.begin(), Iv.end(), Lo,
      [](const ByteInterval &B, int64_t V) { return B.Hi < V; });
  auto Last = First;
  while (Last != Iv.end() && Last->Lo <= Hi) {
    Lo = std::min(Lo, Last->Lo);
    Hi = std::max(Hi, Last->Hi);
    ++Last;
  }
  First = Iv.erase(First, Last);
  Iv.insert(First, ByteInterval{Lo, Hi});
}

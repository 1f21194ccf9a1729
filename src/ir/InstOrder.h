//===- ir/InstOrder.h - intra-block instruction ordering --------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lazy instruction numbering for one function, giving O(log n)
/// "does A execute before B within their shared block" queries. Combined
/// with a block-level dominator tree this answers instruction-level
/// dominance questions — the query the check optimizer asks about pairs of
/// spatial-check instructions (see opt/Dominators.h::instDominates).
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_INSTORDER_H
#define SOFTBOUND_IR_INSTORDER_H

#include "ir/Function.h"

#include <map>

namespace softbound {

/// Positions of every instruction of one function at construction time.
/// Invalidated by any insertion or deletion.
class InstOrder {
public:
  explicit InstOrder(const Function &F);

  /// Position of \p I within its block, or -1 when \p I was not present at
  /// construction time.
  int ordinal(const Instruction *I) const {
    auto It = Ord.find(I);
    return It == Ord.end() ? -1 : It->second;
  }

  /// True if \p A and \p B share a block and \p A strictly precedes \p B.
  bool precedes(const Instruction *A, const Instruction *B) const {
    if (A->parent() != B->parent())
      return false;
    int OA = ordinal(A), OB = ordinal(B);
    return OA >= 0 && OB >= 0 && OA < OB;
  }

private:
  std::map<const Instruction *, int> Ord;
};

} // namespace softbound

#endif // SOFTBOUND_IR_INSTORDER_H

//===- opt/checks/RangeAnalysis.h - symbolic pointer ranges -----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pointer decompositions and scoped interval facts the check
/// optimizer's sub-passes share. A pointer SSA value is decomposed into a
/// *root* (the SSA value it was derived from by bitcasts and GEPs) plus a
/// byte offset that is constant or linear in one SSA index. A spatial
/// check `check(p, b, size)` then proves the symbolic fact "bytes
/// [off, off+size) past root are inside [base(b), bound(b))", and those
/// facts — held as merged interval sets per key — flow down the
/// dominator tree: any later check whose interval is covered is
/// statically redundant (InterProc.cpp's fact walk).
///
/// Facts never need invalidation: a check consumes only its two SSA
/// operands, whose dynamic values no store, call, or metadata update can
/// change. (Temporal safety is out of scope, exactly as in the paper.)
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_RANGEANALYSIS_H
#define SOFTBOUND_OPT_CHECKS_RANGEANALYSIS_H

#include "ir/BasicBlock.h"

#include <map>
#include <utility>
#include <vector>

namespace softbound {
namespace checkopt {

/// CCured-SAFE's constant-offset walk, shared by SafeElision's static
/// proof and Partition's fresh-malloc slots: strips up to 16 bitcasts and
/// GEPs off \p P whose indices are all non-negative constants, with every
/// interior array index below its count, summing their byte offset
/// (modulo 2^64) into \p Offset. Returns the value under them, or null
/// when a GEP breaks that rule or the chain is longer.
const Value *safeConstantRoot(const Value *P, uint64_t &Offset);

/// A pointer expressed as root + Base + Scale * Index bytes, where Index
/// is a single SSA integer (null for purely constant offsets). The
/// inter-procedural propagation keys its facts on it: two checks on
/// `a[i]` prove the same bytes whenever their roots, scales, and index
/// SSA values coincide.
struct LinearPtr {
  Value *Root = nullptr;
  int64_t Base = 0;
  int64_t Scale = 0;       ///< 0 when Index is null.
  Value *Index = nullptr;  ///< Sign-extension-stripped SSA index, or null.
};

/// Strips value-preserving sign extensions (the frontend widens every
/// array index to i64 with sext). Identity for everything else.
Value *stripSExt(Value *V);

/// Decomposes \p P as root + Base + Scale * Index, walking bitcasts and
/// GEPs. At most one distinct variable index is folded in (repeated uses
/// of the same SSA index accumulate into Scale); a second distinct
/// variable stops the walk at the containing GEP's pointer, as does an
/// offset past 2^40 bytes. Always succeeds: worst case Root == P.
LinearPtr decomposeLinearPtr(Value *P);

/// Half-open byte interval [Lo, Hi).
struct ByteInterval {
  int64_t Lo = 0;
  int64_t Hi = 0;
};

/// A sorted set of disjoint intervals with merge-on-insert, so adjacent
/// proven ranges ([0,4) then [4,8)) cover their union ([0,8)).
class IntervalSet {
public:
  bool covers(int64_t Lo, int64_t Hi) const;
  void add(int64_t Lo, int64_t Hi);
  size_t size() const { return Iv.size(); }
  const std::vector<ByteInterval> &intervals() const { return Iv; }

private:
  std::vector<ByteInterval> Iv; ///< Sorted by Lo; disjoint, non-adjacent.
};

/// Scoped Key -> proven-interval facts for the dominator-tree walk
/// (DomTree::walk): call enter() from its enter hook and leave() from its
/// leave hook, and the facts added while a block's subtree is walked are
/// rolled back once it is done, so only facts established on the
/// dominating path stay visible.
template <typename Key> class ScopedFacts {
public:
  bool covers(const Key &K, int64_t Lo, int64_t Hi) const {
    auto It = Facts.find(K);
    return It != Facts.end() && It->second.covers(Lo, Hi);
  }

  void add(const Key &K, int64_t Lo, int64_t Hi) {
    IntervalSet &Set = Facts[K];
    Undo.emplace_back(K, Set); // Snapshot for the rollback.
    Set.add(Lo, Hi);
  }

  void enter() { Marks.push_back(Undo.size()); }

  void leave() {
    for (; Undo.size() > Marks.back(); Undo.pop_back())
      Facts[Undo.back().first] = std::move(Undo.back().second);
    Marks.pop_back();
  }

private:
  std::map<Key, IntervalSet> Facts;
  std::vector<std::pair<Key, IntervalSet>> Undo;
  std::vector<size_t> Marks;
};

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_RANGEANALYSIS_H

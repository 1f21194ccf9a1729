//===- opt/Dominators.h - dominator tree and frontiers ----------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree (Cooper–Harvey–Kennedy iterative algorithm) and dominance
/// frontiers, used by mem2reg for SSA construction, plus the one
/// dominator-tree walk every scoped analysis runs (DomTree::walk) and the
/// instruction-level dominance query built on it (instDominates).
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_DOMINATORS_H
#define SOFTBOUND_OPT_DOMINATORS_H

#include "ir/Function.h"

#include <map>
#include <set>
#include <vector>

namespace softbound {

class InstOrder;

/// Dominator information for one function.
class DomTree {
public:
  explicit DomTree(Function &F);

  /// Immediate dominator, or null for the entry block.
  BasicBlock *idom(BasicBlock *BB) const {
    auto It = IDom.find(BB);
    return It == IDom.end() ? nullptr : It->second;
  }

  /// True if A dominates B (reflexive).
  bool dominates(BasicBlock *A, BasicBlock *B) const;

  /// Dominance frontier of a block.
  const std::set<BasicBlock *> &frontier(BasicBlock *BB) const {
    static const std::set<BasicBlock *> Empty;
    auto It = DF.find(BB);
    return It == DF.end() ? Empty : It->second;
  }

  /// Dominator-tree children, in reverse-postorder.
  const std::vector<BasicBlock *> &children(BasicBlock *BB) const {
    static const std::vector<BasicBlock *> Empty;
    auto It = Kids.find(BB);
    return It == Kids.end() ? Empty : It->second;
  }

  /// The dominator-tree walk: a preorder from the entry block that calls
  /// \p Enter(BB) on reaching a block and \p Leave(BB) once every block
  /// BB dominates has been entered and left, taking children in
  /// children() order. It keeps its own stack: a deep CFG must not
  /// overflow the host's. Enter and Leave may edit instructions but not
  /// the CFG.
  template <typename EnterFn, typename LeaveFn>
  void walk(EnterFn &&Enter, LeaveFn &&Leave) const {
    struct Frame {
      BasicBlock *BB;
      const std::vector<BasicBlock *> *Kids;
      size_t Next;
    };
    std::vector<Frame> Stack;
    auto Push = [&](BasicBlock *BB) {
      Enter(BB);
      Stack.push_back({BB, &children(BB), 0});
    };
    Push(Entry);
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      if (Top.Next < Top.Kids->size()) {
        Push((*Top.Kids)[Top.Next++]); // Invalidates Top.
        continue;
      }
      BasicBlock *Done = Top.BB;
      Stack.pop_back();
      Leave(Done);
    }
  }

  /// Blocks in reverse postorder (reachable blocks only).
  const std::vector<BasicBlock *> &rpo() const { return RPO; }

  /// Predecessors of reachable blocks.
  const std::vector<BasicBlock *> &preds(BasicBlock *BB) const {
    static const std::vector<BasicBlock *> Empty;
    auto It = Preds.find(BB);
    return It == Preds.end() ? Empty : It->second;
  }

private:
  BasicBlock *Entry;
  std::map<BasicBlock *, BasicBlock *> IDom;
  std::map<BasicBlock *, std::set<BasicBlock *>> DF;
  std::map<BasicBlock *, std::vector<BasicBlock *>> Kids;
  std::map<BasicBlock *, std::vector<BasicBlock *>> Preds;
  std::map<BasicBlock *, int> Order; ///< RPO index.
  std::vector<BasicBlock *> RPO;
};

/// Instruction-level dominance: true when \p A executes before \p B on
/// every path reaching \p B (strict; an instruction does not dominate
/// itself). \p DT and \p Ord must be current for the containing function.
bool instDominates(const DomTree &DT, const InstOrder &Ord,
                   const Instruction *A, const Instruction *B);

} // namespace softbound

#endif // SOFTBOUND_OPT_DOMINATORS_H

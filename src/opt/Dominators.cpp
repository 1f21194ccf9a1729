//===- opt/Dominators.cpp - dominator tree and frontiers --------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/Dominators.h"

#include "ir/InstOrder.h"

#include <algorithm>

using namespace softbound;

DomTree::DomTree(Function &F) : Entry(F.entry()) {
  // Postorder DFS from entry over successor edges, in successor order. It
  // keeps its own stack: a deep CFG must not overflow the host's.
  std::set<BasicBlock *> Visited{Entry};
  std::vector<BasicBlock *> Post;
  struct Frame {
    BasicBlock *BB;
    std::vector<BasicBlock *> Succs;
    size_t Next;
  };
  std::vector<Frame> Stack;
  Stack.push_back({Entry, Entry->successors(), 0});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next < Top.Succs.size()) {
      BasicBlock *S = Top.Succs[Top.Next++];
      if (Visited.insert(S).second)
        Stack.push_back({S, S->successors(), 0}); // Invalidates Top.
      continue;
    }
    Post.push_back(Top.BB);
    Stack.pop_back();
  }

  RPO.assign(Post.rbegin(), Post.rend());
  for (size_t I = 0; I < RPO.size(); ++I)
    Order[RPO[I]] = static_cast<int>(I);

  for (auto *BB : RPO)
    for (auto *S : BB->successors())
      if (Visited.count(S))
        Preds[S].push_back(BB);

  // Cooper–Harvey–Kennedy iteration.
  IDom[Entry] = Entry;
  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (Order[A] > Order[B])
        A = IDom[A];
      while (Order[B] > Order[A])
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto *BB : RPO) {
      if (BB == Entry)
        continue;
      BasicBlock *NewIDom = nullptr;
      for (auto *P : Preds[BB]) {
        if (!IDom.count(P))
          continue;
        NewIDom = NewIDom ? Intersect(P, NewIDom) : P;
      }
      if (!NewIDom)
        continue;
      auto It = IDom.find(BB);
      if (It == IDom.end() || It->second != NewIDom) {
        IDom[BB] = NewIDom;
        Changed = true;
      }
    }
  }
  IDom[Entry] = nullptr; // External convention: entry has no idom.

  for (auto &[BB, Dom] : IDom)
    if (Dom)
      Kids[Dom].push_back(BB);
  // Deterministic child order.
  for (auto &[BB, Ch] : Kids)
    std::sort(Ch.begin(), Ch.end(),
              [&](BasicBlock *A, BasicBlock *B) { return Order[A] < Order[B]; });

  // Dominance frontiers.
  for (auto *BB : RPO) {
    const auto &P = Preds[BB];
    if (P.size() < 2)
      continue;
    for (auto *Runner : P) {
      while (Runner && Runner != IDom[BB]) {
        DF[Runner].insert(BB);
        Runner = IDom[Runner];
      }
    }
  }
}

bool DomTree::dominates(BasicBlock *A, BasicBlock *B) const {
  while (B) {
    if (A == B)
      return true;
    auto It = IDom.find(B);
    B = It == IDom.end() ? nullptr : It->second;
  }
  return false;
}

bool softbound::instDominates(const DomTree &DT, const InstOrder &Ord,
                              const Instruction *A, const Instruction *B) {
  if (A == B)
    return false;
  if (A->parent() == B->parent())
    return Ord.precedes(A, B);
  return DT.dominates(A->parent(), B->parent());
}

//===- baselines/MemcheckLite.h - Valgrind-style heap checker ---*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A red-zone heap checker in the spirit of Valgrind's memcheck as the
/// paper uses it (Table 4): accesses inside the heap segment must hit a
/// live allocation; a 16-byte heap red zone (heapPad) keeps allocations
/// apart so small overflows land in no-man's land. Stack and global
/// accesses are not checked — which is why this baseline misses the
/// `go`/`compress` bugs in the Table 4 reproduction, just as Valgrind did
/// in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_BASELINES_MEMCHECKLITE_H
#define SOFTBOUND_BASELINES_MEMCHECKLITE_H

#include "vm/MemoryChecker.h"
#include "vm/SimMemory.h"

#include <map>

namespace softbound {

/// Tracks live heap blocks; flags heap accesses outside any live block.
class MemcheckLite : public MemoryChecker {
public:
  const char *name() const override { return "memcheck"; }

  void onAlloc(ObjectRegion Region, uint64_t Addr, uint64_t Size) override {
    if (Region == ObjectRegion::Heap)
      Blocks[Addr] = Size;
  }
  void onFree(ObjectRegion Region, uint64_t Addr, uint64_t Size) override {
    if (Region == ObjectRegion::Heap)
      Blocks.erase(Addr);
  }

  bool checkAccess(uint64_t Addr, uint64_t Size, bool IsStore) override {
    if (Addr < simlayout::HeapBase || Addr >= simlayout::StackBase)
      return true; // Only the heap is shadowed.
    auto It = Blocks.upper_bound(Addr);
    if (It == Blocks.begin())
      return false;
    --It;
    return Addr >= It->first && Addr + Size <= It->first + It->second;
  }

  /// Valgrind-style shadow-state maintenance cost per access (memcheck's
  /// published slowdowns are an order of magnitude; we only need its
  /// detection profile, so a flat moderate cost suffices).
  uint64_t accessCost() const override { return 12; }

  uint64_t heapPad() const override { return 16; }

  void reset() override { Blocks.clear(); }

private:
  std::map<uint64_t, uint64_t> Blocks;
};

} // namespace softbound

#endif // SOFTBOUND_BASELINES_MEMCHECKLITE_H

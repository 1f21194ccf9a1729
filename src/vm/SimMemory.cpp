//===- vm/SimMemory.cpp - simulated address space ---------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/SimMemory.h"

#include <cassert>
#include <cstring>

using namespace softbound;
using namespace softbound::simlayout;

SimMemory::SimMemory(uint64_t GlobalSize, uint64_t HeapSize,
                     uint64_t StackSize) {
  Globals.resize(GlobalSize, 0);
  Heap.resize(HeapSize, 0);
  Stack.resize(StackSize, 0);
  StackTopAddr = StackBase + StackSize;
}

namespace {
/// Relaxed per-byte copies for concurrent mode. Lanes racing on the same
/// simulated bytes is the workload's race, not the host's: routing every
/// byte through __atomic builtins keeps the host behavior defined (and
/// ThreadSanitizer quiet) at the cost of a per-byte loop instead of
/// memcpy. Only multi-lane sessions pay it.
void atomicCopyOut(uint8_t *Dst, const uint8_t *Src, uint64_t N) {
  for (uint64_t I = 0; I < N; ++I)
    Dst[I] = __atomic_load_n(Src + I, __ATOMIC_RELAXED);
}
void atomicCopyIn(uint8_t *Dst, const uint8_t *Src, uint64_t N) {
  for (uint64_t I = 0; I < N; ++I)
    __atomic_store_n(Dst + I, Src[I], __ATOMIC_RELAXED);
}
} // namespace

const uint8_t *SimMemory::resolve(uint64_t Addr, uint64_t N) const {
  if (Addr >= GlobalBase && Addr + N <= GlobalBase + Globals.size() &&
      Addr + N >= Addr)
    return Globals.data() + (Addr - GlobalBase);
  if (Addr >= HeapBase && Addr + N <= HeapBase + Heap.size() && Addr + N >= Addr)
    return Heap.data() + (Addr - HeapBase);
  if (Addr >= StackBase && Addr + N <= StackBase + Stack.size() &&
      Addr + N >= Addr)
    return Stack.data() + (Addr - StackBase);
  return nullptr;
}

bool SimMemory::read(uint64_t Addr, unsigned Size, uint64_t &Out) const {
  const uint8_t *P = resolve(Addr, Size);
  if (!P)
    return false;
  Out = 0;
  if (Concurrent)
    atomicCopyOut(reinterpret_cast<uint8_t *>(&Out), P, Size);
  else
    std::memcpy(&Out, P, Size); // Little-endian host assumed (x86-64).
  return true;
}

bool SimMemory::write(uint64_t Addr, unsigned Size, uint64_t Val) {
  uint8_t *P = resolve(Addr, Size);
  if (!P)
    return false;
  if (Concurrent)
    atomicCopyIn(P, reinterpret_cast<const uint8_t *>(&Val), Size);
  else
    std::memcpy(P, &Val, Size);
  return true;
}

bool SimMemory::readBytes(uint64_t Addr, uint64_t N, uint8_t *Out) const {
  const uint8_t *P = resolve(Addr, N);
  if (!P)
    return false;
  if (Concurrent)
    atomicCopyOut(Out, P, N);
  else
    std::memcpy(Out, P, N);
  return true;
}

bool SimMemory::writeBytes(uint64_t Addr, uint64_t N, const uint8_t *In) {
  uint8_t *P = resolve(Addr, N);
  if (!P)
    return false;
  if (Concurrent)
    atomicCopyIn(P, In, N);
  else
    std::memcpy(P, In, N);
  return true;
}

bool SimMemory::accessible(uint64_t Addr, uint64_t N) const {
  return resolve(Addr, N) != nullptr;
}

uint64_t SimMemory::allocateGlobal(uint64_t Size, uint64_t Align) {
  std::lock_guard<std::mutex> L(HeapMu);
  uint64_t Start = (GlobalUsed + Align - 1) / Align * Align;
  if (Start + Size > Globals.size())
    return 0;
  GlobalUsed = Start + Size;
  return GlobalBase + Start;
}

uint64_t SimMemory::heapAlloc(uint64_t Size, uint64_t RedzonePad) {
  std::lock_guard<std::mutex> L(HeapMu);
  if (Size == 0)
    Size = 1;
  if (Size > Heap.size() || RedzonePad > Heap.size())
    return 0; // Cannot fit; also keeps Need below from wrapping.
  uint64_t Need = (Size + RedzonePad + 15) & ~15ULL;

  // First fit in the free list.
  for (auto It = FreeList.begin(); It != FreeList.end(); ++It) {
    if (It->second < Need)
      continue;
    uint64_t Addr = It->first;
    uint64_t Remain = It->second - Need;
    FreeList.erase(It);
    if (Remain >= 16)
      FreeList[Addr + Need] = Remain;
    Allocs[Addr] = {Size, Need};
    HeapLive += Size;
    return Addr;
  }

  // Bump allocation.
  uint64_t Addr = HeapBump;
  if (Addr + Need > HeapBase + Heap.size())
    return 0;
  HeapBump += Need;
  if (HeapBump - HeapBase > HeapHigh)
    HeapHigh = HeapBump - HeapBase;
  Allocs[Addr] = {Size, Need};
  HeapLive += Size;
  return Addr;
}

uint64_t SimMemory::heapFree(uint64_t Addr) {
  std::lock_guard<std::mutex> L(HeapMu);
  auto It = Allocs.find(Addr);
  if (It == Allocs.end())
    return UINT64_MAX;
  Block B = It->second;
  Allocs.erase(It);
  HeapLive -= B.Size;
  // Return the whole reservation, red-zone pad included, so padded
  // malloc/free cycles reuse their blocks instead of bumping the heap.
  FreeList[Addr] = B.Reserved;
  return B.Size;
}

uint64_t SimMemory::heapBlockSize(uint64_t Addr) const {
  std::lock_guard<std::mutex> L(HeapMu);
  auto It = Allocs.find(Addr);
  return It == Allocs.end() ? 0 : It->second.Size;
}

std::pair<uint64_t, uint64_t>
SimMemory::heapBlockContaining(uint64_t Addr) const {
  std::lock_guard<std::mutex> L(HeapMu);
  auto It = Allocs.upper_bound(Addr);
  if (It == Allocs.begin())
    return {0, 0};
  --It;
  if (Addr >= It->first && Addr < It->first + It->second.Size)
    return {It->first, It->second.Size};
  return {0, 0};
}

void SimMemory::zeroRange(uint64_t Addr, uint64_t Size) {
  uint8_t *P = resolve(Addr, Size);
  if (!P)
    return;
  if (Concurrent) {
    for (uint64_t I = 0; I < Size; ++I)
      __atomic_store_n(P + I, uint8_t(0), __ATOMIC_RELAXED);
  } else {
    std::memset(P, 0, Size);
  }
}

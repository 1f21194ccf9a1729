//===- runtime/ShadowSpaceMetadata.cpp - tag-less shadow space -------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ShadowSpaceMetadata.h"

#include "support/Telemetry.h"

#include <algorithm>

using namespace softbound;

namespace {

inline uint64_t ld(const std::atomic<uint64_t> &W) {
  return W.load(std::memory_order_relaxed);
}
inline void st(std::atomic<uint64_t> &W, uint64_t V) {
  W.store(V, std::memory_order_relaxed);
}

} // namespace

ShadowSpaceMetadata::ShadowSpaceMetadata(FacilityOptions Options)
    : Opts(Options) {
  Opts.Shards = normalizeShards(Opts.Shards);
  Shards.reserve(Opts.Shards);
  for (unsigned K = 0; K < Opts.Shards; ++K)
    Shards.push_back(std::make_unique<Shard>());
}

void ShadowSpaceMetadata::flushTelemetry() {
  if (!Telem)
    return;
  uint64_t Pages = 0, Acquires = 0, Contended = 0;
  uint64_t SeqReads = 0, SeqRetries = 0;
  for (const auto &S : Shards) {
    Pages += S->PageCount;
    Acquires += S->Lock.Acquires.load(std::memory_order_relaxed);
    Contended += S->Lock.Contended.load(std::memory_order_relaxed);
    SeqReads += S->Seq.Reads.load(std::memory_order_relaxed);
    SeqRetries += S->Seq.Retries.load(std::memory_order_relaxed);
  }
  Telem->counter(TelemetryPrefix + "/pages_materialized") = Pages;
  Telem->counter(TelemetryPrefix + "/memory_bytes") = memoryBytes();
  Telem->counter(TelemetryPrefix + "/clear_calls") =
      ClearCalls.load(std::memory_order_relaxed);
  Telem->counter(TelemetryPrefix + "/clear_entries") =
      ClearEntries.load(std::memory_order_relaxed);
  Telem->counter(TelemetryPrefix + "/copy_calls") =
      CopyCalls.load(std::memory_order_relaxed);
  Telem->counter(TelemetryPrefix + "/copy_entries") =
      CopyEntries.load(std::memory_order_relaxed);
  if (Opts.Model == ConcurrencyModel::Concurrent) {
    Telem->counter(TelemetryPrefix + "/lock_acquires") = Acquires;
    Telem->counter(TelemetryPrefix + "/lock_contended") = Contended;
    Telem->counter(TelemetryPrefix + "/seqlock_reads") = SeqReads;
    Telem->counter(TelemetryPrefix + "/seqlock_retries") = SeqRetries;
    for (size_t K = 0; K < Shards.size(); ++K) {
      std::string P = TelemetryPrefix + "/shard" + std::to_string(K);
      Telem->counter(P + "/pages_materialized") = Shards[K]->PageCount;
      Telem->counter(P + "/lock_acquires") =
          Shards[K]->Lock.Acquires.load(std::memory_order_relaxed);
      Telem->counter(P + "/lock_contended") =
          Shards[K]->Lock.Contended.load(std::memory_order_relaxed);
    }
  }
}

ShadowSpaceMetadata::Pair *ShadowSpaceMetadata::findSlot(const Shard &S,
                                                         uint64_t Addr) const {
  uint64_t Slot = Addr >> 3;
  uint64_t PageId = Slot / SlotsPerPage;
  for (PageNode *N =
           S.Buckets[bucketOf(PageId)].load(std::memory_order_acquire);
       N; N = N->Next)
    if (N->PageId == PageId)
      return &N->Slots[Slot % SlotsPerPage];
  return nullptr;
}

ShadowSpaceMetadata::Pair *
ShadowSpaceMetadata::slotFor(Shard &S, uint64_t Addr) {
  if (Pair *P = findSlot(S, Addr))
    return P;
  uint64_t Slot = Addr >> 3;
  uint64_t PageId = Slot / SlotsPerPage;
  std::atomic<PageNode *> &Head = S.Buckets[bucketOf(PageId)];
  // The node is complete — zero-filled slots, id, next link — before the
  // release store makes it reachable; a racing lock-free reader therefore
  // sees either the old chain (page miss, null bounds: exactly what
  // zero-fill-on-demand would return) or the finished node.
  S.Nodes.push_back(std::make_unique<PageNode>(
      PageId, Head.load(std::memory_order_relaxed)));
  Head.store(S.Nodes.back().get(), std::memory_order_release);
  ++S.PageCount;
  return &S.Nodes.back()->Slots[Slot % SlotsPerPage];
}

Bounds ShadowSpaceMetadata::lookupLockFree(Shard &S, uint64_t Addr) {
  uint64_t S0 = S.Seq.readBegin();
  for (;;) {
    Bounds B{};
    if (Pair *P = findSlot(S, Addr))
      B = Bounds{ld(P->Base), ld(P->Bound)};
    if (S.Seq.readValidate(S0))
      return B;
    S0 = S.Seq.stableSeq();
  }
}

Bounds ShadowSpaceMetadata::lookup(uint64_t Addr) {
  Shard &S = *Shards[shardOf(Addr)];
  S.Lookups.fetch_add(1, std::memory_order_relaxed);
  if (Opts.Model == ConcurrencyModel::Concurrent)
    return lookupLockFree(S, Addr);
  if (Pair *P = findSlot(S, Addr))
    return Bounds{ld(P->Base), ld(P->Bound)};
  return Bounds{};
}

void ShadowSpaceMetadata::update(uint64_t Addr, Bounds B) {
  Shard &S = *Shards[shardOf(Addr)];
  ShardExclusiveGuard Guard(lockOf(S));
  S.Updates.fetch_add(1, std::memory_order_relaxed);
  SeqlockWriteScope Writing(seqOf(S));
  Pair *P = slotFor(S, Addr);
  st(P->Base, B.Base);
  st(P->Bound, B.Bound);
}

uint64_t ShadowSpaceMetadata::clearRange(uint64_t Addr, uint64_t Size) {
  uint64_t Cleared = 0;
  uint64_t A = Addr & ~7ULL;
  uint64_t End = Addr + Size;
  while (A < End) {
    // One exclusive acquisition per stripe-sized chunk.
    uint64_t StripeEnd = ((A >> ShardStripeLog2) + 1) << ShardStripeLog2;
    uint64_t ChunkEnd = std::min(End, StripeEnd);
    Shard &S = *Shards[shardOf(A)];
    {
      ShardExclusiveGuard Guard(lockOf(S));
      SeqlockWriteScope Writing(seqOf(S));
      uint64_t ChunkCleared = 0;
      for (uint64_t A2 = A; A2 < ChunkEnd; A2 += 8) {
        Pair *P = findSlot(S, A2);
        if (!P || (ld(P->Base) == 0 && ld(P->Bound) == 0))
          continue;
        st(P->Base, 0);
        st(P->Bound, 0);
        ++ChunkCleared;
      }
      S.Clears.fetch_add(ChunkCleared, std::memory_order_relaxed);
      Cleared += ChunkCleared;
    }
    A += ((ChunkEnd - A) + 7) & ~7ULL;
  }
  if (Telem) {
    ClearCalls.fetch_add(1, std::memory_order_relaxed);
    ClearEntries.fetch_add(Cleared, std::memory_order_relaxed);
  }
  return Cleared;
}

uint64_t ShadowSpaceMetadata::copyRange(uint64_t Dst, uint64_t Src,
                                        uint64_t Size) {
  uint64_t Copied = 0;
  for (uint64_t A = Src & ~7ULL; A < Src + Size; A += 8) {
    uint64_t DA = Dst + (A - Src);
    bool Have = false;
    Bounds B;
    {
      // Write-path operation: the source read takes the stripe
      // exclusively (see HashTableMetadata's copyRange).
      Shard &S = *Shards[shardOf(A)];
      ShardExclusiveGuard Guard(lockOf(S));
      Pair *SP = findSlot(S, A);
      if (SP && (ld(SP->Base) || ld(SP->Bound))) {
        B = Bounds{ld(SP->Base), ld(SP->Bound)};
        Have = true;
      }
    }
    if (Have) {
      update(DA, B);
      ++Copied;
    } else {
      Shard &DS = *Shards[shardOf(DA)];
      ShardExclusiveGuard Guard(lockOf(DS));
      SeqlockWriteScope Writing(seqOf(DS));
      if (Pair *DP = findSlot(DS, DA)) {
        st(DP->Base, 0);
        st(DP->Bound, 0);
      }
    }
  }
  if (Telem) {
    CopyCalls.fetch_add(1, std::memory_order_relaxed);
    CopyEntries.fetch_add(Copied, std::memory_order_relaxed);
  }
  return Copied;
}

uint64_t ShadowSpaceMetadata::memoryBytes() const {
  uint64_t Bytes = 0;
  for (const auto &S : Shards) {
    ShardExclusiveGuard Guard(lockOf(*S));
    Bytes += S->PageCount * SlotsPerPage * sizeof(Pair);
  }
  return Bytes;
}

MetadataStats ShadowSpaceMetadata::stats() const {
  MetadataStats Out;
  for (const auto &S : Shards) {
    Out.Lookups += S->Lookups.load(std::memory_order_relaxed);
    Out.Updates += S->Updates.load(std::memory_order_relaxed);
    Out.Clears += S->Clears.load(std::memory_order_relaxed);
    Out.LockAcquires += S->Lock.Acquires.load(std::memory_order_relaxed);
    Out.LockContended += S->Lock.Contended.load(std::memory_order_relaxed);
    Out.SeqlockReads += S->Seq.Reads.load(std::memory_order_relaxed);
    Out.SeqlockRetries += S->Seq.Retries.load(std::memory_order_relaxed);
  }
  return Out;
}

void ShadowSpaceMetadata::reset() {
  // Quiescence required (MetadataFacility contract): published page
  // nodes are reclaimed here, so no lock-free reader may be in flight.
  for (auto &S : Shards) {
    ShardExclusiveGuard Guard(lockOf(*S));
    for (auto &Head : S->Buckets)
      Head.store(nullptr, std::memory_order_relaxed);
    S->Nodes.clear();
    S->PageCount = 0;
    S->Lookups.store(0, std::memory_order_relaxed);
    S->Updates.store(0, std::memory_order_relaxed);
    S->Clears.store(0, std::memory_order_relaxed);
    S->Lock.Acquires.store(0, std::memory_order_relaxed);
    S->Lock.Contended.store(0, std::memory_order_relaxed);
    S->Seq.Seq.store(0, std::memory_order_relaxed);
    S->Seq.Reads.store(0, std::memory_order_relaxed);
    S->Seq.Retries.store(0, std::memory_order_relaxed);
  }
  ClearCalls.store(0, std::memory_order_relaxed);
  ClearEntries.store(0, std::memory_order_relaxed);
  CopyCalls.store(0, std::memory_order_relaxed);
  CopyEntries.store(0, std::memory_order_relaxed);
}

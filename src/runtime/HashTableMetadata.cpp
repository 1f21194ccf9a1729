//===- runtime/HashTableMetadata.cpp - open-hash metadata ------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/HashTableMetadata.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace softbound;

namespace {

// Entry words are relaxed atomics everywhere (see the header); these
// shorthands keep the probe loops readable.
inline uint64_t ld(const std::atomic<uint64_t> &W) {
  return W.load(std::memory_order_relaxed);
}
inline void st(std::atomic<uint64_t> &W, uint64_t V) {
  W.store(V, std::memory_order_relaxed);
}

} // namespace

HashTableMetadata::HashTableMetadata(unsigned InitialLog2Size,
                                     FacilityOptions Options)
    : Opts(Options) {
  Opts.Shards = normalizeShards(Opts.Shards);
  Shards.reserve(Opts.Shards);
  for (unsigned K = 0; K < Opts.Shards; ++K) {
    Shards.push_back(std::make_unique<Shard>());
    Shard &S = *Shards.back();
    S.Tables.push_back(std::make_unique<Table>(size_t(1) << InitialLog2Size));
    S.Tab.store(S.Tables.back().get(), std::memory_order_release);
  }
}

void HashTableMetadata::attachTelemetry(Telemetry *T,
                                        const std::string &Prefix) {
  MetadataFacility::attachTelemetry(T, Prefix);
  for (size_t K = 0; K < Shards.size(); ++K) {
    std::string ShardPrefix =
        Shards.size() == 1 ? Prefix : Prefix + "/shard" + std::to_string(K);
    Shards[K]->ProbeHist =
        T ? &T->histogram(ShardPrefix + "/probe_length") : nullptr;
  }
}

void HashTableMetadata::flushTelemetry() {
  if (!Telem)
    return;
  uint64_t Live = 0, TableEntries = 0, Collisions = 0;
  uint64_t Acquires = 0, Contended = 0, SeqReads = 0, SeqRetries = 0;
  for (const auto &S : Shards) {
    Live += S->Live;
    TableEntries += S->Tab.load(std::memory_order_relaxed)->Size;
    Collisions += S->Collisions.load(std::memory_order_relaxed);
    Acquires += S->Lock.Acquires.load(std::memory_order_relaxed);
    Contended += S->Lock.Contended.load(std::memory_order_relaxed);
    SeqReads += S->Seq.Reads.load(std::memory_order_relaxed);
    SeqRetries += S->Seq.Retries.load(std::memory_order_relaxed);
  }
  Telem->counter(TelemetryPrefix + "/live_entries") = Live;
  Telem->counter(TelemetryPrefix + "/table_entries") = TableEntries;
  Telem->counter(TelemetryPrefix + "/load_factor_permille") =
      static_cast<uint64_t>(loadFactor() * 1000.0);
  Telem->counter(TelemetryPrefix + "/memory_bytes") = memoryBytes();
  Telem->counter(TelemetryPrefix + "/collisions") = Collisions;
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
      Telem->counter(P + "/live_entries") = Shards[K]->Live;
      Telem->counter(P + "/lock_acquires") =
          Shards[K]->Lock.Acquires.load(std::memory_order_relaxed);
      Telem->counter(P + "/lock_contended") =
          Shards[K]->Lock.Contended.load(std::memory_order_relaxed);
    }
  }
}

HashTableMetadata::Entry *HashTableMetadata::find(Shard &S, uint64_t Addr,
                                                  bool ForInsert) {
  // Tag is the slot address itself; addresses 0 and 1 never hold pointers.
  Table &T = *S.Tab.load(std::memory_order_relaxed);
  size_t Idx = hash(Addr, T.Size);
  Entry *FirstTombstone = nullptr;
  for (size_t Probe = 0; Probe < T.Size; ++Probe) {
    Entry &E = T.Slots[(Idx + Probe) & (T.Size - 1)];
    uint64_t Tag = ld(E.Tag);
    if (Tag == Addr) {
      if (Probe)
        S.Collisions.fetch_add(Probe, std::memory_order_relaxed);
      if (S.ProbeHist)
        S.ProbeHist->record(Probe + 1);
      return &E;
    }
    if (Tag == EmptyTag) {
      if (Probe)
        S.Collisions.fetch_add(Probe, std::memory_order_relaxed);
      if (S.ProbeHist)
        S.ProbeHist->record(Probe + 1);
      if (ForInsert)
        return FirstTombstone ? FirstTombstone : &E;
      return nullptr;
    }
    if (Tag == TombstoneTag && !FirstTombstone)
      FirstTombstone = &E;
  }
  if (S.ProbeHist)
    S.ProbeHist->record(T.Size);
  return ForInsert ? FirstTombstone : nullptr;
}

Bounds HashTableMetadata::lookupLockFree(Shard &S, uint64_t Addr) {
  // The classic seqlock read: copy the candidate entry between two
  // sequence reads and retry when a writer's window overlapped. The
  // probe itself acquires nothing; the table generation is published
  // through an atomic pointer so even a concurrent grow() cannot leave
  // this probe on a freed array (old generations are retired, not
  // freed). Probe statistics are recorded per attempt — a retried read
  // really does re-walk the chain, and the histogram should say so.
  uint64_t S0 = S.Seq.readBegin();
  for (;;) {
    Bounds B{};
    Table &T = *S.Tab.load(std::memory_order_acquire);
    size_t Idx = hash(Addr, T.Size);
    for (size_t Probe = 0; Probe < T.Size; ++Probe) {
      Entry &E = T.Slots[(Idx + Probe) & (T.Size - 1)];
      uint64_t Tag = ld(E.Tag);
      if (Tag == Addr) {
        B = Bounds{ld(E.Base), ld(E.Bound)};
        if (Probe)
          S.Collisions.fetch_add(Probe, std::memory_order_relaxed);
        if (S.ProbeHist)
          S.ProbeHist->record(Probe + 1);
        break;
      }
      if (Tag == EmptyTag) {
        if (Probe)
          S.Collisions.fetch_add(Probe, std::memory_order_relaxed);
        if (S.ProbeHist)
          S.ProbeHist->record(Probe + 1);
        break;
      }
    }
    if (S.Seq.readValidate(S0))
      return B;
    S0 = S.Seq.stableSeq();
  }
}

Bounds HashTableMetadata::lookup(uint64_t Addr) {
  Shard &S = *Shards[shardOf(Addr)];
  S.Lookups.fetch_add(1, std::memory_order_relaxed);
  if (Opts.Model == ConcurrencyModel::Concurrent)
    return lookupLockFree(S, Addr);
  if (Entry *E = find(S, Addr, /*ForInsert=*/false))
    return Bounds{ld(E->Base), ld(E->Bound)};
  return Bounds{};
}

void HashTableMetadata::update(uint64_t Addr, Bounds B) {
  Shard &S = *Shards[shardOf(Addr)];
  ShardExclusiveGuard Guard(lockOf(S));
  S.Updates.fetch_add(1, std::memory_order_relaxed);
  SeqlockWriteScope Writing(seqOf(S));
  if (S.Used * 2 >= S.Tab.load(std::memory_order_relaxed)->Size)
    grow(S);
  Entry *E = find(S, Addr, /*ForInsert=*/true);
  assert(E && "hash table full despite growth policy");
  if (ld(E->Tag) != Addr) {
    if (ld(E->Tag) == EmptyTag)
      ++S.Used;
    st(E->Tag, Addr);
    ++S.Live;
  }
  st(E->Base, B.Base);
  st(E->Bound, B.Bound);
}

uint64_t HashTableMetadata::clearChunkLocked(Shard &S, uint64_t Addr,
                                             uint64_t Size) {
  uint64_t Cleared = 0;
  SeqlockWriteScope Writing(seqOf(S));
  for (uint64_t A = Addr; A < Addr + Size; A += 8) {
    Entry *E = find(S, A, /*ForInsert=*/false);
    if (!E)
      continue;
    st(E->Tag, TombstoneTag);
    st(E->Base, 0);
    st(E->Bound, 0);
    --S.Live;
    ++Cleared;
  }
  S.Clears.fetch_add(Cleared, std::memory_order_relaxed);
  return Cleared;
}

uint64_t HashTableMetadata::clearRange(uint64_t Addr, uint64_t Size) {
  uint64_t Cleared = 0;
  uint64_t A = Addr & ~7ULL;
  uint64_t End = Addr + Size;
  while (A < End) {
    // [A, ChunkEnd) stays inside one stripe, so one exclusive acquisition
    // covers the whole chunk.
    uint64_t StripeEnd = ((A >> ShardStripeLog2) + 1) << ShardStripeLog2;
    uint64_t ChunkEnd = std::min(End, StripeEnd);
    Shard &S = *Shards[shardOf(A)];
    {
      ShardExclusiveGuard Guard(lockOf(S));
      Cleared += clearChunkLocked(S, A, ChunkEnd - A);
    }
    // Advance to the first 8-aligned slot at or past the chunk end.
    A += ((ChunkEnd - A) + 7) & ~7ULL;
  }
  if (Telem) {
    ClearCalls.fetch_add(1, std::memory_order_relaxed);
    ClearEntries.fetch_add(Cleared, std::memory_order_relaxed);
  }
  return Cleared;
}

uint64_t HashTableMetadata::copyRange(uint64_t Dst, uint64_t Src,
                                      uint64_t Size) {
  if (Telem)
    CopyCalls.fetch_add(1, std::memory_order_relaxed);
  uint64_t Copied = 0;
  for (uint64_t Off = 0; Off + 8 <= Size + 7; Off += 8) {
    uint64_t SA = (Src & ~7ULL) + Off;
    if (SA >= Src + Size)
      break;
    uint64_t DA = Dst + (SA - Src);
    bool Have = false;
    Bounds B;
    {
      // copyRange is a write-path operation: its source read takes the
      // stripe exclusively, so presence-vs-null-bounds semantics are the
      // same in both models.
      Shard &S = *Shards[shardOf(SA)];
      ShardExclusiveGuard Guard(lockOf(S));
      if (Entry *E = find(S, SA, /*ForInsert=*/false)) {
        B = Bounds{ld(E->Base), ld(E->Bound)};
        Have = true;
      }
    }
    if (Have) {
      update(DA, B);
      ++Copied;
    } else {
      // Destination slots whose source had no metadata must be cleared, or
      // stale bounds could leak into the copied region.
      clearRange(DA, 8);
    }
  }
  if (Telem)
    CopyEntries.fetch_add(Copied, std::memory_order_relaxed);
  return Copied;
}

uint64_t HashTableMetadata::memoryBytes() const {
  uint64_t Bytes = 0;
  for (const auto &S : Shards) {
    ShardExclusiveGuard Guard(lockOf(*S));
    Bytes += S->Tab.load(std::memory_order_relaxed)->Size * sizeof(Entry);
  }
  return Bytes;
}

double HashTableMetadata::loadFactor() const {
  uint64_t Live = 0, TableEntries = 0;
  for (const auto &S : Shards) {
    ShardExclusiveGuard Guard(lockOf(*S));
    Live += S->Live;
    TableEntries += S->Tab.load(std::memory_order_relaxed)->Size;
  }
  return TableEntries ? static_cast<double>(Live) /
                            static_cast<double>(TableEntries)
                      : 0.0;
}

MetadataStats HashTableMetadata::stats() const {
  MetadataStats Out;
  for (const auto &S : Shards) {
    Out.Lookups += S->Lookups.load(std::memory_order_relaxed);
    Out.Updates += S->Updates.load(std::memory_order_relaxed);
    Out.Clears += S->Clears.load(std::memory_order_relaxed);
    Out.Collisions += S->Collisions.load(std::memory_order_relaxed);
    Out.LockAcquires += S->Lock.Acquires.load(std::memory_order_relaxed);
    Out.LockContended += S->Lock.Contended.load(std::memory_order_relaxed);
    Out.SeqlockReads += S->Seq.Reads.load(std::memory_order_relaxed);
    Out.SeqlockRetries += S->Seq.Retries.load(std::memory_order_relaxed);
  }
  return Out;
}

void HashTableMetadata::reset() {
  // Quiescence required (MetadataFacility contract): retired generations
  // are reclaimed here, so no lock-free reader may be in flight.
  for (auto &S : Shards) {
    ShardExclusiveGuard Guard(lockOf(*S));
    Table *Live = S->Tab.load(std::memory_order_relaxed);
    for (size_t I = 0; I < Live->Size; ++I) {
      st(Live->Slots[I].Tag, 0);
      st(Live->Slots[I].Base, 0);
      st(Live->Slots[I].Bound, 0);
    }
    if (S->Tables.size() > 1) {
      std::unique_ptr<Table> Keep = std::move(S->Tables.back());
      S->Tables.clear();
      S->Tables.push_back(std::move(Keep));
    }
    S->Live = S->Used = 0;
    S->Lookups.store(0, std::memory_order_relaxed);
    S->Updates.store(0, std::memory_order_relaxed);
    S->Clears.store(0, std::memory_order_relaxed);
    S->Collisions.store(0, std::memory_order_relaxed);
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

void HashTableMetadata::grow(Shard &S) {
  // Build the next generation off to the side, publish it with a release
  // store, and retire the old one. In the Concurrent model a reader may
  // still be probing the retired generation, so it is kept until
  // reset()/destruction (total retained memory is bounded by the live
  // size — generations grow geometrically); SingleThread frees it
  // immediately.
  Table *Old = S.Tab.load(std::memory_order_relaxed);
  auto Next = std::make_unique<Table>(Old->Size * 2);
  S.Live = S.Used = 0;
  S.Tables.push_back(std::move(Next));
  S.Tab.store(S.Tables.back().get(), std::memory_order_release);
  for (size_t I = 0; I < Old->Size; ++I) {
    uint64_t Tag = ld(Old->Slots[I].Tag);
    if (Tag == EmptyTag || Tag == TombstoneTag)
      continue;
    Entry *N = find(S, Tag, /*ForInsert=*/true);
    st(N->Tag, Tag);
    st(N->Base, ld(Old->Slots[I].Base));
    st(N->Bound, ld(Old->Slots[I].Bound));
    ++S.Live;
    ++S.Used;
  }
  if (Opts.Model == ConcurrencyModel::SingleThread) {
    // Only the freshly published generation needs to stay alive.
    std::unique_ptr<Table> Keep = std::move(S.Tables.back());
    S.Tables.clear();
    S.Tables.push_back(std::move(Keep));
  }
}

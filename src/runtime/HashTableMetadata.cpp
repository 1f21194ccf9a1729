//===- runtime/HashTableMetadata.cpp - open-hash metadata ------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/HashTableMetadata.h"

#include <cassert>

using namespace softbound;

template class softbound::StripedFacility<HashTableMetadata, HashTableShard>;

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
    : StripedFacility(Options) {
  for (unsigned K = 0; K < NumShards; ++K) {
    Shard &S = Shards[K];
    S.Tables.push_back(std::make_unique<Table>(size_t(1) << InitialLog2Size));
    S.Tab.store(S.Tables.back().get(), std::memory_order_release);
  }
}

void HashTableMetadata::attachTelemetry(Telemetry *T,
                                        const std::string &Prefix) {
  MetadataFacility::attachTelemetry(T, Prefix);
  for (unsigned K = 0; K < NumShards; ++K) {
    std::string ShardPrefix = NumShards == 1 ? Prefix : shardPrefix(K);
    Shards[K].ProbeHist =
        T ? &T->histogram(ShardPrefix + "/probe_length") : nullptr;
  }
}

void HashTableMetadata::flushStorageTelemetry() {
  uint64_t Live = 0, TableEntries = 0, Collisions = 0;
  for (unsigned K = 0; K < NumShards; ++K) {
    const Shard &S = Shards[K];
    Live += S.Live;
    TableEntries += S.Tab.load(std::memory_order_relaxed)->Size;
    Collisions += S.Collisions.load(std::memory_order_relaxed);
    if (Model == ConcurrencyModel::Concurrent)
      Telem->counter(shardPrefix(K) + "/live_entries") = S.Live;
  }
  Telem->counter(TelemetryPrefix + "/live_entries") = Live;
  Telem->counter(TelemetryPrefix + "/table_entries") = TableEntries;
  Telem->counter(TelemetryPrefix + "/load_factor_permille") =
      static_cast<uint64_t>(loadFactor() * 1000.0);
  Telem->counter(TelemetryPrefix + "/collisions") = Collisions;
}

HashTableMetadata::Entry *HashTableMetadata::find(Shard &S, uint64_t Addr,
                                                  bool ForInsert) {
  // Tag is the slot address itself; addresses 0 and 1 never hold pointers.
  // The generation pointer is acquire-loaded: even a concurrent grow()
  // cannot leave this probe on a freed array (old generations are retired,
  // not freed). A retried lock-free read re-walks the chain, and the
  // collision count and histogram say so.
  Table &T = *S.Tab.load(std::memory_order_acquire);
  size_t Idx = hash(Addr, T.Size);
  Entry *FirstTombstone = nullptr;
  for (size_t Probe = 0; Probe < T.Size; ++Probe) {
    Entry &E = T.Slots[(Idx + Probe) & (T.Size - 1)];
    uint64_t Tag = ld(E.Tag);
    if (Tag == Addr || Tag == EmptyTag) {
      if (Probe)
        S.Collisions.fetch_add(Probe, std::memory_order_relaxed);
      if (S.ProbeHist)
        S.ProbeHist->record(Probe + 1);
      if (Tag == Addr)
        return &E;
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

std::optional<Bounds> HashTableMetadata::copySource(Shard &S, uint64_t Addr) {
  if (Entry *E = find(S, Addr, /*ForInsert=*/false))
    return Bounds{ld(E->Base), ld(E->Bound)};
  return std::nullopt;
}

Bounds HashTableMetadata::readSlot(Shard &S, uint64_t Addr) {
  return copySource(S, Addr).value_or(Bounds{});
}

void HashTableMetadata::writeSlot(Shard &S, uint64_t Addr, Bounds B) {
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

uint64_t HashTableMetadata::clearSlots(Shard &S, uint64_t Addr, uint64_t N) {
  uint64_t Cleared = 0;
  for (uint64_t I = 0; I < N; ++I) {
    Entry *E = find(S, Addr + I * 8, /*ForInsert=*/false);
    if (!E)
      continue;
    st(E->Tag, TombstoneTag);
    st(E->Base, 0);
    st(E->Bound, 0);
    --S.Live;
    ++Cleared;
  }
  return Cleared;
}

uint64_t HashTableMetadata::memoryBytes() const {
  uint64_t Bytes = 0;
  for (unsigned K = 0; K < NumShards; ++K) {
    ShardExclusiveGuard Guard(lockOf(Shards[K]));
    Bytes += Shards[K].Tab.load(std::memory_order_relaxed)->Size *
             sizeof(Entry);
  }
  return Bytes;
}

double HashTableMetadata::loadFactor() const {
  uint64_t Live = 0, TableEntries = 0;
  for (unsigned K = 0; K < NumShards; ++K) {
    ShardExclusiveGuard Guard(lockOf(Shards[K]));
    Live += Shards[K].Live;
    TableEntries += Shards[K].Tab.load(std::memory_order_relaxed)->Size;
  }
  return TableEntries ? static_cast<double>(Live) /
                            static_cast<double>(TableEntries)
                      : 0.0;
}

void HashTableMetadata::resetStorage() {
  for (unsigned K = 0; K < NumShards; ++K) {
    Shard &S = Shards[K];
    Table *Live = S.Tab.load(std::memory_order_relaxed);
    for (size_t I = 0; I < Live->Size; ++I) {
      st(Live->Slots[I].Tag, 0);
      st(Live->Slots[I].Base, 0);
      st(Live->Slots[I].Bound, 0);
    }
    S.Tables.erase(S.Tables.begin(), S.Tables.end() - 1);
    S.Live = S.Used = 0;
  }
}

void HashTableMetadata::grow(Shard &S) {
  // Build the next generation off to the side, publish it with a release
  // store, and retire the old one. In the Concurrent model a reader may
  // still be probing the retired generation, so it is kept until
  // reset()/destruction (total retained memory is bounded by the live
  // size — generations grow geometrically); SingleThread frees it
  // immediately.
  Table *Old = S.Tab.load(std::memory_order_relaxed);
  S.Live = S.Used = 0;
  S.Tables.push_back(std::make_unique<Table>(Old->Size * 2));
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
  if (Model == ConcurrencyModel::SingleThread)
    S.Tables.erase(S.Tables.begin(), S.Tables.end() - 1);
}

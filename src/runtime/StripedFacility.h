//===- runtime/StripedFacility.h - the shared stripe policy -----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stripe policy both §5.1 facilities share, written once
/// (docs/runtime.md "The sharding model"): the address space is cut into
/// 2^ShardStripeLog2-byte stripes, each owned by one shard; a shard
/// carries the stripe's exclusive lock, its seqlock and its statistics.
/// StripedFacility implements every MetadataFacility entry point on top
/// of that — the seqlock read loop, the update window, per-stripe range
/// chunking, copyRange's locked per-slot read then update-or-clear, and
/// the statistics and telemetry sums — so a facility only supplies its
/// storage format. Derived facilities hand in these hooks (found through
/// CRTP, so the hot paths stay non-virtual):
///
///   Bounds readSlot(Shard &, Addr)          the slot's bounds, null on a
///                                           miss; safe without the lock
///   void writeSlot(Shard &, Addr, Bounds)   under the lock and seqlock
///   uint64_t clearSlots(Shard &, Addr, N)   the N slots from Addr, all in
///                                           one stripe; returns the count
///                                           of entries dropped
///   std::optional<Bounds> copySource(Shard &, Addr)
///                                           what copyRange mirrors from a
///                                           source slot; nullopt = absent
///   void resetStorage()                     drop every slot (quiescent)
///   void flushStorageTelemetry()            its own end-of-run gauges
///
/// plus name(), memoryBytes(), lookupCost() and updateCost().
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_STRIPEDFACILITY_H
#define SOFTBOUND_RUNTIME_STRIPEDFACILITY_H

#include "runtime/MetadataFacility.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>

namespace softbound {

/// What every shard carries, whatever its storage: the stripe lock, the
/// seqlock, and per-op statistics. The statistics are relaxed atomics
/// because lock-free lookups bump them concurrently.
struct Stripe {
  ShardLock Lock;
  StripeSeqlock Seq;
  std::atomic<uint64_t> Lookups{0};
  std::atomic<uint64_t> Updates{0};
  std::atomic<uint64_t> Clears{0};
  std::atomic<uint64_t> Collisions{0}; ///< Extra probes; 0 without probing.
};

template <typename Derived, typename Shard>
class StripedFacility : public MetadataFacility {
  static_assert(std::is_base_of_v<Stripe, Shard>,
                "a facility shard extends Stripe");

public:
  using MetadataFacility::update;

  Bounds lookup(uint64_t Addr) override {
    Shard &S = shardOf(Addr);
    S.Lookups.fetch_add(1, std::memory_order_relaxed);
    if (Model != ConcurrencyModel::Concurrent)
      return self().readSlot(S, Addr);
    // The seqlock read: copy the slot between two sequence reads and
    // re-run when a writer's window overlapped.
    uint64_t S0 = S.Seq.readBegin();
    for (;;) {
      Bounds B = self().readSlot(S, Addr);
      if (S.Seq.readValidate(S0))
        return B;
      S0 = S.Seq.stableSeq();
    }
  }

  void update(uint64_t Addr, Bounds B) override {
    Shard &S = shardOf(Addr);
    ShardExclusiveGuard Guard(lockOf(S));
    S.Updates.fetch_add(1, std::memory_order_relaxed);
    SeqlockWriteScope Writing(seqOf(S));
    self().writeSlot(S, Addr, B);
  }

  uint64_t clearRange(uint64_t Addr, uint64_t Size) override {
    uint64_t Cleared = 0;
    uint64_t A = Addr & ~7ULL;
    for (uint64_t Left = slotCount(Addr, Size); Left;) {
      // The slots from A to the end of its stripe share one shard, so one
      // exclusive acquisition covers the whole chunk.
      uint64_t N = std::min(Left, ((A | StripeMask) - A) / 8 + 1);
      Shard &S = shardOf(A);
      {
        ShardExclusiveGuard Guard(lockOf(S));
        SeqlockWriteScope Writing(seqOf(S));
        uint64_t Dropped = self().clearSlots(S, A, N);
        S.Clears.fetch_add(Dropped, std::memory_order_relaxed);
        Cleared += Dropped;
      }
      Left -= N;
      A += N * 8;
    }
    if (Telem) {
      ClearCalls.fetch_add(1, std::memory_order_relaxed);
      ClearEntries.fetch_add(Cleared, std::memory_order_relaxed);
    }
    return Cleared;
  }

  uint64_t copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) override {
    uint64_t Copied = 0;
    uint64_t SA = Src & ~7ULL;
    for (uint64_t Left = slotCount(Src, Size); Left; --Left, SA += 8) {
      uint64_t DA = Dst + (SA - Src);
      std::optional<Bounds> B;
      {
        // A write-path operation: the source read takes the stripe
        // exclusively, so the facility's presence rule sees a settled slot.
        Shard &S = shardOf(SA);
        ShardExclusiveGuard Guard(lockOf(S));
        B = self().copySource(S, SA);
      }
      if (B) {
        update(DA, *B);
        ++Copied;
        continue;
      }
      // A destination slot whose source carries no metadata is cleared,
      // or stale bounds could leak into the copied region.
      Shard &D = shardOf(DA);
      ShardExclusiveGuard Guard(lockOf(D));
      SeqlockWriteScope Writing(seqOf(D));
      D.Clears.fetch_add(self().clearSlots(D, DA, 1),
                         std::memory_order_relaxed);
    }
    if (Telem) {
      CopyCalls.fetch_add(1, std::memory_order_relaxed);
      CopyEntries.fetch_add(Copied, std::memory_order_relaxed);
    }
    return Copied;
  }

  MetadataStats stats() const override {
    MetadataStats Out;
    for (unsigned K = 0; K < NumShards; ++K) {
      const Shard &S = Shards[K];
      Out.Lookups += S.Lookups.load(std::memory_order_relaxed);
      Out.Updates += S.Updates.load(std::memory_order_relaxed);
      Out.Clears += S.Clears.load(std::memory_order_relaxed);
      Out.Collisions += S.Collisions.load(std::memory_order_relaxed);
      Out.LockAcquires += S.Lock.Acquires.load(std::memory_order_relaxed);
      Out.LockContended += S.Lock.Contended.load(std::memory_order_relaxed);
      Out.SeqlockReads += S.Seq.Reads.load(std::memory_order_relaxed);
      Out.SeqlockRetries += S.Seq.Retries.load(std::memory_order_relaxed);
    }
    return Out;
  }

  void reset() override {
    // Quiescence required (MetadataFacility contract): storage that
    // lock-free readers could still be traversing is reclaimed here.
    self().resetStorage();
    for (unsigned K = 0; K < NumShards; ++K) {
      Stripe &S = Shards[K];
      for (std::atomic<uint64_t> *C :
           {&S.Lookups, &S.Updates, &S.Clears, &S.Collisions,
            &S.Lock.Acquires, &S.Lock.Contended, &S.Seq.Seq, &S.Seq.Reads,
            &S.Seq.Retries})
        C->store(0, std::memory_order_relaxed);
    }
    for (std::atomic<uint64_t> *C :
         {&ClearCalls, &ClearEntries, &CopyCalls, &CopyEntries})
      C->store(0, std::memory_order_relaxed);
  }

  unsigned shards() const override { return NumShards; }
  ConcurrencyModel concurrency() const override { return Model; }

  void flushTelemetry() override {
    if (!Telem)
      return;
    self().flushStorageTelemetry();
    auto Put = [this](const std::string &Key, uint64_t V) {
      Telem->counter(TelemetryPrefix + Key) = V;
    };
    Put("/memory_bytes", memoryBytes());
    Put("/clear_calls", ClearCalls.load(std::memory_order_relaxed));
    Put("/clear_entries", ClearEntries.load(std::memory_order_relaxed));
    Put("/copy_calls", CopyCalls.load(std::memory_order_relaxed));
    Put("/copy_entries", CopyEntries.load(std::memory_order_relaxed));
    if (Model != ConcurrencyModel::Concurrent)
      return;
    MetadataStats St = stats();
    Put("/lock_acquires", St.LockAcquires);
    Put("/lock_contended", St.LockContended);
    Put("/seqlock_reads", St.SeqlockReads);
    Put("/seqlock_retries", St.SeqlockRetries);
    for (unsigned K = 0; K < NumShards; ++K) {
      const ShardLock &L = Shards[K].Lock;
      Telem->counter(shardPrefix(K) + "/lock_acquires") =
          L.Acquires.load(std::memory_order_relaxed);
      Telem->counter(shardPrefix(K) + "/lock_contended") =
          L.Contended.load(std::memory_order_relaxed);
    }
  }

protected:
  /// The shard count is rounded up to a power of two, at least 1 and at
  /// most 1 << 16.
  explicit StripedFacility(FacilityOptions Options)
      : Model(Options.Model), NumShards(normalizeShards(Options.Shards)),
        Shards(new Shard[NumShards]) {}

  /// The shard owning \p Addr's stripe.
  Shard &shardOf(uint64_t Addr) const {
    return Shards[(Addr >> ShardStripeLog2) & (NumShards - 1)];
  }

  /// The stripe lock writers (and aggregate readers) guard with, or null
  /// in SingleThread mode.
  const ShardLock *lockOf(const Shard &S) const {
    return Model == ConcurrencyModel::Concurrent ? &S.Lock : nullptr;
  }

  /// The stripe seqlock writers bump, or null in SingleThread mode.
  StripeSeqlock *seqOf(Shard &S) const {
    return Model == ConcurrencyModel::Concurrent ? &S.Seq : nullptr;
  }

  /// Telemetry path prefix of shard \p K's per-shard series.
  std::string shardPrefix(unsigned K) const {
    return TelemetryPrefix + "/shard" + std::to_string(K);
  }

  const ConcurrencyModel Model;
  const unsigned NumShards;
  const std::unique_ptr<Shard[]> Shards;

private:
  static constexpr uint64_t StripeMask = (uint64_t(1) << ShardStripeLog2) - 1;

  static unsigned normalizeShards(unsigned Requested) {
    unsigned N = 1;
    while (N < Requested && N < (1u << 16))
      N <<= 1;
    return N;
  }

  /// The 8-byte slots a range covers: those at or above \p Addr rounded
  /// down to a slot that start before Addr + Size. A range running past
  /// the top of the address space covers the slots up to the top.
  static uint64_t slotCount(uint64_t Addr, uint64_t Size) {
    uint64_t First = Addr & ~7ULL;
    uint64_t End = Addr + Size;
    if (End < Addr)
      return (~First >> 3) + 1;
    return End > First ? (End - First + 7) >> 3 : 0;
  }

  Derived &self() { return static_cast<Derived &>(*this); }

  std::atomic<uint64_t> ClearCalls{0};
  std::atomic<uint64_t> ClearEntries{0};
  std::atomic<uint64_t> CopyCalls{0};
  std::atomic<uint64_t> CopyEntries{0};
};

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_STRIPEDFACILITY_H

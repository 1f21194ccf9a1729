//===- runtime/HashTableMetadata.h - open-hash metadata ---------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hash-table implementation of the metadata facility (§5.1): entries of
/// {tag, base, bound} (24 bytes assuming 64-bit pointers), a shift-and-mask
/// hash of the double-word address, and open addressing. In the common
/// no-collision case a lookup models ~9 x86 instructions: shift, mask,
/// multiply, add, three loads, compare, branch.
///
/// Sharding (facility API v2): each power-of-two address stripe
/// (MetadataFacility.h ShardStripeLog2) owns an independent sub-table with
/// its own stripe lock, seqlock, statistics, and probe histogram. With
/// one shard and ConcurrencyModel::SingleThread (the default) the probe
/// sequences, collision counts and growth points are identical to the
/// unsharded pre-v2 table.
///
/// Concurrent model: entry words are relaxed atomics and every shard's
/// table generation is published through an atomic pointer, so a lookup
/// probes with zero mutex acquisitions and validates its copied entry
/// against the stripe's seqlock (StripeSeqlock) — writers, under the
/// exclusive ShardLock, bump the sequence around each mutation, and
/// grow() retires the old generation instead of freeing it so a
/// concurrent reader never traverses a dangling table.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H
#define SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H

#include "runtime/MetadataFacility.h"

#include <memory>
#include <vector>

namespace softbound {

/// Open-addressing hash table keyed by pointer-slot address.
class HashTableMetadata : public MetadataFacility {
public:
  /// \p InitialLog2Size is the log2 of the initial entry count *per shard*.
  /// The paper sizes the table "large enough to keep average utilization
  /// low"; we grow at 50% occupancy.
  explicit HashTableMetadata(unsigned InitialLog2Size = 16,
                             FacilityOptions Options = {});

  using MetadataFacility::update;

  const char *name() const override { return "hashtable"; }
  Bounds lookup(uint64_t Addr) override;
  void update(uint64_t Addr, Bounds B) override;
  uint64_t clearRange(uint64_t Addr, uint64_t Size) override;
  uint64_t copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) override;
  uint64_t lookupCost() const override { return 9; }
  uint64_t updateCost() const override { return 9; }
  uint64_t memoryBytes() const override;
  void reset() override;
  MetadataStats stats() const override;
  unsigned shards() const override {
    return static_cast<unsigned>(Shards.size());
  }
  ConcurrencyModel concurrency() const override { return Opts.Model; }
  void attachTelemetry(Telemetry *T, const std::string &Prefix) override;
  void flushTelemetry() override;

  /// Table occupancy in [0, 1], aggregated over shards (for the ablation
  /// bench).
  double loadFactor() const;

private:
  /// One table slot. The words are relaxed atomics so the lock-free
  /// probe can race a writer without host-level undefined behaviour (the
  /// seqlock discards any torn copy); on x86/ARM a relaxed load/store is
  /// a plain move, so the SingleThread path pays nothing for this.
  struct Entry {
    std::atomic<uint64_t> Tag{0}; ///< Slot address; 0 = empty, 1 = tombstone.
    std::atomic<uint64_t> Base{0};
    std::atomic<uint64_t> Bound{0};
  };
  static constexpr uint64_t EmptyTag = 0;
  static constexpr uint64_t TombstoneTag = 1;

  /// One generation of a shard's open-addressing table. Grown
  /// generations are immutable-from-then-on and, in the Concurrent
  /// model, retired rather than freed (a lock-free reader may still be
  /// probing them) until reset() or destruction.
  struct Table {
    explicit Table(size_t N) : Size(N), Slots(new Entry[N]) {}
    size_t Size;
    std::unique_ptr<Entry[]> Slots;
  };

  /// One address-range stripe: an independent open-addressing table plus
  /// its lock, seqlock, and statistics. Stats are relaxed atomics because
  /// lock-free lookups bump them concurrently.
  struct Shard {
    /// The live generation; readers acquire-load, writers publish with a
    /// release store. Ownership lives in Tables.
    std::atomic<Table *> Tab{nullptr};
    /// Every generation ever allocated; back() is live. Writer-only.
    std::vector<std::unique_ptr<Table>> Tables;
    size_t Live = 0;
    size_t Used = 0; ///< Live + tombstones.
    ShardLock Lock;
    StripeSeqlock Seq;
    std::atomic<uint64_t> Lookups{0};
    std::atomic<uint64_t> Updates{0};
    std::atomic<uint64_t> Clears{0};
    std::atomic<uint64_t> Collisions{0};
    /// Probe-length histogram (slots examined per find), cached from the
    /// attached telemetry sink; null in the disabled mode.
    TelemetryHistogram *ProbeHist = nullptr;
  };

  static size_t hash(uint64_t Addr, size_t TableSize) {
    // Double-word address modulo table size: shift and mask (§5.1), with a
    // multiplicative mix so adjacent slots spread.
    uint64_t H = (Addr >> 3) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(H & (TableSize - 1));
  }

  size_t shardOf(uint64_t Addr) const {
    return static_cast<size_t>((Addr >> ShardStripeLog2) &
                               (Shards.size() - 1));
  }

  /// The stripe lock writers (and aggregate readers) guard with, or null
  /// in SingleThread mode.
  const ShardLock *lockOf(const Shard &S) const {
    return Opts.Model == ConcurrencyModel::Concurrent ? &S.Lock : nullptr;
  }

  /// The stripe seqlock writers bump, or null in SingleThread mode.
  StripeSeqlock *seqOf(Shard &S) const {
    return Opts.Model == ConcurrencyModel::Concurrent ? &S.Seq : nullptr;
  }

  /// Finds the entry for Addr in \p S, or the insertion slot; counts
  /// collisions. Caller holds the shard's lock (or runs SingleThread).
  Entry *find(Shard &S, uint64_t Addr, bool ForInsert);

  /// The lock-free read path: probes the published generation and
  /// validates the copied entry against the stripe's seqlock.
  Bounds lookupLockFree(Shard &S, uint64_t Addr);

  /// Clears the slots of [Addr, Addr+Size) that fall inside one stripe;
  /// caller holds the shard exclusively. Returns entries dropped.
  uint64_t clearChunkLocked(Shard &S, uint64_t Addr, uint64_t Size);

  void grow(Shard &S);

  FacilityOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> ClearCalls{0};
  std::atomic<uint64_t> ClearEntries{0};
  std::atomic<uint64_t> CopyCalls{0};
  std::atomic<uint64_t> CopyEntries{0};
};

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H

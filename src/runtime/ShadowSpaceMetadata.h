//===- runtime/ShadowSpaceMetadata.h - tag-less shadow space ----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shadow-space implementation of the metadata facility (§5.1): a region
/// of the (simulated) virtual address space large enough that collisions
/// cannot occur, so entries carry no tag and no tag check is needed — a
/// lookup models ~5 x86 instructions (shift, mask, add, two loads). Pages
/// are materialized on demand, modelling mmap's zero-fill-on-demand.
///
/// Sharding (facility API v2): shadow pages span exactly one address
/// stripe (2^ShardStripeLog2 bytes), so each shard owns whole pages and
/// a page never splits across stripe locks. The default single-shard,
/// SingleThread configuration behaves exactly like the pre-v2 space.
///
/// Concurrent model: lookups take no lock, and pages are published
/// RCU-style — a writer installs a fully-initialized (zero-filled) page
/// node at the head of its bucket chain with a release store, and a
/// reader acquire-loads the head and walks the immutable chain, so a
/// page-miss racing a materialization sees either no page (null bounds)
/// or a complete one, never a torn node. Slot words are relaxed atomics
/// and the per-stripe seqlock (StripeSeqlock) validates the copied
/// {base, bound} pair against concurrent in-place updates.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H
#define SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H

#include "runtime/MetadataFacility.h"

#include <array>
#include <memory>
#include <vector>

namespace softbound {

/// Demand-paged, tag-less shadow of the simulated address space; one
/// {base, bound} pair per 8-byte pointer slot.
class ShadowSpaceMetadata : public MetadataFacility {
public:
  explicit ShadowSpaceMetadata(FacilityOptions Options = {});

  using MetadataFacility::update;

  const char *name() const override { return "shadowspace"; }
  Bounds lookup(uint64_t Addr) override;
  void update(uint64_t Addr, Bounds B) override;
  uint64_t clearRange(uint64_t Addr, uint64_t Size) override;
  uint64_t copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) override;
  uint64_t lookupCost() const override { return 5; }
  uint64_t updateCost() const override { return 5; }
  uint64_t memoryBytes() const override;
  void reset() override;
  MetadataStats stats() const override;
  unsigned shards() const override {
    return static_cast<unsigned>(Shards.size());
  }
  ConcurrencyModel concurrency() const override { return Opts.Model; }
  void flushTelemetry() override;

private:
  /// Slots per shadow page; one page shadows 8 * SlotsPerPage bytes —
  /// exactly one address stripe (static_assert below), so pages never
  /// straddle shards.
  static constexpr uint64_t SlotsPerPage = 4096;
  static_assert(SlotsPerPage * 8 == (uint64_t(1) << ShardStripeLog2),
                "a shadow page must span exactly one shard stripe");

  /// One shadow slot. Relaxed atomics for the same reason as the hash
  /// table's Entry: the lock-free copy may race a writer and the
  /// seqlock discards torn pairs; plain moves on x86/ARM otherwise.
  struct Pair {
    std::atomic<uint64_t> Base{0};
    std::atomic<uint64_t> Bound{0};
  };

  /// One materialized shadow page, linked into its bucket's chain.
  /// Fully initialized (zero-filled slots, PageId, Next) *before* the
  /// release store that publishes it; PageId and Next are immutable
  /// afterwards, so readers walk the chain without synchronization
  /// beyond the acquire on the bucket head.
  struct PageNode {
    PageNode(uint64_t Id, PageNode *N)
        : PageId(Id), Slots(new Pair[SlotsPerPage]), Next(N) {}
    uint64_t PageId;
    std::unique_ptr<Pair[]> Slots;
    PageNode *Next;
  };

  /// Buckets per shard for the page-pointer table. Pages are found via a
  /// multiplicative mix of the page id, so ids that are congruent modulo
  /// the shard count still spread across buckets.
  static constexpr size_t PageBuckets = 64;

  /// One address-range stripe: its demand-paged shadow plus lock/stats.
  struct Shard {
    /// Chain heads; readers acquire-load, writers (under the exclusive
    /// lock) release-store freshly initialized nodes.
    std::array<std::atomic<PageNode *>, PageBuckets> Buckets{};
    /// Ownership of every node ever published. Writer-only; reclaimed at
    /// reset()/destruction (quiescent, per the facility contract).
    std::vector<std::unique_ptr<PageNode>> Nodes;
    uint64_t PageCount = 0;
    ShardLock Lock;
    StripeSeqlock Seq;
    std::atomic<uint64_t> Lookups{0};
    std::atomic<uint64_t> Updates{0};
    std::atomic<uint64_t> Clears{0};
  };

  size_t shardOf(uint64_t Addr) const {
    return static_cast<size_t>((Addr >> ShardStripeLog2) &
                               (Shards.size() - 1));
  }

  static size_t bucketOf(uint64_t PageId) {
    return static_cast<size_t>((PageId * 0x9e3779b97f4a7c15ULL) >>
                               (64 - 6)) &
           (PageBuckets - 1);
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

  /// Finds the page holding \p Addr's slot by walking its bucket chain.
  /// Safe to call from the lock-free read path (acquire head, immutable
  /// chain); returns null when the page is not materialized.
  Pair *findSlot(const Shard &S, uint64_t Addr) const;

  /// findSlot, materializing the page on a miss; caller holds the shard
  /// exclusively (or runs SingleThread).
  Pair *slotFor(Shard &S, uint64_t Addr);

  /// The lock-free read path: seqlock-validated copy of the slot.
  Bounds lookupLockFree(Shard &S, uint64_t Addr);

  FacilityOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> ClearCalls{0};
  std::atomic<uint64_t> ClearEntries{0};
  std::atomic<uint64_t> CopyCalls{0};
  std::atomic<uint64_t> CopyEntries{0};
};

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H

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
/// lookup models ~5 x86 instructions (shift, mask, add, two loads).
///
/// The shadow is a two-level page directory, as in the SoftBound runtime's
/// trie. A page holds one {base, bound} pair per 8-byte slot of one
/// 2^ShardStripeLog2-byte stripe, so each page belongs to exactly one
/// shard. A leaf holds PagesPerLeaf page pointers (64 MB of address), and
/// the top level is a fixed array of Leaves leaf pointers, so the
/// directory reaches 2^ReachLog2 bytes. A lookup is two acquire loads and
/// an index. Pages and leaves are materialized on first write, modelling
/// mmap's zero-fill-on-demand.
///
/// Addresses at or above 2^ReachLog2 fail closed: lookups return the null
/// bounds, updates are dropped and range operations skip them. No pointer
/// can live there — every simulated segment ends far below.
///
/// Concurrent model: pages are published RCU-style. The writer, holding
/// the page's shard lock, zero-fills a page and then release-stores it
/// into its leaf; a leaf is installed with a compare-exchange, the only
/// step writers of different shards can race on. A lookup racing either
/// sees nothing yet (the null bounds) or the finished structure. Slot
/// words are relaxed atomics and the stripe's seqlock validates the copied
/// pair against in-place updates.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H
#define SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H

#include "runtime/StripedFacility.h"

#include <array>

namespace softbound {

/// One shadow-space stripe: the pages it has materialized.
struct ShadowSpaceShard : Stripe {
  uint64_t PageCount = 0; ///< Written under the stripe lock.
};

/// Demand-paged, tag-less shadow of the simulated address space; one
/// {base, bound} pair per 8-byte pointer slot.
class ShadowSpaceMetadata
    : public StripedFacility<ShadowSpaceMetadata, ShadowSpaceShard> {
public:
  /// log2 of the directory's reach: addresses at or above 2^ReachLog2 fail
  /// closed.
  static constexpr unsigned ReachLog2 = 36;

  explicit ShadowSpaceMetadata(FacilityOptions Options = {});
  /// Frees the directory's leaves and pages.
  ~ShadowSpaceMetadata() override;
  ShadowSpaceMetadata(const ShadowSpaceMetadata &) = delete;
  ShadowSpaceMetadata &operator=(const ShadowSpaceMetadata &) = delete;

  const char *name() const override { return "shadowspace"; }
  uint64_t lookupCost() const override { return 5; }
  uint64_t updateCost() const override { return 5; }
  /// Materialized pages only; the directory itself is not counted.
  uint64_t memoryBytes() const override;

private:
  friend StripedFacility;
  using Shard = ShadowSpaceShard;

  /// Slots per shadow page; one page shadows exactly one address stripe.
  static constexpr uint64_t SlotsPerPage = 4096;
  static_assert(SlotsPerPage * 8 == (uint64_t(1) << ShardStripeLog2),
                "a shadow page must span exactly one shard stripe");
  /// log2 of the address range one leaf covers: 64 MB.
  static constexpr unsigned LeafLog2 = 26;
  static constexpr uint64_t PagesPerLeaf = uint64_t(1)
                                           << (LeafLog2 - ShardStripeLog2);
  static constexpr uint64_t Leaves = uint64_t(1) << (ReachLog2 - LeafLog2);

  /// One shadow slot. Relaxed atomics for the same reason as the hash
  /// table's Entry: the lock-free copy may race a writer and the seqlock
  /// discards torn pairs; plain moves on x86/ARM otherwise.
  struct Pair {
    std::atomic<uint64_t> Base{0};
    std::atomic<uint64_t> Bound{0};
  };

  /// Page pointers for 64 MB of address. A page pointer is written once,
  /// by the page's shard under its lock, with a release store.
  struct Leaf {
    std::array<std::atomic<Pair *>, PagesPerLeaf> Pages{};
  };

  /// The slot shadowing \p Addr, or null when its page is absent or out
  /// of reach. Safe on the lock-free read path.
  Pair *findSlot(uint64_t Addr) const;

  /// findSlot, materializing the leaf and page on a miss; null only out
  /// of reach. Caller holds \p S exclusively (or runs SingleThread).
  Pair *slotFor(Shard &S, uint64_t Addr);

  // StripedFacility storage hooks.
  Bounds readSlot(Shard &, uint64_t Addr);
  void writeSlot(Shard &S, uint64_t Addr, Bounds B);
  uint64_t clearSlots(Shard &, uint64_t Addr, uint64_t N);
  /// A slot written with null bounds reads like an empty one, so only
  /// non-null slots are present.
  std::optional<Bounds> copySource(Shard &S, uint64_t Addr);
  void resetStorage();
  void flushStorageTelemetry();

  /// The top level. Leaves are installed by compare-exchange and owned
  /// here until reset()/destruction (quiescent, per the facility
  /// contract), together with their pages.
  std::array<std::atomic<Leaf *>, Leaves> Top{};
};

extern template class StripedFacility<ShadowSpaceMetadata, ShadowSpaceShard>;

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_SHADOWSPACEMETADATA_H

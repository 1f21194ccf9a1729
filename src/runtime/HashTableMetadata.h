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
/// Each shard (StripedFacility.h) owns an independent sub-table with its
/// own probe histogram. With one shard and ConcurrencyModel::SingleThread
/// (the default) the probe sequences, collision counts and growth points
/// are identical to an unsharded table.
///
/// Concurrent model: entry words are relaxed atomics and every shard's
/// table generation is published through an atomic pointer, so a lookup
/// probes with zero mutex acquisitions while the stripe's seqlock
/// discards torn copies; grow() retires the old generation instead of
/// freeing it so a concurrent reader never traverses a dangling table.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H
#define SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H

#include "runtime/StripedFacility.h"

#include <vector>

namespace softbound {

/// One address-range stripe of the hash table: an independent
/// open-addressing table.
struct HashTableShard : Stripe {
  /// One table slot. The words are relaxed atomics so the lock-free
  /// probe can race a writer without host-level undefined behaviour (the
  /// seqlock discards any torn copy); on x86/ARM a relaxed load/store is
  /// a plain move, so the SingleThread path pays nothing for this.
  struct Entry {
    std::atomic<uint64_t> Tag{0}; ///< Slot address; 0 = empty, 1 = tombstone.
    std::atomic<uint64_t> Base{0};
    std::atomic<uint64_t> Bound{0};
  };

  /// One generation of the open-addressing table. Grown generations are
  /// immutable from then on and, in the Concurrent model, retired rather
  /// than freed (a lock-free reader may still be probing them) until
  /// reset() or destruction.
  struct Table {
    explicit Table(size_t N) : Size(N), Slots(new Entry[N]) {}
    size_t Size;
    std::unique_ptr<Entry[]> Slots;
  };

  /// The live generation; readers acquire-load, writers publish with a
  /// release store. Ownership lives in Tables.
  std::atomic<Table *> Tab{nullptr};
  /// Every generation still retained; back() is live. Writer-only.
  std::vector<std::unique_ptr<Table>> Tables;
  size_t Live = 0;
  size_t Used = 0; ///< Live + tombstones.
  /// Probe-length histogram (slots examined per find), cached from the
  /// attached telemetry sink; null in the disabled mode.
  TelemetryHistogram *ProbeHist = nullptr;
};

/// Open-addressing hash table keyed by pointer-slot address.
class HashTableMetadata
    : public StripedFacility<HashTableMetadata, HashTableShard> {
public:
  /// \p InitialLog2Size is the log2 of the initial entry count *per shard*.
  /// The paper sizes the table "large enough to keep average utilization
  /// low"; we grow at 50% occupancy.
  explicit HashTableMetadata(unsigned InitialLog2Size = 16,
                             FacilityOptions Options = {});

  const char *name() const override { return "hashtable"; }
  uint64_t lookupCost() const override { return 9; }
  uint64_t updateCost() const override { return 9; }
  uint64_t memoryBytes() const override;
  void attachTelemetry(Telemetry *T, const std::string &Prefix) override;

  /// Table occupancy in [0, 1], aggregated over shards (for the ablation
  /// bench).
  double loadFactor() const;

private:
  friend StripedFacility;
  using Shard = HashTableShard;
  using Entry = Shard::Entry;
  using Table = Shard::Table;
  static constexpr uint64_t EmptyTag = 0;
  static constexpr uint64_t TombstoneTag = 1;

  static size_t hash(uint64_t Addr, size_t TableSize) {
    // Double-word address modulo table size: shift and mask (§5.1), with a
    // multiplicative mix so adjacent slots spread.
    uint64_t H = (Addr >> 3) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(H & (TableSize - 1));
  }

  /// Finds the entry for Addr in \p S, or the insertion slot; counts
  /// collisions and records the probe length. Safe on the lock-free read
  /// path (it probes the published generation); inserting requires the
  /// shard's lock (or SingleThread).
  Entry *find(Shard &S, uint64_t Addr, bool ForInsert);

  // StripedFacility storage hooks.
  Bounds readSlot(Shard &S, uint64_t Addr);
  void writeSlot(Shard &S, uint64_t Addr, Bounds B);
  uint64_t clearSlots(Shard &S, uint64_t Addr, uint64_t N);
  /// An entry is present even when it was written with null bounds.
  std::optional<Bounds> copySource(Shard &S, uint64_t Addr);
  void resetStorage();
  void flushStorageTelemetry();

  void grow(Shard &S);
};

extern template class StripedFacility<HashTableMetadata, HashTableShard>;

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_HASHTABLEMETADATA_H

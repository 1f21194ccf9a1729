//===- runtime/MetadataFacility.h - disjoint metadata space -----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The disjoint metadata facility of §3.2/§5.1: maps the *address of a
/// pointer in memory* to the base/bound metadata of the pointer stored
/// there. Two implementations, matching the paper: an open hash table
/// (~9 x86 instructions per lookup) and a tag-less shadow space (~5).
///
/// This header holds the facility interface (docs/runtime.md) and the
/// synchronization pieces its concurrent mode is built from: the stripe
/// lock (ShardLock, ShardExclusiveGuard) and the stripe seqlock
/// (StripeSeqlock, SeqlockWriteScope). The address space is divided into
/// 2^ShardStripeLog2-byte stripes, each owned by one shard, so N VM lanes
/// can share one facility. StripedFacility.h implements the stripe policy
/// once for both facilities; each keeps only its storage format.
///
/// The default (`ConcurrencyModel::SingleThread`, one shard) takes no
/// locks at all; it is the mode the bench gate's baselines run under. The
/// concurrent mode (`ConcurrencyModel::Concurrent`): updates and range
/// operations take the stripe's exclusive ShardLock, and lookups acquire
/// no mutex at all — they copy the entry inside a seqlock read window and
/// retry when a writer overlapped it. Structures a reader traverses are
/// published RCU-style (hash tables retire grown generations, shadow pages
/// and directory leaves install fully initialized behind a release
/// store), so a racing reader can observe stale — but never torn or
/// dangling — state.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_RUNTIME_METADATAFACILITY_H
#define SOFTBOUND_RUNTIME_METADATAFACILITY_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace softbound {

class Telemetry;
class TelemetryHistogram;

/// The {base, bound} pair recorded for one pointer slot. (0, 0) is the
/// "null bounds" value that fails every dereference check; it doubles as
/// the miss result, so a lookup never needs an out-param or a found flag.
struct Bounds {
  uint64_t Base = 0;
  uint64_t Bound = 0;

  /// True for the never-recorded / cleared state.
  bool null() const { return Base == 0 && Bound == 0; }

  bool operator==(const Bounds &O) const {
    return Base == O.Base && Bound == O.Bound;
  }
  bool operator!=(const Bounds &O) const { return !(*this == O); }
};

/// How a facility instance synchronizes concurrent callers.
enum class ConcurrencyModel {
  /// No locking anywhere; callers guarantee single-threaded access. This
  /// is the default and the mode every gated baseline runs under.
  SingleThread,
  /// Required whenever more than one VM lane shares the facility:
  /// updates and range ops take the stripe's exclusive ShardLock;
  /// lookups take no lock and validate a copied entry against the
  /// stripe's seqlock, retrying on a dirty window.
  Concurrent,
};

/// log2 of the address-range stripe that maps to one shard: 32 KB, one
/// shadow page (ShadowSpaceMetadata::SlotsPerPage slots of 8 bytes), so
/// a stripe never splits a shadow page across shards.
inline constexpr unsigned ShardStripeLog2 = 15;

/// Simulated-cost prices for facility lock traffic (docs/runtime.md):
/// an uncontended striped-lock acquisition models one atomic op; a
/// contended one models the coherence miss plus re-acquisition. The
/// bench gate prices serialization as
///   uncontended * UncontendedLockCost + contended * ContendedLockCost
/// in the non-gated `contention_*` key group. SingleThread runs take no
/// locks, so this component is exactly zero on every gated baseline.
inline constexpr uint64_t UncontendedLockCost = 1;
inline constexpr uint64_t ContendedLockCost = 40;

/// One seqlock read retry (Concurrent model) is priced like a
/// contended lock acquisition: the reader observed a writer's dirty
/// window, which on real hardware is the same coherence miss plus
/// re-read. Clean seqlock reads are free — the sequence load rides the
/// entry's cache line, which is the whole point of the lock-free path.
inline constexpr uint64_t SeqlockRetryCost = ContendedLockCost;

/// Constructor-time facility configuration.
struct FacilityOptions {
  ConcurrencyModel Model = ConcurrencyModel::SingleThread;
  /// Shard count; rounded up to a power of two, minimum 1. Shard choice
  /// is `(Addr >> ShardStripeLog2) & (Shards - 1)`.
  unsigned Shards = 1;
};

/// Aggregate statistics one facility gathers over a run, summed over
/// shards at read time.
struct MetadataStats {
  uint64_t Lookups = 0;
  uint64_t Updates = 0;
  uint64_t Clears = 0;
  uint64_t Collisions = 0;    ///< Extra probes (hash table only).
  uint64_t LockAcquires = 0;  ///< Striped-lock acquisitions (Concurrent only).
  uint64_t LockContended = 0; ///< Acquisitions that found the lock held.
  uint64_t SeqlockReads = 0;   ///< Lock-free lookups (Concurrent only).
  uint64_t SeqlockRetries = 0; ///< Reads re-run after a dirty seqlock window.

  /// The contention component of the simulated cost model (priced with
  /// UncontendedLockCost / ContendedLockCost / SeqlockRetryCost; zero
  /// when SingleThread). Clean seqlock reads carry no price.
  uint64_t contentionSimCost() const {
    return (LockAcquires - LockContended) * UncontendedLockCost +
           LockContended * ContendedLockCost +
           SeqlockRetries * SeqlockRetryCost;
  }
};

/// One shard's striped lock plus its contention tallies. A null pointer
/// passed to the guard below means "SingleThread mode": the guard
/// degenerates to a single branch, preserving the lock-free fast path
/// the gated baselines were measured on.
struct ShardLock {
  mutable std::mutex Mu;
  mutable std::atomic<uint64_t> Acquires{0};
  mutable std::atomic<uint64_t> Contended{0};
};

/// Exclusive acquisition for updates, range ops and aggregate reads.
/// Counts the acquisition and whether it found the stripe held.
class ShardExclusiveGuard {
public:
  explicit ShardExclusiveGuard(const ShardLock *L) : L(L) {
    if (!L)
      return;
    L->Acquires.fetch_add(1, std::memory_order_relaxed);
    if (!L->Mu.try_lock()) {
      L->Contended.fetch_add(1, std::memory_order_relaxed);
      L->Mu.lock();
    }
  }
  ~ShardExclusiveGuard() {
    if (L)
      L->Mu.unlock();
  }
  ShardExclusiveGuard(const ShardExclusiveGuard &) = delete;
  ShardExclusiveGuard &operator=(const ShardExclusiveGuard &) = delete;

private:
  const ShardLock *L;
};

/// One stripe's seqlock: the sequence word writers bump around every
/// mutation in the Concurrent model, plus the read-side tallies behind
/// the SeqlockReads / SeqlockRetries statistics.
///
/// Protocol (the classic seqlock, with the data itself held in relaxed
/// atomics so racing copies are defined behaviour):
///
///   writer  — already holding the stripe's ShardLock exclusively, so
///             writers never race each other —
///             writeBegin(): Seq += 1 (now odd), release fence;
///             ...mutate (relaxed stores)...;
///             writeEnd():   Seq += 1 (now even, release).
///   reader  S0 = readBegin() (acquire; spins past odd, yielding so a
///             descheduled writer on a single-core host gets the CPU);
///             ...copy (relaxed loads)...;
///             readValidate(S0): acquire fence, re-read Seq; a changed
///             sequence means the copy may be torn — count a retry and
///             re-run the read.
struct StripeSeqlock {
  std::atomic<uint64_t> Seq{0};
  mutable std::atomic<uint64_t> Reads{0};
  mutable std::atomic<uint64_t> Retries{0};

  void writeBegin() {
    Seq.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
  }
  void writeEnd() { Seq.fetch_add(1, std::memory_order_release); }

  /// Starts one counted read attempt sequence; returns an even sequence
  /// value to validate against.
  uint64_t readBegin() const {
    Reads.fetch_add(1, std::memory_order_relaxed);
    return stableSeq();
  }

  /// An even (no write in flight) sequence value. Each odd observation
  /// counts as one retry — the reader is paying for a writer's window.
  uint64_t stableSeq() const {
    for (;;) {
      uint64_t S = Seq.load(std::memory_order_acquire);
      if (!(S & 1))
        return S;
      Retries.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  }

  /// True when a copy taken since sequence \p S0 is consistent; on
  /// failure the retry is counted and the caller re-runs its read.
  bool readValidate(uint64_t S0) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    if (Seq.load(std::memory_order_relaxed) == S0)
      return true;
    Retries.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
};

/// RAII writer window: brackets a mutation with writeBegin/writeEnd when
/// \p SL is non-null (the Concurrent model); free otherwise. Callers
/// hold the stripe's ShardLock exclusively for the whole window.
class SeqlockWriteScope {
public:
  explicit SeqlockWriteScope(StripeSeqlock *SL) : SL(SL) {
    if (SL)
      SL->writeBegin();
  }
  ~SeqlockWriteScope() {
    if (SL)
      SL->writeEnd();
  }
  SeqlockWriteScope(const SeqlockWriteScope &) = delete;
  SeqlockWriteScope &operator=(const SeqlockWriteScope &) = delete;

private:
  StripeSeqlock *SL;
};

/// Abstract interface of the disjoint metadata space.
///
/// Contract:
///  - The mapping is keyed by the location being loaded or stored, not by
///    the value of the pointer (§5.1). Addresses are simulated-VM
///    addresses; pointer slots are 8-byte aligned in all workloads.
///  - `lookup` returns the recorded Bounds by value; the null bounds
///    (0, 0) on a miss. There is no out-param form.
///  - In the Concurrent model every single-slot operation is atomic with
///    respect to other callers: writers serialize on the stripe's
///    exclusive ShardLock, and a lookup racing an update returns either
///    the old or the new {base, bound} pair, never a mix — the seqlock
///    retry discards any torn copy. Range operations (`clearRange`,
///    `copyRange`) are atomic per stripe but not across stripes — a
///    concurrent reader may observe a partially cleared/copied range,
///    which matches what a real multithreaded memcpy/free exposes.
///  - A facility may have a finite reach. The shadow space indexes
///    addresses below 2^ShadowSpaceMetadata::ReachLog2 only; beyond it a
///    lookup returns the null bounds, an update is dropped and range
///    operations skip the slots. This fails closed, and no pointer can
///    live there: the VM's memory access at such an address faults first.
///  - `reset()` and destruction require quiescence (no concurrent
///    callers): they reclaim the RCU-retired structures lock-free
///    readers may still be traversing otherwise.
///  - Statistics and telemetry never change behaviour or modelled costs.
class MetadataFacility {
public:
  virtual ~MetadataFacility() = default;

  virtual const char *name() const = 0;

  /// Returns the bounds recorded for the pointer stored at \p Addr;
  /// the null bounds — which fail every dereference check — when no
  /// metadata was ever recorded. Concurrent model: zero mutex
  /// acquisitions — a seqlock-validated copy.
  virtual Bounds lookup(uint64_t Addr) = 0;

  /// Records bounds for the pointer stored at \p Addr.
  virtual void update(uint64_t Addr, Bounds B) = 0;

  /// Convenience spelling of update() for call sites that carry the pair
  /// as two scalars (the VM's reloc loader, tests).
  void update(uint64_t Addr, uint64_t Base, uint64_t Bound) {
    update(Addr, Bounds{Base, Bound});
  }

  /// Batch lookup: Out[i] = lookup(Addrs[i]).
  virtual void lookupN(const uint64_t *Addrs, Bounds *Out, size_t N) {
    for (size_t I = 0; I < N; ++I)
      Out[I] = lookup(Addrs[I]);
  }

  /// Batch update: update(Addrs[i], In[i]) for each i.
  virtual void updateN(const uint64_t *Addrs, const Bounds *In, size_t N) {
    for (size_t I = 0; I < N; ++I)
      update(Addrs[I], In[I]);
  }

  /// Clears metadata for every pointer slot in [Addr, Addr+Size) — used when
  /// memory is freed or a stack frame is deallocated (§5.2 "memory reuse and
  /// stale metadata"). Returns the number of entries cleared.
  virtual uint64_t clearRange(uint64_t Addr, uint64_t Size) = 0;

  /// Copies metadata for every pointer slot from [Src, Src+Size) to
  /// [Dst, Dst+Size) — the metadata half of an instrumented memcpy (§5.2).
  /// Destination slots whose source slot carries no metadata are cleared
  /// (counted in MetadataStats::Clears, not in the return value), so stale
  /// bounds cannot leak into the copied region. Whether a source slot
  /// carries metadata is the facility's rule: the hash table copies an
  /// entry written with null bounds, while the shadow space cannot tell
  /// one from an empty slot. Returns the number of entries copied.
  virtual uint64_t copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) = 0;

  /// Simulated instruction cost of one lookup (paper §5.1: hash ≈ 9, shadow
  /// ≈ 5 x86 instructions).
  virtual uint64_t lookupCost() const = 0;

  /// Simulated instruction cost of one update.
  virtual uint64_t updateCost() const = 0;

  /// Current metadata memory footprint in bytes.
  virtual uint64_t memoryBytes() const = 0;

  /// Drops all metadata and statistics.
  virtual void reset() = 0;

  /// Aggregate statistics, summed over shards.
  virtual MetadataStats stats() const = 0;

  /// Number of address-range shards (1 in the default configuration).
  virtual unsigned shards() const { return 1; }

  /// The concurrency model this instance was constructed with.
  virtual ConcurrencyModel concurrency() const {
    return ConcurrencyModel::SingleThread;
  }

  /// Attaches a telemetry sink; paths are rooted at \p Prefix (the run
  /// driver uses "facility/<name>"). Null detaches. Recording never
  /// changes behaviour or the modelled costs; with no sink attached the
  /// hot paths pay exactly one pointer test (the zero-cost disabled
  /// mode). With more than one shard, per-shard series (probe
  /// histograms, contention counters) live under "<Prefix>/shard<K>".
  /// Implementations override to cache direct histogram pointers.
  virtual void attachTelemetry(Telemetry *T, const std::string &Prefix) {
    Telem = T;
    TelemetryPrefix = Prefix;
  }

  /// Pushes end-of-run gauges (occupancy, memory footprint, contention)
  /// into the attached sink; no-op when none is attached. Must be called
  /// from one thread, after all lanes joined.
  virtual void flushTelemetry() {}

protected:
  Telemetry *Telem = nullptr;
  std::string TelemetryPrefix;
};

} // namespace softbound

#endif // SOFTBOUND_RUNTIME_METADATAFACILITY_H

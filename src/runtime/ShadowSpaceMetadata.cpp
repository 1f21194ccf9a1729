//===- runtime/ShadowSpaceMetadata.cpp - tag-less shadow space -------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ShadowSpaceMetadata.h"

using namespace softbound;

template class softbound::StripedFacility<ShadowSpaceMetadata, ShadowSpaceShard>;

namespace {

inline uint64_t ld(const std::atomic<uint64_t> &W) {
  return W.load(std::memory_order_relaxed);
}
inline void st(std::atomic<uint64_t> &W, uint64_t V) {
  W.store(V, std::memory_order_relaxed);
}

} // namespace

ShadowSpaceMetadata::ShadowSpaceMetadata(FacilityOptions Options)
    : StripedFacility(Options) {}

ShadowSpaceMetadata::~ShadowSpaceMetadata() { resetStorage(); }

void ShadowSpaceMetadata::flushStorageTelemetry() {
  uint64_t Pages = 0;
  for (unsigned K = 0; K < NumShards; ++K) {
    Pages += Shards[K].PageCount;
    if (Model == ConcurrencyModel::Concurrent)
      Telem->counter(shardPrefix(K) + "/pages_materialized") =
          Shards[K].PageCount;
  }
  Telem->counter(TelemetryPrefix + "/pages_materialized") = Pages;
}

ShadowSpaceMetadata::Pair *ShadowSpaceMetadata::findSlot(uint64_t Addr) const {
  if (Addr >> ReachLog2)
    return nullptr;
  Leaf *L = Top[Addr >> LeafLog2].load(std::memory_order_acquire);
  if (!L)
    return nullptr;
  Pair *Page = L->Pages[(Addr >> ShardStripeLog2) & (PagesPerLeaf - 1)].load(
      std::memory_order_acquire);
  return Page ? &Page[(Addr >> 3) & (SlotsPerPage - 1)] : nullptr;
}

ShadowSpaceMetadata::Pair *ShadowSpaceMetadata::slotFor(Shard &S,
                                                        uint64_t Addr) {
  if (Addr >> ReachLog2)
    return nullptr;
  std::atomic<Leaf *> &LeafRef = Top[Addr >> LeafLog2];
  Leaf *L = LeafRef.load(std::memory_order_acquire);
  if (!L) {
    // Writers of different shards can race to install the same leaf; the
    // loser frees its copy and uses the winner's.
    auto *Fresh = new Leaf();
    if (LeafRef.compare_exchange_strong(L, Fresh, std::memory_order_acq_rel,
                                        std::memory_order_acquire))
      L = Fresh;
    else
      delete Fresh;
  }
  // Only this page's shard writes its pointer, and it holds the lock. The
  // page is zero-filled before the release store makes it reachable, so a
  // racing reader sees either no page (null bounds, exactly what
  // zero-fill-on-demand returns) or the finished one.
  std::atomic<Pair *> &PageRef =
      L->Pages[(Addr >> ShardStripeLog2) & (PagesPerLeaf - 1)];
  Pair *Page = PageRef.load(std::memory_order_relaxed);
  if (!Page) {
    Page = new Pair[SlotsPerPage];
    PageRef.store(Page, std::memory_order_release);
    ++S.PageCount;
  }
  return &Page[(Addr >> 3) & (SlotsPerPage - 1)];
}

Bounds ShadowSpaceMetadata::readSlot(Shard &, uint64_t Addr) {
  if (const Pair *P = findSlot(Addr))
    return Bounds{ld(P->Base), ld(P->Bound)};
  return Bounds{};
}

std::optional<Bounds> ShadowSpaceMetadata::copySource(Shard &S,
                                                      uint64_t Addr) {
  Bounds B = readSlot(S, Addr);
  if (B.null())
    return std::nullopt;
  return B;
}

void ShadowSpaceMetadata::writeSlot(Shard &S, uint64_t Addr, Bounds B) {
  if (Pair *P = slotFor(S, Addr)) {
    st(P->Base, B.Base);
    st(P->Bound, B.Bound);
  }
}

uint64_t ShadowSpaceMetadata::clearSlots(Shard &, uint64_t Addr, uint64_t N) {
  // The N slots lie in one stripe, hence in one page: one lookup covers
  // them, and an absent page has nothing to clear.
  Pair *P = findSlot(Addr);
  if (!P)
    return 0;
  uint64_t Cleared = 0;
  for (Pair *E = P + N; P != E; ++P) {
    if (ld(P->Base) == 0 && ld(P->Bound) == 0)
      continue;
    st(P->Base, 0);
    st(P->Bound, 0);
    ++Cleared;
  }
  return Cleared;
}

uint64_t ShadowSpaceMetadata::memoryBytes() const {
  uint64_t Bytes = 0;
  for (unsigned K = 0; K < NumShards; ++K) {
    ShardExclusiveGuard Guard(lockOf(Shards[K]));
    Bytes += Shards[K].PageCount * SlotsPerPage * sizeof(Pair);
  }
  return Bytes;
}

void ShadowSpaceMetadata::resetStorage() {
  for (std::atomic<Leaf *> &LeafRef : Top) {
    Leaf *L = LeafRef.load(std::memory_order_relaxed);
    if (!L)
      continue;
    LeafRef.store(nullptr, std::memory_order_relaxed);
    for (std::atomic<Pair *> &PageRef : L->Pages)
      delete[] PageRef.load(std::memory_order_relaxed);
    delete L;
  }
  for (unsigned K = 0; K < NumShards; ++K)
    Shards[K].PageCount = 0;
}

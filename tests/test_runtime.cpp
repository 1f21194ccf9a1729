//===- tests/test_runtime.cpp - metadata facility unit tests ---------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit and property tests of the §5.1 metadata facilities: basic
/// lookup/update semantics, range clearing and copying, hash growth and
/// collision accounting, the shadow directory's fail-closed reach, and an
/// equivalence sweep using the shadow space as oracle for the hash table.
///
//===----------------------------------------------------------------------===//

#include "runtime/HashTableMetadata.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "support/RNG.h"
#include "vm/SimMemory.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <vector>

using namespace softbound;

namespace {

template <typename T> class FacilityTest : public ::testing::Test {
public:
  T Facility;
};

using Facilities = ::testing::Types<HashTableMetadata, ShadowSpaceMetadata>;
TYPED_TEST_SUITE(FacilityTest, Facilities);

TYPED_TEST(FacilityTest, MissingLookupYieldsNullBounds) {
  Bounds B = this->Facility.lookup(0x2000'0000);
  EXPECT_EQ(B.Base, 0u);
  EXPECT_EQ(B.Bound, 0u);
  EXPECT_TRUE(B.null());
}

TYPED_TEST(FacilityTest, UpdateThenLookup) {
  this->Facility.update(0x2000'0008, 0x1000, 0x1040);
  Bounds B = this->Facility.lookup(0x2000'0008);
  EXPECT_EQ(B.Base, 0x1000u);
  EXPECT_EQ(B.Bound, 0x1040u);
  // A different slot is unaffected.
  EXPECT_EQ(this->Facility.lookup(0x2000'0010).Base, 0u);
}

TYPED_TEST(FacilityTest, OverwriteReplacesBounds) {
  this->Facility.update(0x3000'0000, 1, 2);
  this->Facility.update(0x3000'0000, 10, 20);
  Bounds B = this->Facility.lookup(0x3000'0000);
  EXPECT_EQ(B.Base, 10u);
  EXPECT_EQ(B.Bound, 20u);
}

TYPED_TEST(FacilityTest, ClearRangeDropsCoveredSlots) {
  for (uint64_t A = 0x4000'0000; A < 0x4000'0040; A += 8)
    this->Facility.update(A, A, A + 8);
  uint64_t Cleared = this->Facility.clearRange(0x4000'0010, 0x18);
  EXPECT_EQ(Cleared, 3u);
  EXPECT_NE(this->Facility.lookup(0x4000'0008).Base, 0u)
      << "below the range: intact";
  EXPECT_EQ(this->Facility.lookup(0x4000'0010).Base, 0u)
      << "in range: gone";
  EXPECT_NE(this->Facility.lookup(0x4000'0028).Base, 0u)
      << "above the range: intact";
}

TYPED_TEST(FacilityTest, CopyRangeMirrorsMetadata) {
  this->Facility.update(0x5000'0000, 7, 70);
  this->Facility.update(0x5000'0010, 9, 90);
  // Destination has a stale entry that the copy must overwrite/clear.
  this->Facility.update(0x6000'0008, 5, 50);
  this->Facility.copyRange(0x6000'0000, 0x5000'0000, 0x18);
  EXPECT_EQ(this->Facility.lookup(0x6000'0000).Base, 7u);
  EXPECT_EQ(this->Facility.lookup(0x6000'0008).Base, 0u)
      << "stale destination metadata must not survive";
  Bounds B = this->Facility.lookup(0x6000'0010);
  EXPECT_EQ(B.Base, 9u);
  EXPECT_EQ(B.Bound, 90u);
}

TYPED_TEST(FacilityTest, ZeroLengthRangesAreNoOps) {
  this->Facility.update(0xC000'0000, 7, 70);
  EXPECT_EQ(this->Facility.clearRange(0xC000'0000, 0), 0u);
  EXPECT_EQ(this->Facility.copyRange(0xC000'1000, 0xC000'0000, 0), 0u);
  EXPECT_EQ(this->Facility.lookup(0xC000'0000).Base, 7u)
      << "zero-length clear must not touch the slot";
  EXPECT_EQ(this->Facility.lookup(0xC000'1000).Base, 0u)
      << "zero-length copy must not materialize metadata";
}

TYPED_TEST(FacilityTest, UnalignedClearCoversEveryTouchedSlot) {
  // [Addr, Addr+Size) is interpreted over 8-byte pointer slots: a range
  // starting mid-slot still invalidates that slot (a freed object's first
  // pointer slot must never survive because the free was byte-offset).
  this->Facility.update(0xB000'0000, 5, 50);
  this->Facility.update(0xB000'0008, 6, 60);
  EXPECT_EQ(this->Facility.clearRange(0xB000'0004, 8), 2u)
      << "range [4, 12) touches both slot 0 and slot 8";
  EXPECT_EQ(this->Facility.lookup(0xB000'0000).Base, 0u);
  EXPECT_EQ(this->Facility.lookup(0xB000'0008).Base, 0u);
}

TYPED_TEST(FacilityTest, UnalignedSizeCopyCoversPartialSlot) {
  this->Facility.update(0xD000'0000, 8, 80);
  EXPECT_EQ(this->Facility.copyRange(0xD000'1000, 0xD000'0000, 5), 1u)
      << "a 5-byte copy still moves the metadata of the slot it touches";
  Bounds B = this->Facility.lookup(0xD000'1000);
  EXPECT_EQ(B.Base, 8u);
  EXPECT_EQ(B.Bound, 80u);
}

TYPED_TEST(FacilityTest, OverlappingCopyDstBelowSrcIsMoveLike) {
  // Copies walk the source ascending, so a destination below the source
  // reads each slot before anything overwrites it — memmove semantics.
  this->Facility.update(0xA000'0008, 2, 20);
  this->Facility.update(0xA000'0010, 3, 30);
  EXPECT_EQ(this->Facility.copyRange(0xA000'0000, 0xA000'0008, 0x10), 2u);
  EXPECT_EQ(this->Facility.lookup(0xA000'0000).Base, 2u);
  EXPECT_EQ(this->Facility.lookup(0xA000'0008).Base, 3u);
}

TYPED_TEST(FacilityTest, OverlappingCopyDstAboveSrcPropagatesForward) {
  // The same ascending walk means a destination *inside* the source range
  // re-reads already-copied slots, smearing the first slot forward —
  // exactly like a naive forward memcpy. Both implementations must agree
  // on this (documented) behaviour rather than silently diverge.
  this->Facility.update(0x9000'0000, 1, 10);
  this->Facility.update(0x9000'0008, 2, 20);
  this->Facility.update(0x9000'0010, 3, 30);
  EXPECT_EQ(this->Facility.copyRange(0x9000'0008, 0x9000'0000, 0x18), 3u);
  for (uint64_t A = 0x9000'0000; A <= 0x9000'0018; A += 8) {
    Bounds B = this->Facility.lookup(A);
    EXPECT_EQ(B.Base, 1u) << "slot " << std::hex << A;
    EXPECT_EQ(B.Bound, 10u);
  }
}

TYPED_TEST(FacilityTest, ResetDropsEverything) {
  this->Facility.update(0x7000'0000, 1, 2);
  this->Facility.reset();
  EXPECT_EQ(this->Facility.lookup(0x7000'0000).Base, 0u);
  EXPECT_EQ(this->Facility.stats().Lookups, 1u);
}

TYPED_TEST(FacilityTest, BatchLookupMatchesScalar) {
  // lookupN over a mix of present, missing, and shard-crossing slots
  // must agree element-wise with scalar lookup.
  for (uint64_t I = 0; I < 16; I += 2)
    this->Facility.update(0x2000'0000 + I * 8, I + 1, I + 100);
  std::vector<uint64_t> Addrs;
  for (uint64_t I = 0; I < 16; ++I)
    Addrs.push_back(0x2000'0000 + I * 8);
  Addrs.push_back(0x2000'0000 + (1ULL << 20)); // Different stripe.
  std::vector<Bounds> Out(Addrs.size());
  this->Facility.lookupN(Addrs.data(), Out.data(), Addrs.size());
  for (size_t I = 0; I < Addrs.size(); ++I) {
    Bounds Want = this->Facility.lookup(Addrs[I]);
    EXPECT_EQ(Out[I].Base, Want.Base) << "index " << I;
    EXPECT_EQ(Out[I].Bound, Want.Bound) << "index " << I;
  }
}

TYPED_TEST(FacilityTest, BatchUpdateMatchesScalar) {
  std::vector<uint64_t> Addrs;
  std::vector<Bounds> Vals;
  for (uint64_t I = 0; I < 24; ++I) {
    Addrs.push_back(0x8000'0000 + I * (1ULL << 17)); // Spans stripes.
    Vals.push_back(Bounds{I + 1, I + 50});
  }
  this->Facility.updateN(Addrs.data(), Vals.data(), Addrs.size());
  for (size_t I = 0; I < Addrs.size(); ++I) {
    Bounds B = this->Facility.lookup(Addrs[I]);
    EXPECT_EQ(B.Base, Vals[I].Base) << "index " << I;
    EXPECT_EQ(B.Bound, Vals[I].Bound) << "index " << I;
  }
}

TYPED_TEST(FacilityTest, CostModelMatchesPaper) {
  // §5.1: hash ≈ 9 instructions per op, shadow ≈ 5.
  if (std::string(this->Facility.name()) == "hashtable") {
    EXPECT_EQ(this->Facility.lookupCost(), 9u);
  } else {
    EXPECT_EQ(this->Facility.lookupCost(), 5u);
  }
}

TYPED_TEST(FacilityTest, DefaultConfigurationIsSingleThread) {
  EXPECT_EQ(this->Facility.shards(), 1u);
  EXPECT_EQ(this->Facility.concurrency(), ConcurrencyModel::SingleThread);
  this->Facility.update(0x2000'0000, 1, 2);
  this->Facility.lookup(0x2000'0000);
  MetadataStats S = this->Facility.stats();
  EXPECT_EQ(S.LockAcquires, 0u) << "SingleThread mode must stay lock-free";
  EXPECT_EQ(S.contentionSimCost(), 0u);
}

TEST(HashTableMetadata, GrowsPastInitialCapacity) {
  HashTableMetadata M(4); // 16 entries.
  for (uint64_t I = 0; I < 1000; ++I)
    M.update(0x1000 + I * 8, I + 1, I + 100);
  for (uint64_t I = 0; I < 1000; ++I) {
    Bounds B = M.lookup(0x1000 + I * 8);
    ASSERT_EQ(B.Base, I + 1);
    ASSERT_EQ(B.Bound, I + 100);
  }
}

TEST(HashTableMetadata, TombstonesDoNotBreakProbing) {
  HashTableMetadata M(4);
  // Insert colliding-ish entries, delete some, reinsert, verify all.
  for (uint64_t I = 0; I < 64; ++I)
    M.update(0x9000 + I * 8, I + 1, I + 2);
  M.clearRange(0x9000, 64 * 8 / 2);
  for (uint64_t I = 0; I < 32; ++I)
    M.update(0x9000 + I * 8, 100 + I, 200 + I);
  for (uint64_t I = 0; I < 64; ++I) {
    Bounds B = M.lookup(0x9000 + I * 8);
    if (I < 32) {
      EXPECT_EQ(B.Base, 100 + I);
    } else {
      EXPECT_EQ(B.Base, I + 1);
    }
  }
}

TEST(ShadowSpaceMetadata, AddressesBeyondDirectoryFailClosed) {
  // The page directory indexes addresses below 2^ReachLog2. Beyond it a
  // lookup yields the null bounds, an update is dropped, and range
  // operations skip the slots instead of indexing past the top level.
  ShadowSpaceMetadata M;
  const uint64_t Reach = 1ULL << ShadowSpaceMetadata::ReachLog2;
  for (uint64_t A : {Reach, uint64_t(1) << 40, UINT64_MAX - 7}) {
    M.update(A, 0x1000, 0x1040);
    EXPECT_TRUE(M.lookup(A).null()) << std::hex << A;
  }
  EXPECT_EQ(M.memoryBytes(), 0u);

  // Ranges that cross the reach touch only the slots below it.
  M.update(Reach - 8, 1, 2);
  EXPECT_EQ(M.clearRange(Reach - 64, 128), 1u);
  M.update(Reach - 8, 1, 2);
  EXPECT_EQ(M.copyRange(Reach - 64, Reach, 64), 0u);
  EXPECT_TRUE(M.lookup(Reach - 8).null())
      << "an out-of-reach source carries no metadata";
  M.update(Reach - 8, 1, 2);
  EXPECT_EQ(M.copyRange(Reach + 64, Reach - 8, 16), 1u);
  EXPECT_TRUE(M.lookup(Reach + 64).null());

  // Ranges that wrap past the top of the address space end there.
  EXPECT_EQ(M.clearRange(UINT64_MAX - 15, 64), 0u);
  EXPECT_EQ(M.copyRange(0x2000'0000, UINT64_MAX - 15, 64), 0u);

  // No pointer can live out of reach: the default VM's segments end
  // below it, so an access there faults before it reaches the facility.
  EXPECT_LE(simlayout::HeapBase + simlayout::HeapSize, Reach);
  EXPECT_LE(simlayout::StackBase + simlayout::StackSize, Reach);
}

TEST(FacilityEquivalence, HashMatchesShadowOracle) {
  // Randomized op sequence: both facilities must agree on every lookup,
  // on what every range operation returns, and on the op statistics.
  // Slots spread over three 64 MB shadow-directory leaves, two pages
  // each, so copies cross pages and leaves.
  HashTableMetadata Hash(6);
  ShadowSpaceMetadata Shadow;
  const uint64_t Regions[] = {0x2000'0000, 0x2400'0000, 0x7000'0000};
  RNG R(20260611);
  auto Slot = [&R, &Regions] {
    return Regions[R.below(3)] + (R.below(1 << 13) << 3);
  };
  for (int Op = 0; Op < 20000; ++Op) {
    uint64_t Addr = Slot();
    switch (R.below(5)) {
    case 0:
    case 1: {
      uint64_t Base = R.below(1 << 20) + 1;
      uint64_t Bound = Base + R.below(256);
      Hash.update(Addr, Base, Bound);
      Shadow.update(Addr, Base, Bound);
      break;
    }
    case 2: {
      Bounds H = Hash.lookup(Addr);
      Bounds S = Shadow.lookup(Addr);
      ASSERT_EQ(H.Base, S.Base) << "divergence at op " << Op;
      ASSERT_EQ(H.Bound, S.Bound);
      break;
    }
    case 3: {
      uint64_t Len = (R.below(8) + 1) * 8;
      ASSERT_EQ(Hash.clearRange(Addr, Len), Shadow.clearRange(Addr, Len))
          << "clearRange divergence at op " << Op;
      break;
    }
    default: {
      // Every recorded bound is non-null, so both presence rules agree.
      uint64_t Dst = Slot();
      uint64_t Len = (R.below(16) + 1) * 8;
      ASSERT_EQ(Hash.copyRange(Dst, Addr, Len),
                Shadow.copyRange(Dst, Addr, Len))
          << "copyRange divergence at op " << Op;
      break;
    }
    }
  }
  MetadataStats H = Hash.stats(), S = Shadow.stats();
  EXPECT_EQ(H.Lookups, S.Lookups);
  EXPECT_EQ(H.Updates, S.Updates);
  EXPECT_EQ(H.Clears, S.Clears)
      << "copyRange must count the stale destination slots it clears";
}

} // namespace

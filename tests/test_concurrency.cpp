//===- tests/test_concurrency.cpp - sharded facilities, multi-lane VM ------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Facility API v2 concurrency coverage (docs/runtime.md):
///
///  - range operations on a Concurrent, sharded facility agree with a
///    SingleThread oracle even when the range spans several
///    2^ShardStripeLog2-byte stripes (clearRange / copyRange chunk per
///    stripe);
///  - a multi-threaded update/lookup hammer loses no slots and the
///    per-shard statistics add up: one lock acquisition per update, one
///    seqlock read per lookup;
///  - writers of different shards racing to install the same shadow
///    directory leaf lose no page;
///  - a 4-lane runSession over the full Table 3 attack suite and the
///    Table 4 BugBench kernels misses nothing in any lane, with every
///    lookup on the seqlock read path;
///  - a 1-lane session is RunResult-identical to a hand-built VM run
///    (counters, trap, output, request windows, memory figures): the
///    single-lane merge is the identity;
///  - multi-lane sessions surface contention accounting and merge lane
///    outputs deterministically;
///  - lock-free lookups (docs/runtime.md "Lock-free reads"): a
///    writer-hammer seqlock stress where lookups racing updates must
///    return the old pair or the new pair, never a mix; read-only
///    hammers whose lock-acquire counter stays flat (zero mutex
///    acquisitions on the read path); and seqlock read/retry accounting
///    and its contentionSimCost() pricing.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "runtime/HashTableMetadata.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "support/Telemetry.h"
#include "vm/VM.h"
#include "workloads/Traffic.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <thread>
#include <vector>

using namespace softbound;

namespace {

constexpr uint64_t Stripe = 1ULL << ShardStripeLog2;

/// Builds \p Src through the default instrumented pipeline.
PipelineResult buildInstrumented(const std::string &Src) {
  return PipelinePlan().frontend(Src).optimize().softbound().checkOpt().build();
}

//===----------------------------------------------------------------------===//
// Stripe-spanning range operations vs a single-threaded oracle
//===----------------------------------------------------------------------===//

TEST(ShardedRangeOps, ClearRangeSpanningStripesMatchesOracle) {
  ShadowSpaceMetadata Sharded(
      FacilityOptions{ConcurrencyModel::Concurrent, 4});
  ShadowSpaceMetadata Oracle;
  ASSERT_EQ(Sharded.shards(), 4u);
  ASSERT_EQ(Sharded.concurrency(), ConcurrencyModel::Concurrent);
  ASSERT_EQ(Oracle.concurrency(), ConcurrencyModel::SingleThread);

  // Populate five stripes' worth of slots, every other slot, so the
  // clear path sees hits and misses alike.
  const uint64_t Lo = 0x4000'0000;
  const uint64_t Hi = Lo + 5 * Stripe;
  for (uint64_t A = Lo; A < Hi; A += 16) {
    Sharded.update(A, A, A + 64);
    Oracle.update(A, A, A + 64);
  }

  // Clear a window that starts and ends mid-stripe and crosses three
  // stripe boundaries (so it is chunked over four shard locks).
  const uint64_t From = Lo + Stripe / 2 + 8;
  const uint64_t Size = 3 * Stripe + 24;
  EXPECT_EQ(Sharded.clearRange(From, Size), Oracle.clearRange(From, Size));

  for (uint64_t A = Lo; A < Hi; A += 8)
    ASSERT_EQ(Sharded.lookup(A), Oracle.lookup(A)) << "slot " << A;

  MetadataStats St = Sharded.stats();
  EXPECT_EQ(St.Clears, Oracle.stats().Clears);
  EXPECT_GT(St.LockAcquires, 0u);
  EXPECT_EQ(Oracle.stats().LockAcquires, 0u);
}

TEST(ShardedRangeOps, CopyRangeSpanningStripesMatchesOracle) {
  HashTableMetadata Sharded(16,
                            FacilityOptions{ConcurrencyModel::Concurrent, 8});
  HashTableMetadata Oracle;
  ASSERT_EQ(Sharded.shards(), 8u);

  // Source carries metadata on a sparse grid; the destination starts
  // with stale bounds that the copy must overwrite or clear.
  const uint64_t Src = 0x5000'0000;
  const uint64_t Dst = 0x7000'0800; // Different phase within its stripe.
  const uint64_t Size = 2 * Stripe + 512;
  for (uint64_t Off = 0; Off < Size; Off += 24) {
    Sharded.update(Src + Off, Src + Off, Src + Off + 128);
    Oracle.update(Src + Off, Src + Off, Src + Off + 128);
  }
  for (uint64_t Off = 0; Off < Size; Off += 40) {
    Sharded.update(Dst + Off, 0xdead, 0xbeef);
    Oracle.update(Dst + Off, 0xdead, 0xbeef);
  }

  EXPECT_EQ(Sharded.copyRange(Dst, Src, Size), Oracle.copyRange(Dst, Src, Size));

  for (uint64_t Off = 0; Off < Size; Off += 8) {
    ASSERT_EQ(Sharded.lookup(Dst + Off), Oracle.lookup(Dst + Off))
        << "dst slot +" << Off;
    ASSERT_EQ(Sharded.lookup(Src + Off), Oracle.lookup(Src + Off))
        << "src slot +" << Off;
  }
}

TEST(ShardedRangeOps, BatchOpsCrossStripesLikeScalars) {
  ShadowSpaceMetadata Sharded(
      FacilityOptions{ConcurrencyModel::Concurrent, 4});
  ShadowSpaceMetadata Oracle;

  // One batch whose addresses hop stripes (and wrap shard indices) on
  // purpose: runs of same-shard addresses interleaved with jumps.
  std::vector<uint64_t> Addrs;
  std::vector<Bounds> In;
  for (uint64_t I = 0; I < 64; ++I) {
    uint64_t A = 0x2000'0000 + (I % 5) * Stripe + I * 8;
    Addrs.push_back(A);
    In.push_back(Bounds{A + 1, A + 256});
  }
  Sharded.updateN(Addrs.data(), In.data(), Addrs.size());
  Oracle.updateN(Addrs.data(), In.data(), Addrs.size());

  std::vector<Bounds> OutSharded(Addrs.size()), OutOracle(Addrs.size());
  Sharded.lookupN(Addrs.data(), OutSharded.data(), Addrs.size());
  Oracle.lookupN(Addrs.data(), OutOracle.data(), Addrs.size());
  for (size_t I = 0; I < Addrs.size(); ++I) {
    EXPECT_EQ(OutSharded[I], In[I]) << I;
    EXPECT_EQ(OutSharded[I], OutOracle[I]) << I;
  }
}

//===----------------------------------------------------------------------===//
// Concurrent hammer: slots survive, statistics add up
//===----------------------------------------------------------------------===//

TEST(ShardedConcurrency, ParallelHammerLosesNoSlotsAndCountsLocks) {
  HashTableMetadata M(16, FacilityOptions{ConcurrencyModel::Concurrent, 8});
  constexpr unsigned Threads = 8;
  constexpr uint64_t SlotsPerThread = 4096;
  constexpr uint64_t Base = 0x6000'0000;

  // Threads interleave slot-by-slot within the same stripes, so every
  // shard sees traffic from all eight threads at once.
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&M, T] {
      for (uint64_t I = 0; I < SlotsPerThread; ++I) {
        uint64_t A = Base + T * 8 + I * (Threads * 8);
        M.update(A, A + 1, A + 128);
      }
      for (uint64_t I = 0; I < SlotsPerThread; ++I) {
        uint64_t A = Base + T * 8 + I * (Threads * 8);
        Bounds B = M.lookup(A);
        (void)B; // Verified from the main thread below.
      }
    });
  for (auto &Th : Pool)
    Th.join();

  MetadataStats St = M.stats();
  EXPECT_EQ(St.Updates, uint64_t(Threads) * SlotsPerThread);
  EXPECT_EQ(St.Lookups, uint64_t(Threads) * SlotsPerThread);
  // Every update takes exactly one stripe-lock acquisition; every lookup
  // is one seqlock read and takes none.
  EXPECT_EQ(St.LockAcquires, St.Updates);
  EXPECT_EQ(St.SeqlockReads, St.Lookups);
  EXPECT_GE(St.contentionSimCost(), St.LockAcquires);

  for (unsigned T = 0; T < Threads; ++T)
    for (uint64_t I = 0; I < SlotsPerThread; ++I) {
      uint64_t A = Base + T * 8 + I * (Threads * 8);
      ASSERT_EQ(M.lookup(A), (Bounds{A + 1, A + 128})) << "T" << T << " I" << I;
    }
}

TEST(ShardedConcurrency, ShadowLeafInstallRaceLosesNoPages) {
  // Each round, four threads released together write into one fresh
  // 64 MB shadow-directory leaf. Thread T writes only stripes owned by
  // shard T, so the threads hold different stripe locks and race to
  // install the same leaf; the loser of that race must drop its copy
  // without losing a page.
  constexpr unsigned Threads = 4;
  constexpr uint64_t Leaf = 1ULL << 26;
  constexpr uint64_t Rounds = 8;
  constexpr uint64_t StripesPerThread = 4;
  constexpr uint64_t SlotsPerStripe = 16;
  ShadowSpaceMetadata M(FacilityOptions{ConcurrencyModel::Concurrent, Threads});
  Telemetry Telem;
  M.attachTelemetry(&Telem, "facility/shadow");
  auto SlotAddr = [](uint64_t Round, uint64_t T, uint64_t K, uint64_t I) {
    // Stripe K * Threads + T of the round's leaf belongs to shard T.
    return (16 + Round) * Leaf + (K * Threads + T) * Stripe + I * 8;
  };

  std::barrier Start(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (uint64_t Round = 0; Round < Rounds; ++Round) {
        Start.arrive_and_wait();
        for (uint64_t K = 0; K < StripesPerThread; ++K)
          for (uint64_t I = 0; I < SlotsPerStripe; ++I) {
            uint64_t A = SlotAddr(Round, T, K, I);
            M.update(A, A + 1, A + 64);
          }
      }
    });
  for (auto &Th : Pool)
    Th.join();

  for (uint64_t Round = 0; Round < Rounds; ++Round)
    for (unsigned T = 0; T < Threads; ++T)
      for (uint64_t K = 0; K < StripesPerThread; ++K)
        for (uint64_t I = 0; I < SlotsPerStripe; ++I) {
          uint64_t A = SlotAddr(Round, T, K, I);
          ASSERT_EQ(M.lookup(A), (Bounds{A + 1, A + 64}))
              << "round " << Round << " thread " << T;
        }
  M.flushTelemetry();
  EXPECT_EQ(Telem.counter("facility/shadow/pages_materialized"),
            Rounds * Threads * StripesPerThread)
      << "one page per distinct stripe written";
}

//===----------------------------------------------------------------------===//
// Multi-lane sessions: the full detection matrix still holds per lane
//===----------------------------------------------------------------------===//

TEST(MultiLaneSessions, FourLaneAttackSweepMissesNothing) {
  for (const AttackCase &A : attackSuite()) {
    PipelineResult Prog = buildInstrumented(A.Source);
    ASSERT_TRUE(Prog.ok()) << A.Name << ": " << Prog.errorText();

    RunRequest Req;
    Req.Lanes = 4;
    Req.FacilityShards = 4;
    SessionResult S = runSession(Prog, Req);
    ASSERT_EQ(S.PerLane.size(), 4u) << A.Name;
    for (size_t L = 0; L < S.PerLane.size(); ++L) {
      const RunResult &R = S.PerLane[L];
      EXPECT_TRUE(R.violationDetected())
          << A.Name << " lane " << L << ": trap=" << trapName(R.Trap)
          << " exit=" << R.ExitCode << " msg=" << R.Message;
      EXPECT_FALSE(R.attackLanded()) << A.Name << " lane " << L;
    }
    EXPECT_TRUE(S.Combined.violationDetected()) << A.Name;
    // Every facility lookup went through the seqlock read path.
    EXPECT_EQ(S.Meta.SeqlockReads, S.Meta.Lookups) << A.Name;
  }
}

TEST(MultiLaneSessions, FourLaneBugBenchSweepMissesNothing) {
  // Every Table 4 kernel is detected under full checking (the matrix in
  // test_bugbench.cpp); four concurrent lanes must not change that.
  for (const BugCase &Bug : bugbenchSuite()) {
    PipelineResult Prog = buildInstrumented(Bug.Source);
    ASSERT_TRUE(Prog.ok()) << Bug.Name << ": " << Prog.errorText();

    RunRequest Req;
    Req.Lanes = 4;
    Req.FacilityShards = 4;
    SessionResult S = runSession(Prog, Req);
    ASSERT_EQ(S.PerLane.size(), 4u) << Bug.Name;
    for (size_t L = 0; L < S.PerLane.size(); ++L)
      EXPECT_TRUE(S.PerLane[L].violationDetected())
          << Bug.Name << " lane " << L << ": trap="
          << trapName(S.PerLane[L].Trap);
    EXPECT_EQ(S.Meta.SeqlockReads, S.Meta.Lookups) << Bug.Name;
  }
}

//===----------------------------------------------------------------------===//
// Single-lane sessions reproduce the classic (gated) execution exactly
//===----------------------------------------------------------------------===//

/// Runs \p Prog on a hand-configured VM: an unsharded SingleThread
/// shadow space, full wrappers, run() on "main".
RunResult runByHand(const PipelineResult &Prog) {
  ShadowSpaceMetadata Meta;
  VMConfig Cfg;
  Cfg.Meta = &Meta;
  Cfg.Instrumented = true;
  Cfg.Wrappers = WrapperMode::Full;
  return VM(*Prog.M, Cfg).run("main", {});
}

/// Whole-RunResult equality between a one-lane session and a hand-built
/// VM run: the single-lane merge must be the identity.
void expectSameRun(const RunResult &Session, const RunResult &ByHand,
                   const std::string &What) {
  EXPECT_EQ(Session.Counters, ByHand.Counters) << What;
  EXPECT_EQ(Session.Trap, ByHand.Trap) << What;
  EXPECT_EQ(Session.Message, ByHand.Message) << What;
  EXPECT_EQ(Session.HijackTarget, ByHand.HijackTarget) << What;
  EXPECT_EQ(Session.Output, ByHand.Output) << What;
  EXPECT_EQ(Session.ExitCode, ByHand.ExitCode) << What;
  ASSERT_EQ(Session.Requests.size(), ByHand.Requests.size()) << What;
  for (size_t I = 0; I < Session.Requests.size(); ++I) {
    EXPECT_EQ(Session.Requests[I].Delta, ByHand.Requests[I].Delta)
        << What << " request " << I;
    EXPECT_EQ(Session.Requests[I].Trap, ByHand.Requests[I].Trap)
        << What << " request " << I;
  }
  EXPECT_EQ(Session.MetadataMemory, ByHand.MetadataMemory) << What;
  EXPECT_EQ(Session.HeapHighWater, ByHand.HeapHighWater) << What;
}

TEST(SessionDeterminism, SingleLaneMatchesHandBuiltVM) {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const Workload &W : benchmarkSuite())
    Programs.emplace_back(W.Name, W.Source);
  // One traffic schedule, with attacks, so request windows (and their
  // contained traps) go through the single-lane merge too.
  TrafficConfig TC;
  TC.Requests = 60;
  TC.AttackPerMille = 100;
  TrafficSchedule TS = TrafficSchedule::generate(ServerKind::Http, TC);
  ASSERT_GT(TS.adversarialCount(), 0u);
  Programs.emplace_back("http-traffic", TS.driverSource(true));

  for (const auto &[Name, Source] : Programs) {
    PipelineResult Prog = buildInstrumented(Source);
    ASSERT_TRUE(Prog.ok()) << Name << ": " << Prog.errorText();

    RunResult ByHand = runByHand(Prog);
    SessionResult S = runSession(Prog);
    ASSERT_EQ(S.PerLane.size(), 1u) << Name;
    expectSameRun(S.Combined, ByHand, Name);
    expectSameRun(S.PerLane.front(), ByHand, Name + " (lane 0)");
    // Default request: SingleThread facility, so zero lock traffic.
    EXPECT_EQ(S.Meta.LockAcquires, 0u) << Name;
    if (Name == "http-traffic") {
      // The traffic program really produced windows, some trapped.
      EXPECT_EQ(S.Combined.Requests.size(), TC.Requests + 1);
      EXPECT_TRUE(std::any_of(
          S.Combined.Requests.begin(), S.Combined.Requests.end(),
          [](const RequestSample &R) { return R.Trap != TrapKind::None; }));
    }
  }
}

//===----------------------------------------------------------------------===//
// Multi-lane contention accounting and deterministic output merge
//===----------------------------------------------------------------------===//

TEST(MultiLaneSessions, ContentionCountersAndDeterministicMerge) {
  // treeadd is address-independent: its control flow, output and exit
  // code do not depend on where the shared allocator places its blocks,
  // so every lane must reproduce the single-lane run exactly. (Pointer-
  // chasing workloads like bh or mst fold heap addresses into their
  // results and legitimately diverge per lane over a shared heap.)
  const Workload *Chosen = nullptr;
  for (const Workload &W : benchmarkSuite())
    if (W.Name == "treeadd")
      Chosen = &W;
  ASSERT_NE(Chosen, nullptr);

  PipelineResult Prog = buildInstrumented(Chosen->Source);
  ASSERT_TRUE(Prog.ok()) << Prog.errorText();
  RunResult Single = runSession(Prog).Combined;
  ASSERT_TRUE(Single.ok()) << Single.Message;
  ASSERT_GT(Single.Counters.MetaLoads + Single.Counters.MetaStores, 0u);

  RunRequest Req;
  Req.Lanes = 4;
  Req.FacilityShards = 4;
  SessionResult S = runSession(Prog, Req);
  ASSERT_EQ(S.PerLane.size(), 4u);

  std::string Concatenated;
  for (size_t L = 0; L < S.PerLane.size(); ++L) {
    const RunResult &R = S.PerLane[L];
    EXPECT_TRUE(R.ok()) << "lane " << L << ": " << R.Message;
    EXPECT_EQ(R.Output, Single.Output) << "lane " << L;
    EXPECT_EQ(R.ExitCode, Single.ExitCode) << "lane " << L;
    EXPECT_EQ(R.Counters.Checks, Single.Counters.Checks) << "lane " << L;
    EXPECT_EQ(R.Counters.MetaLoads, Single.Counters.MetaLoads)
        << "lane " << L;
    EXPECT_EQ(R.Counters.MetaStores, Single.Counters.MetaStores)
        << "lane " << L;
    Concatenated += R.Output;
  }
  EXPECT_EQ(S.Combined.Output, Concatenated);
  EXPECT_EQ(S.Combined.Counters.Checks, 4 * Single.Counters.Checks);
  EXPECT_EQ(S.Combined.Counters.MetaLoads, 4 * Single.Counters.MetaLoads);
  EXPECT_EQ(S.Combined.Counters.MetaStores, 4 * Single.Counters.MetaStores);
  EXPECT_EQ(S.Combined.ExitCode, Single.ExitCode);

  // Concurrent model: every metadata write takes a stripe lock and
  // every lookup is a seqlock read, so the session-level facility stats
  // must show both.
  EXPECT_GT(S.Meta.LockAcquires, 0u);
  EXPECT_GT(S.Meta.contentionSimCost(), 0u);
  EXPECT_EQ(S.Meta.SeqlockReads, S.Meta.Lookups);
}

//===----------------------------------------------------------------------===//
// Lock-free lookups: seqlock stress and retry accounting
//===----------------------------------------------------------------------===//

/// Writer-hammer seqlock stress over one facility: a writer flips a
/// fixed set of slots between two bound pairs while readers hammer
/// lookups. Every observed value must be PairA, PairB, or (for slots
/// the writer has not reached yet) null — never a Base from one pair
/// with a Bound from the other, which is exactly the torn read the
/// seqlock exists to discard.
template <typename Facility, typename... CtorArgs>
void writerHammerNeverTearsPairs(CtorArgs... Args) {
  Facility M(Args..., FacilityOptions{ConcurrencyModel::Concurrent, 4});
  ASSERT_EQ(M.concurrency(), ConcurrencyModel::Concurrent);
  constexpr uint64_t Base = 0x9000'0000;
  constexpr uint64_t NumSlots = 64; // Spread over all four stripes.
  const Bounds PairA{0x1111'1111'1111'1110ULL, 0x1111'1111'1111'1111ULL};
  const Bounds PairB{0x2222'2222'2222'2220ULL, 0x2222'2222'2222'2222ULL};
  auto SlotAddr = [](uint64_t I) { return Base + I * (Stripe / 8); };
  for (uint64_t I = 0; I < NumSlots; ++I)
    M.update(SlotAddr(I), PairA);

  std::atomic<bool> Done{false};
  std::thread Writer([&] {
    // Alternate the whole slot set between the two pairs, and keep
    // inserting fresh addresses so the hash facility grows (publishing
    // new table generations) under the readers' feet.
    uint64_t Fresh = Base + 0x100'0000;
    for (unsigned Round = 0; !Done.load(std::memory_order_relaxed); ++Round) {
      const Bounds &P = Round % 2 ? PairB : PairA;
      for (uint64_t I = 0; I < NumSlots; ++I)
        M.update(SlotAddr(I), P);
      for (unsigned K = 0; K < 64; ++K, Fresh += 8)
        M.update(Fresh, Fresh, Fresh + 8);
    }
  });

  constexpr unsigned Readers = 3;
  constexpr uint64_t ReadsPerThread = 1 << 15;
  std::vector<std::thread> Pool;
  std::atomic<uint64_t> Torn{0};
  for (unsigned T = 0; T < Readers; ++T)
    Pool.emplace_back([&, T] {
      for (uint64_t I = 0; I < ReadsPerThread; ++I) {
        Bounds B = M.lookup(SlotAddr((I + T) % NumSlots));
        if (!(B == PairA || B == PairB))
          Torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto &Th : Pool)
    Th.join();
  Done.store(true, std::memory_order_relaxed);
  Writer.join();

  EXPECT_EQ(Torn.load(), 0u) << "a lookup observed a torn base/bound pair";
  MetadataStats St = M.stats();
  EXPECT_EQ(St.SeqlockReads, uint64_t(Readers) * ReadsPerThread);
}

TEST(LockFreeLookup, HashWriterHammerNeverTearsPairs) {
  writerHammerNeverTearsPairs<HashTableMetadata>(/*InitialLog2Size=*/8);
}

TEST(LockFreeLookup, ShadowWriterHammerNeverTearsPairs) {
  writerHammerNeverTearsPairs<ShadowSpaceMetadata>();
}

TEST(LockFreeLookup, ReadOnlyHammerAcquiresNoLocks) {
  // The acceptance criterion for the lock-free read path: across a
  // multi-threaded read-only hammer the lock-acquire counter stays
  // exactly flat — every acquisition happened during the write phase.
  HashTableMetadata M(16, FacilityOptions{ConcurrencyModel::Concurrent, 4});
  constexpr uint64_t Slots = 1 << 12;
  for (uint64_t I = 0; I < Slots; ++I) {
    uint64_t A = 0x3000'0000 + I * 8;
    M.update(A, A + 1, A + 64);
  }
  const uint64_t WriteAcquires = M.stats().LockAcquires;
  EXPECT_EQ(WriteAcquires, Slots); // One exclusive acquisition per update.

  constexpr unsigned Threads = 4;
  constexpr uint64_t ReadsPerThread = 1 << 14;
  std::vector<std::thread> Pool;
  std::atomic<uint64_t> Wrong{0}; // Verified from the main thread below.
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&M, &Wrong] {
      for (uint64_t I = 0; I < ReadsPerThread; ++I) {
        uint64_t A = 0x3000'0000 + (I % Slots) * 8;
        if (!(M.lookup(A) == Bounds{A + 1, A + 64}))
          Wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto &Th : Pool)
    Th.join();
  EXPECT_EQ(Wrong.load(), 0u);

  MetadataStats St = M.stats();
  EXPECT_EQ(St.LockAcquires, WriteAcquires) << "read path acquired a lock";
  EXPECT_EQ(St.SeqlockReads, uint64_t(Threads) * ReadsPerThread);
  // No writer ran, so no retry was possible.
  EXPECT_EQ(St.SeqlockRetries, 0u);
}

TEST(LockFreeLookup, RetryAccountingPricesLikeContendedAcquisition) {
  // The pricing identity behind the non-gated contention_* keys: clean
  // seqlock reads are free, each retry costs one contended acquisition.
  MetadataStats St;
  St.LockAcquires = 10;
  St.LockContended = 3;
  St.SeqlockReads = 1000;
  St.SeqlockRetries = 5;
  EXPECT_EQ(St.contentionSimCost(), 7 * UncontendedLockCost +
                                        3 * ContendedLockCost +
                                        5 * SeqlockRetryCost);
  EXPECT_EQ(SeqlockRetryCost, ContendedLockCost);

  // Live accounting: a single-threaded Concurrent facility counts one
  // seqlock read per lookup and never retries, and its sim cost is the
  // write-phase acquisitions plus nothing for the clean reads.
  ShadowSpaceMetadata M(FacilityOptions{ConcurrencyModel::Concurrent, 1});
  for (uint64_t I = 0; I < 256; ++I)
    M.update(0x1000 + I * 8, I, I + 8);
  for (uint64_t I = 0; I < 512; ++I)
    (void)M.lookup(0x1000 + (I % 256) * 8);
  MetadataStats Live = M.stats();
  EXPECT_EQ(Live.SeqlockReads, 512u);
  EXPECT_EQ(Live.SeqlockRetries, 0u);
  EXPECT_EQ(Live.LockAcquires, 256u);
  EXPECT_EQ(Live.contentionSimCost(),
            (Live.LockAcquires - Live.LockContended) * UncontendedLockCost +
                Live.LockContended * ContendedLockCost);
}

/// Deterministic single-threaded mixed-op equivalence: the Concurrent
/// model changes synchronization only — every lookup/update/range
/// result identical to the SingleThread oracle.
template <typename Facility, typename... CtorArgs>
void lockFreeMatchesOracle(CtorArgs... Args) {
  Facility M(Args..., FacilityOptions{ConcurrencyModel::Concurrent, 4});
  Facility Oracle(Args..., FacilityOptions{});
  const uint64_t Lo = 0x8000'0000;
  for (uint64_t I = 0; I < 2048; ++I) {
    uint64_t A = Lo + I * 24; // Unaligned stride: hits and misses both.
    M.update(A & ~7ULL, A, A + 96);
    Oracle.update(A & ~7ULL, A, A + 96);
  }
  EXPECT_EQ(M.clearRange(Lo + 512, 3 * Stripe + 40),
            Oracle.clearRange(Lo + 512, 3 * Stripe + 40));
  EXPECT_EQ(M.copyRange(Lo + 8 * Stripe, Lo, Stripe + 256),
            Oracle.copyRange(Lo + 8 * Stripe, Lo, Stripe + 256));
  for (uint64_t A = Lo; A < Lo + 9 * Stripe; A += 8)
    ASSERT_EQ(M.lookup(A), Oracle.lookup(A)) << "slot " << A;
  EXPECT_EQ(M.stats().SeqlockRetries, 0u); // Single-threaded: no writer race.
  // The oracle never touches the seqlock.
  EXPECT_EQ(Oracle.stats().SeqlockReads, 0u);
}

TEST(LockFreeLookup, HashMixedOpsMatchOracle) {
  lockFreeMatchesOracle<HashTableMetadata>(/*InitialLog2Size=*/8);
}

TEST(LockFreeLookup, ShadowMixedOpsMatchOracle) {
  lockFreeMatchesOracle<ShadowSpaceMetadata>();
}

} // namespace

//===- tests/test_traffic.cpp - sustained-traffic server tier --------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Traffic-tier coverage (docs/runtime.md "Traffic tier"):
///
///  - schedule determinism: one seed → byte-identical request streams,
///    and re-running the generated driver reproduces the per-request
///    counter stream exactly;
///  - zero missed detections when attack payloads arrive mid-stream, at
///    1/2/4 lanes;
///  - post-trap isolation: a contained violation leaves every later
///    request's counters identical to a trap-free run of the same
///    suffix;
///  - 1-lane traffic totals equal the sum of single-shot runs over the
///    same request list (per-request gate metrics, checkopt disabled so
///    loop hoisting cannot smear preheader work across windows);
///  - the write-heavy seqlock path under connection churn: retries are
///    live in the protocol, reads ride the seqlock, and lookups acquire
///    zero locks, alone and with concurrent lanes.
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "runtime/ShadowSpaceMetadata.h"
#include "vm/VM.h"
#include "workloads/Traffic.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace softbound;

namespace {

const ServerKind BothServers[] = {ServerKind::Http, ServerKind::Ftp};

TrafficConfig smallConfig(unsigned Requests, unsigned AttackPerMille) {
  TrafficConfig C;
  C.Requests = Requests;
  C.AttackPerMille = AttackPerMille;
  return C;
}

PipelineResult buildTraffic(const std::string &Src, CheckMode Mode,
                            bool CheckOpt = true) {
  return PipelinePlan()
      .frontend(Src)
      .optimize()
      .softbound({.Mode = Mode})
      .checkOpt({.Enable = CheckOpt})
      .build();
}

RunRequest sessionReq(unsigned Lanes, unsigned Shards = 1) {
  RunRequest R;
  R.Lanes = Lanes;
  R.FacilityShards = Shards;
  return R;
}

TrafficReport reportFor(const TrafficSchedule &S, const RunResult &Lane) {
  ShadowSpaceMetadata Costs;
  return TrafficReport::fromSamples(S.Requests, Lane.Requests,
                                    Costs.lookupCost(), Costs.updateCost());
}

void expectSameWindow(const RequestSample &A, const RequestSample &B,
                      size_t I) {
  EXPECT_EQ(A.Trap, B.Trap) << "request " << I;
  EXPECT_EQ(A.Delta, B.Delta) << "request " << I;
}

//===----------------------------------------------------------------------===//
// Schedule determinism
//===----------------------------------------------------------------------===//

TEST(TrafficSchedule, SameSeedSameStreamDifferentSeedDiffers) {
  for (ServerKind K : BothServers) {
    TrafficConfig C = smallConfig(200, 40);
    TrafficSchedule A = TrafficSchedule::generate(K, C);
    TrafficSchedule B = TrafficSchedule::generate(K, C);
    ASSERT_EQ(A.Requests.size(), 200u);
    ASSERT_EQ(B.Requests.size(), 200u);
    for (size_t I = 0; I < A.Requests.size(); ++I) {
      EXPECT_EQ(A.Requests[I].Text, B.Requests[I].Text);
      EXPECT_EQ(A.Requests[I].ConnStart, B.Requests[I].ConnStart);
      EXPECT_EQ(A.Requests[I].Adversarial, B.Requests[I].Adversarial);
    }
    EXPECT_GT(A.adversarialCount(), 0u);
    EXPECT_LT(A.adversarialCount(), 200u);
    EXPECT_TRUE(A.Requests.front().ConnStart);

    C.Seed = 65;
    TrafficSchedule D = TrafficSchedule::generate(K, C);
    bool Differs = false;
    for (size_t I = 0; I < D.Requests.size(); ++I)
      Differs |= D.Requests[I].Text != A.Requests[I].Text;
    EXPECT_TRUE(Differs);
  }
}

TEST(TrafficSchedule, DriverRunsAreCounterIdentical) {
  for (ServerKind K : BothServers) {
    TrafficSchedule S = TrafficSchedule::generate(K, smallConfig(120, 60));
    PipelineResult Prog = buildTraffic(S.driverSource(true), CheckMode::Full);
    SessionResult R1 = runSession(Prog, sessionReq(1));
    SessionResult R2 = runSession(Prog, sessionReq(1));
    ASSERT_TRUE(R1.ok()) << R1.Combined.Message;
    // One prologue sample + one sample per request.
    ASSERT_EQ(R1.Combined.Requests.size(), S.Requests.size() + 1);
    ASSERT_EQ(R2.Combined.Requests.size(), S.Requests.size() + 1);
    EXPECT_EQ(R1.Combined.Output, R2.Combined.Output);
    EXPECT_EQ(R1.Combined.ExitCode, 0);
    for (size_t I = 0; I < R1.Combined.Requests.size(); ++I)
      expectSameWindow(R1.Combined.Requests[I], R2.Combined.Requests[I], I);
  }
}

//===----------------------------------------------------------------------===//
// Detection under sustained traffic
//===----------------------------------------------------------------------===//

TEST(TrafficDetection, ZeroMissedAtEveryLaneCount) {
  struct LaneSetup {
    unsigned Lanes, Shards;
  } Setups[] = {{1, 1}, {2, 4}, {4, 4}};
  for (ServerKind K : BothServers) {
    TrafficSchedule S = TrafficSchedule::generate(K, smallConfig(160, 80));
    ASSERT_GT(S.adversarialCount(), 0u);
    for (CheckMode Mode : {CheckMode::Full, CheckMode::StoreOnly}) {
      PipelineResult Prog = buildTraffic(S.driverSource(true), Mode);
      for (const LaneSetup &L : Setups) {
        SessionResult R = runSession(Prog, sessionReq(L.Lanes, L.Shards));
        // Every violation is contained inside its request window: the
        // session itself must finish trap-free in every lane.
        ASSERT_TRUE(R.ok()) << serverKindName(K) << " lanes=" << L.Lanes
                            << ": " << R.Combined.Message;
        ASSERT_EQ(R.PerLane.size(), L.Lanes);
        for (const RunResult &Lane : R.PerLane) {
          TrafficReport Rep = reportFor(S, Lane);
          EXPECT_EQ(Rep.Requests, S.Requests.size());
          EXPECT_EQ(Rep.Adversarial, S.adversarialCount());
          EXPECT_EQ(Rep.Missed, 0u)
              << serverKindName(K) << " lanes=" << L.Lanes;
          EXPECT_EQ(Rep.FalseTraps, 0u)
              << serverKindName(K) << " lanes=" << L.Lanes;
          EXPECT_EQ(Rep.Trapped, Rep.Adversarial);
        }
      }
    }
  }
}

TEST(TrafficDetection, BenignTrafficIsFalsePositiveFree) {
  for (ServerKind K : BothServers) {
    TrafficSchedule S = TrafficSchedule::generate(K, smallConfig(150, 0));
    ASSERT_EQ(S.adversarialCount(), 0u);
    SessionResult P = runSession(
        PipelinePlan().frontend(S.driverSource(false)).optimize(),
        sessionReq(1));
    SessionResult F = runSession(
        buildTraffic(S.driverSource(false), CheckMode::Full), sessionReq(1));
    ASSERT_TRUE(P.ok());
    ASSERT_TRUE(F.ok());
    // §6.4 under traffic: checked output is byte-identical to unchecked.
    EXPECT_EQ(P.Combined.Output, F.Combined.Output);
    EXPECT_EQ(P.Combined.ExitCode, F.Combined.ExitCode);
    EXPECT_EQ(reportFor(S, F.Combined).Trapped, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Post-trap isolation
//===----------------------------------------------------------------------===//

TEST(TrafficIsolation, TrappedRequestLeavesSuffixCountersUntouched) {
  for (ServerKind K : BothServers) {
    // Single-request connections so every request is state-independent.
    TrafficConfig C = smallConfig(41, 0);
    C.SessionMin = C.SessionMax = 1;
    TrafficSchedule S = TrafficSchedule::generate(K, C);
    std::vector<TrafficRequest> WithAttack = S.Requests;
    TrafficRequest Attack;
    Attack.Text = K == ServerKind::Http
                      ? "GET /cgi-bin/form?token=" + std::string(48, 'Z') +
                            " HTTP/1.0"
                      : "USER " + std::string(40, 'z');
    Attack.ConnStart = true;
    Attack.Adversarial = true;
    const size_t AttackAt = 20;
    WithAttack[AttackAt] = Attack;

    SessionResult A = runSession(
        buildTraffic(trafficDriverSource(K, WithAttack, true), CheckMode::Full),
        sessionReq(1));
    SessionResult B = runSession(
        buildTraffic(trafficDriverSource(K, S.Requests, true), CheckMode::Full),
        sessionReq(1));
    ASSERT_TRUE(A.ok()) << A.Combined.Message;
    ASSERT_TRUE(B.ok()) << B.Combined.Message;
    ASSERT_EQ(A.Combined.Requests.size(), WithAttack.size() + 1);
    ASSERT_EQ(B.Combined.Requests.size(), S.Requests.size() + 1);

    EXPECT_EQ(A.Combined.Requests[AttackAt + 1].Trap,
              TrapKind::SpatialViolation);
    // Every window after the trapped one matches the trap-free run of
    // the same suffix, field for field.
    for (size_t I = AttackAt + 2; I < A.Combined.Requests.size(); ++I)
      expectSameWindow(A.Combined.Requests[I], B.Combined.Requests[I], I);
    // And the prefix was identical to begin with.
    for (size_t I = 0; I <= AttackAt; ++I)
      expectSameWindow(A.Combined.Requests[I], B.Combined.Requests[I], I);
  }
}

//===----------------------------------------------------------------------===//
// Traffic totals vs single-shot runs
//===----------------------------------------------------------------------===//

TEST(TrafficTotals, OneLaneTotalsEqualSumOfSingleShots) {
  for (ServerKind K : BothServers) {
    TrafficConfig C = smallConfig(30, 120);
    C.SessionMin = C.SessionMax = 1; // state-independent requests
    TrafficSchedule S = TrafficSchedule::generate(K, C);
    // Checkopt off: loop hoisting would run hull setup once for the
    // whole traffic loop but once per single-shot program, smearing
    // preheader checks across windows. Without it the per-window gate
    // metrics (checks, metadata ops, guard evals, sim cost) are exactly
    // additive.
    SessionResult T = runSession(
        buildTraffic(S.driverSource(true), CheckMode::Full, false),
        sessionReq(1));
    ASSERT_TRUE(T.ok()) << T.Combined.Message;
    ASSERT_EQ(T.Combined.Requests.size(), S.Requests.size() + 1);

    uint64_t SumChecks = 0, SumMetaLoads = 0, SumMetaStores = 0,
             SumGuards = 0;
    for (size_t I = 0; I < S.Requests.size(); ++I) {
      std::vector<TrafficRequest> One = {S.Requests[I]};
      SessionResult Single = runSession(
          buildTraffic(trafficDriverSource(K, One, true), CheckMode::Full,
                       false),
          sessionReq(1));
      ASSERT_TRUE(Single.ok()) << Single.Combined.Message;
      ASSERT_EQ(Single.Combined.Requests.size(), 2u);
      const RequestSample &SS = Single.Combined.Requests[1];
      const RequestSample &TS = T.Combined.Requests[I + 1];
      EXPECT_EQ(SS.Trap, TS.Trap) << "request " << I;
      EXPECT_EQ(SS.Delta.Checks, TS.Delta.Checks) << "request " << I;
      EXPECT_EQ(SS.Delta.MetaLoads, TS.Delta.MetaLoads) << "request " << I;
      EXPECT_EQ(SS.Delta.MetaStores, TS.Delta.MetaStores) << "request " << I;
      EXPECT_EQ(SS.Delta.CheckGuards, TS.Delta.CheckGuards) << "request " << I;
      SumChecks += SS.Delta.Checks;
      SumMetaLoads += SS.Delta.MetaLoads;
      SumMetaStores += SS.Delta.MetaStores;
      SumGuards += SS.Delta.CheckGuards;
    }
    TrafficReport Rep = reportFor(S, T.Combined);
    EXPECT_EQ(Rep.Checks, SumChecks);
    EXPECT_EQ(Rep.MetaOps, SumMetaLoads + SumMetaStores);
    EXPECT_EQ(Rep.GuardEvals, SumGuards);
    ShadowSpaceMetadata Costs;
    EXPECT_EQ(Rep.SimCost, SumChecks * 3 + SumMetaLoads * Costs.lookupCost() +
                               SumMetaStores * Costs.updateCost() + SumGuards);
  }
}

//===----------------------------------------------------------------------===//
// Write-heavy seqlock path under traffic
//===----------------------------------------------------------------------===//

/// A Concurrent shadow space that tallies the stripe-lock acquisitions
/// made inside lookup() calls; the lock-free read path keeps the tally at
/// zero. Only meaningful single-threaded: another thread's writes would
/// land in the window.
class LookupLockProbe : public ShadowSpaceMetadata {
public:
  LookupLockProbe()
      : ShadowSpaceMetadata(FacilityOptions{ConcurrencyModel::Concurrent, 4}) {}

  Bounds lookup(uint64_t Addr) override {
    uint64_t Before = stats().LockAcquires;
    Bounds B = ShadowSpaceMetadata::lookup(Addr);
    LookupAcquires += stats().LockAcquires - Before;
    return B;
  }

  uint64_t LookupAcquires = 0;
};

TEST(TrafficSeqlock, RetryProtocolIsLive) {
  StripeSeqlock SL;
  uint64_t S0 = SL.readBegin();
  EXPECT_EQ(SL.Reads.load(), 1u);
  EXPECT_TRUE(SL.readValidate(S0));
  // A write window racing the read forces a counted retry.
  uint64_t S1 = SL.readBegin();
  SL.writeBegin();
  SL.writeEnd();
  EXPECT_FALSE(SL.readValidate(S1));
  EXPECT_GE(SL.Retries.load(), 1u);
}

TEST(TrafficSeqlock, ReadPhaseAcquiresNoLocksUnderChurnTraffic) {
  // Heavy connection churn: every request opens a connection, so the
  // FTP driver rewrites shared session globals (metadata writes via
  // frame churn) while every check's lookup rides the read path.
  TrafficConfig C = smallConfig(200, 50);
  C.SessionMin = C.SessionMax = 1;
  TrafficSchedule S = TrafficSchedule::generate(ServerKind::Ftp, C);
  PipelineResult Prog = buildTraffic(S.driverSource(true), CheckMode::Full);

  // Deterministic 1-lane run over a probed facility: every lock
  // acquisition belongs to the write path — lookups take none — while
  // every lookup is counted as a seqlock read.
  LookupLockProbe Probe;
  VMConfig Cfg;
  Cfg.Meta = &Probe;
  Cfg.Instrumented = true;
  Cfg.Wrappers = WrapperMode::Full;
  RunResult One = VM(*Prog.M, Cfg).run("main", {});
  ASSERT_TRUE(One.ok()) << One.Message;
  MetadataStats St = Probe.stats();
  ASSERT_GT(St.Lookups, 0u);
  EXPECT_GT(St.LockAcquires, 0u);
  EXPECT_EQ(Probe.LookupAcquires, 0u) << "a lookup acquired a stripe lock";
  EXPECT_EQ(St.SeqlockReads, St.Lookups);

  // Concurrent request lanes: reads stay on the seqlock (every lookup
  // counted there) and nothing is missed.
  SessionResult MT = runSession(Prog, sessionReq(4, 4));
  ASSERT_TRUE(MT.ok()) << MT.Combined.Message;
  EXPECT_GT(MT.Meta.Lookups, 0u);
  EXPECT_EQ(MT.Meta.SeqlockReads, MT.Meta.Lookups);
  // Retries are priced like contended acquires in the sim-cost model.
  EXPECT_EQ(MT.Meta.contentionSimCost(),
            (MT.Meta.LockAcquires - MT.Meta.LockContended) *
                    UncontendedLockCost +
                MT.Meta.LockContended * ContendedLockCost +
                MT.Meta.SeqlockRetries * SeqlockRetryCost);
  for (const RunResult &Lane : MT.PerLane)
    EXPECT_EQ(reportFor(S, Lane).Missed, 0u);
}

//===----------------------------------------------------------------------===//
// Multi-lane per-request streams
//===----------------------------------------------------------------------===//

TEST(TrafficLanes, HttpLaneStreamsMatchTheSingleLaneRun) {
  // The HTTP handler touches no shared mutable strings (only counter
  // adds), so every lane's per-request stream must be byte-identical to
  // the 1-lane stream even under concurrent execution.
  TrafficSchedule S =
      TrafficSchedule::generate(ServerKind::Http, smallConfig(120, 60));
  PipelineResult Prog = buildTraffic(S.driverSource(true), CheckMode::Full);
  SessionResult One = runSession(Prog, sessionReq(1));
  SessionResult Four = runSession(Prog, sessionReq(4, 4));
  ASSERT_TRUE(One.ok());
  ASSERT_TRUE(Four.ok()) << Four.Combined.Message;
  ASSERT_EQ(Four.PerLane.size(), 4u);
  for (const RunResult &Lane : Four.PerLane) {
    ASSERT_EQ(Lane.Requests.size(), One.Combined.Requests.size());
    for (size_t I = 0; I < Lane.Requests.size(); ++I)
      expectSameWindow(Lane.Requests[I], One.Combined.Requests[I], I);
  }
  // The combined stream is the elementwise lane sum.
  ASSERT_EQ(Four.Combined.Requests.size(), One.Combined.Requests.size());
  for (size_t I = 0; I < Four.Combined.Requests.size(); ++I) {
    EXPECT_EQ(Four.Combined.Requests[I].Delta.Checks,
              4 * One.Combined.Requests[I].Delta.Checks);
    EXPECT_EQ(Four.Combined.Requests[I].Trap, One.Combined.Requests[I].Trap);
  }
}

} // namespace

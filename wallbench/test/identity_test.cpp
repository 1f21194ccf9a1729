//===- identity_test.cpp - the traced run is the same program -------------===//
//
// Part of the SoftBound reproduction's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks that a traced session (spans around VM construction and VM::run,
/// the timing facility wrapper passed as VMConfig::Meta) leaves the VM
/// counters, exit code, output, facility statistics and the RequestSample
/// stream identical to a plain runSession, for one kernel and one traffic
/// schedule. Exits 1 if anything differs.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "workloads/Traffic.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace softbound;
using namespace wallbench;

namespace {

int Failures = 0;

void expect(bool Ok, const std::string &What, const char *Field) {
  if (Ok)
    return;
  std::printf("FAIL %s: %s differs\n", What.c_str(), Field);
  ++Failures;
}

bool sameCounters(const VMCounters &A, const VMCounters &B) {
  return A.Insts == B.Insts && A.Loads == B.Loads && A.Stores == B.Stores &&
         A.PtrLoads == B.PtrLoads && A.PtrStores == B.PtrStores &&
         A.Checks == B.Checks && A.CheckGuards == B.CheckGuards &&
         A.GuardSkips == B.GuardSkips && A.FuncPtrChecks == B.FuncPtrChecks &&
         A.MetaLoads == B.MetaLoads && A.MetaStores == B.MetaStores &&
         A.Calls == B.Calls && A.Cycles == B.Cycles &&
         A.MaxFrameDepth == B.MaxFrameDepth;
}

bool sameStats(const MetadataStats &A, const MetadataStats &B) {
  return A.Lookups == B.Lookups && A.Updates == B.Updates &&
         A.Clears == B.Clears && A.Collisions == B.Collisions &&
         A.LockAcquires == B.LockAcquires && A.LockContended == B.LockContended;
}

bool sameSamples(const std::vector<RequestSample> &A,
                 const std::vector<RequestSample> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Trap != B[I].Trap || !sameCounters(A[I].Delta, B[I].Delta))
      return false;
  return true;
}

void compareSessions(const std::string &What, const SessionResult &Ref,
                     const SessionResult &Got) {
  const RunResult &A = Ref.Combined, &B = Got.Combined;
  expect(A.Trap == B.Trap, What, "trap");
  expect(A.ExitCode == B.ExitCode, What, "exit code");
  expect(A.Output == B.Output, What, "output");
  expect(sameCounters(A.Counters, B.Counters), What, "VMCounters");
  expect(sameSamples(A.Requests, B.Requests), What, "RequestSample stream");
  expect(A.MetadataMemory == B.MetadataMemory, What, "metadata memory");
  expect(A.HeapHighWater == B.HeapHighWater, What, "heap high water");
  expect(sameStats(Ref.Meta, Got.Meta), What, "facility statistics");
  expect(Got.PerLane.size() == 1, What, "lane count");
}

void checkProgram(const std::string &What, const std::string &Source,
                  bool WantRequests) {
  int Before = Failures;
  PipelinePlan Plan;
  Plan.frontend(Source);
  Plan.appendSpec("optimize,softbound,checkopt");
  PipelineResult Prog = Plan.build();
  if (!Prog.ok()) {
    std::printf("FAIL %s: build failed\n%s", What.c_str(),
                Prog.errorText().c_str());
    ++Failures;
    return;
  }
  SessionResult Ref = runSession(Prog);
  expect(Ref.ok(), What, "reference session trapped; its result");
  expect(!WantRequests || Ref.Combined.Requests.size() > 1, What,
         "reference request stream is empty; its length");

  SpanLog Log;
  SessionRun Wrapped = tracedSession(Prog, &Log, 1, /*TimeFacility=*/true);
  compareSessions(What + " (facility wrapper)", Ref, Wrapped.S);
  uint64_t Calls = 0;
  for (const FacilityTally &T : Wrapped.RunCalls)
    Calls += T.Calls;
  expect(Calls > 0, What, "timed facility call count (zero)");
  expect(Wrapped.RunCalls[FcLookup].Calls == Ref.Meta.Lookups, What,
         "timed lookup count vs facility statistics");

  SessionRun Detached = tracedSession(Prog, nullptr, 0, /*TimeFacility=*/false);
  compareSessions(What + " (wrapper detached)", Ref, Detached.S);
  std::printf("%s: %s\n", What.c_str(),
              Failures == Before ? "identical" : "DIFFERS");
}

} // namespace

int main() {
  for (const Workload &W : benchmarkSuite())
    if (W.Name == "treeadd")
      checkProgram("kernel treeadd", W.Source, false);

  TrafficConfig C;
  C.Seed = 11;
  C.Requests = 300;
  TrafficSchedule S = TrafficSchedule::generate(ServerKind::Ftp, C);
  checkProgram("traffic ftp x300", S.driverSource(/*Vuln=*/true), true);

  std::printf("%s\n", Failures ? "FAILED" : "PASSED");
  return Failures ? 1 : 0;
}

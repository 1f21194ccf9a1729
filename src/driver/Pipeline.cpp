//===- driver/Pipeline.cpp - end-to-end build & run helpers -----------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "runtime/HashTableMetadata.h"
#include "runtime/ShadowSpaceMetadata.h"

#include <algorithm>

using namespace softbound;

namespace {

/// A SessionResult whose Combined run refused to start.
SessionResult refuse(std::string Message) {
  SessionResult S;
  S.Combined.Trap = TrapKind::Segfault;
  S.Combined.Message = std::move(Message);
  return S;
}

} // namespace

SessionResult softbound::runSession(const PipelineResult &Prog,
                                    const RunRequest &Req) {
  // Whole-program contract (checkopt interproc + partition): an
  // internally-called function's checks were elided — or its metadata
  // propagation stripped — on the strength of its analyzed call sites, so
  // entering it directly with arbitrary arguments would silently bypass
  // those proofs. The module records the unsafe set; refuse such entries.
  if (Prog.M && Prog.M->hasInterProcContract()) {
    Function *EntryF = Prog.M->resolveEntry(Req.Entry);
    if (EntryF && !Prog.M->isSafeEntry(EntryF))
      return refuse("entry function '" + Req.Entry +
                    "' was internally called when checkopt(interproc) or "
                    "checkopt(partition) elided checks or metadata; enter at "
                    "'main' or rebuild without those sub-passes");
  }

  unsigned Lanes = Req.Lanes ? Req.Lanes : 1;
  if (Lanes > 1 && Req.Checker)
    return refuse("multi-lane sessions cannot use a baseline checker: "
                  "checker object tables are single-threaded; run with "
                  "Lanes = 1 or drop the Checker");

  std::unique_ptr<MetadataFacility> Meta;
  VMConfig Cfg;
  Cfg.StepLimit = Req.StepLimit;
  Cfg.Checker = Req.Checker;
  Cfg.CheckCost = Req.CheckCost;

  if (Prog.Instrumented) {
    // One lane with one shard keeps the unlocked SingleThread
    // facility — the configuration every gated baseline was recorded
    // under. Otherwise the facility stripes its address space and runs
    // Concurrent: exclusive stripe locks for writers, seqlock reads.
    FacilityOptions FO;
    FO.Shards = Req.FacilityShards ? Req.FacilityShards : 1;
    FO.Model = (Lanes > 1 || FO.Shards > 1) ? ConcurrencyModel::Concurrent
                                            : ConcurrencyModel::SingleThread;
    if (Req.Facility == FacilityKind::Shadow)
      Meta = std::make_unique<ShadowSpaceMetadata>(FO);
    else
      Meta = std::make_unique<HashTableMetadata>(/*InitialLog2Size=*/16, FO);
    Cfg.Meta = Meta.get();
    Cfg.Instrumented = true;
    switch (Prog.Mode) {
    case CheckMode::Full:
      Cfg.Wrappers = WrapperMode::Full;
      break;
    case CheckMode::StoreOnly:
      Cfg.Wrappers = WrapperMode::StoreOnly;
      break;
    case CheckMode::None:
      Cfg.Wrappers = WrapperMode::None;
      break;
    }
  } else {
    Cfg.Wrappers = WrapperMode::None;
  }

  // The facility records probe histograms through thread-safe paths and
  // publishes its aggregates only at flushTelemetry (post-join), so the
  // caller's sink is safe to attach even for multi-lane sessions.
  if (Meta && Req.Telem)
    Meta->attachTelemetry(Req.Telem, std::string("facility/") + Meta->name());

  // Per-lane private sinks, merged in lane-index order after the join,
  // keep the combined registry deterministic even though lane scheduling
  // is not. A single lane keeps the caller's trace tag, so its trace
  // names carry no lane prefix.
  std::vector<Telemetry> LaneTelems(Req.Telem ? Lanes : 0);
  std::vector<SiteProfile> LaneProfiles(Req.ProfileOut ? Lanes : 0);
  std::vector<LaneSpec> Specs(Lanes);
  for (unsigned I = 0; I < Lanes; ++I) {
    Specs[I].Entry = Req.Entry;
    Specs[I].Args = Req.Args;
    Specs[I].Profile = Req.ProfileOut ? &LaneProfiles[I] : nullptr;
    Specs[I].Telem = Req.Telem ? &LaneTelems[I] : nullptr;
    Specs[I].TraceTag = Lanes == 1
                            ? Req.TraceTag
                            : Req.TraceTag + "lane" + std::to_string(I) + ":";
  }

  VM Machine(*Prog.M, Cfg);
  SessionResult S;
  S.PerLane = Machine.runLanes(Specs);

  for (const RunResult &L : S.PerLane) {
    S.Combined.Counters.accumulate(L.Counters);
    S.Combined.Output += L.Output;
    if (S.Combined.Trap == TrapKind::None && L.Trap != TrapKind::None) {
      S.Combined.Trap = L.Trap;
      S.Combined.Message = L.Message;
      S.Combined.HijackTarget = L.HijackTarget;
      S.Combined.ExitCode = L.ExitCode;
    }
  }
  if (S.Combined.Trap == TrapKind::None)
    S.Combined.ExitCode = S.PerLane.front().ExitCode;
  // Per-request streams merge elementwise in lane order: counters add,
  // the first lane (in lane order) with a contained trap at an index
  // names the combined trap. Lanes run the same driver, so streams
  // normally agree in length; a lane that died early truncates the
  // combined stream to what every lane completed.
  size_t MinReq = S.PerLane.front().Requests.size();
  for (const RunResult &L : S.PerLane)
    MinReq = std::min(MinReq, L.Requests.size());
  S.Combined.Requests.resize(MinReq);
  for (size_t RI = 0; RI < MinReq; ++RI)
    for (const RunResult &L : S.PerLane) {
      S.Combined.Requests[RI].Delta.accumulate(L.Requests[RI].Delta);
      if (S.Combined.Requests[RI].Trap == TrapKind::None)
        S.Combined.Requests[RI].Trap = L.Requests[RI].Trap;
    }
  if (Meta)
    S.Combined.MetadataMemory = Meta->memoryBytes();
  S.Combined.HeapHighWater = Machine.memory().heapHighWater();

  for (unsigned I = 0; I < Lanes; ++I) {
    if (Req.Telem)
      Req.Telem->mergeFrom(LaneTelems[I]);
    if (Req.ProfileOut)
      Req.ProfileOut->mergeFrom(LaneProfiles[I]);
  }

  if (Meta) {
    S.Meta = Meta->stats();
    if (Req.Telem)
      Meta->flushTelemetry();
  }
  return S;
}

SessionResult softbound::runSession(const PipelinePlan &Plan,
                                    const RunRequest &Req) {
  PipelineResult Prog = Plan.build();
  if (!Prog.ok())
    return refuse("build failed: " + Prog.errorText());
  return runSession(Prog, Req);
}

//===- Trace.cpp - in-memory spans and a timing facility wrapper ----------===//
//
// Part of the SoftBound reproduction's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "runtime/ShadowSpaceMetadata.h"

#include <cstdio>
#include <memory>
#include <optional>

using namespace softbound;

namespace wallbench {

size_t SpanLog::open(const char *Name, uint64_t Op, int64_t Parent) {
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Parent;
  S.StartNs = offsetNs(Clock::now());
  Spans.push_back(S);
  return Spans.size() - 1;
}

void SpanLog::close(size_t I) {
  Spans[I].DurNs = offsetNs(Clock::now()) - Spans[I].StartNs;
}

size_t SpanLog::add(const Span &S) {
  Spans.push_back(S);
  return Spans.size() - 1;
}

std::vector<double> SpanLog::selfTimes() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].DurNs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -= S.DurNs;
  return Self;
}

bool SpanLog::writeJsonLines(const std::string &Path,
                             const std::string &HeaderJson) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "%s\n", HeaderJson.c_str());
  for (const Span &S : Spans)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"op\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%.0f,\"dur_ns\":%.0f,\"count\":%llu}\n",
                 S.Name, static_cast<unsigned long long>(S.Op),
                 static_cast<long long>(S.Parent), S.StartNs, S.DurNs,
                 static_cast<unsigned long long>(S.Count));
  return std::fclose(F) == 0;
}

TimerCost TimerCost::measure() {
  constexpr int N = 200000;
  FacilityTally T;
  auto Start = Clock::now();
  for (int I = 0; I < N; ++I) {
    auto T0 = Clock::now();
    T.Ns += nsSince(T0, Clock::now());
    ++T.Calls;
  }
  auto End = Clock::now();
  TimerCost C;
  C.InnerNs = T.Ns / static_cast<double>(T.Calls);
  C.EmptySpanNs = nsSince(Start, End) / N;
  return C;
}

FacilityTallies TracingFacility::take() {
  FacilityTallies Out = Tallies;
  Tallies = {};
  return Out;
}

Bounds TracingFacility::lookup(uint64_t Addr) {
  auto T0 = Clock::now();
  Bounds B = Inner.lookup(Addr);
  FacilityTally &T = Tallies[FcLookup];
  T.Ns += nsSince(T0, Clock::now());
  ++T.Calls;
  return B;
}

void TracingFacility::update(uint64_t Addr, Bounds B) {
  auto T0 = Clock::now();
  Inner.update(Addr, B);
  FacilityTally &T = Tallies[FcUpdate];
  T.Ns += nsSince(T0, Clock::now());
  ++T.Calls;
}

void TracingFacility::lookupN(const uint64_t *Addrs, Bounds *Out, size_t N) {
  auto T0 = Clock::now();
  Inner.lookupN(Addrs, Out, N);
  FacilityTally &T = Tallies[FcLookup];
  T.Ns += nsSince(T0, Clock::now());
  T.Calls += N;
}

void TracingFacility::updateN(const uint64_t *Addrs, const Bounds *In,
                              size_t N) {
  auto T0 = Clock::now();
  Inner.updateN(Addrs, In, N);
  FacilityTally &T = Tallies[FcUpdate];
  T.Ns += nsSince(T0, Clock::now());
  T.Calls += N;
}

uint64_t TracingFacility::clearRange(uint64_t Addr, uint64_t Size) {
  auto T0 = Clock::now();
  uint64_t Cleared = Inner.clearRange(Addr, Size);
  FacilityTally &T = Tallies[FcClearRange];
  T.Ns += nsSince(T0, Clock::now());
  ++T.Calls;
  T.Useful += Cleared > 0;
  T.Bytes += Size;
  return Cleared;
}

uint64_t TracingFacility::copyRange(uint64_t Dst, uint64_t Src,
                                    uint64_t Size) {
  auto T0 = Clock::now();
  uint64_t Copied = Inner.copyRange(Dst, Src, Size);
  FacilityTally &T = Tallies[FcCopyRange];
  T.Ns += nsSince(T0, Clock::now());
  ++T.Calls;
  T.Bytes += Size;
  return Copied;
}

namespace {

const char *const FacilitySpanNames[FcNumKinds] = {
    "runtime.lookup", "runtime.update", "runtime.clear_range",
    "runtime.copy_range"};

/// One aggregate child span per facility call kind that was called.
void addFacilitySpans(SpanLog *Log, uint64_t Op, int64_t Parent,
                      const FacilityTallies &T) {
  if (!Log || Parent < 0)
    return;
  double Start = Log->spans()[static_cast<size_t>(Parent)].StartNs;
  for (int K = 0; K < FcNumKinds; ++K)
    if (T[K].Calls)
      Log->add({FacilitySpanNames[K], Op, Parent, Start, T[K].Ns, T[K].Calls});
}

} // namespace

SessionRun tracedSession(const PipelineResult &Prog, SpanLog *Log, uint64_t Op,
                         bool TimeFacility) {
  SessionRun Out;
  auto SessionStart = Clock::now();
  ScopedSpan Root(Log, "session", Op);

  // The one-lane, one-shard branch of runSession, step for step.
  std::unique_ptr<ShadowSpaceMetadata> Meta;
  std::unique_ptr<TracingFacility> Wrapper;
  VMConfig Cfg;
  if (Prog.Instrumented) {
    Meta = std::make_unique<ShadowSpaceMetadata>(FacilityOptions{});
    MetadataFacility *Facility = Meta.get();
    if (TimeFacility) {
      Wrapper = std::make_unique<TracingFacility>(*Meta);
      Facility = Wrapper.get();
    }
    Cfg.Meta = Facility;
    Cfg.Instrumented = true;
    Cfg.Wrappers = Prog.Mode == CheckMode::StoreOnly ? WrapperMode::StoreOnly
                   : Prog.Mode == CheckMode::None    ? WrapperMode::None
                                                     : WrapperMode::Full;
  } else {
    Cfg.Wrappers = WrapperMode::None;
  }

  std::optional<VM> Machine;
  {
    auto T0 = Clock::now();
    ScopedSpan S(Log, "vm.construct", Op, Root.index());
    Machine.emplace(*Prog.M, Cfg);
    auto T1 = Clock::now();
    Out.ConstructNs = nsSince(T0, T1);
    if (Wrapper)
      Out.ConstructCalls = Wrapper->take();
    addFacilitySpans(Log, Op, S.index(), Out.ConstructCalls);
  }
  {
    auto T0 = Clock::now();
    ScopedSpan S(Log, "vm.run", Op, Root.index());
    Out.S.Combined = Machine->run("main", {});
    auto T1 = Clock::now();
    Out.RunNs = nsSince(T0, T1);
    if (Wrapper)
      Out.RunCalls = Wrapper->take();
    addFacilitySpans(Log, Op, S.index(), Out.RunCalls);
  }
  Out.S.PerLane.push_back(Out.S.Combined);
  if (Meta) {
    Out.S.Meta = Meta->stats();
    Out.FacilityMemory = Meta->memoryBytes();
  }
  {
    ScopedSpan S(Log, "vm.teardown", Op, Root.index());
    Machine.reset();
    Meta.reset();
  }
  Out.WallNs = nsSince(SessionStart, Clock::now());
  return Out;
}

} // namespace wallbench

//===- Trace.h - in-memory spans and a timing facility wrapper --*- C++ -*-===//
//
// Part of the SoftBound reproduction's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing layer. Spans are recorded from the benchmark's
/// own files around each call into a layer (generation, frontend, pipeline
/// build and its passes, VM construction, VM::run, facility calls), kept in
/// memory, and written out once the benchmark ends.
///
/// Facility calls are too many and too short to keep one by one (a kernel
/// session makes up to ~10^5), so TracingFacility sums them per kind and
/// each VM phase records one aggregate child span per kind, carrying the
/// call count.
///
//===----------------------------------------------------------------------===//

#ifndef WALLBENCH_TRACE_H
#define WALLBENCH_TRACE_H

#include "driver/Pipeline.h"
#include "runtime/MetadataFacility.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace wallbench {

using Clock = std::chrono::steady_clock;

inline double nsSince(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double, std::nano>(T1 - T0).count();
}

/// One recorded span. Name points at a string literal.
struct Span {
  const char *Name = "";
  uint64_t Op = 0;     ///< Operation ID shared by every span of one op.
  int64_t Parent = -1; ///< Index of the enclosing span, -1 for a root.
  double StartNs = 0;  ///< Offset from the log's epoch.
  double DurNs = 0;    ///< Sum of the call durations for an aggregate.
  uint64_t Count = 1;  ///< Calls folded into this span (aggregates > 1).
};

/// Append-only span store.
class SpanLog {
public:
  SpanLog() : Epoch(Clock::now()) {}

  /// Opens a span now; close it with close().
  size_t open(const char *Name, uint64_t Op, int64_t Parent = -1);
  void close(size_t I);
  /// Records a finished (or aggregate) span.
  size_t add(const Span &S);

  const std::vector<Span> &spans() const { return Spans; }

  /// Duration minus the time covered by direct children. Children of one
  /// span never overlap: they run one after another on one thread.
  std::vector<double> selfTimes() const;

  /// Writes one JSON object per line: a header line, then every span.
  bool writeJsonLines(const std::string &Path,
                      const std::string &HeaderJson) const;

private:
  double offsetNs(Clock::time_point T) const { return nsSince(Epoch, T); }

  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// Scoped span; a null log records nothing.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, uint64_t Op, int64_t Parent = -1)
      : Log(Log), Index(Log ? Log->open(Name, Op, Parent) : 0) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int64_t index() const { return Log ? static_cast<int64_t>(Index) : -1; }

private:
  SpanLog *Log;
  size_t Index;
};

/// The cost of timing one call, measured on this host.
struct TimerCost {
  /// Mean of T1 - T0 with nothing between the two clock reads: what one
  /// timed facility call over-reports.
  double InnerNs = 0;
  /// Mean wall time one timed empty call adds to its caller: two clock
  /// reads plus the tally update (the cost of an empty span).
  double EmptySpanNs = 0;

  static TimerCost measure();
};

/// Facility call kinds the wrapper times.
enum FacilityCall { FcLookup, FcUpdate, FcClearRange, FcCopyRange, FcNumKinds };

/// Per-kind call tallies.
struct FacilityTally {
  uint64_t Calls = 0;
  double Ns = 0;         ///< Sum of measured call durations (uncorrected).
  uint64_t Useful = 0;   ///< clearRange calls that cleared an entry.
  uint64_t Bytes = 0;    ///< Range bytes (clearRange / copyRange).
};

using FacilityTallies = std::array<FacilityTally, FcNumKinds>;

/// A MetadataFacility that forwards every call to \p Inner unchanged and
/// times lookup, update, clearRange and copyRange. Passed as VMConfig::Meta
/// in the traced run; the identity test shows it leaves every counter,
/// output and per-request sample of a session unchanged.
class TracingFacility final : public softbound::MetadataFacility {
public:
  explicit TracingFacility(MetadataFacility &Inner) : Inner(Inner) {}

  /// Returns the tallies gathered since the last take() and zeroes them.
  FacilityTallies take();

  const char *name() const override { return Inner.name(); }
  softbound::Bounds lookup(uint64_t Addr) override;
  using softbound::MetadataFacility::update;
  void update(uint64_t Addr, softbound::Bounds B) override;
  void lookupN(const uint64_t *Addrs, softbound::Bounds *Out,
               size_t N) override;
  void updateN(const uint64_t *Addrs, const softbound::Bounds *In,
               size_t N) override;
  uint64_t clearRange(uint64_t Addr, uint64_t Size) override;
  uint64_t copyRange(uint64_t Dst, uint64_t Src, uint64_t Size) override;
  uint64_t lookupCost() const override { return Inner.lookupCost(); }
  uint64_t updateCost() const override { return Inner.updateCost(); }
  uint64_t memoryBytes() const override { return Inner.memoryBytes(); }
  void reset() override { Inner.reset(); }
  softbound::MetadataStats stats() const override { return Inner.stats(); }
  unsigned shards() const override { return Inner.shards(); }
  softbound::ConcurrencyModel concurrency() const override {
    return Inner.concurrency();
  }
  void attachTelemetry(softbound::Telemetry *T,
                       const std::string &Prefix) override {
    Inner.attachTelemetry(T, Prefix);
  }
  void flushTelemetry() override { Inner.flushTelemetry(); }

private:
  MetadataFacility &Inner;
  FacilityTallies Tallies{};
};

/// Everything one session measured.
struct SessionRun {
  softbound::SessionResult S;
  double WallNs = 0;       ///< Whole session, as the caller sees it.
  double ConstructNs = 0;  ///< VM constructor.
  double RunNs = 0;        ///< VM::run.
  FacilityTallies ConstructCalls{}; ///< Facility calls inside the ctor.
  FacilityTallies RunCalls{};       ///< Facility calls inside VM::run.
  uint64_t FacilityMemory = 0;      ///< memoryBytes() at session end.
};

/// Runs \p Prog in one session exactly as runSession does for one lane with
/// the shadow facility, but with spans around VM construction, VM::run and
/// teardown under the root span "session". With \p TimeFacility the shadow
/// facility is wrapped in a TracingFacility and its calls become aggregate
/// child spans; without it only the three phase spans are taken. A null
/// \p Log records no spans but still fills the timings.
SessionRun tracedSession(const softbound::PipelineResult &Prog, SpanLog *Log,
                         uint64_t Op, bool TimeFacility);

} // namespace wallbench

#endif // WALLBENCH_TRACE_H

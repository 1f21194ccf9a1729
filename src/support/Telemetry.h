//===- support/Telemetry.h - counters, histograms, trace export -*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo-wide telemetry registry (docs/observability.md): hierarchical
/// counters, power-of-two histograms, wall-clock timers, and a
/// Chrome-trace-event buffer, shared by the VM, the metadata facilities,
/// and the pass pipeline.
///
/// The disabled mode is the default and costs nothing observable: every
/// producer holds a `Telemetry *` (or a cached `TelemetryHistogram *`)
/// that is null unless a bench or test attached a sink, so the hot paths
/// pay exactly one pointer test and — crucially — never touch the
/// simulated cycle accounting. Counters and histograms recorded from the
/// VM or the facilities are deterministic; only the timers and the
/// pipeline-phase trace timestamps carry wall-clock time, and those are
/// never baseline-gated.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_SUPPORT_TELEMETRY_H
#define SOFTBOUND_SUPPORT_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace softbound {

/// Power-of-two-bucketed histogram: bucket 0 counts the value 0; bucket B
/// (B >= 1) counts values in [2^(B-1), 2^B - 1]; the last bucket absorbs
/// everything above its lower bound. Deterministic and mergeable — the
/// shape the facility probe-length distributions need.
///
/// record() is thread-safe (relaxed atomics): sharded metadata
/// facilities record probe lengths from concurrent VM lanes into one
/// shared histogram. Readers see exact totals once the writers joined.
class TelemetryHistogram {
public:
  static constexpr unsigned NumBuckets = 33;

  TelemetryHistogram() = default;
  TelemetryHistogram(const TelemetryHistogram &O) { *this = O; }
  TelemetryHistogram &operator=(const TelemetryHistogram &O) {
    for (unsigned B = 0; B < NumBuckets; ++B)
      Buckets[B].store(O.Buckets[B].load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    N.store(O.N.load(std::memory_order_relaxed), std::memory_order_relaxed);
    Total.store(O.Total.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    Peak.store(O.Peak.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
    return *this;
  }

  /// The bucket index \p V falls into.
  static unsigned bucketFor(uint64_t V) {
    if (V == 0)
      return 0;
    unsigned B = 0;
    while (V >>= 1)
      ++B;
    return B + 1 < NumBuckets ? B + 1 : NumBuckets - 1;
  }

  /// Smallest value bucket \p B counts.
  static uint64_t bucketLo(unsigned B) {
    return B == 0 ? 0 : uint64_t(1) << (B - 1);
  }

  /// Largest value bucket \p B counts (the last bucket is open-ended and
  /// reports UINT64_MAX).
  static uint64_t bucketHi(unsigned B) {
    if (B == 0)
      return 0;
    if (B >= NumBuckets - 1)
      return UINT64_MAX;
    return (uint64_t(1) << B) - 1;
  }

  void record(uint64_t V) {
    Buckets[bucketFor(V)].fetch_add(1, std::memory_order_relaxed);
    N.fetch_add(1, std::memory_order_relaxed);
    Total.fetch_add(V, std::memory_order_relaxed);
    uint64_t P = Peak.load(std::memory_order_relaxed);
    while (V > P && !Peak.compare_exchange_weak(P, V,
                                                std::memory_order_relaxed)) {
    }
  }

  /// Adds \p O's samples into this histogram (deterministic lane joins).
  void merge(const TelemetryHistogram &O) {
    for (unsigned B = 0; B < NumBuckets; ++B)
      Buckets[B].fetch_add(O.Buckets[B].load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    N.fetch_add(O.N.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    Total.fetch_add(O.Total.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    uint64_t V = O.Peak.load(std::memory_order_relaxed);
    uint64_t P = Peak.load(std::memory_order_relaxed);
    while (V > P && !Peak.compare_exchange_weak(P, V,
                                                std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Total.load(std::memory_order_relaxed); }
  uint64_t max() const { return Peak.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t C = count();
    return C ? static_cast<double>(sum()) / static_cast<double>(C) : 0.0;
  }
  uint64_t bucketCount(unsigned B) const {
    return B < NumBuckets ? Buckets[B].load(std::memory_order_relaxed) : 0;
  }

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> Total{0};
  std::atomic<uint64_t> Peak{0};
};

/// One complete ("ph":"X") Chrome trace event. Timestamps are
/// microseconds in the trace format; VM phases use simulated cycles as
/// the microsecond unit so timelines are deterministic, pipeline phases
/// use wall-clock offsets from the start of the build.
struct TraceEvent {
  std::string Name;
  std::string Cat; ///< "pipeline" or "vm".
  int Tid = 0;
  uint64_t TsMicros = 0;
  uint64_t DurMicros = 0;
};

/// The registry. Paths are '/'-separated hierarchical names
/// ("facility/hashtable/probe_length"); iteration order is the sorted
/// path order, so reports are stable.
class Telemetry {
public:
  /// Trace thread IDs, one lane per producing layer.
  static constexpr int TidPipeline = 1;
  static constexpr int TidVM = 2;

  uint64_t &counter(const std::string &Path) { return Counters[Path]; }
  TelemetryHistogram &histogram(const std::string &Path) {
    return Histograms[Path];
  }
  double &timerMs(const std::string &Path) { return TimersMs[Path]; }

  const std::map<std::string, uint64_t> &counters() const { return Counters; }
  const std::map<std::string, TelemetryHistogram> &histograms() const {
    return Histograms;
  }
  const std::map<std::string, double> &timersMs() const { return TimersMs; }

  /// Appends a complete trace event; past the buffer cap (a
  /// runaway-recursion backstop, far above any real timeline) the event
  /// is dropped and counted in droppedEvents().
  void addCompleteEvent(std::string Name, std::string Cat, int Tid,
                        uint64_t TsMicros, uint64_t DurMicros) {
    if (Events.size() >= MaxTraceEvents) {
      ++Dropped;
      return;
    }
    Events.push_back(
        {std::move(Name), std::move(Cat), Tid, TsMicros, DurMicros});
  }

  const std::vector<TraceEvent> &traceEvents() const { return Events; }

  /// Trace events lost to the buffer cap, here or in any merged sink.
  uint64_t droppedEvents() const { return Dropped; }

  /// The trace buffer as Chrome trace-event JSON
  /// (https://chromium.googlesource.com — loads in chrome://tracing and
  /// Perfetto): {"traceEvents": [{name, cat, ph:"X", ts, dur, pid, tid}],
  /// "droppedEvents": N}.
  std::string chromeTraceJson() const;

  /// Writes chromeTraceJson() to \p Path; false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

  /// Folds \p O into this registry: counters and timers add, histograms
  /// merge sample-wise, trace events append in \p O's order (up to the
  /// buffer cap; the rest, plus \p O's own drops, count as dropped).
  /// Multi-lane sessions give every lane a private sink and merge them in
  /// lane-index order at join, so the combined registry is deterministic
  /// whenever each lane's recording is.
  void mergeFrom(const Telemetry &O) {
    for (const auto &[Path, V] : O.Counters)
      Counters[Path] += V;
    for (const auto &[Path, H] : O.Histograms)
      Histograms[Path].merge(H);
    for (const auto &[Path, Ms] : O.TimersMs)
      TimersMs[Path] += Ms;
    for (const auto &E : O.Events) {
      if (Events.size() >= MaxTraceEvents)
        ++Dropped;
      else
        Events.push_back(E);
    }
    Dropped += O.Dropped;
  }

  void clear() {
    Counters.clear();
    Histograms.clear();
    TimersMs.clear();
    Events.clear();
    Dropped = 0;
  }

  /// Trace buffer cap; events past it are counted, not stored.
  static constexpr size_t MaxTraceEvents = 1 << 16;

private:
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, TelemetryHistogram> Histograms;
  std::map<std::string, double> TimersMs;
  std::vector<TraceEvent> Events;
  uint64_t Dropped = 0;
};

/// RAII wall-clock timer accumulating into Telemetry::timerMs. Null sink
/// makes it a no-op, matching the registry's disabled mode.
class ScopedTimer {
public:
  ScopedTimer(Telemetry *T, std::string Path)
      : T(T), Path(std::move(Path)),
        Start(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    if (T)
      T->timerMs(Path) += std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - Start)
                              .count();
  }
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;

private:
  Telemetry *T;
  std::string Path;
  std::chrono::steady_clock::time_point Start;
};

/// Dynamic counters for one profiling site (one check or metadata
/// instruction; see Module::assignCheckSites).
struct SiteCounters {
  uint64_t Executed = 0;      ///< Check/metadata op actually performed.
  uint64_t GuardElided = 0;   ///< Guarded check skipped (guard false).
  uint64_t FallbackFired = 0; ///< Guarded check whose guard was true.
  uint64_t Traps = 0;         ///< Violations raised at this site.
};

/// Dense per-site profile, indexed directly by Instruction::site() — no
/// hashing on the VM hot path. Pair with Module::checkSites() to map
/// indices back to names and kinds.
struct SiteProfile {
  std::vector<SiteCounters> Sites;

  void ensure(size_t N) {
    if (Sites.size() < N)
      Sites.resize(N);
  }

  /// Adds \p O's per-site counts into this profile (deterministic
  /// multi-lane joins: lanes merge in lane-index order).
  void mergeFrom(const SiteProfile &O) {
    ensure(O.Sites.size());
    for (size_t I = 0; I < O.Sites.size(); ++I) {
      Sites[I].Executed += O.Sites[I].Executed;
      Sites[I].GuardElided += O.Sites[I].GuardElided;
      Sites[I].FallbackFired += O.Sites[I].FallbackFired;
      Sites[I].Traps += O.Sites[I].Traps;
    }
  }
};

} // namespace softbound

#endif // SOFTBOUND_SUPPORT_TELEMETRY_H

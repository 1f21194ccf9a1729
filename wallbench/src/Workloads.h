//===- Workloads.h - the benchmark's three workloads ------------*- C++ -*-===//
//
// Part of the SoftBound reproduction's wall-clock benchmark. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The workloads `kernels`, `traffic` and `compile` (README.md says why each
/// was chosen). Each one generates its inputs from the seed in setup(),
/// then runs operations one at a time in seeded rounds: a closed loop with
/// one client and no extra threads. Every operation's answer is checked.
///
//===----------------------------------------------------------------------===//

#ifndef WALLBENCH_WORKLOADS_H
#define WALLBENCH_WORKLOADS_H

#include "Trace.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace wallbench {

/// splitmix64: the benchmark's only source of randomness.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }
  /// A seeded permutation of 0..N-1.
  std::vector<size_t> permutation(size_t N);

private:
  uint64_t State;
};

/// The pipeline every workload builds with.
inline constexpr const char *DefaultSpec = "optimize,softbound,checkopt";

/// One timed operation's outcome.
struct OpResult {
  double Ms = 0;          ///< Wall time of the timed call.
  double Work = 0;        ///< Sessions, requests or source KB done.
  uint64_t Attempted = 0; ///< Answers checked.
  uint64_t Failed = 0;    ///< Answers that were wrong.
};

/// Per-layer accumulators of the traced run. Times come from the span log
/// and are corrected by the measured cost of timing a call.
struct TraceRun {
  SpanLog Log;
  TimerCost Cost;
  uint64_t NextOp = 1;
  uint64_t Rounds = 0;

  // Builds (setup builds for kernels and traffic, every build for compile).
  uint64_t Builds = 0;
  double FrontendKB = 0;
  uint64_t IrInsts[4] = {}; ///< After frontend, optimize, softbound, checkopt.
  uint64_t ChecksInserted = 0;
  int64_t ChecksRemoved = 0; ///< By checkopt, net of the hull checks it adds.

  // Traced sessions (facility wrapper attached).
  uint64_t Sessions = 0;
  softbound::VMCounters Vm;
  FacilityTallies Calls{};    ///< Constructor and run phases together.
  FacilityTallies RunCalls{}; ///< VM::run phase only.
  uint64_t MemoryMax = 0;

  // Paired reference runs: the same op untraced (session: wrapper detached;
  // build: no spans) against the traced one.
  double RefNs = 0, TracedNs = 0;
  /// Per program: summed VM::run ns instrumented and uninstrumented, both
  /// with the facility wrapper detached.
  std::map<std::string, std::pair<double, double>> RunInstVsPlain;

  // Traffic sessions.
  uint64_t Requests = 0, ReqChecks = 0, ReqMetaOps = 0;

  uint64_t Attempted = 0, Failed = 0;

  uint64_t newOp() { return NextOp++; }
};

/// One named per-layer or end-to-end figure.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Folds a traced run into the per-layer metrics README.md lists.
std::vector<Metric> layerMetrics(const TraceRun &T);

class WorkloadRunner {
public:
  virtual ~WorkloadRunner() = default;

  virtual const char *name() const = 0;
  virtual const char *opName() const = 0;   ///< "session" or "build".
  virtual const char *workName() const = 0; ///< What OpResult::Work counts.

  /// Generates inputs from \p Seed, builds and warms up. With \p T the
  /// generation and builds are traced. Returns false (with a message on
  /// stderr) when an input fails its known answer.
  virtual bool setup(uint64_t Seed, TraceRun *T) = 0;

  /// Runs once after the last setup(), untimed: the sessions that check
  /// known answers before the timed rounds and warm up. Returns false (with
  /// a message on stderr) when one is wrong.
  virtual bool warmUp() { return true; }

  /// Operations in one round; run() takes an index below this.
  virtual size_t roundSize() const = 0;
  virtual OpResult run(size_t I) = 0;

  /// The traced counterpart of run(I), paired with an untraced reference.
  virtual void trace(size_t I, TraceRun &T) = 0;

  /// Work after the timed rounds: compile checks that its output runs.
  /// Returns the answers checked and failed through \p Out.
  virtual void finish(TraceRun *T, OpResult &Out) { (void)T, (void)Out; }

  /// Static IR counts over the workload's distinct programs (traced run).
  virtual void countStatic(TraceRun &T) = 0;
};

std::unique_ptr<WorkloadRunner> makeWorkload(const std::string &Name);

} // namespace wallbench

#endif // WALLBENCH_WORKLOADS_H

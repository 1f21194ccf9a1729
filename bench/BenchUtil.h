//===- bench/BenchUtil.h - shared bench harness helpers ---------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure regeneration binaries: run a
/// workload under a named configuration and report deterministic simulated
/// cycles plus wall time.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_BENCH_BENCHUTIL_H
#define SOFTBOUND_BENCH_BENCHUTIL_H

#include "driver/Pipeline.h"
#include "support/TablePrinter.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <string>

namespace softbound {
namespace benchutil {

/// One measured execution.
struct Measurement {
  RunResult R;
  MetadataStats Meta; ///< Facility statistics at session end.
  double WallSeconds = 0;
};

/// Builds (once) and runs a program, timing the run.
inline Measurement measure(const PipelineResult &Prog,
                           const RunRequest &Opts = {}) {
  Measurement M;
  auto T0 = std::chrono::steady_clock::now();
  SessionResult S = runSession(Prog, Opts);
  auto T1 = std::chrono::steady_clock::now();
  M.WallSeconds = std::chrono::duration<double>(T1 - T0).count();
  M.R = std::move(S.Combined);
  M.Meta = S.Meta;
  return M;
}

/// Percent overhead of Cycles over a baseline cycle count.
inline double overheadPct(uint64_t Instrumented, uint64_t Baseline) {
  if (Baseline == 0)
    return 0;
  return (static_cast<double>(Instrumented) /
              static_cast<double>(Baseline) -
          1.0) *
         100.0;
}

/// Runs a PipelinePlan to completion; aborts the process with a message on
/// build failure (benches must not run on broken inputs).
inline PipelineResult mustBuild(const PipelinePlan &Plan) {
  PipelineResult Prog = Plan.build();
  if (!Prog.ok()) {
    std::fprintf(stderr, "bench build failed:\n%s\n",
                 Prog.errorText().c_str());
    std::abort();
  }
  return Prog;
}

/// Builds \p Src through a textual pipeline spec; aborts on a malformed
/// spec or build failure.
inline PipelineResult mustBuild(const std::string &Src,
                                const std::string &Spec) {
  PipelinePlan Plan;
  Plan.frontend(Src);
  std::string Err;
  if (!Plan.appendSpec(Spec, &Err)) {
    std::fprintf(stderr, "bad pipeline spec '%s': %s\n", Spec.c_str(),
                 Err.c_str());
    std::abort();
  }
  return mustBuild(Plan);
}

/// Finds a named workload in the benchmark suite; aborts if missing.
inline const Workload &mustFindWorkload(const std::string &Name) {
  for (const auto &W : benchmarkSuite())
    if (W.Name == Name)
      return W;
  std::fprintf(stderr, "workload %s missing from suite\n", Name.c_str());
  std::abort();
}

} // namespace benchutil
} // namespace softbound

#endif // SOFTBOUND_BENCH_BENCHUTIL_H

//===- driver/PassManager.h - composable pass pipeline API ------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline API. The paper's toolchain is a fixed *sequence of passes*
/// (optimize -> SoftBound instrument -> re-optimize -> check-elimination,
/// §6.1/§6.3); this header makes that sequence an explicit object:
///
///   * passTable() — the closed set of passes ("optimize", "softbound",
///     "reoptimize", "checkopt"). Each row names a pass, describes it and
///     lists its knobs; each knob row says how it sets and reads its
///     SoftBoundConfig/CheckOptConfig field. The spec parser, the
///     canonical printer and every diagnostic read this one table.
///   * PipelinePlan — a fluent builder:
///
///       PipelinePlan().frontend(Src).optimize().softbound(Cfg)
///                     .checkOpt(CCfg).build()
///
///     plus a textual spec parser/printer
///     ("optimize,softbound,checkopt(hoist,interproc)") with
///     round-trip canonicalization via spec().
///   * PipelineStats — everything build() measured: transformation and
///     check-optimization counters and per-pass wall-clock timings.
///
/// PipelinePlan is the one way to build a program; driver/Pipeline.h runs
/// the PipelineResult it returns.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_DRIVER_PASSMANAGER_H
#define SOFTBOUND_DRIVER_PASSMANAGER_H

#include "opt/checks/CheckOpt.h"
#include "softbound/SoftBoundPass.h"

#include <memory>
#include <string>
#include <vector>

namespace softbound {

class Telemetry;

//===----------------------------------------------------------------------===//
// Unified statistics
//===----------------------------------------------------------------------===//

/// Wall-clock record of one executed pass.
struct PassTiming {
  std::string Pass;  ///< Canonical pass spec (name plus non-default knobs).
  double Millis = 0; ///< Time spent running the pass.
};

/// The single owner of everything the pipeline measured.
struct PipelineStats {
  /// SoftBound transformation counters (checks/metadata inserted, calls
  /// rewritten, post-instrumentation eliminations).
  SoftBoundStats SB;
  /// Check-optimization counters, accumulated across every checkopt pass
  /// in the plan.
  CheckOptStats CheckOpt;
  /// Per-pass timings, in execution order.
  std::vector<PassTiming> Passes;

  double totalMillis() const {
    double S = 0;
    for (const auto &T : Passes)
      S += T.Millis;
    return S;
  }
};

//===----------------------------------------------------------------------===//
// The pass table
//===----------------------------------------------------------------------===//

/// The closed set of pipeline passes.
enum class PassKind { Optimize, SoftBound, Reoptimize, CheckOpt };

/// One planned pass: its kind plus the configuration that kind reads
/// (SB for softbound, CheckOpt for checkopt; the others take none).
struct PipelineStep {
  explicit PipelineStep(PassKind Kind, SoftBoundConfig SB = {},
                        CheckOptConfig CheckOpt = {})
      : Kind(Kind), SB(SB), CheckOpt(CheckOpt) {}

  PassKind Kind;
  SoftBoundConfig SB;
  CheckOptConfig CheckOpt;
};

/// One knob of a pass: its spec name and how it sets and reads the
/// configuration field behind it.
struct KnobRow {
  const char *Name;
  /// Must be the only knob in its list ("checkopt(off)").
  bool Exclusive;
  void (*Set)(PipelineStep &);
  bool (*IsSet)(const PipelineStep &);
};

/// One pass: its spec name, a one-line description and its knobs.
struct PassRow {
  PassKind Kind;
  const char *Name;
  const char *Description;
  /// Applied before an explicit (non-empty) knob list, so that the list
  /// names the whole selection; null when knobs only adjust the default.
  void (*Reset)(PipelineStep &);
  std::vector<KnobRow> Knobs;
};

/// Every pass, in name order. The spec parser, spec() and the
/// unknown-pass/unknown-knob diagnostics all read this table.
const std::vector<PassRow> &passTable();

//===----------------------------------------------------------------------===//
// Pipeline plan
//===----------------------------------------------------------------------===//

/// Result of running a plan: the built module plus everything measured.
struct PipelineResult {
  std::unique_ptr<Module> M;
  /// Single owner of all pipeline statistics.
  PipelineStats Pipeline;
  std::vector<std::string> Errors;
  bool Instrumented = false;        ///< Set by the softbound pass.
  CheckMode Mode = CheckMode::Full; ///< The softbound pass's check mode.

  bool ok() const { return M != nullptr && Errors.empty(); }
  std::string errorText() const {
    std::string S;
    for (const auto &E : Errors)
      S += E + "\n";
    return S;
  }
};

/// A frontend source plus an ordered pass sequence. Cheap to copy. Misuse
/// (no source set) is reported by build(), never by aborting.
class PipelinePlan {
public:
  PipelinePlan() = default;

  /// Sets the mini-C source the plan compiles. Required before build().
  PipelinePlan &frontend(std::string Source);

  // Fluent appenders.
  PipelinePlan &optimize();                          ///< "optimize"
  PipelinePlan &softbound(SoftBoundConfig Cfg = {}); ///< "softbound"
  PipelinePlan &checkOpt(CheckOptConfig Cfg = {});   ///< "checkopt"

  /// Parses a comma-separated pipeline spec — e.g.
  /// "optimize,softbound,checkopt(hoist,interproc)" — and appends
  /// the passes. On any error the plan is left unchanged, \p ErrOut (when
  /// non-null) receives the diagnostic, and false is returned.
  bool appendSpec(const std::string &Spec, std::string *ErrOut = nullptr);

  /// Routes per-pass timings and pipeline-phase trace events into \p T
  /// during build() (docs/observability.md); null detaches. \p TracePrefix
  /// namespaces event and timer names — benches pass "<workload>:" so one
  /// sink can hold several builds. Telemetry never affects the built
  /// module or its statistics.
  PipelinePlan &telemetry(Telemetry *T, std::string TracePrefix = "");

  /// Canonical spec of the whole plan (pass specs joined by commas): each
  /// pass prints bare at its default configuration, else with the knobs
  /// its configuration sets. Round-trips: appendSpec(spec()) rebuilds an
  /// equivalent plan.
  std::string spec() const;

  size_t size() const { return Steps.size(); }

  /// Compiles, verifies, then runs each pass in order (re-verifying after
  /// each and attributing failures to the offending pass), and returns the
  /// module with unified stats. On error the module is null.
  PipelineResult build() const;

private:
  std::string Source;
  bool HaveSource = false;
  std::vector<PipelineStep> Steps;
  Telemetry *Telem = nullptr;
  std::string TracePrefix;
};

} // namespace softbound

#endif // SOFTBOUND_DRIVER_PASSMANAGER_H

//===- driver/PassManager.cpp - composable pass pipeline API ----------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/PassManager.h"

#include "frontend/Compiler.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "support/Compiler.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <optional>

using namespace softbound;

//===----------------------------------------------------------------------===//
// The pass table
//===----------------------------------------------------------------------===//

namespace {

/// A checkopt knob that turns one sub-pass on.
template <bool CheckOptConfig::*Field> KnobRow subPass(const char *Name) {
  return {Name, false, [](PipelineStep &S) { S.CheckOpt.*Field = true; },
          [](const PipelineStep &S) { return S.CheckOpt.*Field; }};
}

/// A softbound knob that turns one default-on feature off.
template <bool SoftBoundConfig::*Field> KnobRow disables(const char *Name) {
  return {Name, false, [](PipelineStep &S) { S.SB.*Field = false; },
          [](const PipelineStep &S) { return !(S.SB.*Field); }};
}

/// A softbound knob that selects a check mode.
template <CheckMode Mode> KnobRow checkMode(const char *Name) {
  return {Name, false, [](PipelineStep &S) { S.SB.Mode = Mode; },
          [](const PipelineStep &S) { return S.SB.Mode == Mode; }};
}

bool anySubPass(const CheckOptConfig &C) {
  return C.HoistLoopChecks || C.InterProc || C.Partition || C.ElideSafeChecks;
}

} // namespace

/// Note the A/B convention checkopt's Reset implies: `partition` is on by
/// default but any explicit knob list that omits it runs without
/// partitioning, so spelling out the rest of the default set is the
/// no-partition baseline. `runtime-limit` is a sub-knob of `hoist` (and
/// implies it): symbolic-limit hull hoisting behind run-time trip/wrap
/// guards.
const std::vector<PassRow> &softbound::passTable() {
  static const std::vector<PassRow> Table = {
      {PassKind::CheckOpt,
       "checkopt",
       "static check optimization: loop-hull hoisting (with runtime-limit "
       "hulls), inter-procedural bounds propagation with dominance RCE, "
       "checked-region partitioning, optional CCured-SAFE elision",
       [](PipelineStep &S) {
         CheckOptConfig &C = S.CheckOpt;
         C.HoistLoopChecks = C.RuntimeLimitHulls = false;
         C.InterProc = C.Partition = C.ElideSafeChecks = false;
       },
       {subPass<&CheckOptConfig::HoistLoopChecks>("hoist"),
        {"runtime-limit", false,
         [](PipelineStep &S) {
           S.CheckOpt.HoistLoopChecks = S.CheckOpt.RuntimeLimitHulls = true;
         },
         [](const PipelineStep &S) {
           return S.CheckOpt.HoistLoopChecks && S.CheckOpt.RuntimeLimitHulls;
         }},
        subPass<&CheckOptConfig::InterProc>("interproc"),
        subPass<&CheckOptConfig::Partition>("partition"),
        subPass<&CheckOptConfig::ElideSafeChecks>("safe"),
        // Subsystem on, no sub-passes: counts checks, changes nothing.
        {"none", true, [](PipelineStep &) {},
         [](const PipelineStep &S) {
           return S.CheckOpt.Enable && !anySubPass(S.CheckOpt);
         }},
        {"off", true, [](PipelineStep &S) { S.CheckOpt.Enable = false; },
         [](const PipelineStep &S) { return !S.CheckOpt.Enable; }}}},
      {PassKind::Optimize,
       "optimize",
       "pre-instrumentation optimizer (mem2reg, fold, CSE, DCE)",
       nullptr,
       {}},
      {PassKind::Reoptimize,
       "reoptimize",
       "post-instrumentation cleanup: redundant-check elim + CSE + DCE",
       nullptr,
       {}},
      // Honors its SoftBoundConfig verbatim, including the internal
      // ReoptimizeAfter cleanup; "softbound(no-reopt),reoptimize" stages
      // that cleanup as its own pass.
      {PassKind::SoftBound,
       "softbound",
       "the SoftBound transformation: metadata propagation + spatial checks",
       nullptr,
       {checkMode<CheckMode::StoreOnly>("store-only"),
        checkMode<CheckMode::None>("metadata-only"),
        disables<&SoftBoundConfig::ShrinkBounds>("no-shrink"),
        disables<&SoftBoundConfig::InferMemcpyPointerFree>("no-memcpy-infer"),
        disables<&SoftBoundConfig::ReoptimizeAfter>("no-reopt")}},
  };
  return Table;
}

namespace {

const PassRow &rowOf(PassKind K) {
  for (const PassRow &R : passTable())
    if (R.Kind == K)
      return R;
  sb_unreachable("pass kind without a table row");
}

/// The knobs \p S sets, in table order.
std::vector<const KnobRow *> knobsSet(const PipelineStep &S) {
  std::vector<const KnobRow *> On;
  for (const KnobRow &K : rowOf(S.Kind).Knobs)
    if (K.IsSet(S))
      On.push_back(&K);
  return On;
}

/// Canonical form of one step: the bare name at the default
/// configuration, an exclusive knob alone, else every knob the
/// configuration sets. Parsing this back reproduces the step.
std::string stepSpec(const PipelineStep &S) {
  const PassRow &P = rowOf(S.Kind);
  std::vector<const KnobRow *> On = knobsSet(S);
  if (On == knobsSet(PipelineStep(S.Kind)))
    return P.Name;
  for (const KnobRow *K : On)
    if (K->Exclusive)
      On = {K};
  std::string Out = P.Name;
  for (const KnobRow *K : On) {
    Out += K == On.front() ? '(' : ',';
    Out += K->Name;
  }
  return Out + ')';
}

std::string joinList(const std::vector<std::string> &L) {
  std::string S;
  for (size_t I = 0; I < L.size(); ++I)
    S += (I ? ", " : "") + L[I];
  return S;
}

/// Builds the step for "Name(Knobs...)", or sets \p Err (naming the
/// offending pass or knob) and returns nothing.
std::optional<PipelineStep> makeStep(const std::string &Name,
                                     const std::vector<std::string> &Knobs,
                                     std::string &Err) {
  const PassRow *P = nullptr;
  std::vector<std::string> Names;
  for (const PassRow &R : passTable()) {
    Names.push_back(R.Name);
    if (Name == R.Name)
      P = &R;
  }
  if (!P) {
    Err = "unknown pass '" + Name + "' (known: " + joinList(Names) + ")";
    return std::nullopt;
  }
  if (P->Knobs.empty() && !Knobs.empty()) {
    Err = Name + ": takes no knobs (got '" + Knobs.front() + "')";
    return std::nullopt;
  }
  PipelineStep S(P->Kind);
  if (!Knobs.empty() && P->Reset)
    P->Reset(S);
  std::vector<const KnobRow *> Applied;
  for (const auto &K : Knobs) {
    const KnobRow *Row = nullptr;
    std::vector<std::string> KnobNames;
    for (const KnobRow &R : P->Knobs) {
      KnobNames.push_back(R.Name);
      if (K == R.Name)
        Row = &R;
    }
    if (!Row) {
      Err = Name + ": unknown knob '" + K + "' (knobs: " +
            joinList(KnobNames) + ")";
      return std::nullopt;
    }
    if (Row->Exclusive && Knobs.size() != 1) {
      Err = Name + ": knob '" + K + "' cannot be combined with others";
      return std::nullopt;
    }
    if (std::find(Applied.begin(), Applied.end(), Row) != Applied.end()) {
      Err = Name + ": knob '" + K + "' named twice";
      return std::nullopt;
    }
    Row->Set(S);
    // Every knob named so far must still read as set: a later knob may
    // not silently undo an earlier one.
    for (const KnobRow *Earlier : Applied)
      if (!Earlier->IsSet(S)) {
        Err = Name + ": knob '" + K + "' contradicts '" + Earlier->Name + "'";
        return std::nullopt;
      }
    Applied.push_back(Row);
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Spec tokenization
//===----------------------------------------------------------------------===//

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\n");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\n");
  return S.substr(B, E - B + 1);
}

/// Splits \p Spec at commas outside parentheses.
bool splitTopLevel(const std::string &Spec, std::vector<std::string> &Out,
                   std::string &Err) {
  std::string Cur;
  int Depth = 0;
  for (char C : Spec) {
    if (C == '(') {
      if (++Depth > 1) {
        Err = "pipeline spec: nested '(' in '" + Spec + "'";
        return false;
      }
    } else if (C == ')') {
      if (--Depth < 0) {
        Err = "pipeline spec: unmatched ')' in '" + Spec + "'";
        return false;
      }
    }
    if (C == ',' && Depth == 0) {
      Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (Depth != 0) {
    Err = "pipeline spec: unmatched '(' in '" + Spec + "'";
    return false;
  }
  Out.push_back(Cur);
  return true;
}

/// Parses one "name" or "name(knob,knob)" element.
bool parseElement(const std::string &Elem, std::string &Name,
                  std::vector<std::string> &Knobs, std::string &Err) {
  std::string E = trim(Elem);
  if (E.empty()) {
    Err = "pipeline spec: empty pass name";
    return false;
  }
  size_t Open = E.find('(');
  if (Open == std::string::npos) {
    Name = E;
    return true;
  }
  if (E.back() != ')') {
    Err = "pipeline spec: trailing text after ')' in '" + E + "'";
    return false;
  }
  Name = trim(E.substr(0, Open));
  if (Name.empty()) {
    Err = "pipeline spec: empty pass name before '(' in '" + E + "'";
    return false;
  }
  std::string Inner = E.substr(Open + 1, E.size() - Open - 2);
  if (trim(Inner).empty())
    return true; // "checkopt()" == "checkopt".
  std::string Cur;
  for (char C : Inner) {
    if (C == ',') {
      Knobs.push_back(trim(Cur));
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  Knobs.push_back(trim(Cur));
  for (const auto &K : Knobs)
    if (K.empty()) {
      Err = "pipeline spec: empty knob in '" + E + "'";
      return false;
    }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// PipelinePlan
//===----------------------------------------------------------------------===//

PipelinePlan &PipelinePlan::frontend(std::string Src) {
  Source = std::move(Src);
  HaveSource = true;
  return *this;
}

PipelinePlan &PipelinePlan::optimize() {
  Steps.emplace_back(PassKind::Optimize);
  return *this;
}

PipelinePlan &PipelinePlan::softbound(SoftBoundConfig Cfg) {
  Steps.emplace_back(PassKind::SoftBound, Cfg);
  return *this;
}

PipelinePlan &PipelinePlan::checkOpt(CheckOptConfig Cfg) {
  Steps.emplace_back(PassKind::CheckOpt, SoftBoundConfig{}, Cfg);
  return *this;
}

bool PipelinePlan::appendSpec(const std::string &Spec, std::string *ErrOut) {
  std::string Err;
  std::vector<std::string> Elems;
  std::vector<PipelineStep> Parsed;
  if (splitTopLevel(Spec, Elems, Err)) {
    for (const auto &Elem : Elems) {
      std::string Name;
      std::vector<std::string> Knobs;
      if (!parseElement(Elem, Name, Knobs, Err))
        break;
      std::optional<PipelineStep> S = makeStep(Name, Knobs, Err);
      if (!S) {
        Err = "pipeline spec: " + Err;
        break;
      }
      Parsed.push_back(*S);
    }
  }
  if (!Err.empty()) {
    if (ErrOut)
      *ErrOut = Err;
    return false;
  }
  Steps.insert(Steps.end(), Parsed.begin(), Parsed.end());
  return true;
}

std::string PipelinePlan::spec() const {
  std::string S;
  for (const PipelineStep &Step : Steps) {
    if (!S.empty())
      S += ',';
    S += stepSpec(Step);
  }
  return S;
}

PipelinePlan &PipelinePlan::telemetry(Telemetry *T, std::string Prefix) {
  Telem = T;
  TracePrefix = std::move(Prefix);
  return *this;
}

PipelineResult PipelinePlan::build() const {
  PipelineResult Out;
  if (!HaveSource) {
    Out.Errors.push_back("pipeline plan: no frontend source set");
    return Out;
  }

  CompileResult CR = compileC(Source);
  if (!CR.ok()) {
    Out.Errors = CR.Errors;
    return Out;
  }
  Out.M = std::move(CR.M);

  auto Errs = verifyModule(*Out.M);
  if (!Errs.empty()) {
    Out.Errors = std::move(Errs);
    Out.M.reset();
    return Out;
  }

  PipelineStats &Stats = Out.Pipeline;
  Module &M = *Out.M;
  auto BuildStart = std::chrono::steady_clock::now();
  for (const PipelineStep &S : Steps) {
    auto T0 = std::chrono::steady_clock::now();
    switch (S.Kind) {
    case PassKind::Optimize:
      optimizeModule(M);
      break;
    case PassKind::SoftBound:
      Stats.SB += applySoftBound(M, S.SB);
      Out.Instrumented = true;
      Out.Mode = S.SB.Mode;
      break;
    case PassKind::Reoptimize:
      Stats.SB.ChecksEliminated += reoptimizeInstrumented(M);
      break;
    case PassKind::CheckOpt:
      Stats.CheckOpt += optimizeChecks(M, S.CheckOpt);
      break;
    }
    auto T1 = std::chrono::steady_clock::now();
    double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    std::string Spec = stepSpec(S);
    if (Telem) {
      // Timings mirror into the shared registry; pipeline-phase trace
      // events carry wall-clock offsets from the start of this build
      // (never baseline-gated — see docs/observability.md).
      Telem->timerMs(TracePrefix + "pass/" + Spec) += Ms;
      Telem->addCompleteEvent(
          TracePrefix + Spec, "pipeline", Telemetry::TidPipeline,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  T0 - BuildStart)
                  .count()),
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0)
                  .count()));
    }
    Stats.Passes.push_back({std::move(Spec), Ms});
    for (auto &E : verifyModule(M))
      Out.Errors.push_back("after pass '" + std::string(rowOf(S.Kind).Name) +
                           "': " + E);
    if (!Out.Errors.empty()) {
      Out.M.reset();
      return Out;
    }
  }

  // Stable profiling site IDs for every check/metadata instruction the
  // final module carries; after the pass loop so hoisting-created checks
  // are named too (docs/observability.md).
  M.assignCheckSites();
  return Out;
}

//===- driver/PassManager.cpp - composable pass pipeline API ----------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/PassManager.h"

#include "frontend/Compiler.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>

using namespace softbound;

//===----------------------------------------------------------------------===//
// Built-in passes
//===----------------------------------------------------------------------===//

namespace {

/// "optimize": the pre-instrumentation optimizer (§6.1 layering).
class OptimizePass : public ModulePass {
public:
  std::string_view name() const override { return "optimize"; }
  void run(Module &M, PassContext &) const override { optimizeModule(M); }
};

/// "softbound": the §3/§5 transformation. Honors its SoftBoundConfig
/// verbatim, including the internal ReoptimizeAfter cleanup;
/// "softbound(no-reopt),reoptimize" stages that cleanup as its own pass.
class SoftBoundModulePass : public ModulePass {
public:
  explicit SoftBoundModulePass(SoftBoundConfig Cfg) : Cfg(Cfg) {}

  std::string_view name() const override { return "softbound"; }

  std::string spec() const override {
    std::string S(name());
    std::vector<std::string> Knobs;
    if (Cfg.Mode == CheckMode::StoreOnly)
      Knobs.push_back("store-only");
    if (Cfg.Mode == CheckMode::None)
      Knobs.push_back("metadata-only");
    if (!Cfg.ShrinkBounds)
      Knobs.push_back("no-shrink");
    if (!Cfg.InferMemcpyPointerFree)
      Knobs.push_back("no-memcpy-infer");
    if (!Cfg.CheckFunctionPointers)
      Knobs.push_back("no-funcptr-check");
    if (!Cfg.ReoptimizeAfter)
      Knobs.push_back("no-reopt");
    if (Knobs.empty())
      return S;
    S += '(';
    for (size_t I = 0; I < Knobs.size(); ++I)
      S += (I ? "," : "") + Knobs[I];
    return S + ')';
  }

  void run(Module &M, PassContext &Ctx) const override {
    Ctx.stats().SB += applySoftBound(M, Cfg);
    Ctx.stats().Instrumented = true;
    Ctx.stats().Mode = Cfg.Mode;
  }

  const SoftBoundConfig Cfg;
};

/// "reoptimize": the standalone post-instrumentation cleanup, for plans
/// that stage it explicitly (softbound(no-reopt),reoptimize).
class ReoptimizePass : public ModulePass {
public:
  std::string_view name() const override { return "reoptimize"; }
  void run(Module &M, PassContext &Ctx) const override {
    Ctx.stats().SB.ChecksEliminated += reoptimizeInstrumented(M);
  }
};

/// "checkopt": the opt/checks/ subsystem with per-sub-pass knobs.
class CheckOptPass : public ModulePass {
public:
  explicit CheckOptPass(CheckOptConfig Cfg) : Cfg(Cfg) {}

  std::string_view name() const override { return "checkopt"; }

  std::string spec() const override {
    std::string S(name());
    if (!Cfg.Enable)
      return S + "(off)";
    const CheckOptConfig Default;
    if (Cfg.EliminateDominated == Default.EliminateDominated &&
        Cfg.RangeSubsumption == Default.RangeSubsumption &&
        Cfg.HoistLoopChecks == Default.HoistLoopChecks &&
        Cfg.RuntimeLimitHulls == Default.RuntimeLimitHulls &&
        Cfg.InterProc == Default.InterProc &&
        Cfg.Partition == Default.Partition &&
        Cfg.ElideSafeChecks == Default.ElideSafeChecks)
      return S;
    std::vector<std::string> Knobs;
    if (Cfg.EliminateDominated)
      Knobs.push_back("redundant");
    if (Cfg.RangeSubsumption)
      Knobs.push_back("range");
    if (Cfg.HoistLoopChecks)
      Knobs.push_back("hoist");
    if (Cfg.HoistLoopChecks && Cfg.RuntimeLimitHulls)
      Knobs.push_back("runtime-limit");
    if (Cfg.InterProc)
      Knobs.push_back("interproc");
    if (Cfg.Partition)
      Knobs.push_back("partition");
    if (Cfg.ElideSafeChecks)
      Knobs.push_back("safe");
    if (Knobs.empty())
      return S + "(none)";
    S += '(';
    for (size_t I = 0; I < Knobs.size(); ++I)
      S += (I ? "," : "") + Knobs[I];
    return S + ')';
  }

  void run(Module &M, PassContext &Ctx) const override {
    Ctx.stats().CheckOpt += optimizeChecks(M, Cfg);
  }

  const CheckOptConfig Cfg;
};

/// "safe-elision": just the CCured-SAFE sub-pass (§6.5 ablation surface).
class SafeElisionPass : public ModulePass {
public:
  std::string_view name() const override { return "safe-elision"; }
  void run(Module &M, PassContext &Ctx) const override {
    CheckOptConfig Cfg;
    Cfg.EliminateDominated = false;
    Cfg.RangeSubsumption = false;
    Cfg.HoistLoopChecks = false;
    Cfg.RuntimeLimitHulls = false;
    Cfg.InterProc = false;
    Cfg.Partition = false;
    Cfg.ElideSafeChecks = true;
    Ctx.stats().CheckOpt += optimizeChecks(M, Cfg);
  }
};

//===----------------------------------------------------------------------===//
// Knob parsing
//===----------------------------------------------------------------------===//

std::string joinList(const std::vector<std::string> &L) {
  std::string S;
  for (size_t I = 0; I < L.size(); ++I)
    S += (I ? ", " : "") + L[I];
  return S;
}

const std::vector<std::string> SoftBoundKnobs = {
    "store-only",       "metadata-only", "no-shrink", "no-memcpy-infer",
    "no-funcptr-check", "no-reopt"};

bool parseSoftBoundKnobs(const std::vector<std::string> &Knobs,
                         SoftBoundConfig &Cfg, std::string &Err) {
  for (const auto &K : Knobs) {
    if (K == "store-only")
      Cfg.Mode = CheckMode::StoreOnly;
    else if (K == "metadata-only")
      Cfg.Mode = CheckMode::None;
    else if (K == "no-shrink")
      Cfg.ShrinkBounds = false;
    else if (K == "no-memcpy-infer")
      Cfg.InferMemcpyPointerFree = false;
    else if (K == "no-funcptr-check")
      Cfg.CheckFunctionPointers = false;
    else if (K == "no-reopt")
      Cfg.ReoptimizeAfter = false;
    else {
      Err = "softbound: unknown knob '" + K +
            "' (knobs: " + joinList(SoftBoundKnobs) + ")";
      return false;
    }
  }
  return true;
}

const std::vector<std::string> CheckOptKnobs = {
    "redundant", "range",     "hoist", "runtime-limit",
    "interproc", "partition", "safe",  "none",
    "off"};

/// An empty knob list means the default configuration; a non-empty list
/// enables exactly the named sub-passes ("none" enables nothing, "off"
/// disables the whole subsystem). "runtime-limit" is a sub-knob of
/// "hoist" (and implies it): symbolic-limit hull hoisting behind run-time
/// trip/wrap guards. Note the A/B convention this implies: "partition" is
/// on by default but any explicit knob list that omits it runs without
/// partitioning, so spelling out the rest of the default set is the
/// no-partition baseline.
bool parseCheckOptKnobs(const std::vector<std::string> &Knobs,
                        CheckOptConfig &Cfg, std::string &Err) {
  if (Knobs.empty())
    return true;
  Cfg.EliminateDominated = false;
  Cfg.RangeSubsumption = false;
  Cfg.HoistLoopChecks = false;
  Cfg.RuntimeLimitHulls = false;
  Cfg.InterProc = false;
  Cfg.Partition = false;
  Cfg.ElideSafeChecks = false;
  for (const auto &K : Knobs) {
    if (K == "redundant")
      Cfg.EliminateDominated = true;
    else if (K == "range")
      Cfg.RangeSubsumption = true;
    else if (K == "hoist")
      Cfg.HoistLoopChecks = true;
    else if (K == "runtime-limit")
      Cfg.HoistLoopChecks = Cfg.RuntimeLimitHulls = true;
    else if (K == "interproc")
      Cfg.InterProc = true;
    else if (K == "partition")
      Cfg.Partition = true;
    else if (K == "safe")
      Cfg.ElideSafeChecks = true;
    else if (K == "none" || K == "off") {
      if (Knobs.size() != 1) {
        Err = "checkopt: knob '" + K + "' cannot be combined with others";
        return false;
      }
      Cfg.Enable = K != "off";
    } else {
      Err = "checkopt: unknown knob '" + K +
            "' (knobs: " + joinList(CheckOptKnobs) + ")";
      return false;
    }
  }
  return true;
}

template <typename PassT>
PassRegistry::Factory knoblessFactory(const char *Name) {
  return [Name](const std::vector<std::string> &Knobs,
                std::string &Err) -> std::shared_ptr<const ModulePass> {
    if (!Knobs.empty()) {
      Err = std::string(Name) + ": takes no knobs (got '" + Knobs.front() +
            "')";
      return nullptr;
    }
    return std::make_shared<PassT>();
  };
}

void registerBuiltins(PassRegistry &R) {
  R.add("optimize", "pre-instrumentation optimizer (mem2reg, fold, CSE, DCE)",
        {}, knoblessFactory<OptimizePass>("optimize"));
  R.add("softbound",
        "the SoftBound transformation: metadata propagation + spatial checks",
        SoftBoundKnobs,
        [](const std::vector<std::string> &Knobs,
           std::string &Err) -> std::shared_ptr<const ModulePass> {
          SoftBoundConfig Cfg;
          if (!parseSoftBoundKnobs(Knobs, Cfg, Err))
            return nullptr;
          return std::make_shared<SoftBoundModulePass>(Cfg);
        });
  R.add("reoptimize",
        "post-instrumentation cleanup: redundant-check elim + CSE + DCE", {},
        knoblessFactory<ReoptimizePass>("reoptimize"));
  R.add("checkopt",
        "static check optimization: dominance RCE, range subsumption, "
        "loop-hull hoisting (with runtime-limit hulls), inter-procedural "
        "bounds propagation, checked-region partitioning, optional "
        "CCured-SAFE elision",
        CheckOptKnobs,
        [](const std::vector<std::string> &Knobs,
           std::string &Err) -> std::shared_ptr<const ModulePass> {
          CheckOptConfig Cfg;
          if (!parseCheckOptKnobs(Knobs, Cfg, Err))
            return nullptr;
          return std::make_shared<CheckOptPass>(Cfg);
        });
  R.add("safe-elision",
        "CCured-SAFE static check elision alone (§6.5 comparison)", {},
        knoblessFactory<SafeElisionPass>("safe-elision"));
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
// PassRegistry
//===----------------------------------------------------------------------===//

PassRegistry &PassRegistry::global() {
  static PassRegistry R = [] {
    PassRegistry Init;
    registerBuiltins(Init);
    return Init;
  }();
  return R;
}

bool PassRegistry::add(const std::string &Name, std::string Description,
                       std::vector<std::string> Knobs, Factory Make) {
  return Entries
      .emplace(Name, Entry{std::move(Description), std::move(Knobs),
                           std::move(Make)})
      .second;
}

const PassRegistry::Entry *PassRegistry::lookup(const std::string &Name) const {
  auto It = Entries.find(Name);
  return It == Entries.end() ? nullptr : &It->second;
}

std::shared_ptr<const ModulePass>
PassRegistry::create(const std::string &Name,
                     const std::vector<std::string> &Knobs,
                     std::string &Err) const {
  const Entry *E = lookup(Name);
  if (!E) {
    Err = "unknown pass '" + Name + "' (known: " + joinList(names()) + ")";
    return nullptr;
  }
  return E->Make(Knobs, Err);
}

std::vector<std::string> PassRegistry::names() const {
  std::vector<std::string> N;
  for (const auto &[Name, E] : Entries)
    N.push_back(Name);
  return N; // std::map iteration is already sorted.
}

//===----------------------------------------------------------------------===//
// PipelinePlan
//===----------------------------------------------------------------------===//

PipelinePlan &PipelinePlan::frontend(std::string Src) {
  Source = std::move(Src);
  HaveSource = true;
  return *this;
}

PipelinePlan &PipelinePlan::optimize() {
  return pass(std::make_shared<OptimizePass>());
}

PipelinePlan &PipelinePlan::softbound(SoftBoundConfig Cfg) {
  return pass(std::make_shared<SoftBoundModulePass>(Cfg));
}

PipelinePlan &PipelinePlan::reoptimize() {
  return pass(std::make_shared<ReoptimizePass>());
}

PipelinePlan &PipelinePlan::checkOpt(CheckOptConfig Cfg) {
  return pass(std::make_shared<CheckOptPass>(Cfg));
}

PipelinePlan &PipelinePlan::safeElision() {
  return pass(std::make_shared<SafeElisionPass>());
}

PipelinePlan &PipelinePlan::pass(std::shared_ptr<const ModulePass> P) {
  Passes.push_back(std::move(P));
  return *this;
}

PipelinePlan &PipelinePlan::pass(const std::string &Name) {
  std::string Err;
  if (auto P = PassRegistry::global().create(Name, {}, Err))
    Passes.push_back(std::move(P));
  else
    PlanErrors.push_back("pipeline plan: " + Err);
  return *this;
}

bool PipelinePlan::appendSpec(const std::string &Spec, std::string *ErrOut) {
  std::string Err;
  std::vector<std::string> Elems;
  std::vector<std::shared_ptr<const ModulePass>> Parsed;
  if (splitTopLevel(Spec, Elems, Err)) {
    for (const auto &Elem : Elems) {
      std::string Name;
      std::vector<std::string> Knobs;
      if (!parseElement(Elem, Name, Knobs, Err))
        break;
      auto P = PassRegistry::global().create(Name, Knobs, Err);
      if (!P) {
        Err = "pipeline spec: " + Err;
        break;
      }
      Parsed.push_back(std::move(P));
    }
  }
  if (!Err.empty()) {
    if (ErrOut)
      *ErrOut = Err;
    return false;
  }
  for (auto &P : Parsed)
    Passes.push_back(std::move(P));
  return true;
}

std::string PipelinePlan::spec() const {
  std::string S;
  for (size_t I = 0; I < Passes.size(); ++I)
    S += (I ? "," : "") + Passes[I]->spec();
  return S;
}

PipelinePlan &PipelinePlan::telemetry(Telemetry *T, std::string Prefix) {
  Telem = T;
  TracePrefix = std::move(Prefix);
  return *this;
}

PipelineResult PipelinePlan::build() const {
  PipelineResult Out;
  Out.Errors = PlanErrors;
  if (!HaveSource)
    Out.Errors.push_back("pipeline plan: no frontend source set");
  if (!Out.Errors.empty())
    return Out;

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

  PassContext Ctx;
  auto BuildStart = std::chrono::steady_clock::now();
  for (const auto &P : Passes) {
    auto T0 = std::chrono::steady_clock::now();
    P->run(*Out.M, Ctx);
    auto T1 = std::chrono::steady_clock::now();
    double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    Ctx.stats().Passes.push_back({P->spec(), Ms});
    if (Telem) {
      // Timings mirror into the shared registry; pipeline-phase trace
      // events carry wall-clock offsets from the start of this build
      // (never baseline-gated — see docs/observability.md).
      Telem->timerMs(TracePrefix + "pass/" + P->spec()) += Ms;
      Telem->addCompleteEvent(
          TracePrefix + P->spec(), "pipeline", Telemetry::TidPipeline,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  T0 - BuildStart)
                  .count()),
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(T1 - T0)
                  .count()));
    }
    for (auto &E : verifyModule(*Out.M))
      Ctx.error("after pass '" + std::string(P->name()) + "': " + E);
    if (Ctx.hadErrors())
      break;
  }

  if (Ctx.hadErrors()) {
    Out.Errors = Ctx.errors();
    Out.M.reset();
    return Out;
  }

  // Stable profiling site IDs for every check/metadata instruction the
  // final module carries; after the pass loop so hoisting-created checks
  // are named too (docs/observability.md).
  Out.M->assignCheckSites();

  Out.Pipeline = Ctx.stats();
  Out.Instrumented = Out.Pipeline.Instrumented;
  Out.Mode = Out.Pipeline.Mode;
  return Out;
}

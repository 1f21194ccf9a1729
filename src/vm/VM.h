//===- vm/VM.h - IR interpreter with simulated process image ----*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution substrate standing in for the paper's native x86 runs: an
/// IR interpreter whose call frames live in simulated memory (return
/// address and saved frame-pointer words included), with deterministic
/// cycle accounting (1 per instruction, §5.1 costs per metadata operation,
/// 3 per bounds check) so the overhead ratios of Figure 2 are reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_VM_VM_H
#define SOFTBOUND_VM_VM_H

#include "ir/Module.h"
#include "runtime/MetadataFacility.h"
#include "support/Telemetry.h"
#include "vm/MemoryChecker.h"
#include "vm/SimMemory.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace softbound {

/// How a run ended (TrapKind::None = normal exit).
enum class TrapKind {
  None,
  SpatialViolation, ///< SoftBound bounds check failed.
  FuncPtrViolation, ///< SoftBound function-pointer encoding check failed.
  BaselineViolation, ///< A comparison baseline (red zone / object table) hit.
  Segfault,
  OutOfMemory,
  InvalidFree,
  CorruptedReturn,
  CorruptedFrame,
  CorruptedJmpBuf,
  BadIndirectCall,
  DivByZero,
  UnreachableExecuted,
  StackOverflow,
  StepLimit,
  Hijacked, ///< Corrupted control data redirected control flow (attack won).
};

/// Human-readable trap name.
const char *trapName(TrapKind K);

/// Dynamic execution statistics.
struct VMCounters {
  uint64_t Insts = 0;
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t PtrLoads = 0;  ///< Loads whose result type is a pointer (Fig. 1).
  uint64_t PtrStores = 0; ///< Stores whose value type is a pointer (Fig. 1).
  uint64_t Checks = 0;
  uint64_t CheckGuards = 0; ///< Guard evaluations on guarded spatial checks.
  uint64_t GuardSkips = 0;  ///< Guarded checks skipped (guard was false).
  uint64_t FuncPtrChecks = 0;
  uint64_t MetaLoads = 0;
  uint64_t MetaStores = 0;
  uint64_t Calls = 0;
  uint64_t Cycles = 0;
  uint64_t MaxFrameDepth = 0;

  /// One summed counter: its telemetry name (published as `vm/<Name>`)
  /// and its member.
  struct Field {
    const char *Name;
    uint64_t VMCounters::*Member;
  };
  /// The counter schema: every count that adds across lanes and
  /// subtracts across request windows. MaxFrameDepth is deliberately
  /// absent — lane joins take its max and request windows keep its
  /// absolute value.
  static constexpr Field Fields[] = {
      {"insts", &VMCounters::Insts},
      {"loads", &VMCounters::Loads},
      {"stores", &VMCounters::Stores},
      {"ptr_loads", &VMCounters::PtrLoads},
      {"ptr_stores", &VMCounters::PtrStores},
      {"checks", &VMCounters::Checks},
      {"check_guards", &VMCounters::CheckGuards},
      {"guard_skips", &VMCounters::GuardSkips},
      {"funcptr_checks", &VMCounters::FuncPtrChecks},
      {"meta_loads", &VMCounters::MetaLoads},
      {"meta_stores", &VMCounters::MetaStores},
      {"calls", &VMCounters::Calls},
      {"cycles", &VMCounters::Cycles},
  };

  uint64_t memOps() const { return Loads + Stores; }
  double ptrOpFraction() const {
    uint64_t M = memOps();
    return M ? static_cast<double>(PtrLoads + PtrStores) / M : 0.0;
  }

  /// The §5.1 checking cost of these counts: checks at \p CheckCost,
  /// metadata loads and stores at the facility's lookup and update cost,
  /// guard tests at 1. Function-pointer checks are not priced. The fig2
  /// gate and the traffic tier's per-request sim-cost both use it.
  uint64_t checkingCost(uint64_t LookupCost, uint64_t UpdateCost,
                        uint64_t CheckCost = 3) const {
    return Checks * CheckCost + MetaLoads * LookupCost +
           MetaStores * UpdateCost + CheckGuards;
  }

  /// Folds \p O into this counter set (multi-lane joins): every field
  /// adds; MaxFrameDepth takes the max across lanes.
  void accumulate(const VMCounters &O) {
    for (const Field &F : Fields)
      this->*F.Member += O.*F.Member;
    if (O.MaxFrameDepth > MaxFrameDepth)
      MaxFrameDepth = O.MaxFrameDepth;
  }

  /// Counter delta since snapshot \p Prev (per-request windows). Every
  /// field subtracts; MaxFrameDepth keeps the current absolute value —
  /// a per-window depth delta has no meaning.
  VMCounters since(const VMCounters &Prev) const {
    VMCounters D;
    for (const Field &F : Fields)
      D.*F.Member = this->*F.Member - Prev.*F.Member;
    D.MaxFrameDepth = MaxFrameDepth;
    return D;
  }

  bool operator==(const VMCounters &) const = default;
};

/// One request window recorded by the `sb_request_end` builtin: the
/// counter delta since the previous window boundary plus the contained
/// trap (if any) that `sb_guard` recovered from inside the window.
/// Traffic drivers (src/workloads/Traffic.h) bracket each simulated
/// server request with sb_guard/sb_request_end so per-request cost and
/// detection outcomes are observable without re-running single shots.
struct RequestSample {
  VMCounters Delta;
  TrapKind Trap = TrapKind::None; ///< Contained violation, or None.
};

/// Result of one VM run.
struct RunResult {
  TrapKind Trap = TrapKind::None;
  int64_t ExitCode = 0;
  std::string Message;
  std::string HijackTarget; ///< Function name control flow escaped to.
  std::string Output;       ///< Text produced by print builtins.
  VMCounters Counters;
  /// Per-request counter windows, in program order (sb_request_end
  /// calls). By traffic-driver convention sample 0 covers the program
  /// prologue (globals/table setup before the request loop).
  std::vector<RequestSample> Requests;
  uint64_t MetadataMemory = 0;
  uint64_t HeapHighWater = 0;

  bool ok() const { return Trap == TrapKind::None; }
  /// True when the run shows the attacker winning (for the attack suite).
  bool attackLanded() const {
    return Trap == TrapKind::Hijacked || ExitCode == 66;
  }
  /// True when a spatial-safety tool stopped the program.
  bool violationDetected() const {
    return Trap == TrapKind::SpatialViolation ||
           Trap == TrapKind::FuncPtrViolation ||
           Trap == TrapKind::BaselineViolation;
  }
};

/// Which accesses the instrumented-builtin wrappers check (§6: full vs
/// store-only checking).
enum class WrapperMode { None, StoreOnly, Full };

/// VM construction options. Observation sinks are per lane (LaneSpec);
/// segment sizes are simlayout constants.
struct VMConfig {
  MetadataFacility *Meta = nullptr;  ///< Required for instrumented modules.
  MemoryChecker *Checker = nullptr;  ///< Baseline checker (uninstrumented).
  WrapperMode Wrappers = WrapperMode::Full;
  uint64_t StepLimit = 4'000'000'000ULL;
  uint64_t CheckCost = 3;      ///< Simulated instructions per bounds check.
  bool Instrumented = false;   ///< Module carries SoftBound instrumentation.
  size_t OutputLimit = 1u << 20;
  uint64_t MaxFrames = 100'000;
};

/// One interpreter lane of a multi-lane run: entry point, arguments, and
/// per-lane observation sinks. Lanes share the module image, the global
/// and heap segments, and the metadata facility; each lane gets a
/// private slice of the stack segment. Sinks must not be shared between
/// lanes — the session layer merges them deterministically at join.
struct LaneSpec {
  std::string Entry = "main";
  std::vector<int64_t> Args;
  SiteProfile *Profile = nullptr; ///< Per-lane profile (null = off).
  Telemetry *Telem = nullptr;     ///< Per-lane telemetry sink (null = off).
  std::string TraceTag;           ///< Trace-event name prefix for this lane.
};

/// One SSA value at runtime: scalars use A; bounds use {A=base, B=bound};
/// ptrpair uses {A=ptr, B=base, C=bound}.
struct VMVal {
  uint64_t A = 0;
  uint64_t B = 0;
  uint64_t C = 0;
};

/// The interpreter. One VM instance loads one module image and can run one
/// entry function (construct a fresh VM per run for isolation).
class VM {
public:
  VM(Module &M, VMConfig Config);
  ~VM();

  /// Runs \p EntryName (falls back to the `_sb_`-renamed form), passing
  /// integer arguments to the leading integer parameters: one lane with
  /// no observation sinks.
  RunResult run(const std::string &EntryName = "main",
                const std::vector<int64_t> &Args = {});

  /// Runs N interpreter lanes over this VM's shared image, heap, and
  /// metadata facility; returns one RunResult per lane, in lane order.
  /// Each lane gets a 16-aligned 1/N slice of the stack segment (one
  /// lane: the whole segment). One lane runs inline on the caller's
  /// thread; N > 1 lanes run on their own host threads with SimMemory in
  /// concurrent mode. Multi-lane callers must use a Concurrent metadata
  /// facility and no baseline Checker (checkers keep single-threaded
  /// object tables) — the session layer enforces this.
  std::vector<RunResult> runLanes(const std::vector<LaneSpec> &Lanes);

  uint64_t functionAddress(const Function *F) const;
  uint64_t globalAddress(const GlobalVariable *G) const;
  SimMemory &memory() { return Mem; }

private:
  Module &M;
  VMConfig Cfg;
  SimMemory Mem;

  // Module image.
  std::vector<Function *> FuncByIndex;
  std::unordered_map<const Function *, uint64_t> FuncAddr;
  std::unordered_map<const GlobalVariable *, uint64_t> GlobalAddr;

  /// Why the image could not be loaded (a global that does not fit its
  /// segment); empty when loading succeeded. Every lane of a refused
  /// image ends with an OutOfMemory trap carrying this message.
  std::string LoadError;

  void loadImage();

  friend class VMExec;
};

} // namespace softbound

#endif // SOFTBOUND_VM_VM_H

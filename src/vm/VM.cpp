//===- vm/VM.cpp - IR interpreter with simulated process image -------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/VM.h"

#include "support/Compiler.h"
#include "support/RNG.h"

#include <cstring>
#include <deque>
#include <thread>

using namespace softbound;
using namespace softbound::simlayout;

const char *softbound::trapName(TrapKind K) {
  switch (K) {
  case TrapKind::None:
    return "none";
  case TrapKind::SpatialViolation:
    return "spatial-violation";
  case TrapKind::FuncPtrViolation:
    return "funcptr-violation";
  case TrapKind::BaselineViolation:
    return "baseline-violation";
  case TrapKind::Segfault:
    return "segfault";
  case TrapKind::OutOfMemory:
    return "out-of-memory";
  case TrapKind::InvalidFree:
    return "invalid-free";
  case TrapKind::CorruptedReturn:
    return "corrupted-return";
  case TrapKind::CorruptedFrame:
    return "corrupted-frame";
  case TrapKind::CorruptedJmpBuf:
    return "corrupted-jmpbuf";
  case TrapKind::BadIndirectCall:
    return "bad-indirect-call";
  case TrapKind::DivByZero:
    return "div-by-zero";
  case TrapKind::UnreachableExecuted:
    return "unreachable-executed";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::StepLimit:
    return "step-limit";
  case TrapKind::Hijacked:
    return "hijacked";
  }
  sb_unreachable("covered switch");
}

namespace {

/// Sign-extends the low \p Bits of \p V.
uint64_t canon(uint64_t V, unsigned Bits) {
  if (Bits >= 64)
    return V;
  uint64_t Mask = (1ULL << Bits) - 1;
  V &= Mask;
  if (Bits > 1 && ((V >> (Bits - 1)) & 1))
    V |= ~Mask;
  return V;
}

uint64_t maskTo(uint64_t V, unsigned Bits) {
  return Bits >= 64 ? V : V & ((1ULL << Bits) - 1);
}

constexpr uint64_t RetTokenTag = 0x5EC0'0000'0000'0000ULL;
constexpr uint64_t JmpMagic = 0x4A4D'5042'5546'4D41ULL;

} // namespace

namespace softbound {

/// All per-run execution state. One VMExec per lane of a VM::runLanes
/// call. The lane's stack slice and observation sinks are constructor
/// parameters (not read from VMConfig) so concurrent lanes never share
/// mutable state through the shared config.
class VMExec {
public:
  VMExec(VM &Owner, Module &M, VMConfig &Cfg, SimMemory &Mem,
         uint64_t StackTop, uint64_t StackLimit, SiteProfile *Prof,
         Telemetry *Telem, std::string TraceTag)
      : Owner(Owner), M(M), Cfg(Cfg), Mem(Mem), StackTop(StackTop),
        StackLimit(StackLimit), Prof(Prof), Telem(Telem),
        TraceTag(std::move(TraceTag)) {
    if (this->Prof)
      this->Prof->ensure(M.checkSites().size());
  }

  RunResult run(const std::string &EntryName,
                const std::vector<int64_t> &Args);

private:
  struct Frame {
    Function *F = nullptr;
    std::vector<VMVal> Regs;
    BasicBlock *BB = nullptr;
    BasicBlock::iterator IP;
    BasicBlock *Prev = nullptr;
    uint64_t FrameTop = 0;  ///< SP at call entry (exclusive top).
    uint64_t FrameLow = 0;  ///< New SP after frame allocation.
    uint64_t RetSlot = 0;   ///< Address of the return-address word.
    uint64_t FPSlot = 0;    ///< Address of the saved-frame-pointer word.
    uint64_t RetToken = 0;
    uint64_t SavedFP = 0;
    uint64_t Gen = 0;
    const CallInst *CallSite = nullptr; ///< Call in the *caller* frame.
    std::vector<std::pair<uint64_t, uint64_t>> Allocas;
    uint64_t EntryCycle = 0; ///< C.Cycles at frame entry (trace events).
  };

  struct JmpRecord {
    uint64_t Token;
    size_t FrameIdx;
    uint64_t FrameGen;
    BasicBlock *BB;
    BasicBlock::iterator IP;
    int ResultSlot;
  };

  //===--------------------------------------------------------------------===//
  // Helpers
  //===--------------------------------------------------------------------===//

  void trap(TrapKind K, const std::string &Msg) {
    if (Halted)
      return;
    // SoftBound traps fire *before* the offending access, so memory is
    // still sound at this point — a violation inside an armed request
    // window can be contained: unwind to the sb_guard resume point and
    // let the driver move on to the next request. Every other trap kind
    // (and any violation outside a window) stays fatal.
    if (GuardArmed &&
        (K == TrapKind::SpatialViolation || K == TrapKind::FuncPtrViolation) &&
        recoverToGuard(K))
      return;
    Res.Trap = K;
    Res.Message = Msg;
    Halted = true;
  }

  /// Pops frames until \p KeepIdx is the top, running the same alloca
  /// bookkeeping as normal frame exit (checker onFree + metadata range
  /// clears). Shared by longjmp and guard recovery.
  void unwindFramesAbove(size_t KeepIdx);

  /// Attempts to resume at the sb_guard record. Returns false when the
  /// guard's frame is gone (record stale), leaving the trap fatal.
  bool recoverToGuard(TrapKind K);

  void hijack(const std::string &Target) {
    Res.Trap = TrapKind::Hijacked;
    Res.HijackTarget = Target;
    Res.Message = "control flow redirected to " + Target;
    Halted = true;
  }

  Function *funcAt(uint64_t Addr) const {
    if (Addr < FuncBase || (Addr - FuncBase) % FuncStride != 0)
      return nullptr;
    uint64_t Idx = (Addr - FuncBase) / FuncStride;
    if (Idx >= Owner.FuncByIndex.size())
      return nullptr;
    return Owner.FuncByIndex[Idx];
  }

  VMVal eval(const Frame &Fr, const Value *V) const {
    switch (V->kind()) {
    case ValueKind::ConstInt:
      return {static_cast<uint64_t>(cast<ConstantInt>(V)->value()), 0, 0};
    case ValueKind::ConstNull:
    case ValueKind::ConstUndef:
      return {0, 0, 0};
    case ValueKind::Global:
      return {Owner.GlobalAddr.at(cast<GlobalVariable>(V)), 0, 0};
    case ValueKind::Func:
      return {Owner.FuncAddr.at(cast<Function>(V)), 0, 0};
    default:
      assert(V->slot() >= 0 && "use of unregistered value");
      return Fr.Regs[V->slot()];
    }
  }

  void setResult(Frame &Fr, const Instruction &I, VMVal V) {
    if (I.slot() >= 0)
      Fr.Regs[I.slot()] = V;
  }

  /// The per-site profile row for \p I, or null in the disabled mode
  /// (no profile attached, or the instruction never got a site ID). One
  /// pointer test when profiling is off; never touches C.Cycles.
  SiteCounters *siteOf(const Instruction &I) {
    if (!Prof || I.site() < 0 ||
        static_cast<size_t>(I.site()) >= Prof->Sites.size())
      return nullptr;
    return &Prof->Sites[I.site()];
  }

  std::string traceName(const std::string &What) const {
    return TraceTag + What;
  }

  void emit(const std::string &S) {
    if (Res.Output.size() + S.size() <= Cfg.OutputLimit)
      Res.Output += S;
  }

  std::string where(const Instruction &I) const {
    return "@" + I.parent()->parent()->name() + "/" + I.parent()->name();
  }

  //===--------------------------------------------------------------------===//
  // Frames
  //===--------------------------------------------------------------------===//

  bool pushFrame(Function *F, const std::vector<VMVal> &Args,
                 const CallInst *CallSite);
  void popFrame(VMVal RetVal);

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  void step();
  void execute(Instruction &I, Frame &Fr);
  void enterBlock(Frame &Fr, BasicBlock *To);
  void execBuiltin(Frame &Fr, const CallInst &CI, Builtin B,
                   BuiltinVariant Variant);

  // Builtin helpers.
  /// Baseline-checker validation of a native (builtin) memory access —
  /// models Valgrind/Mudflap interposing on libc. Returns false and traps
  /// on a violation.
  bool checkNative(uint64_t Addr, uint64_t N, bool IsStore,
                   const char *What) {
    if (!Cfg.Checker || N == 0)
      return true;
    C.Cycles += Cfg.Checker->accessCost();
    if (Cfg.Checker->checkAccess(Addr, N, IsStore))
      return true;
    trap(TrapKind::BaselineViolation,
         std::string(Cfg.Checker->name()) + ": violation in " + What);
    return false;
  }
  uint64_t simStrlenAt(uint64_t Addr, bool &Ok);
  bool wrapperCheck(const BuiltinRow &R, unsigned Param, uint64_t N,
                    const std::vector<VMVal> &A);

  VM &Owner;
  Module &M;
  VMConfig &Cfg;
  SimMemory &Mem;
  uint64_t StackTop;    ///< Exclusive top of this lane's stack slice.
  uint64_t StackLimit;  ///< Inclusive floor of this lane's stack slice.
  SiteProfile *Prof;    ///< This lane's profile; null = disabled.
  Telemetry *Telem;     ///< This lane's telemetry sink; null = disabled.
  std::string TraceTag; ///< Trace-event name prefix for this lane.

  std::deque<Frame> Frames;
  std::vector<JmpRecord> JmpRecords;
  RunResult Res;
  VMCounters &C = Res.Counters;
  /// Per-request machinery (sb_guard / sb_request_end builtins).
  VMCounters RequestMark;                     ///< Counters at last window end.
  JmpRecord GuardRec{};                       ///< Resume point armed by sb_guard.
  bool GuardArmed = false;                    ///< A live sb_guard resume point.
  TrapKind RequestTrap = TrapKind::None;      ///< Contained trap this window.
  /// Frame trace events only for call depths up to this (the full call
  /// tree of a recursive Olden kernel would be millions of events).
  static constexpr size_t MaxTraceDepth = 3;
  bool Halted = false;
  uint64_t NextGen = 1;
  uint64_t NextJmpToken = 0x1000;
  RNG Rand{42};
};

} // namespace softbound

//===----------------------------------------------------------------------===//
// VM: image loading
//===----------------------------------------------------------------------===//

VM::VM(Module &M, VMConfig Config)
    : M(M), Cfg(Config), Mem(GlobalSize, HeapSize, StackSize) {
  loadImage();
}

VM::~VM() = default;

uint64_t VM::functionAddress(const Function *F) const {
  auto It = FuncAddr.find(F);
  return It == FuncAddr.end() ? 0 : It->second;
}

uint64_t VM::globalAddress(const GlobalVariable *G) const {
  auto It = GlobalAddr.find(G);
  return It == GlobalAddr.end() ? 0 : It->second;
}

void VM::loadImage() {
  // Assign function addresses.
  for (const auto &F : M.functions()) {
    uint64_t Addr = FuncBase + FuncStride * FuncByIndex.size();
    FuncByIndex.push_back(F.get());
    FuncAddr[F.get()] = Addr;
    if (F->isDefinition())
      F->renumber();
  }

  // Assign global addresses (two passes so relocs can reference any global).
  for (const auto &G : M.globals()) {
    uint64_t Size = G->valueType()->sizeInBytes();
    // Checker baselines (Mudflap-style) pad objects with guard zones.
    uint64_t Pad = Cfg.Checker ? Cfg.Checker->globalPad() : 0;
    uint64_t Addr = Size > GlobalSize
                        ? 0
                        : Mem.allocateGlobal(Size + Pad,
                                             G->valueType()->alignment());
    if (!Addr) {
      LoadError = "global segment exhausted by @" + G->name() + " (" +
                  std::to_string(Size) + " bytes)";
      return;
    }
    GlobalAddr[G.get()] = Addr;
  }

  for (const auto &G : M.globals()) {
    uint64_t Addr = GlobalAddr[G.get()];
    const GlobalInitializer &Init = G->initializer();
    if (!Init.Bytes.empty())
      Mem.writeBytes(Addr, Init.Bytes.size(), Init.Bytes.data());
    for (const auto &R : Init.Relocs) {
      uint64_t Target = 0, TBase = 0, TBound = 0;
      if (const auto *TG = dyn_cast<GlobalVariable>(R.Target)) {
        Target = GlobalAddr[TG];
        TBase = Target;
        TBound = Target + TG->valueType()->sizeInBytes();
      } else if (const auto *TF = dyn_cast<Function>(R.Target)) {
        Target = FuncAddr[TF];
        TBase = TBound = Target; // Function-pointer encoding (§5.2).
      }
      Mem.write(Addr + R.Offset, 8, Target);
      // The paper initializes metadata for global pointer initializers with
      // constructor-style hooks; the loader is our equivalent.
      if (Cfg.Instrumented && Cfg.Meta)
        Cfg.Meta->update(Addr + R.Offset, TBase, TBound);
    }
    if (Cfg.Checker)
      Cfg.Checker->onAlloc(ObjectRegion::Global, Addr,
                           G->valueType()->sizeInBytes());
  }
}

RunResult VM::run(const std::string &EntryName,
                  const std::vector<int64_t> &Args) {
  LaneSpec Lane;
  Lane.Entry = EntryName;
  Lane.Args = Args;
  return runLanes({Lane}).front();
}

std::vector<RunResult> VM::runLanes(const std::vector<LaneSpec> &Lanes) {
  std::vector<RunResult> Results(Lanes.size());
  if (!LoadError.empty()) {
    for (RunResult &R : Results) {
      R.Trap = TrapKind::OutOfMemory;
      R.Message = LoadError;
    }
    return Results;
  }

  // Partition the stack segment into 16-aligned per-lane slices, top
  // lane first: lane 0 gets the highest addresses, and a single lane
  // gets the whole segment.
  uint64_t Top = Mem.stackTop();
  uint64_t Span =
      Lanes.empty() ? 0 : ((Top - Mem.stackLimit()) / Lanes.size()) & ~15ULL;
  auto RunLane = [&](size_t I) {
    const LaneSpec &L = Lanes[I];
    uint64_t LaneTop = Top - I * Span;
    VMExec Exec(*this, M, Cfg, Mem, LaneTop, LaneTop - Span, L.Profile,
                L.Telem, L.TraceTag);
    Results[I] = Exec.run(L.Entry, L.Args);
  };

  // One lane runs inline: no host thread, no concurrent mode.
  if (Lanes.size() == 1) {
    RunLane(0);
    return Results;
  }

  Mem.setConcurrent(true);
  std::vector<std::thread> Threads;
  Threads.reserve(Lanes.size());
  for (size_t I = 0; I < Lanes.size(); ++I)
    Threads.emplace_back(RunLane, I);
  for (auto &T : Threads)
    T.join();
  Mem.setConcurrent(false);
  return Results;
}

//===----------------------------------------------------------------------===//
// VMExec: frames
//===----------------------------------------------------------------------===//

bool VMExec::pushFrame(Function *F, const std::vector<VMVal> &Args,
                       const CallInst *CallSite) {
  assert(F->isDefinition() && "cannot push a frame for a declaration");
  if (Frames.size() >= Cfg.MaxFrames) {
    trap(TrapKind::StackOverflow, "frame limit exceeded in @" + F->name());
    return false;
  }

  Frame Fr;
  Fr.F = F;
  Fr.Gen = NextGen++;
  Fr.CallSite = CallSite;
  Fr.FrameTop = Frames.empty() ? StackTop : Frames.back().FrameLow;
  Fr.RetSlot = Fr.FrameTop - 8;
  Fr.FPSlot = Fr.FrameTop - 16;
  Fr.RetToken = RetTokenTag | Fr.Gen;
  Fr.SavedFP = Frames.empty() ? 0 : Frames.back().FrameTop;

  // Lay out allocas below the saved-FP word, in declaration order from high
  // to low addresses: the first local sits closest to the control data, so
  // an overflow of a later-declared buffer sweeps over earlier locals, then
  // the saved FP, then the return address — the classic stack smash.
  uint64_t Cur = Fr.FPSlot;
  std::vector<std::pair<const AllocaInst *, uint64_t>> AllocaAddrs;
  for (const auto &BB : F->blocks())
    for (const auto &I : *BB) {
      const auto *AI = dyn_cast<AllocaInst>(I.get());
      if (!AI)
        continue;
      uint64_t Size = AI->allocatedType()->sizeInBytes();
      uint64_t Align = AI->allocatedType()->alignment();
      if (Size > Cur - StackLimit) { // Would wrap below the slice.
        trap(TrapKind::StackOverflow, "stack exhausted in @" + F->name());
        return false;
      }
      Cur -= Size;
      Cur &= ~(Align - 1);
      AllocaAddrs.emplace_back(AI, Cur);
    }
  Fr.FrameLow = Cur & ~15ULL;
  if (Fr.FrameLow < StackLimit + 64) {
    trap(TrapKind::StackOverflow, "stack exhausted in @" + F->name());
    return false;
  }

  // Zero the locals area (deterministic runs) and install control words.
  Mem.zeroRange(Fr.FrameLow, Fr.FPSlot - Fr.FrameLow);
  Mem.write(Fr.RetSlot, 8, Fr.RetToken);
  Mem.write(Fr.FPSlot, 8, Fr.SavedFP);

  Fr.Regs.assign(F->numRegs(), VMVal());
  for (unsigned I = 0; I < F->numArgs() && I < Args.size(); ++I)
    Fr.Regs[F->arg(I)->slot()] = Args[I];

  for (auto &[AI, Addr] : AllocaAddrs) {
    Fr.Regs[AI->slot()] = VMVal{Addr, 0, 0};
    Fr.Allocas.emplace_back(Addr, AI->allocatedType()->sizeInBytes());
    if (Cfg.Checker)
      Cfg.Checker->onAlloc(ObjectRegion::Stack, Addr,
                           AI->allocatedType()->sizeInBytes());
  }

  Fr.BB = F->entry();
  Fr.IP = Fr.BB->begin();
  Fr.EntryCycle = C.Cycles;
  Frames.push_back(std::move(Fr));
  ++C.Calls;
  if (Frames.size() > C.MaxFrameDepth)
    C.MaxFrameDepth = Frames.size();
  return true;
}

void VMExec::popFrame(VMVal RetVal) {
  Frame Fr = std::move(Frames.back());
  Frames.pop_back();

  // Shallow frames become VM-phase trace events: timestamps are
  // simulated cycles (deterministic), duration is the frame's inclusive
  // cycle span. Deep recursion is capped by depth and the event buffer.
  if (Telem && Frames.size() < MaxTraceDepth)
    Telem->addCompleteEvent(traceName(Fr.F->name()), "vm", Telemetry::TidVM,
                            Fr.EntryCycle, C.Cycles - Fr.EntryCycle);

  if (Cfg.Checker)
    for (auto &[Addr, Size] : Fr.Allocas)
      Cfg.Checker->onFree(ObjectRegion::Stack, Addr, Size);

  // §5.2 "memory reuse and stale metadata": drop metadata for frame slots.
  if (Cfg.Instrumented && Cfg.Meta)
    C.Cycles += Cfg.Meta->clearRange(Fr.FrameLow, Fr.FrameTop - Fr.FrameLow);

  if (Frames.empty()) {
    Res.ExitCode = static_cast<int64_t>(RetVal.A);
    Halted = true;
    return;
  }
  if (Fr.CallSite) {
    Frame &Caller = Frames.back();
    if (Fr.CallSite->slot() >= 0)
      Caller.Regs[Fr.CallSite->slot()] = RetVal;
  }
}

//===----------------------------------------------------------------------===//
// VMExec: main loop
//===----------------------------------------------------------------------===//

RunResult VMExec::run(const std::string &EntryName,
                      const std::vector<int64_t> &Args) {
  Function *F = M.resolveEntry(EntryName);
  if (!F || !F->isDefinition()) {
    trap(TrapKind::Segfault, "entry function not found: " + EntryName);
    return Res;
  }
  std::vector<VMVal> ArgVals;
  for (int64_t A : Args)
    ArgVals.push_back(VMVal{static_cast<uint64_t>(A), 0, 0});
  if (pushFrame(F, ArgVals, nullptr))
    while (!Halted)
      step();

  if (Cfg.Meta)
    Res.MetadataMemory = Cfg.Meta->memoryBytes();
  Res.HeapHighWater = Mem.heapHighWater();

  if (Telem) {
    // One covering event for the whole run (frames live at halt — a trap
    // or exit() — never reached popFrame, so this is their summary too),
    // plus the aggregate counters for the report.
    Telem->addCompleteEvent(traceName("run:" + EntryName), "vm",
                            Telemetry::TidVM, 0, C.Cycles);
    for (const VMCounters::Field &F : VMCounters::Fields)
      Telem->counter(std::string("vm/") + F.Name) += C.*F.Member;
  }
  return Res;
}

void VMExec::step() {
  Frame &Fr = Frames.back();
  assert(Fr.IP != Fr.BB->end() && "fell off a basic block");
  Instruction &I = **Fr.IP;
  ++Fr.IP;

  if (isa<AllocaInst>(I))
    return; // Resolved at frame entry; models zero-cost frame setup.
  if (!isa<PhiInst>(I)) {
    if (++C.Insts > Cfg.StepLimit) {
      trap(TrapKind::StepLimit, "step limit exceeded " + where(I));
      return;
    }
    ++C.Cycles;
  }
  execute(I, Fr);
}

void VMExec::enterBlock(Frame &Fr, BasicBlock *To) {
  Fr.Prev = Fr.BB;
  Fr.BB = To;
  Fr.IP = To->begin();
  // Evaluate all phis as one parallel assignment.
  std::vector<std::pair<int, VMVal>> Pending;
  for (auto It = To->begin(); It != To->end(); ++It) {
    auto *P = dyn_cast<PhiInst>(It->get());
    if (!P)
      break;
    Value *In = P->incomingFor(Fr.Prev);
    assert(In && "phi has no incoming value for predecessor");
    Pending.emplace_back(P->slot(), eval(Fr, In));
    Fr.IP = std::next(It);
  }
  for (auto &[Slot, V] : Pending)
    if (Slot >= 0)
      Fr.Regs[Slot] = V;
}

void VMExec::execute(Instruction &I, Frame &Fr) {
  switch (I.kind()) {
  case ValueKind::Load: {
    auto &L = cast<LoadInst>(I);
    uint64_t Addr = eval(Fr, L.pointer()).A;
    unsigned Size = static_cast<unsigned>(I.type()->sizeInBytes());
    if (Cfg.Checker) {
      C.Cycles += Cfg.Checker->accessCost();
      if (!Cfg.Checker->checkAccess(Addr, Size, /*IsStore=*/false)) {
        trap(TrapKind::BaselineViolation,
             std::string(Cfg.Checker->name()) + ": load violation " +
                 where(I));
        return;
      }
    }
    uint64_t Raw;
    if (!Mem.read(Addr, Size, Raw)) {
      trap(TrapKind::Segfault, "load from unmapped address " + where(I));
      return;
    }
    ++C.Loads;
    if (I.type()->isPointer()) {
      ++C.PtrLoads;
      setResult(Fr, I, VMVal{Raw, 0, 0});
    } else {
      setResult(Fr, I,
                VMVal{canon(Raw, cast<IntType>(I.type())->bits()), 0, 0});
    }
    return;
  }
  case ValueKind::Store: {
    auto &S = cast<StoreInst>(I);
    uint64_t Addr = eval(Fr, S.pointer()).A;
    uint64_t Val = eval(Fr, S.value()).A;
    unsigned Size = static_cast<unsigned>(S.value()->type()->sizeInBytes());
    if (Cfg.Checker) {
      C.Cycles += Cfg.Checker->accessCost();
      if (!Cfg.Checker->checkAccess(Addr, Size, /*IsStore=*/true)) {
        trap(TrapKind::BaselineViolation,
             std::string(Cfg.Checker->name()) + ": store violation " +
                 where(I));
        return;
      }
    }
    if (!Mem.write(Addr, Size, Val)) {
      trap(TrapKind::Segfault, "store to unmapped address " + where(I));
      return;
    }
    ++C.Stores;
    if (S.value()->type()->isPointer())
      ++C.PtrStores;
    return;
  }
  case ValueKind::GEP: {
    auto &G = cast<GEPInst>(I);
    uint64_t Base = eval(Fr, G.pointer()).A;
    uint64_t Addr = Base;
    // Address arithmetic wraps modulo 2^64.
    G.walkLayout([&](const GEPStep &S) {
      Addr += S.isField() ? S.Bytes : eval(Fr, S.Index).A * S.Bytes;
      return true;
    });
    if (Cfg.Checker && !Cfg.Checker->checkDerive(Base, Addr)) {
      trap(TrapKind::BaselineViolation,
           std::string(Cfg.Checker->name()) +
               ": out-of-object pointer arithmetic " + where(I));
      return;
    }
    setResult(Fr, I, VMVal{Addr, 0, 0});
    return;
  }
  case ValueKind::BinOp: {
    auto &B = cast<BinOpInst>(I);
    unsigned Bits = cast<IntType>(I.type())->bits();
    uint64_t L = eval(Fr, B.lhs()).A;
    uint64_t R = eval(Fr, B.rhs()).A;
    uint64_t Out = 0;
    switch (B.opcode()) {
    case BinOpInst::Op::Add:
      Out = L + R;
      break;
    case BinOpInst::Op::Sub:
      Out = L - R;
      break;
    case BinOpInst::Op::Mul:
      Out = L * R;
      break;
    case BinOpInst::Op::SDiv:
    case BinOpInst::Op::SRem: {
      int64_t SL = static_cast<int64_t>(L), SR = static_cast<int64_t>(R);
      if (SR == 0) {
        trap(TrapKind::DivByZero, "division by zero " + where(I));
        return;
      }
      if (SL == INT64_MIN && SR == -1)
        Out = B.opcode() == BinOpInst::Op::SDiv ? static_cast<uint64_t>(SL)
                                                : 0;
      else
        Out = static_cast<uint64_t>(
            B.opcode() == BinOpInst::Op::SDiv ? SL / SR : SL % SR);
      break;
    }
    case BinOpInst::Op::UDiv:
    case BinOpInst::Op::URem: {
      uint64_t UL = maskTo(L, Bits), UR = maskTo(R, Bits);
      if (UR == 0) {
        trap(TrapKind::DivByZero, "division by zero " + where(I));
        return;
      }
      Out = B.opcode() == BinOpInst::Op::UDiv ? UL / UR : UL % UR;
      break;
    }
    case BinOpInst::Op::And:
      Out = L & R;
      break;
    case BinOpInst::Op::Or:
      Out = L | R;
      break;
    case BinOpInst::Op::Xor:
      Out = L ^ R;
      break;
    case BinOpInst::Op::Shl:
      Out = maskTo(L, Bits) << (R & (Bits - 1));
      break;
    case BinOpInst::Op::LShr:
      Out = maskTo(L, Bits) >> (R & (Bits - 1));
      break;
    case BinOpInst::Op::AShr:
      Out = static_cast<uint64_t>(static_cast<int64_t>(canon(L, Bits)) >>
                                  (R & (Bits - 1)));
      break;
    }
    setResult(Fr, I, VMVal{canon(Out, Bits), 0, 0});
    return;
  }
  case ValueKind::ICmp: {
    auto &Cmp = cast<ICmpInst>(I);
    unsigned Bits =
        Cmp.lhs()->type()->isPointer()
            ? 64
            : cast<IntType>(Cmp.lhs()->type())->bits();
    uint64_t L = eval(Fr, Cmp.lhs()).A;
    uint64_t R = eval(Fr, Cmp.rhs()).A;
    int64_t SL = static_cast<int64_t>(L), SR = static_cast<int64_t>(R);
    uint64_t UL = maskTo(L, Bits), UR = maskTo(R, Bits);
    bool Out = false;
    switch (Cmp.pred()) {
    case ICmpInst::Pred::EQ:
      Out = L == R;
      break;
    case ICmpInst::Pred::NE:
      Out = L != R;
      break;
    case ICmpInst::Pred::SLT:
      Out = SL < SR;
      break;
    case ICmpInst::Pred::SLE:
      Out = SL <= SR;
      break;
    case ICmpInst::Pred::SGT:
      Out = SL > SR;
      break;
    case ICmpInst::Pred::SGE:
      Out = SL >= SR;
      break;
    case ICmpInst::Pred::ULT:
      Out = UL < UR;
      break;
    case ICmpInst::Pred::ULE:
      Out = UL <= UR;
      break;
    case ICmpInst::Pred::UGT:
      Out = UL > UR;
      break;
    case ICmpInst::Pred::UGE:
      Out = UL >= UR;
      break;
    }
    setResult(Fr, I, VMVal{Out ? 1ULL : 0ULL, 0, 0});
    return;
  }
  case ValueKind::Cast: {
    auto &Ca = cast<CastInst>(I);
    uint64_t V = eval(Fr, Ca.source()).A;
    switch (Ca.opcode()) {
    case CastInst::Op::Bitcast:
    case CastInst::Op::IntToPtr:
      setResult(Fr, I, VMVal{V, 0, 0});
      return;
    case CastInst::Op::PtrToInt:
      setResult(Fr, I,
                VMVal{canon(V, cast<IntType>(I.type())->bits()), 0, 0});
      return;
    case CastInst::Op::Trunc:
    case CastInst::Op::SExt:
      setResult(Fr, I,
                VMVal{canon(V, cast<IntType>(I.type())->bits()), 0, 0});
      return;
    case CastInst::Op::ZExt: {
      unsigned SrcBits = cast<IntType>(Ca.source()->type())->bits();
      setResult(Fr, I, VMVal{maskTo(V, SrcBits), 0, 0});
      return;
    }
    }
    return;
  }
  case ValueKind::Select: {
    auto &S = cast<SelectInst>(I);
    uint64_t Cond = eval(Fr, S.condition()).A;
    setResult(Fr, I, eval(Fr, Cond & 1 ? S.ifTrue() : S.ifFalse()));
    return;
  }
  case ValueKind::Phi:
    sb_unreachable("phi executed outside enterBlock");
  case ValueKind::Call: {
    auto &Call = cast<CallInst>(I);
    Function *Callee = Call.calledFunction();
    if (!Callee) {
      uint64_t Addr = eval(Fr, Call.callee()).A;
      Callee = funcAt(Addr);
      if (!Callee) {
        trap(TrapKind::BadIndirectCall,
             "indirect call to non-function address " + where(I));
        return;
      }
    }
    if (Callee->isBuiltin()) {
      const BuiltinRow &R = builtinRow(Callee->builtin());
      // A function pointer cast to a type with fewer parameters.
      if (Call.numArgs() < R.numParams()) {
        trap(TrapKind::BadIndirectCall, "call to @" + Callee->name() +
                                            " with too few arguments " +
                                            where(I));
        return;
      }
      // Reached through a pointer from instrumented code, a builtin runs
      // its checked variant when the caller appended its bounds in §3.3
      // order (memcpy copies metadata: a pointer-free source cannot be
      // proven here).
      BuiltinVariant V = Callee->builtinVariant();
      if (V == BuiltinVariant::Plain && Cfg.Instrumented &&
          !Call.calledFunction() &&
          Call.numArgs() == R.boundsArg(R.numParams()))
        V = BuiltinVariant::Checked;
      execBuiltin(Fr, Call, Callee->builtin(), V);
      return;
    }
    if (!Callee->isDefinition()) {
      trap(TrapKind::BadIndirectCall,
           "call to undefined function @" + Callee->name());
      return;
    }
    std::vector<VMVal> Args;
    Args.reserve(Call.numArgs());
    for (unsigned K = 0; K < Call.numArgs(); ++K)
      Args.push_back(eval(Fr, Call.arg(K)));
    pushFrame(Callee, Args, &Call);
    return;
  }
  case ValueKind::Ret: {
    auto &R = cast<RetInst>(I);
    VMVal V = R.hasValue() ? eval(Fr, R.value()) : VMVal();
    // Validate the in-memory control words: the attack surface.
    uint64_t RetWord = 0, FPWord = 0;
    Mem.read(Fr.RetSlot, 8, RetWord);
    Mem.read(Fr.FPSlot, 8, FPWord);
    if (RetWord != Fr.RetToken) {
      if (Function *Target = funcAt(RetWord))
        hijack(Target->name());
      else
        trap(TrapKind::CorruptedReturn,
             "return address corrupted in @" + Fr.F->name());
      return;
    }
    if (FPWord != Fr.SavedFP) {
      if (Function *Target = funcAt(FPWord))
        hijack(Target->name());
      else
        trap(TrapKind::CorruptedFrame,
             "saved frame pointer corrupted in @" + Fr.F->name());
      return;
    }
    popFrame(V);
    return;
  }
  case ValueKind::Br: {
    auto &B = cast<BrInst>(I);
    BasicBlock *To = B.isConditional()
                         ? (eval(Fr, B.condition()).A & 1 ? B.successor(0)
                                                          : B.successor(1))
                         : B.successor(0);
    enterBlock(Fr, To);
    return;
  }
  case ValueKind::Unreachable:
    trap(TrapKind::UnreachableExecuted, "unreachable executed " + where(I));
    return;

  //===------------------------------------------------------------------===//
  // SoftBound instrumentation
  //===------------------------------------------------------------------===//

  case ValueKind::MakeBounds: {
    auto &B = cast<MakeBoundsInst>(I);
    setResult(Fr, I,
              VMVal{eval(Fr, B.base()).A, eval(Fr, B.bound()).A, 0});
    return;
  }
  case ValueKind::SpatialCheck: {
    auto &Chk = cast<SpatialCheckInst>(I);
    SiteCounters *SC = siteOf(I);
    if (Value *G = Chk.guard()) {
      // Guarded check: the guard test costs one simulated instruction on
      // every execution; the check itself only runs (and only counts as a
      // dynamic check) when the guard is true — so a hull whose window
      // guard failed falls back to honest per-iteration check accounting,
      // and a skipped fallback costs its one-cycle test, not a free ride.
      ++C.CheckGuards;
      C.Cycles += 1;
      if ((eval(Fr, G).A & 1) == 0) {
        ++C.GuardSkips;
        if (SC)
          ++SC->GuardElided;
        return;
      }
      if (SC)
        ++SC->FallbackFired;
    }
    VMVal P = eval(Fr, Chk.pointer());
    VMVal B = eval(Fr, Chk.bounds());
    ++C.Checks;
    C.Cycles += Cfg.CheckCost;
    if (SC)
      ++SC->Executed;
    if (P.A < B.A || P.A + Chk.accessSize() > B.B) {
      if (SC)
        ++SC->Traps;
      trap(TrapKind::SpatialViolation,
           std::string("softbound: out-of-bounds ") +
               (Chk.isStoreCheck() ? "store" : "load") + " " + where(I));
    }
    return;
  }
  case ValueKind::FuncPtrCheck: {
    auto &Chk = cast<FuncPtrCheckInst>(I);
    SiteCounters *SC = siteOf(I);
    VMVal P = eval(Fr, Chk.pointer());
    VMVal B = eval(Fr, Chk.bounds());
    ++C.FuncPtrChecks;
    C.Cycles += Cfg.CheckCost;
    if (SC)
      ++SC->Executed;
    if (!(B.A == B.B && B.A == P.A && P.A != 0)) {
      if (SC)
        ++SC->Traps;
      trap(TrapKind::FuncPtrViolation,
           "softbound: indirect call through non-function pointer " +
               where(I));
    }
    return;
  }
  case ValueKind::MetaLoad: {
    auto &ML = cast<MetaLoadInst>(I);
    assert(Cfg.Meta && "meta.load without a metadata facility");
    Bounds B = Cfg.Meta->lookup(eval(Fr, ML.address()).A);
    ++C.MetaLoads;
    C.Cycles += Cfg.Meta->lookupCost();
    if (SiteCounters *SC = siteOf(I))
      ++SC->Executed;
    setResult(Fr, I, VMVal{B.Base, B.Bound, 0});
    return;
  }
  case ValueKind::MetaStore: {
    auto &MS = cast<MetaStoreInst>(I);
    assert(Cfg.Meta && "meta.store without a metadata facility");
    VMVal B = eval(Fr, MS.bounds());
    Cfg.Meta->update(eval(Fr, MS.address()).A, B.A, B.B);
    ++C.MetaStores;
    C.Cycles += Cfg.Meta->updateCost();
    if (SiteCounters *SC = siteOf(I))
      ++SC->Executed;
    return;
  }
  case ValueKind::PackPB: {
    auto &P = cast<PackPBInst>(I);
    VMVal Ptr = eval(Fr, P.pointer());
    VMVal B = eval(Fr, P.bounds());
    setResult(Fr, I, VMVal{Ptr.A, B.A, B.B});
    return;
  }
  case ValueKind::ExtractPtr:
    setResult(Fr, I, VMVal{eval(Fr, cast<ExtractPtrInst>(I).pair()).A, 0, 0});
    return;
  case ValueKind::ExtractBounds: {
    VMVal PP = eval(Fr, cast<ExtractBoundsInst>(I).pair());
    setResult(Fr, I, VMVal{PP.B, PP.C, 0});
    return;
  }
  default:
    sb_unreachable("unhandled instruction kind");
  }
}

//===----------------------------------------------------------------------===//
// VMExec: builtins
//===----------------------------------------------------------------------===//

uint64_t VMExec::simStrlenAt(uint64_t Addr, bool &Ok) {
  Ok = true;
  for (uint64_t N = 0; N < (1u << 20); ++N) {
    uint64_t Byte;
    if (!Mem.read(Addr + N, 1, Byte)) {
      Ok = false;
      return N;
    }
    if (Byte == 0)
      return N;
  }
  Ok = false;
  return 0;
}

/// The checked variant's check of \p N bytes through parameter \p Param
/// against the bounds the caller appended for it (§3.3): a load or a
/// store check, as the builtin's row declares.
bool VMExec::wrapperCheck(const BuiltinRow &R, unsigned Param, uint64_t N,
                          const std::vector<VMVal> &A) {
  bool IsStore = R.Checks[Param] == BuiltinAccess::Store;
  if (Cfg.Wrappers == WrapperMode::None ||
      (!IsStore && Cfg.Wrappers != WrapperMode::Full))
    return true;
  ++C.Checks;
  C.Cycles += Cfg.CheckCost;
  uint64_t Ptr = A[Param].A;
  if (Ptr >= A[R.boundsArg(Param)].A && Ptr + N <= A[R.boundsArg(Param)].B)
    return true;
  trap(TrapKind::SpatialViolation, std::string("softbound: out-of-bounds ") +
                                       (IsStore ? "store" : "load") + " in " +
                                       R.Name + " wrapper");
  return false;
}

void VMExec::unwindFramesAbove(size_t KeepIdx) {
  while (Frames.size() > KeepIdx + 1) {
    Frame &Dead = Frames.back();
    if (Cfg.Checker)
      for (auto &[Addr, Size] : Dead.Allocas)
        Cfg.Checker->onFree(ObjectRegion::Stack, Addr, Size);
    if (Cfg.Instrumented && Cfg.Meta)
      C.Cycles +=
          Cfg.Meta->clearRange(Dead.FrameLow, Dead.FrameTop - Dead.FrameLow);
    Frames.pop_back();
  }
}

bool VMExec::recoverToGuard(TrapKind K) {
  if (GuardRec.FrameIdx >= Frames.size() ||
      Frames[GuardRec.FrameIdx].Gen != GuardRec.FrameGen)
    return false;
  unwindFramesAbove(GuardRec.FrameIdx);
  Frame &Target = Frames.back();
  Target.BB = GuardRec.BB;
  Target.IP = GuardRec.IP;
  if (GuardRec.ResultSlot >= 0)
    Target.Regs[GuardRec.ResultSlot] =
        VMVal{K == TrapKind::SpatialViolation ? 1ULL : 2ULL, 0, 0};
  RequestTrap = K;
  C.Cycles += 20; // Unwind, priced like longjmp.
  return true;
}

void VMExec::execBuiltin(Frame &Fr, const CallInst &CI, Builtin B,
                         BuiltinVariant Variant) {
  const BuiltinRow &R = builtinRow(B);
  bool Checked = Variant != BuiltinVariant::Plain;
  ++C.Calls;
  std::vector<VMVal> A;
  A.reserve(CI.numArgs());
  for (unsigned K = 0; K < CI.numArgs(); ++K)
    A.push_back(eval(Fr, CI.arg(K)));
  auto Ret = [&](VMVal V) {
    if (CI.slot() >= 0)
      Fr.Regs[CI.slot()] = V;
  };
  // A caller expecting a ptrpair gets the bounds the row's rule gives;
  // null bounds when that rule needs bounds the caller did not pass.
  auto RetPtr = [&](uint64_t P) {
    if (!CI.type()->isPtrPair())
      return Ret(VMVal{P, 0, 0});
    switch (R.Result) {
    case ResultBounds::None:
      return Ret(VMVal{P, 0, 0});
    case ResultBounds::Arg0:
      if (!Checked)
        return Ret(VMVal{P, 0, 0});
      return Ret(VMVal{P, A[R.boundsArg(0)].A, A[R.boundsArg(0)].B});
    case ResultBounds::Alloc:
      return Ret(VMVal{P, P, P ? P + A[0].A : 0});
    case ResultBounds::SetBound:
      return Ret(VMVal{P, P, P + A[1].A});
    case ResultBounds::Unbounded:
      return Ret(VMVal{P, 0, INT64_MAX});
    }
  };
  // The fixed-size object (jmp_buf) the SoftBound pass checks inline at a
  // direct call.
  if (Checked && R.InlineCheckBytes &&
      !wrapperCheck(R, 0, R.InlineCheckBytes, A))
    return;

  switch (B) {
  case Builtin::None:
    sb_unreachable("dispatched a non-builtin");
  case Builtin::Malloc: {
    uint64_t Size = A[0].A;
    uint64_t Addr =
        Mem.heapAlloc(Size, Cfg.Checker ? Cfg.Checker->heapPad() : 0);
    C.Cycles += 30;
    if (Addr && Cfg.Checker)
      Cfg.Checker->onAlloc(ObjectRegion::Heap, Addr, Size);
    RetPtr(Addr);
    return;
  }
  case Builtin::Free: {
    uint64_t Addr = A[0].A;
    C.Cycles += 20;
    if (Addr == 0)
      return;
    uint64_t Size = Mem.heapFree(Addr);
    if (Size == UINT64_MAX) {
      trap(TrapKind::InvalidFree, "free of a non-heap address");
      return;
    }
    if (Cfg.Checker)
      Cfg.Checker->onFree(ObjectRegion::Heap, Addr, Size);
    // §5.2: clear metadata when the freed block could have held pointers.
    if (Cfg.Instrumented && Cfg.Meta)
      C.Cycles += Cfg.Meta->clearRange(Addr, Size);
    return;
  }
  case Builtin::Memcpy: {
    uint64_t Dst = A[0].A, Src = A[1].A, N = A[2].A;
    // §5.2: bounds of source and target checked once, before the copy.
    if (Checked && (!wrapperCheck(R, 0, N, A) || !wrapperCheck(R, 1, N, A)))
      return;
    if (!checkNative(Src, N, /*IsStore=*/false, R.Name) ||
        !checkNative(Dst, N, /*IsStore=*/true, R.Name))
      return;
    std::vector<uint8_t> Buf(N);
    if (!Mem.readBytes(Src, N, Buf.data()) ||
        !Mem.writeBytes(Dst, N, Buf.data())) {
      trap(TrapKind::Segfault, "memcpy touches unmapped memory");
      return;
    }
    C.Cycles += 10 + N / 8;
    if (Variant == BuiltinVariant::Checked && Cfg.Meta) {
      // Scan every source slot for metadata and mirror it (§5.2).
      uint64_t Moved = Cfg.Meta->copyRange(Dst, Src, N);
      C.Cycles += (N / 8) * Cfg.Meta->lookupCost() +
                  Moved * Cfg.Meta->updateCost();
    } else if (Variant == BuiltinVariant::CheckedNoMeta && Cfg.Meta) {
      // §5.2 pointer-free inference: no per-slot scan; the destination
      // shadow region is bulk-cleared (memset-like, ~1 insn per slot).
      Cfg.Meta->clearRange(Dst, N);
      C.Cycles += N / 8;
    }
    RetPtr(Dst);
    return;
  }
  case Builtin::Memset: {
    uint64_t Dst = A[0].A, Fill = A[1].A & 0xff, N = A[2].A;
    if (Checked && !wrapperCheck(R, 0, N, A))
      return;
    if (!checkNative(Dst, N, /*IsStore=*/true, R.Name))
      return;
    std::vector<uint8_t> Buf(N, static_cast<uint8_t>(Fill));
    if (!Mem.writeBytes(Dst, N, Buf.data())) {
      trap(TrapKind::Segfault, "memset touches unmapped memory");
      return;
    }
    C.Cycles += 10 + N / 8;
    if (Cfg.Instrumented && Cfg.Meta)
      C.Cycles += Cfg.Meta->clearRange(Dst, N);
    RetPtr(Dst);
    return;
  }
  case Builtin::Strlen: {
    bool Ok;
    uint64_t N = simStrlenAt(A[0].A, Ok);
    if (!Ok) {
      trap(TrapKind::Segfault, "strlen ran off mapped memory");
      return;
    }
    if ((Checked && !wrapperCheck(R, 0, N + 1, A)) ||
        !checkNative(A[0].A, N + 1, /*IsStore=*/false, R.Name))
      return;
    C.Cycles += 2 + N;
    Ret(VMVal{N, 0, 0});
    return;
  }
  case Builtin::Strcpy:
  case Builtin::Strcat: {
    // strcat writes at the destination's terminator, strcpy at offset 0.
    bool Cat = B == Builtin::Strcat;
    uint64_t Dst = A[0].A, Src = A[1].A;
    bool DOk = true, Ok;
    uint64_t DN = Cat ? simStrlenAt(Dst, DOk) : 0;
    uint64_t SN = simStrlenAt(Src, Ok);
    if (!Ok || !DOk) {
      trap(TrapKind::Segfault,
           Cat ? "strcat operand not NUL-terminated"
               : "strcpy source not NUL-terminated in memory");
      return;
    }
    if (Checked && (!wrapperCheck(R, 1, SN + 1, A) ||
                    !wrapperCheck(R, 0, DN + SN + 1, A)))
      return;
    if (!checkNative(Src, SN + 1, /*IsStore=*/false, R.Name) ||
        !checkNative(Dst, DN + SN + 1, /*IsStore=*/true, R.Name))
      return;
    std::vector<uint8_t> Buf(SN + 1);
    Mem.readBytes(Src, SN + 1, Buf.data());
    if (!Mem.writeBytes(Dst + DN, SN + 1, Buf.data())) {
      trap(TrapKind::Segfault, std::string(R.Name) + " writes unmapped memory");
      return;
    }
    C.Cycles += 10 + DN + SN;
    if (!Cat && Cfg.Instrumented && Cfg.Meta)
      C.Cycles += Cfg.Meta->clearRange(Dst, SN + 1);
    RetPtr(Dst);
    return;
  }
  case Builtin::Strcmp: {
    uint64_t P = A[0].A, Q = A[1].A;
    int64_t Out = 0;
    uint64_t N = 0;
    for (;; ++N) {
      uint64_t X, Y;
      if (!Mem.read(P + N, 1, X) || !Mem.read(Q + N, 1, Y)) {
        trap(TrapKind::Segfault, "strcmp ran off mapped memory");
        return;
      }
      if (X != Y) {
        Out = X < Y ? -1 : 1;
        break;
      }
      if (X == 0)
        break;
    }
    // Each operand had N + 1 bytes read: the equal prefix plus the byte
    // that differed or ended both strings.
    if (Checked &&
        (!wrapperCheck(R, 0, N + 1, A) || !wrapperCheck(R, 1, N + 1, A)))
      return;
    if (!checkNative(P, N + 1, /*IsStore=*/false, R.Name) ||
        !checkNative(Q, N + 1, /*IsStore=*/false, R.Name))
      return;
    C.Cycles += 2 + N;
    Ret(VMVal{static_cast<uint64_t>(Out), 0, 0});
    return;
  }
  case Builtin::PrintInt:
    C.Cycles += 5;
    emit(std::to_string(static_cast<int64_t>(A[0].A)));
    return;
  case Builtin::PrintChar:
    C.Cycles += 5;
    emit(std::string(1, static_cast<char>(A[0].A & 0xff)));
    return;
  case Builtin::PrintStr: {
    bool Ok;
    uint64_t N = simStrlenAt(A[0].A, Ok);
    if (!Ok) {
      trap(TrapKind::Segfault, "print_str of non-terminated string");
      return;
    }
    if (!checkNative(A[0].A, N + 1, /*IsStore=*/false, R.Name))
      return;
    std::vector<uint8_t> Buf(N);
    Mem.readBytes(A[0].A, N, Buf.data());
    C.Cycles += 5 + N;
    emit(std::string(Buf.begin(), Buf.end()));
    return;
  }
  case Builtin::Exit:
    Res.ExitCode = static_cast<int64_t>(canon(A[0].A, 32));
    Halted = true;
    return;
  case Builtin::Rand:
    C.Cycles += 5;
    Ret(VMVal{Rand.next() >> 1, 0, 0});
    return;
  case Builtin::Srand:
    Rand = RNG(A[0].A);
    return;
  case Builtin::Setjmp: {
    uint64_t Buf = A[0].A;
    uint64_t Token = NextJmpToken++;
    if (!Mem.write(Buf, 8, JmpMagic) || !Mem.write(Buf + 8, 8, Token) ||
        !Mem.write(Buf + 16, 8, 0) || !Mem.write(Buf + 24, 8, 0)) {
      trap(TrapKind::Segfault, "setjmp buffer unmapped");
      return;
    }
    C.Cycles += 10;
    JmpRecords.push_back(JmpRecord{Token, Frames.size() - 1, Fr.Gen, Fr.BB,
                                   Fr.IP, CI.slot()});
    Ret(VMVal{0, 0, 0});
    return;
  }
  case Builtin::Longjmp: {
    uint64_t Buf = A[0].A;
    uint64_t V = A[1].A;
    uint64_t Magic = 0, Token = 0, Pc = 0;
    if (!Mem.read(Buf, 8, Magic) || !Mem.read(Buf + 8, 8, Token) ||
        !Mem.read(Buf + 16, 8, Pc)) {
      trap(TrapKind::Segfault, "longjmp buffer unmapped");
      return;
    }
    C.Cycles += 20;
    // A corrupted PC field models the classic jmp_buf attack target.
    if (Pc != 0) {
      if (Function *Target = funcAt(Pc))
        hijack(Target->name());
      else
        trap(TrapKind::CorruptedJmpBuf, "longjmp PC field corrupted");
      return;
    }
    if (Magic != JmpMagic) {
      trap(TrapKind::CorruptedJmpBuf, "longjmp buffer magic corrupted");
      return;
    }
    const JmpRecord *Rec = nullptr;
    for (const auto &R : JmpRecords)
      if (R.Token == Token)
        Rec = &R;
    if (!Rec || Rec->FrameIdx >= Frames.size() ||
        Frames[Rec->FrameIdx].Gen != Rec->FrameGen) {
      trap(TrapKind::CorruptedJmpBuf,
           "longjmp to a frame that is no longer live");
      return;
    }
    unwindFramesAbove(Rec->FrameIdx);
    Frame &Target = Frames.back();
    Target.BB = Rec->BB;
    Target.IP = Rec->IP;
    if (Rec->ResultSlot >= 0)
      Target.Regs[Rec->ResultSlot] = VMVal{V == 0 ? 1 : V, 0, 0};
    return;
  }
  case Builtin::RequestGuard:
    // Arms (or re-arms) the request-window resume point right after this
    // call: returns 0 now, or the contained-trap code (1 = spatial,
    // 2 = function-pointer) when a violation unwinds back here.
    C.Cycles += 2;
    GuardRec =
        JmpRecord{0, Frames.size() - 1, Fr.Gen, Fr.BB, Fr.IP, CI.slot()};
    GuardArmed = true;
    Ret(VMVal{0, 0, 0});
    return;
  case Builtin::RequestEnd: {
    // Closes the current request window: records the counter delta and
    // the contained trap (if any), then disarms the guard so traps
    // between requests stay fatal.
    C.Cycles += 2;
    RequestSample S;
    S.Delta = C.since(RequestMark);
    S.Trap = RequestTrap;
    Res.Requests.push_back(S);
    RequestMark = C;
    RequestTrap = TrapKind::None;
    GuardArmed = false;
    return;
  }
  case Builtin::SetBound:
  case Builtin::Unbound:
    // Identity; the bounds come from the row's rule (§5.2).
    RetPtr(A[0].A);
    return;
  }
  sb_unreachable("covered switch");
}

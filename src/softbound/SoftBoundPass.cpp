//===- softbound/SoftBoundPass.cpp - the SoftBound transformation -----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "softbound/SoftBoundPass.h"

#include "opt/Dominators.h"
#include "opt/Passes.h"
#include "support/Compiler.h"

#include <map>
#include <set>

using namespace softbound;

namespace {

/// True if values of \p Ty can contain pointers (drives the §5.2 memcpy
/// metadata inference).
bool typeContainsPointer(const Type *Ty) {
  if (Ty->isPointer())
    return true;
  if (const auto *AT = dyn_cast<ArrayType>(Ty))
    return typeContainsPointer(AT->element());
  if (const auto *ST = dyn_cast<StructType>(Ty)) {
    for (unsigned I = 0; I < ST->numFields(); ++I)
      if (typeContainsPointer(ST->field(I)))
        return true;
  }
  return false;
}

/// The whole-module transformation driver.
class SoftBoundTransform {
public:
  SoftBoundTransform(Module &M, const SoftBoundConfig &Cfg)
      : M(M), Ctx(M.ctx()), Cfg(Cfg) {}

  SoftBoundStats run();

private:
  //===--------------------------------------------------------------------===//
  // Phase 1: signature rewriting (§3.3)
  //===--------------------------------------------------------------------===//

  void rewriteSignature(Function &F);
  FunctionType *transformedType(FunctionType *FTy);

  //===--------------------------------------------------------------------===//
  // Phase 2: per-function instrumentation
  //===--------------------------------------------------------------------===//

  void instrumentFunction(Function &F);

  /// Returns the bounds SSA value for pointer \p V, materializing constant
  /// bounds in the entry block on first use.
  Value *getBounds(Value *V);

  /// Inserts \p I before \p Where in \p BB, marks it synthetic (so the
  /// walk does not re-instrument it), and returns it.
  template <typename T>
  T *insertBefore(BasicBlock *BB, BasicBlock::iterator Where, T *I) {
    Synthetic.insert(I);
    BB->insertBefore(Where, std::unique_ptr<Instruction>(I));
    return I;
  }

  Value *makeNullBounds();
  Value *makeUnboundedBounds();

  // Per-instruction handlers; each may insert around *It and may erase the
  // current instruction (returning the next iterator position).
  void handleAlloca(AllocaInst *AI, BasicBlock *BB, BasicBlock::iterator It);
  void handleLoad(LoadInst *LI, BasicBlock *BB, BasicBlock::iterator It);
  void handleStore(StoreInst *SI, BasicBlock *BB, BasicBlock::iterator It);
  void handleGEP(GEPInst *GI, BasicBlock *BB, BasicBlock::iterator It);
  void handleCast(CastInst *CI, BasicBlock *BB, BasicBlock::iterator It);
  void handleSelect(SelectInst *SI, BasicBlock *BB, BasicBlock::iterator It);
  void handlePhi(PhiInst *PI, BasicBlock *BB, BasicBlock::iterator It);
  void handleRet(RetInst *RI, BasicBlock *BB, BasicBlock::iterator It);
  BasicBlock::iterator handleCall(CallInst *CI, BasicBlock *BB,
                                  BasicBlock::iterator It);
  BasicBlock::iterator handleBuiltinCall(CallInst *CI, Function *Callee,
                                         BasicBlock *BB,
                                         BasicBlock::iterator It);
  /// Inserts before \p It the §3.3 form of \p CI, calling \p Callee of
  /// type \p Ty: the original arguments, then one bounds per pointer
  /// argument, in order.
  CallInst *insertBoundsCall(CallInst *CI, Value *Callee, FunctionType *Ty,
                             BasicBlock *BB, BasicBlock::iterator It);

  Module &M;
  TypeContext &Ctx;
  const SoftBoundConfig &Cfg;
  SoftBoundStats Stats;

  // Phase-1 records.
  struct FnInfo {
    Type *OrigRetTy = nullptr;
    unsigned OrigNumParams = 0;
  };
  std::map<Function *, FnInfo> Transformed;
  std::map<FunctionType *, FunctionType *> TypeCache;

  // Phase-2 per-function state.
  std::set<Instruction *> Synthetic;
  Function *CurF = nullptr;
  std::map<Value *, Value *> BoundsOf;
  std::map<Value *, Value *> ConstBoundsCache;
  std::vector<std::pair<PhiInst *, PhiInst *>> PendingPhis; // ptr-phi, b-phi
  Value *NullBounds = nullptr;
  Value *UnboundedBounds = nullptr;
};

//===----------------------------------------------------------------------===//
// Phase 1
//===----------------------------------------------------------------------===//

FunctionType *SoftBoundTransform::transformedType(FunctionType *FTy) {
  auto It = TypeCache.find(FTy);
  if (It != TypeCache.end())
    return It->second;
  std::vector<Type *> Params(FTy->params());
  for (auto *P : FTy->params())
    if (P->isPointer())
      Params.push_back(Ctx.boundsTy());
  Type *Ret = FTy->returnType()->isPointer() ? Ctx.ptrPairTy()
                                             : FTy->returnType();
  FunctionType *NewTy = Ctx.funcTy(Ret, std::move(Params), FTy->isVarArg());
  TypeCache[FTy] = NewTy;
  return NewTy;
}

void SoftBoundTransform::rewriteSignature(Function &F) {
  FnInfo Info;
  Info.OrigRetTy = F.returnType();
  Info.OrigNumParams = F.numArgs();

  FunctionType *NewTy = transformedType(F.functionType());
  // Append one bounds argument per original pointer argument, in order.
  for (unsigned I = 0; I < Info.OrigNumParams; ++I) {
    if (!F.arg(I)->type()->isPointer())
      continue;
    F.appendArg(Ctx.boundsTy(), F.arg(I)->name() + ".bounds", NewTy);
  }
  F.setFunctionType(NewTy);
  M.renameFunction(&F, "_sb_" + F.name());
  F.setTransformed();
  Transformed[&F] = Info;
  ++Stats.FunctionsTransformed;
}

//===----------------------------------------------------------------------===//
// Bounds sources
//===----------------------------------------------------------------------===//

Value *SoftBoundTransform::makeNullBounds() {
  if (!NullBounds) {
    auto *MB = new MakeBoundsInst(Ctx.boundsTy(), M.constI64(0),
                                  M.constI64(0), "nullb");
    Synthetic.insert(MB);
    BasicBlock *Entry = CurF->entry();
    Entry->insertBefore(Entry->begin(), std::unique_ptr<Instruction>(MB));
    NullBounds = MB;
  }
  return NullBounds;
}

Value *SoftBoundTransform::makeUnboundedBounds() {
  if (!UnboundedBounds) {
    auto *MB = new MakeBoundsInst(Ctx.boundsTy(), M.constI64(0),
                                  M.constI64(INT64_MAX), "unboundb");
    Synthetic.insert(MB);
    BasicBlock *Entry = CurF->entry();
    Entry->insertBefore(Entry->begin(), std::unique_ptr<Instruction>(MB));
    UnboundedBounds = MB;
  }
  return UnboundedBounds;
}

Value *SoftBoundTransform::getBounds(Value *V) {
  auto It = BoundsOf.find(V);
  if (It != BoundsOf.end())
    return It->second;

  // Constants: materialize in the entry block once per function.
  auto CIt = ConstBoundsCache.find(V);
  if (CIt != ConstBoundsCache.end())
    return CIt->second;

  BasicBlock *Entry = CurF->entry();
  auto InsertEntry = [&](Instruction *I) {
    Synthetic.insert(I);
    Entry->insertBefore(Entry->begin(), std::unique_ptr<Instruction>(I));
    return I;
  };

  if (auto *G = dyn_cast<GlobalVariable>(V)) {
    // Global objects: base = &g, bound = &g + sizeof(g) (§3.1).
    auto *End = new GEPInst(Ctx.ptrTo(G->valueType()), G->valueType(), G,
                            {M.constI64(1)}, G->name() + ".end");
    auto *MB =
        new MakeBoundsInst(Ctx.boundsTy(), G, End, G->name() + ".bnd");
    InsertEntry(MB);
    InsertEntry(End); // Inserted before MB (both prepend to entry).
    ConstBoundsCache[V] = MB;
    return MB;
  }
  if (auto *F = dyn_cast<Function>(V)) {
    // Function pointers use the base == bound == ptr encoding (§5.2).
    auto *MB = new MakeBoundsInst(Ctx.boundsTy(), F, F, F->name() + ".fb");
    InsertEntry(MB);
    ConstBoundsCache[V] = MB;
    return MB;
  }
  if (isa<ConstantNull>(V) || isa<ConstantUndef>(V)) {
    ConstBoundsCache[V] = makeNullBounds();
    return ConstBoundsCache[V];
  }

  // Non-constant pointer without recorded bounds: conservative null bounds
  // (any dereference traps). This matches the paper's default for pointers
  // manufactured from integers (§5.2).
  return makeNullBounds();
}

//===----------------------------------------------------------------------===//
// Instruction handlers
//===----------------------------------------------------------------------===//

void SoftBoundTransform::handleAlloca(AllocaInst *AI, BasicBlock *BB,
                                      BasicBlock::iterator It) {
  auto Next = std::next(It);
  auto *End = insertBefore(
      BB, Next,
      new GEPInst(Ctx.ptrTo(AI->allocatedType()), AI->allocatedType(), AI,
                  {M.constI64(1)}, AI->name() + ".end"));
  auto *MB = insertBefore(BB, Next,
                          new MakeBoundsInst(Ctx.boundsTy(), AI, End,
                                             AI->name() + ".bnd"));
  BoundsOf[AI] = MB;
}

void SoftBoundTransform::handleLoad(LoadInst *LI, BasicBlock *BB,
                                    BasicBlock::iterator It) {
  Value *Ptr = LI->pointer();
  // Scalar local/global direct accesses are not C-level pointer
  // dereferences; the compiler generates them correctly (§3.1).
  bool DirectScalar = isa<AllocaInst>(Ptr) || isa<GlobalVariable>(Ptr);
  if (!DirectScalar && Cfg.Mode == CheckMode::Full) {
    insertBefore(BB, It,
                 new SpatialCheckInst(Ctx.voidTy(), Ptr, getBounds(Ptr),
                                      LI->type()->sizeInBytes(),
                                      /*IsStore=*/false));
    ++Stats.ChecksInserted;
  }
  if (LI->type()->isPointer()) {
    // §3.2: pointer load pulls bounds from the disjoint metadata space.
    auto *ML = insertBefore(BB, std::next(It),
                            new MetaLoadInst(Ctx.boundsTy(), Ptr,
                                             LI->name() + ".mb"));
    BoundsOf[LI] = ML;
    ++Stats.MetaLoadsInserted;
  }
}

void SoftBoundTransform::handleStore(StoreInst *SI, BasicBlock *BB,
                                     BasicBlock::iterator It) {
  Value *Ptr = SI->pointer();
  bool DirectScalar = isa<AllocaInst>(Ptr) || isa<GlobalVariable>(Ptr);
  if (!DirectScalar && Cfg.Mode != CheckMode::None) {
    insertBefore(BB, It,
                 new SpatialCheckInst(Ctx.voidTy(), Ptr, getBounds(Ptr),
                                      SI->value()->type()->sizeInBytes(),
                                      /*IsStore=*/true));
    ++Stats.ChecksInserted;
  }
  if (SI->value()->type()->isPointer()) {
    // §3.2: pointer store records bounds in the disjoint metadata space.
    insertBefore(BB, std::next(It),
                 new MetaStoreInst(Ctx.voidTy(), Ptr,
                                   getBounds(SI->value())));
    ++Stats.MetaStoresInserted;
  }
}

void SoftBoundTransform::handleGEP(GEPInst *GI, BasicBlock *BB,
                                   BasicBlock::iterator It) {
  // §3.1: pointer arithmetic inherits bounds — except struct-field
  // derivations, which shrink to the field (sub-object protection).
  if (!Cfg.ShrinkBounds || !GI->isStructFieldAccess()) {
    BoundsOf[GI] = getBounds(GI->pointer());
    return;
  }

  // Find the index prefix ending at the last struct-field step; the bounds
  // become [&field, &field + sizeof(field)).
  unsigned Pos = 0, LastStructStep = 0; // Index positions.
  Type *FieldTy = nullptr;
  GI->walkLayout([&](const GEPStep &S) {
    if (S.isField()) {
      LastStructStep = Pos;
      FieldTy = S.Ty;
    }
    ++Pos;
    return true;
  });

  std::vector<Value *> Prefix;
  for (unsigned K = 0; K <= LastStructStep; ++K)
    Prefix.push_back(GI->index(K));

  auto Next = std::next(It);
  auto *FieldBase = insertBefore(
      BB, Next,
      new GEPInst(Ctx.ptrTo(FieldTy), GI->sourceType(), GI->pointer(),
                  Prefix, GI->name() + ".fbase"));
  auto *FieldEnd = insertBefore(
      BB, Next,
      new GEPInst(Ctx.ptrTo(FieldTy), FieldTy, FieldBase, {M.constI64(1)},
                  GI->name() + ".fend"));
  auto *MB = insertBefore(BB, Next,
                          new MakeBoundsInst(Ctx.boundsTy(), FieldBase,
                                             FieldEnd, GI->name() + ".fbnd"));
  BoundsOf[GI] = MB;
  ++Stats.BoundsShrunk;
}

void SoftBoundTransform::handleCast(CastInst *CI, BasicBlock *BB,
                                    BasicBlock::iterator It) {
  if (!CI->type()->isPointer())
    return;
  if (CI->opcode() == CastInst::Op::Bitcast) {
    // Arbitrary pointer casts keep their bounds — the disjoint metadata
    // cannot be coerced (§5.2 "arbitrary casts and unions").
    BoundsOf[CI] = getBounds(CI->source());
    return;
  }
  // inttoptr: null bounds by default; __setbound is the escape hatch (§5.2).
  BoundsOf[CI] = makeNullBounds();
}

void SoftBoundTransform::handleSelect(SelectInst *SI, BasicBlock *BB,
                                      BasicBlock::iterator It) {
  if (!SI->type()->isPointer())
    return;
  auto *BSel = insertBefore(
      BB, std::next(It),
      new SelectInst(SI->condition(), getBounds(SI->ifTrue()),
                     getBounds(SI->ifFalse()), SI->name() + ".bsel"));
  BoundsOf[SI] = BSel;
}

void SoftBoundTransform::handlePhi(PhiInst *PI, BasicBlock *BB,
                                   BasicBlock::iterator It) {
  if (!PI->type()->isPointer())
    return;
  // Create the bounds phi now; fill incoming values after the full walk.
  auto *BPhi = new PhiInst(Ctx.boundsTy(), PI->name() + ".bphi");
  Synthetic.insert(BPhi);
  BB->insertBefore(std::next(It), std::unique_ptr<Instruction>(BPhi));
  BoundsOf[PI] = BPhi;
  PendingPhis.emplace_back(PI, BPhi);
}

void SoftBoundTransform::handleRet(RetInst *RI, BasicBlock *BB,
                                   BasicBlock::iterator It) {
  const FnInfo &Info = Transformed.at(CurF);
  if (!Info.OrigRetTy->isPointer() || !RI->hasValue())
    return;
  Value *V = RI->value();
  auto *Pack = insertBefore(BB, It,
                            new PackPBInst(Ctx.ptrPairTy(), V, getBounds(V),
                                           "retpp"));
  RI->setOp(0, Pack);
}

BasicBlock::iterator
SoftBoundTransform::handleBuiltinCall(CallInst *CI, Function *Callee,
                                      BasicBlock *BB,
                                      BasicBlock::iterator It) {
  // A declaration without a table row (an undefined prototype) takes no
  // checked pointers; a pointer result gets null bounds.
  static constexpr BuiltinRow NoRow;
  const BuiltinRow &R =
      Callee->isBuiltin() ? builtinRow(Callee->builtin()) : NoRow;
  auto Next = std::next(It);

  // A fixed-size object (the jmp_buf) is checked inline, before the call.
  bool IsStore = R.Checks[0] == BuiltinAccess::Store;
  if (R.InlineCheckBytes && (Cfg.Mode == CheckMode::Full ||
                             (IsStore && Cfg.Mode == CheckMode::StoreOnly))) {
    insertBefore(BB, It,
                 new SpatialCheckInst(Ctx.voidTy(), CI->arg(0),
                                      getBounds(CI->arg(0)),
                                      R.InlineCheckBytes, IsStore));
    ++Stats.ChecksInserted;
  }

  // A builtin with a wrapper becomes a call to it: the original arguments,
  // then one bounds per pointer argument (§3.3).
  CallInst *Result = CI;
  if (R.Wrapper) {
    BuiltinVariant Variant = BuiltinVariant::Checked;
    if (R.NoMetaWrapper && Cfg.InferMemcpyPointerFree) {
      // §5.2 inference: look through the cast at the call site to decide
      // whether the copied data (argument 1) can contain pointers.
      Value *Probe = CI->arg(1);
      if (auto *BC = dyn_cast<CastInst>(Probe);
          BC && BC->opcode() == CastInst::Op::Bitcast)
        Probe = BC->source();
      if (auto *PT = dyn_cast<PointerType>(Probe->type());
          PT && !typeContainsPointer(PT->pointee()))
        Variant = BuiltinVariant::CheckedNoMeta;
    }
    Function *W = M.declareBuiltin(Callee->builtin(), Variant);
    Result = insertBoundsCall(CI, W, W->functionType(), BB, It);
    CurF->replaceAllUsesWith(CI, Result);
  }

  if (Result->type()->isPointer()) {
    switch (R.Result) {
    case ResultBounds::None:
      BoundsOf[Result] = makeNullBounds();
      break;
    case ResultBounds::Arg0:
      BoundsOf[Result] = getBounds(Result->arg(0));
      break;
    case ResultBounds::Alloc:
    case ResultBounds::SetBound: {
      // [p, p+n): malloc's size (§3.1 "creating pointers") or __setbound's
      // explicit extent (§5.2 escape hatch).
      bool Alloc = R.Result == ResultBounds::Alloc;
      std::string Pfx = Alloc ? "m." : "sb.";
      auto *End = insertBefore(
          BB, Next,
          new GEPInst(Ctx.ptrTo(Ctx.i8()), Ctx.i8(), Result,
                      {Result->arg(Alloc ? 0 : 1)}, Pfx + "end"));
      auto *MB = insertBefore(BB, Next,
                              new MakeBoundsInst(Ctx.boundsTy(), Result, End,
                                                 Pfx + "bnd"));
      BoundsOf[Result] = MB;
      if (!Alloc)
        break;
      // Null bounds when the allocation fails.
      auto *IsNull = insertBefore(
          BB, Next,
          new ICmpInst(ICmpInst::Pred::EQ, Result,
                       M.nullPtr(cast<PointerType>(Result->type())),
                       Ctx.i1(), "m.isnull"));
      BoundsOf[Result] = insertBefore(
          BB, Next, new SelectInst(IsNull, makeNullBounds(), MB, "m.bsel"));
      break;
    }
    case ResultBounds::Unbounded:
      BoundsOf[Result] = makeUnboundedBounds();
      break;
    }
  }
  return Result == CI ? Next : BB->erase(It);
}

CallInst *SoftBoundTransform::insertBoundsCall(CallInst *CI, Value *Callee,
                                               FunctionType *Ty,
                                               BasicBlock *BB,
                                               BasicBlock::iterator It) {
  std::vector<Value *> Args;
  for (unsigned I = 0; I < CI->numArgs(); ++I)
    Args.push_back(CI->arg(I));
  for (unsigned I = 0; I < CI->numArgs(); ++I)
    if (CI->arg(I)->type()->isPointer())
      Args.push_back(getBounds(CI->arg(I)));
  ++Stats.CallsRewritten;
  return insertBefore(BB, It,
                      new CallInst(Ty, Callee, std::move(Args),
                                   Ty->returnType(), CI->name()));
}

BasicBlock::iterator SoftBoundTransform::handleCall(CallInst *CI,
                                                    BasicBlock *BB,
                                                    BasicBlock::iterator It) {
  Function *Callee = CI->calledFunction();
  if (Callee && (Callee->isBuiltin() || !Callee->isDefinition()))
    return handleBuiltinCall(CI, Callee, BB, It);

  // Indirect calls are checked against the base==bound==ptr
  // function-pointer encoding (§5.2).
  if (!Callee && Cfg.Mode != CheckMode::None) {
    insertBefore(BB, It,
                 new FuncPtrCheckInst(Ctx.voidTy(), CI->callee(),
                                      getBounds(CI->callee())));
    ++Stats.FuncPtrChecksInserted;
  }

  FunctionType *OldTy = CI->calleeType();
  CallInst *NewCI = insertBoundsCall(
      CI, CI->callee(),
      Callee ? Callee->functionType() : transformedType(OldTy), BB, It);

  if (OldTy->returnType()->isPointer()) {
    auto *EP = insertBefore(
        BB, It,
        new ExtractPtrInst(cast<PointerType>(OldTy->returnType()), NewCI,
                           CI->name() + ".p"));
    auto *EB = insertBefore(BB, It,
                            new ExtractBoundsInst(Ctx.boundsTy(), NewCI,
                                                  CI->name() + ".b"));
    CurF->replaceAllUsesWith(CI, EP);
    BoundsOf[EP] = EB;
  } else {
    CurF->replaceAllUsesWith(CI, NewCI);
  }
  return BB->erase(It);
}

//===----------------------------------------------------------------------===//
// Per-function driver
//===----------------------------------------------------------------------===//

void SoftBoundTransform::instrumentFunction(Function &F) {
  CurF = &F;
  Synthetic.clear();
  BoundsOf.clear();
  ConstBoundsCache.clear();
  PendingPhis.clear();
  NullBounds = nullptr;
  UnboundedBounds = nullptr;

  const FnInfo &Info = Transformed.at(&F);

  // Bind pointer parameters to their bounds parameters.
  unsigned BoundsIdx = Info.OrigNumParams;
  for (unsigned I = 0; I < Info.OrigNumParams; ++I) {
    if (!F.arg(I)->type()->isPointer())
      continue;
    BoundsOf[F.arg(I)] = F.arg(BoundsIdx++);
  }

  // Walk blocks in reverse postorder so defs are seen before (non-phi)
  // uses; SSA dominance guarantees operand bounds exist when needed.
  DomTree DT(F);
  for (BasicBlock *BB : DT.rpo()) {
    for (auto It = BB->begin(); It != BB->end();) {
      Instruction *I = It->get();
      if (Synthetic.count(I)) {
        ++It;
        continue;
      }
      switch (I->kind()) {
      case ValueKind::Alloca:
        handleAlloca(cast<AllocaInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Load:
        handleLoad(cast<LoadInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Store:
        handleStore(cast<StoreInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::GEP:
        handleGEP(cast<GEPInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Cast:
        handleCast(cast<CastInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Select:
        handleSelect(cast<SelectInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Phi:
        handlePhi(cast<PhiInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Ret:
        handleRet(cast<RetInst>(I), BB, It);
        ++It;
        break;
      case ValueKind::Call:
        It = handleCall(cast<CallInst>(I), BB, It);
        break;
      default:
        ++It;
        break;
      }
    }
  }

  // Fill the deferred bounds phis.
  for (auto &[PtrPhi, BPhi] : PendingPhis)
    for (unsigned K = 0; K < PtrPhi->numIncoming(); ++K)
      BPhi->addIncoming(getBounds(PtrPhi->incomingValue(K)),
                        PtrPhi->incomingBlock(K));
}

//===----------------------------------------------------------------------===//
// Module driver
//===----------------------------------------------------------------------===//

SoftBoundStats SoftBoundTransform::run() {
  // Phase 1: rewrite all signatures first so call rewrites see final types.
  std::vector<Function *> Work;
  for (const auto &F : M.functions()) {
    if (F->isBuiltin() || !F->isDefinition() || F->isTransformed())
      continue;
    Work.push_back(F.get());
  }
  for (Function *F : Work)
    rewriteSignature(*F);

  // Phase 2: instrument bodies.
  for (Function *F : Work)
    instrumentFunction(*F);

  // Phase 3: re-optimize (the paper re-runs LLVM's optimizers after
  // instrumentation, §6.1).
  if (Cfg.ReoptimizeAfter)
    Stats.ChecksEliminated = reoptimizeInstrumented(M);
  return Stats;
}

} // namespace

SoftBoundStats softbound::applySoftBound(Module &M,
                                         const SoftBoundConfig &Cfg) {
  SoftBoundTransform T(M, Cfg);
  return T.run();
}

//===----------------------------------------------------------------------===//
// `_sb_` calling-convention queries (§3.3)
//===----------------------------------------------------------------------===//

unsigned softbound::sbabi::originalParamCount(const Function &F) {
  if (!F.isTransformed())
    return F.numArgs();
  // Bounds parameters are appended, and the source language has no bounds
  // type, so the original list is everything before the trailing boundsTy
  // run.
  unsigned N = F.numArgs();
  while (N > 0 && F.arg(N - 1)->type()->isBounds())
    --N;
  return N;
}

int softbound::sbabi::boundsParamIndex(const Function &F, unsigned PtrParam) {
  if (!F.isTransformed())
    return -1;
  unsigned Orig = originalParamCount(F);
  if (PtrParam >= Orig || !F.arg(PtrParam)->type()->isPointer())
    return -1;
  unsigned Rank = 0; // Pointer parameters preceding PtrParam.
  for (unsigned I = 0; I < PtrParam; ++I)
    if (F.arg(I)->type()->isPointer())
      ++Rank;
  unsigned Idx = Orig + Rank;
  return Idx < F.numArgs() ? static_cast<int>(Idx) : -1;
}

Value *softbound::sbabi::passedBounds(const CallInst &Call,
                                      const Function &Callee,
                                      unsigned ArgIdx) {
  int Idx = boundsParamIndex(Callee, ArgIdx);
  if (Idx < 0 || Call.numArgs() != Callee.numArgs())
    return nullptr;
  return Call.arg(static_cast<unsigned>(Idx));
}

//===- ir/IRBuilder.h - instruction construction helper ---------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience builder that constructs instructions and inserts them at a
/// chosen position, in the style of llvm::IRBuilder.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_IRBUILDER_H
#define SOFTBOUND_IR_IRBUILDER_H

#include "ir/Module.h"

namespace softbound {

/// Builds and inserts instructions at an insertion point.
class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M) {}

  Module &module() { return M; }
  TypeContext &ctx() { return M.ctx(); }

  /// Positions the builder at the end of \p Block.
  void setInsertPoint(BasicBlock *Block) {
    BB = Block;
    AtEnd = true;
  }

  /// Positions the builder immediately before \p Where in \p Block.
  void setInsertPoint(BasicBlock *Block, BasicBlock::iterator Where) {
    BB = Block;
    It = Where;
    AtEnd = false;
  }

  BasicBlock *insertBlock() const { return BB; }

  /// True if the current block already ends in a terminator.
  bool blockTerminated() const { return BB && BB->terminator() != nullptr; }

  //===--------------------------------------------------------------------===//
  // Core instructions
  //===--------------------------------------------------------------------===//

  AllocaInst *alloca_(Type *Ty, const std::string &Name) {
    return insert(new AllocaInst(ctx().ptrTo(Ty), Ty, Name));
  }
  LoadInst *load(Type *Ty, Value *Ptr, const std::string &Name = "ld") {
    return insert(new LoadInst(Ty, Ptr, Name));
  }
  StoreInst *store(Value *V, Value *Ptr) {
    return insert(new StoreInst(V, Ptr, ctx().voidTy()));
  }
  GEPInst *gep(Type *SourceTy, Value *Ptr, std::vector<Value *> Idx,
               const std::string &Name = "gep") {
    Type *Elem = GEPInst::resultElementType(SourceTy, Idx);
    assert(Elem && "malformed GEP index path");
    return insert(
        new GEPInst(ctx().ptrTo(Elem), SourceTy, Ptr, std::move(Idx), Name));
  }
  BinOpInst *binop(BinOpInst::Op O, Value *L, Value *R,
                   const std::string &Name = "t") {
    return insert(new BinOpInst(O, L, R, Name));
  }
  Value *add(Value *L, Value *R) { return binop(BinOpInst::Op::Add, L, R); }
  Value *sub(Value *L, Value *R) { return binop(BinOpInst::Op::Sub, L, R); }
  Value *mul(Value *L, Value *R) { return binop(BinOpInst::Op::Mul, L, R); }
  ICmpInst *icmp(ICmpInst::Pred P, Value *L, Value *R,
                 const std::string &Name = "cmp") {
    return insert(new ICmpInst(P, L, R, ctx().i1(), Name));
  }
  CastInst *castOp(CastInst::Op O, Value *V, Type *DestTy,
                   const std::string &Name = "cast") {
    return insert(new CastInst(O, V, DestTy, Name));
  }
  CastInst *bitcast(Value *V, Type *DestTy) {
    return castOp(CastInst::Op::Bitcast, V, DestTy, "bc");
  }
  SelectInst *select(Value *C, Value *T, Value *F,
                     const std::string &Name = "sel") {
    return insert(new SelectInst(C, T, F, Name));
  }
  PhiInst *phi(Type *Ty, const std::string &Name = "phi") {
    // Phis always go to the front of the block.
    auto P = std::make_unique<PhiInst>(Ty, Name);
    PhiInst *Out = P.get();
    BB->insertBefore(BB->begin(), std::move(P));
    return Out;
  }
  CallInst *call(Function *Callee, std::vector<Value *> Args,
                 const std::string &Name = "call") {
    FunctionType *FTy = Callee->functionType();
    return insert(new CallInst(FTy, Callee, std::move(Args),
                               FTy->returnType(), Name));
  }
  CallInst *callIndirect(FunctionType *FTy, Value *Callee,
                         std::vector<Value *> Args,
                         const std::string &Name = "icall") {
    return insert(
        new CallInst(FTy, Callee, std::move(Args), FTy->returnType(), Name));
  }
  RetInst *ret(Value *V = nullptr) {
    return insert(new RetInst(ctx().voidTy(), V));
  }
  BrInst *br(BasicBlock *Dest) { return insert(new BrInst(ctx().voidTy(), Dest)); }
  BrInst *condBr(Value *Cond, BasicBlock *T, BasicBlock *F) {
    return insert(new BrInst(ctx().voidTy(), Cond, T, F));
  }
  UnreachableInst *unreachable() {
    return insert(new UnreachableInst(ctx().voidTy()));
  }

  //===--------------------------------------------------------------------===//
  // SoftBound instrumentation instructions
  //===--------------------------------------------------------------------===//

  MakeBoundsInst *makeBounds(Value *Base, Value *Bound,
                             const std::string &Name = "bnd") {
    return insert(new MakeBoundsInst(ctx().boundsTy(), Base, Bound, Name));
  }
  SpatialCheckInst *spatialCheck(Value *Ptr, Value *Bounds, uint64_t Size,
                                 bool IsStore, Value *Guard = nullptr) {
    return insert(new SpatialCheckInst(ctx().voidTy(), Ptr, Bounds, Size,
                                       IsStore, Guard));
  }
  FuncPtrCheckInst *funcPtrCheck(Value *Ptr, Value *Bounds) {
    return insert(new FuncPtrCheckInst(ctx().voidTy(), Ptr, Bounds));
  }
  MetaLoadInst *metaLoad(Value *Addr, const std::string &Name = "mld") {
    return insert(new MetaLoadInst(ctx().boundsTy(), Addr, Name));
  }
  MetaStoreInst *metaStore(Value *Addr, Value *Bounds) {
    return insert(new MetaStoreInst(ctx().voidTy(), Addr, Bounds));
  }
  PackPBInst *packPB(Value *Ptr, Value *Bounds,
                     const std::string &Name = "pp") {
    return insert(new PackPBInst(ctx().ptrPairTy(), Ptr, Bounds, Name));
  }
  ExtractPtrInst *extractPtr(PointerType *Ty, Value *Pair,
                             const std::string &Name = "p") {
    return insert(new ExtractPtrInst(Ty, Pair, Name));
  }
  ExtractBoundsInst *extractBounds(Value *Pair,
                                   const std::string &Name = "b") {
    return insert(new ExtractBoundsInst(ctx().boundsTy(), Pair, Name));
  }

private:
  template <typename T> T *insert(T *I) {
    assert(BB && "no insertion point set");
    std::unique_ptr<Instruction> P(I);
    if (AtEnd)
      BB->append(std::move(P));
    else
      BB->insertBefore(It, std::move(P));
    return I;
  }

  Module &M;
  BasicBlock *BB = nullptr;
  BasicBlock::iterator It;
  bool AtEnd = true;
};

} // namespace softbound

#endif // SOFTBOUND_IR_IRBUILDER_H

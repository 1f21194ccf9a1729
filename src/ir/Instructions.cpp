//===- ir/Instructions.cpp - IR instruction set ---------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Instructions.h"

#include "ir/Function.h"
#include "support/Compiler.h"

using namespace softbound;

Type *GEPInst::resultElementType(Type *SourceTy,
                                 const std::vector<Value *> &Indices) {
  Type *Elem = nullptr;
  if (!walkLayout(SourceTy, Indices.data(),
                  static_cast<unsigned>(Indices.size()),
                  [&](const GEPStep &S) {
                    Elem = S.Ty;
                    return true;
                  }))
    return nullptr;
  return Elem;
}

bool GEPInst::isStructFieldAccess() const {
  bool Field = false;
  walkLayout([&](const GEPStep &S) {
    Field = S.isField();
    return !Field;
  });
  return Field;
}

const char *BinOpInst::opcodeName(Op O) {
  switch (O) {
  case Op::Add:
    return "add";
  case Op::Sub:
    return "sub";
  case Op::Mul:
    return "mul";
  case Op::SDiv:
    return "sdiv";
  case Op::UDiv:
    return "udiv";
  case Op::SRem:
    return "srem";
  case Op::URem:
    return "urem";
  case Op::And:
    return "and";
  case Op::Or:
    return "or";
  case Op::Xor:
    return "xor";
  case Op::Shl:
    return "shl";
  case Op::LShr:
    return "lshr";
  case Op::AShr:
    return "ashr";
  }
  sb_unreachable("covered switch");
}

const char *ICmpInst::predName(Pred P) {
  switch (P) {
  case Pred::EQ:
    return "eq";
  case Pred::NE:
    return "ne";
  case Pred::SLT:
    return "slt";
  case Pred::SLE:
    return "sle";
  case Pred::SGT:
    return "sgt";
  case Pred::SGE:
    return "sge";
  case Pred::ULT:
    return "ult";
  case Pred::ULE:
    return "ule";
  case Pred::UGT:
    return "ugt";
  case Pred::UGE:
    return "uge";
  }
  sb_unreachable("covered switch");
}

const char *CastInst::opcodeName(Op O) {
  switch (O) {
  case Op::Bitcast:
    return "bitcast";
  case Op::PtrToInt:
    return "ptrtoint";
  case Op::IntToPtr:
    return "inttoptr";
  case Op::Trunc:
    return "trunc";
  case Op::ZExt:
    return "zext";
  case Op::SExt:
    return "sext";
  }
  sb_unreachable("covered switch");
}

Function *CallInst::calledFunction() const {
  return dyn_cast<Function>(callee());
}

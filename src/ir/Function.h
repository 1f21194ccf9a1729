//===- ir/Function.h - functions --------------------------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function: a Constant (its address is a value) owning arguments and basic
/// blocks. Builtins are declarations whose behaviour the VM implements
/// natively; each carries its ir/Builtins.h id.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_FUNCTION_H
#define SOFTBOUND_IR_FUNCTION_H

#include "ir/BasicBlock.h"
#include "ir/Builtins.h"

#include <list>
#include <memory>

namespace softbound {

class Module;

/// A function definition or builtin declaration.
class Function : public Constant {
public:
  using BlockList = std::list<std::unique_ptr<BasicBlock>>;

  Function(PointerType *AddrTy, FunctionType *FTy, std::string Name,
           Module *Parent, Builtin Id = Builtin::None,
           BuiltinVariant Variant = BuiltinVariant::Plain)
      : Constant(ValueKind::Func, AddrTy, std::move(Name)), FTy(FTy),
        Parent(Parent), BuiltinId(Id), Variant(Variant) {
    for (unsigned I = 0; I < FTy->numParams(); ++I)
      Args.push_back(std::make_unique<Argument>(
          FTy->param(I), "arg" + std::to_string(I), this, I));
  }

  FunctionType *functionType() const { return FTy; }
  Module *parent() const { return Parent; }
  /// The builtin this declares (Builtin::None if none), and whether it is
  /// the C-level function or a checked `_sb_` wrapper.
  Builtin builtin() const { return BuiltinId; }
  BuiltinVariant builtinVariant() const { return Variant; }
  bool isBuiltin() const { return BuiltinId != Builtin::None; }
  bool isDefinition() const { return !Blocks.empty(); }
  Type *returnType() const { return FTy->returnType(); }

  unsigned numArgs() const { return Args.size(); }
  Argument *arg(unsigned I) const { return Args[I].get(); }

  /// Appends a fresh argument (used by the SoftBound signature rewrite,
  /// §3.3) and updates the function type. Returns the new argument.
  Argument *appendArg(Type *Ty, const std::string &Name, FunctionType *NewFTy) {
    Args.push_back(
        std::make_unique<Argument>(Ty, Name, this, Args.size()));
    FTy = NewFTy;
    return Args.back().get();
  }

  /// Replaces the function type (signature rewrites). Argument list must
  /// already match.
  void setFunctionType(FunctionType *T) { FTy = T; }

  BlockList &blocks() { return Blocks; }
  const BlockList &blocks() const { return Blocks; }
  BasicBlock *entry() {
    assert(!Blocks.empty() && "entry() on a declaration");
    return Blocks.front().get();
  }

  /// Creates a block appended at the end.
  BasicBlock *createBlock(const std::string &Name) {
    Blocks.push_back(std::make_unique<BasicBlock>(
        Name + "." + std::to_string(NextBlockId++), this));
    return Blocks.back().get();
  }

  /// Assigns VM register slots to arguments and value-producing
  /// instructions. Returns the frame register count.
  unsigned renumber();

  unsigned numRegs() const { return NumRegs; }

  /// Replaces all operand uses of \p From with \p To across the body.
  void replaceAllUsesWith(Value *From, Value *To);

  /// SoftBound transformation marker: set when this function has been
  /// renamed to its `_sb_` form and given metadata parameters.
  bool isTransformed() const { return Transformed; }
  void setTransformed() { Transformed = true; }

  /// Checked-region partitioning marker (opt/checks/Partition.cpp): set
  /// when every access was discharged statically and the function's
  /// metadata instructions were stripped. The Verifier enforces that an
  /// uninstrumented function contains no meta.load/meta.store.
  bool isUninstrumented() const { return Uninstrumented; }
  void setUninstrumented() { Uninstrumented = true; }

  static bool classof(const Value *V) { return V->kind() == ValueKind::Func; }

private:
  FunctionType *FTy;
  Module *Parent;
  Builtin BuiltinId;
  BuiltinVariant Variant;
  bool Transformed = false;
  bool Uninstrumented = false;
  std::vector<std::unique_ptr<Argument>> Args;
  BlockList Blocks;
  unsigned NumRegs = 0;
  unsigned NextBlockId = 0;
};

} // namespace softbound

#endif // SOFTBOUND_IR_FUNCTION_H

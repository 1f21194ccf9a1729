//===- tests/test_ir_and_baselines.cpp - IR + baseline unit tests ----------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the IR substrate (type layout, verifier diagnostics)
/// and the baseline checkers (splay tree vs std::map oracle, red-zone
/// detection profile).
///
//===----------------------------------------------------------------------===//

#include "baselines/MemcheckLite.h"
#include "baselines/ObjectTableChecker.h"
#include "baselines/SplayTree.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>

using namespace softbound;

namespace {

//===----------------------------------------------------------------------===//
// Type layout
//===----------------------------------------------------------------------===//

TEST(TypeLayout, CLayoutRules) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.i8()->sizeInBytes(), 1u);
  EXPECT_EQ(Ctx.i32()->sizeInBytes(), 4u);
  EXPECT_EQ(Ctx.ptrTo(Ctx.i32())->sizeInBytes(), 8u);
  EXPECT_EQ(Ctx.arrayOf(Ctx.i32(), 10)->sizeInBytes(), 40u);

  // struct { char c; long l; int i; } -> offsets 0, 8, 16; size 24.
  StructType *S = Ctx.createStruct("s");
  S->setBody({Ctx.i8(), Ctx.i64(), Ctx.i32()}, {"c", "l", "i"},
             /*IsUnion=*/false);
  EXPECT_EQ(S->fieldOffset(0), 0u);
  EXPECT_EQ(S->fieldOffset(1), 8u);
  EXPECT_EQ(S->fieldOffset(2), 16u);
  EXPECT_EQ(S->structSize(), 24u);
  EXPECT_EQ(S->structAlign(), 8u);

  // Union: size of the largest member.
  StructType *U = Ctx.createStruct("u");
  U->setBody({Ctx.i8(), Ctx.i64()}, {"c", "l"}, /*IsUnion=*/true);
  EXPECT_EQ(U->fieldOffset(1), 0u);
  EXPECT_EQ(U->structSize(), 8u);
}

TEST(TypeLayout, InterningGivesPointerEquality) {
  TypeContext Ctx;
  EXPECT_EQ(Ctx.ptrTo(Ctx.i32()), Ctx.ptrTo(Ctx.i32()));
  EXPECT_EQ(Ctx.arrayOf(Ctx.i8(), 4), Ctx.arrayOf(Ctx.i8(), 4));
  EXPECT_NE(Ctx.arrayOf(Ctx.i8(), 4), Ctx.arrayOf(Ctx.i8(), 5));
  EXPECT_EQ(Ctx.funcTy(Ctx.i32(), {Ctx.i64()}),
            Ctx.funcTy(Ctx.i32(), {Ctx.i64()}));
}

//===----------------------------------------------------------------------===//
// Verifier diagnostics
//===----------------------------------------------------------------------===//

TEST(Verifier, CatchesMissingTerminator) {
  Module M;
  Function *F =
      M.createFunction("f", M.ctx().funcTy(M.ctx().voidTy(), {}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.makeBounds(M.constI64(0), M.constI64(0)); // No terminator.
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesTypeMismatches) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.i32(), {}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.ret(M.constI64(0)); // i64 returned from an i32 function.
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("return type"), std::string::npos);
}

TEST(Verifier, CatchesBadSpatialCheckOperands) {
  Module M;
  TypeContext &Ctx = M.ctx();
  Function *F = M.createFunction("f", Ctx.funcTy(Ctx.voidTy(),
                                                 {Ctx.ptrTo(Ctx.i8())}));
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(M);
  B.setInsertPoint(BB);
  // Bounds operand is an integer, not a bounds value.
  BB->append(std::make_unique<SpatialCheckInst>(
      Ctx.voidTy(), F->arg(0), M.constI64(5), 8, true));
  B.ret();
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("bounds"), std::string::npos);
}

/// Verifies a function whose body is one hand-built GEP from a pointer to
/// a {i32, i64} struct (or to an i32 when \p ScalarSource) along the path
/// \p Path(M, VarIdx) gives, where VarIdx is an i32 argument.
std::vector<std::string>
verifyGEPPath(bool ScalarSource,
              const std::function<std::vector<Value *>(Module &, Value *)>
                  &Path) {
  Module M;
  TypeContext &Ctx = M.ctx();
  StructType *Pair = Ctx.createStruct("struct.pair");
  Pair->setBody({Ctx.i32(), Ctx.i64()}, {"a", "b"}, false);
  Type *SourceTy = ScalarSource ? static_cast<Type *>(Ctx.i32()) : Pair;
  Function *F = M.createFunction(
      "f", Ctx.funcTy(Ctx.voidTy(), {Ctx.ptrTo(SourceTy), Ctx.i32()}));
  BasicBlock *BB = F->createBlock("entry");
  // Built directly: IRBuilder::gep computes the result type by walking
  // the very path under test.
  BB->append(std::make_unique<GEPInst>(Ctx.ptrTo(Ctx.i32()), SourceTy,
                                       F->arg(0), Path(M, F->arg(1)), "g"));
  IRBuilder B(M);
  B.setInsertPoint(BB);
  B.ret();
  std::vector<std::string> Errors;
  verifyFunction(*F, Errors);
  return Errors;
}

::testing::AssertionResult reports(const std::vector<std::string> &Errors,
                                   const std::string &Text) {
  for (const auto &E : Errors)
    if (E.find(Text) != std::string::npos)
      return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "no diagnostic mentions '" << Text << "'; got "
         << (Errors.empty() ? "none (accepted)" : Errors[0]);
}

TEST(Verifier, CatchesMalformedGEPPaths) {
  // Well formed: field 1 of element 0.
  EXPECT_TRUE(verifyGEPPath(false, [](Module &M, Value *) {
                return std::vector<Value *>{M.constI64(0), M.constI32(1)};
              }).empty());

  // A struct step whose field number is a run-time value.
  EXPECT_TRUE(reports(verifyGEPPath(false,
                                    [](Module &M, Value *Var) {
                                      return std::vector<Value *>{
                                          M.constI64(0), Var};
                                    }),
                      "gep index 1 is not a constant field number"));

  // Field numbers outside [0, numFields).
  for (int64_t Field : {2, -1})
    EXPECT_TRUE(reports(verifyGEPPath(false,
                                      [Field](Module &M, Value *) {
                                        return std::vector<Value *>{
                                            M.constI64(0), M.constI32(Field)};
                                      }),
                        "gep index 1 is not a constant field number"))
        << "field " << Field;

  // A step into a scalar.
  EXPECT_TRUE(reports(verifyGEPPath(true,
                                    [](Module &M, Value *) {
                                      return std::vector<Value *>{
                                          M.constI64(0), M.constI64(0)};
                                    }),
                      "gep index 1 steps into non-aggregate type i32"));
}

//===----------------------------------------------------------------------===//
// Splay tree vs std::map oracle
//===----------------------------------------------------------------------===//

TEST(SplayTree, MatchesMapOracle) {
  IntervalSplayTree T;
  std::map<uint64_t, uint64_t> Oracle;
  RNG R(99);
  for (int Op = 0; Op < 10000; ++Op) {
    switch (R.below(3)) {
    case 0: { // Insert a fresh disjoint interval.
      uint64_t Start = (R.below(1 << 16)) << 8;
      if (Oracle.count(Start))
        break;
      // Ensure disjointness with the oracle.
      auto It = Oracle.upper_bound(Start);
      if (It != Oracle.end() && Start + 64 > It->first)
        break;
      if (It != Oracle.begin()) {
        auto Prev = std::prev(It);
        if (Prev->first + Prev->second > Start)
          break;
      }
      T.insert(Start, 64);
      Oracle[Start] = 64;
      break;
    }
    case 1: { // Erase a random known interval.
      if (Oracle.empty())
        break;
      auto It = Oracle.begin();
      std::advance(It, R.below(Oracle.size()));
      EXPECT_EQ(T.erase(It->first), It->second);
      Oracle.erase(It);
      break;
    }
    default: { // Query a random address.
      uint64_t Addr = (R.below(1 << 16)) << 8 | R.below(256);
      uint64_t Start, Size, Comparisons = 0;
      bool Found = T.find(Addr, Start, Size, Comparisons);
      auto It = Oracle.upper_bound(Addr);
      bool OFound = false;
      if (It != Oracle.begin()) {
        --It;
        OFound = Addr >= It->first && Addr < It->first + It->second;
      }
      ASSERT_EQ(Found, OFound) << "op " << Op;
      if (Found)
        ASSERT_EQ(Start, It->first);
      break;
    }
    }
  }
  EXPECT_EQ(T.size(), Oracle.size());
}

//===----------------------------------------------------------------------===//
// Baseline detection profiles
//===----------------------------------------------------------------------===//

TEST(MemcheckLite, HeapOnlyProfile) {
  MemcheckLite M;
  M.onAlloc(ObjectRegion::Heap, 0x2000'0000, 32);
  // Heap in-bounds / out-of-bounds.
  EXPECT_TRUE(M.checkAccess(0x2000'0000 + 31, 1, true));
  EXPECT_FALSE(M.checkAccess(0x2000'0000 + 32, 1, true));
  // Stack and global addresses are never flagged.
  EXPECT_TRUE(M.checkAccess(0x7000'0000, 8, true));
  EXPECT_TRUE(M.checkAccess(0x1000'0000, 8, true));
  // Freed memory is flagged.
  M.onFree(ObjectRegion::Heap, 0x2000'0000, 32);
  EXPECT_FALSE(M.checkAccess(0x2000'0000, 1, false));
}

TEST(ObjectTableChecker, ObjectGranularityProfile) {
  ObjectTableChecker C;
  C.onAlloc(ObjectRegion::Global, 0x1000, 24); // A struct-sized object.
  // Anywhere inside the object passes — including "sub-object overflow"
  // offsets; that is precisely the §2.1 incompleteness.
  EXPECT_TRUE(C.checkAccess(0x1000 + 20, 4, true));
  // Past the object fails.
  EXPECT_FALSE(C.checkAccess(0x1000 + 24, 1, true));
  // Stack objects are tracked too (unlike the heap-only red zone).
  C.onAlloc(ObjectRegion::Stack, 0x7000'0000, 16);
  EXPECT_TRUE(C.checkAccess(0x7000'0008, 8, true));
  C.onFree(ObjectRegion::Stack, 0x7000'0000, 16);
  EXPECT_FALSE(C.checkAccess(0x7000'0008, 8, true));
}

TEST(ObjectTableChecker, DerivationCheckingMode) {
  ObjectTableChecker C(/*CheckDerivations=*/true);
  C.onAlloc(ObjectRegion::Heap, 0x2000, 64);
  EXPECT_TRUE(C.checkDerive(0x2000, 0x2000 + 32)); // Inside.
  EXPECT_TRUE(C.checkDerive(0x2000, 0x2000 + 64)); // One past: legal C.
  EXPECT_FALSE(C.checkDerive(0x2000, 0x2000 + 65)); // Beyond.
}

} // namespace

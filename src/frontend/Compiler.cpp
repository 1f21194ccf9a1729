//===- frontend/Compiler.cpp - mini-C to IR compiler ------------------------===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"

#include "frontend/Lexer.h"
#include "ir/IRBuilder.h"
#include "support/Compiler.h"

#include <cstring>
#include <functional>
#include <map>
#include <vector>

using namespace softbound;

namespace {

/// A parsed C value: either an lvalue (V is the address of an object of
/// type Ty) or an rvalue (V is the value itself).
struct CVal {
  Value *V = nullptr;
  Type *Ty = nullptr;
  bool LV = false;
};

/// One scope's name bindings. For variables, V is the object address
/// (alloca or global) and Ty the object type; for functions, F is set.
struct Binding {
  Value *Addr = nullptr;
  Type *Ty = nullptr;
  Function *F = nullptr;
};

/// The single-pass parser/emitter.
class Parser {
public:
  Parser(const std::vector<Token> &Toks, Module &M)
      : Toks(Toks), M(M), Ctx(M.ctx()), B(M) {}

  bool run();
  std::vector<std::string> takeErrors() { return std::move(Errors); }

private:
  //===--------------------------------------------------------------------===//
  // Token plumbing
  //===--------------------------------------------------------------------===//

  const Token &cur() const { return Toks[Pos]; }
  const Token &peek(unsigned N = 1) const {
    return Toks[std::min(Pos + N, Toks.size() - 1)];
  }
  bool is(Tok K) const { return cur().Kind == K; }
  bool accept(Tok K) {
    if (!is(K))
      return false;
    ++Pos;
    return true;
  }
  void next() { ++Pos; }
  void expect(Tok K, const char *What) {
    if (!accept(K))
      error(std::string("expected ") + What);
  }
  [[noreturn]] void fatal(const std::string &Msg);
  void error(const std::string &Msg) { fatal(Msg); }

  //===--------------------------------------------------------------------===//
  // Types
  //===--------------------------------------------------------------------===//

  bool startsType() const;
  bool startsTypeAt(unsigned N) const {
    switch (peek(N).Kind) {
    case Tok::KwVoid:
    case Tok::KwChar:
    case Tok::KwShort:
    case Tok::KwInt:
    case Tok::KwLong:
    case Tok::KwUnsigned:
    case Tok::KwStruct:
    case Tok::KwUnion:
      return true;
    default:
      return false;
    }
  }
  Type *parseTypeSpec();
  Type *parseDeclarator(Type *Base, std::string &Name,
                        FunctionType **FnTy = nullptr,
                        std::vector<std::string> *ParamNames = nullptr);
  Type *parseDirectDeclarator(Type *Base, std::string &Name,
                              FunctionType **FnTy,
                              std::vector<std::string> *ParamNames);
  Type *parseSuffixes(Type *Base, FunctionType **FnTy,
                      std::vector<std::string> *ParamNames);
  Type *parseAbstractType();
  void skipToMatchingParen();

  //===--------------------------------------------------------------------===//
  // Declarations
  //===--------------------------------------------------------------------===//

  void parseTopLevel();
  void parseStructDef(bool IsUnion);
  void parseFunctionRest(Type *RetTy, const std::string &Name,
                         FunctionType *FnTy,
                         const std::vector<std::string> &ParamNames);
  void parseGlobalRest(Type *Base, Type *FirstTy, const std::string &Name);
  GlobalInitializer parseGlobalInit(Type *Ty);
  void encodeConstInto(Type *Ty, GlobalInitializer &Init, uint64_t Offset);
  int64_t parseConstIntExpr();

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void parseBlock();
  void parseStatement();
  void parseLocalDecl();
  void ensureBlock();

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  CVal parseExpr() { return parseAssign(); }
  CVal parseAssign();
  CVal parseCondExpr();
  CVal parseLogOr();
  CVal parseLogAnd();
  CVal parseBinary(int MinPrec);
  CVal parseUnary();
  CVal parsePostfix();
  CVal parsePrimary();
  CVal parseCall(CVal Callee);

  //===--------------------------------------------------------------------===//
  // Value helpers
  //===--------------------------------------------------------------------===//

  Value *rvalue(CVal C);
  Value *convert(Value *V, Type *To);
  Value *toBool(Value *V);
  Value *emitBinop(Tok Op, Value *L, Value *R);
  Type *promote2(Value *&L, Value *&R);
  CVal makeRV(Value *V) { return CVal{V, V->type(), false}; }

  AllocaInst *createLocal(Type *Ty, const std::string &Name);

  Binding *lookup(const std::string &Name);
  void bind(const std::string &Name, Binding Bd) { Scopes.back()[Name] = Bd; }

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  const std::vector<Token> &Toks;
  size_t Pos = 0;
  Module &M;
  TypeContext &Ctx;
  IRBuilder B;
  std::vector<std::string> Errors;

  Function *CurFn = nullptr;
  BasicBlock *EntryBlock = nullptr; ///< Allocas live here.
  std::vector<std::map<std::string, Binding>> Scopes;
  std::vector<std::pair<BasicBlock *, BasicBlock *>> LoopStack; // break/cont
  unsigned TmpId = 0;

  struct ParseAbort {};
};

[[noreturn]] void Parser::fatal(const std::string &Msg) {
  Errors.push_back("line " + std::to_string(cur().Line) + ": " + Msg);
  throw ParseAbort();
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

bool Parser::startsType() const {
  switch (cur().Kind) {
  case Tok::KwVoid:
  case Tok::KwChar:
  case Tok::KwShort:
  case Tok::KwInt:
  case Tok::KwLong:
  case Tok::KwUnsigned:
  case Tok::KwStruct:
  case Tok::KwUnion:
    return true;
  default:
    return false;
  }
}

Type *Parser::parseTypeSpec() {
  accept(Tok::KwUnsigned); // Parsed, treated as signed (documented).
  switch (cur().Kind) {
  case Tok::KwVoid:
    next();
    return Ctx.voidTy();
  case Tok::KwChar:
    next();
    return Ctx.i8();
  case Tok::KwShort:
    next();
    return Ctx.i16();
  case Tok::KwInt:
    next();
    return Ctx.i32();
  case Tok::KwLong:
    next();
    accept(Tok::KwLong); // long long
    accept(Tok::KwInt);  // long int
    return Ctx.i64();
  case Tok::KwStruct:
  case Tok::KwUnion: {
    bool IsUnion = cur().Kind == Tok::KwUnion;
    next();
    if (!is(Tok::Ident))
      error("expected struct tag");
    std::string Tag = (IsUnion ? "union." : "struct.") + cur().Text;
    next();
    StructType *ST = Ctx.getStruct(Tag);
    if (!ST)
      ST = Ctx.createStruct(Tag);
    return ST;
  }
  default:
    error("expected a type");
  }
  return nullptr;
}

void Parser::skipToMatchingParen() {
  // Called with Pos just past an opening '('.
  int Depth = 1;
  while (Depth > 0) {
    if (is(Tok::End))
      error("unbalanced parentheses in declarator");
    if (is(Tok::LParen))
      ++Depth;
    if (is(Tok::RParen))
      --Depth;
    next();
  }
}

Type *Parser::parseDeclarator(Type *Base, std::string &Name,
                              FunctionType **FnTy,
                              std::vector<std::string> *ParamNames) {
  while (accept(Tok::Star))
    Base = Ctx.ptrTo(Base);
  return parseDirectDeclarator(Base, Name, FnTy, ParamNames);
}

Type *Parser::parseDirectDeclarator(Type *Base, std::string &Name,
                                    FunctionType **FnTy,
                                    std::vector<std::string> *ParamNames) {
  // Grouped declarator: "( * ... )" — the function-pointer shape.
  if (is(Tok::LParen) && peek().Kind == Tok::Star) {
    next(); // (
    size_t InnerStart = Pos;
    skipToMatchingParen();
    Type *Suffixed = parseSuffixes(Base, nullptr, nullptr);
    size_t After = Pos;
    Pos = InnerStart;
    Type *Result = parseDeclarator(Suffixed, Name, FnTy, ParamNames);
    expect(Tok::RParen, ")");
    Pos = After;
    return Result;
  }
  if (is(Tok::Ident)) {
    Name = cur().Text;
    next();
  }
  return parseSuffixes(Base, FnTy, ParamNames);
}

Type *Parser::parseSuffixes(Type *Base, FunctionType **FnTy,
                            std::vector<std::string> *ParamNames) {
  // Array suffixes: collect dimensions, fold innermost-last.
  if (is(Tok::LBracket)) {
    std::vector<uint64_t> Dims;
    while (accept(Tok::LBracket)) {
      if (is(Tok::RBracket)) {
        // Unsized "[]": only valid with an initializer; use size 0 marker.
        Dims.push_back(0);
        next();
        continue;
      }
      int64_t Dim = parseConstIntExpr();
      if (Dim < 0)
        error("negative array dimension " + std::to_string(Dim));
      Dims.push_back(static_cast<uint64_t>(Dim));
      expect(Tok::RBracket, "]");
    }
    Type *T = Base;
    for (auto It = Dims.rbegin(); It != Dims.rend(); ++It) {
      uint64_t ElemSize = T->sizeInBytes();
      if (ElemSize && *It > UINT64_MAX / ElemSize)
        error("array size in bytes overflows 64 bits");
      T = Ctx.arrayOf(T, *It);
    }
    return T;
  }
  // Parameter list suffix.
  if (is(Tok::LParen)) {
    next();
    std::vector<Type *> Params;
    std::vector<std::string> Names;
    bool VarArg = false;
    if (!is(Tok::RParen)) {
      if (is(Tok::KwVoid) && peek().Kind == Tok::RParen) {
        next();
      } else {
        while (true) {
          if (accept(Tok::Ellipsis)) {
            VarArg = true;
            break;
          }
          Type *PT = parseTypeSpec();
          std::string PName;
          PT = parseDeclarator(PT, PName, nullptr, nullptr);
          if (PT->isArray()) // Parameters of array type decay.
            PT = Ctx.ptrTo(cast<ArrayType>(PT)->element());
          Params.push_back(PT);
          Names.push_back(PName);
          if (!accept(Tok::Comma))
            break;
        }
      }
    }
    expect(Tok::RParen, ")");
    FunctionType *FT = Ctx.funcTy(Base, Params, VarArg);
    if (FnTy) {
      *FnTy = FT;
      if (ParamNames)
        *ParamNames = Names;
      return Base; // Top-level function: caller uses FnTy.
    }
    return FT; // Function type in a pointer declarator.
  }
  return Base;
}

Type *Parser::parseAbstractType() {
  Type *T = parseTypeSpec();
  while (accept(Tok::Star))
    T = Ctx.ptrTo(T);
  // Abstract function-pointer types: "int (*)(int)".
  if (is(Tok::LParen) && peek().Kind == Tok::Star &&
      peek(2).Kind == Tok::RParen) {
    next();
    next();
    next();
    std::vector<Type *> Params;
    bool VarArg = false;
    expect(Tok::LParen, "(");
    if (!is(Tok::RParen)) {
      while (true) {
        if (accept(Tok::Ellipsis)) {
          VarArg = true;
          break;
        }
        std::string Ignored;
        Type *PT = parseDeclarator(parseTypeSpec(), Ignored, nullptr, nullptr);
        if (PT->isArray())
          PT = Ctx.ptrTo(cast<ArrayType>(PT)->element());
        Params.push_back(PT);
        if (!accept(Tok::Comma))
          break;
      }
    }
    expect(Tok::RParen, ")");
    T = Ctx.ptrTo(Ctx.funcTy(T, Params, VarArg));
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

bool Parser::run() {
  Scopes.emplace_back(); // Global scope.

  // Pre-declare the builtin library.
  for (const BuiltinRow &R : builtinTable())
    Scopes.front()[R.Name] = Binding{.F = M.declareBuiltin(R.Id)};

  try {
    while (!is(Tok::End))
      parseTopLevel();
  } catch (ParseAbort &) {
    return false;
  }
  return Errors.empty();
}

void Parser::parseTopLevel() {
  // Struct/union definition: "struct T { ... };"
  if ((is(Tok::KwStruct) || is(Tok::KwUnion)) && peek().Kind == Tok::Ident &&
      peek(2).Kind == Tok::LBrace) {
    parseStructDef(is(Tok::KwUnion));
    return;
  }

  Type *Base = parseTypeSpec();
  if (accept(Tok::Semi))
    return; // Bare "struct T;" forward declaration.

  std::string Name;
  FunctionType *FnTy = nullptr;
  std::vector<std::string> ParamNames;
  Type *Ty = parseDeclarator(Base, Name, &FnTy, &ParamNames);
  if (Name.empty())
    error("expected a name in declaration");

  if (FnTy) {
    parseFunctionRest(Ty, Name, FnTy, ParamNames);
    return;
  }
  parseGlobalRest(Base, Ty, Name);
}

void Parser::parseStructDef(bool IsUnion) {
  next(); // struct/union
  std::string Tag = (IsUnion ? "union." : "struct.") + cur().Text;
  next(); // tag
  next(); // {
  StructType *ST = Ctx.getStruct(Tag);
  if (!ST)
    ST = Ctx.createStruct(Tag);
  if (!ST->isOpaque())
    error("redefinition of " + Tag);

  std::vector<Type *> Fields;
  std::vector<std::string> Names;
  while (!accept(Tok::RBrace)) {
    Type *Base = parseTypeSpec();
    while (true) {
      std::string FName;
      Type *FTy = parseDeclarator(Base, FName, nullptr, nullptr);
      if (FName.empty())
        error("expected field name");
      Fields.push_back(FTy);
      Names.push_back(FName);
      if (!accept(Tok::Comma))
        break;
    }
    expect(Tok::Semi, ";");
  }
  expect(Tok::Semi, ";");
  ST->setBody(std::move(Fields), std::move(Names), IsUnion);
}

/// True when \p Name is in the `_sb_` namespace the SoftBound pass renames
/// every function into, or its `_sb_` form is a builtin's checked wrapper
/// (memcpy_nometa would become _sb_memcpy_nometa).
bool inSoftBoundNamespace(const std::string &Name) {
  if (Name.rfind("_sb_", 0) == 0)
    return true;
  for (const BuiltinRow &R : builtinTable())
    for (const char *W : {R.Wrapper, R.NoMetaWrapper})
      if (W && W == "_sb_" + Name)
        return true;
  return false;
}

void Parser::parseFunctionRest(Type *RetTy, const std::string &Name,
                               FunctionType *FnTy,
                               const std::vector<std::string> &ParamNames) {
  Function *F = M.getFunction(Name);
  if (!(F && F->isBuiltin()) && inSoftBoundNamespace(Name))
    error("function name '" + Name +
          "' is reserved: it collides with the SoftBound pass's _sb_ names");
  if (!F) {
    F = M.createFunction(Name, FnTy);
    Scopes.front()[Name] = Binding{.F = F};
  }
  if (accept(Tok::Semi))
    return; // Prototype only.
  if (F->isBuiltin())
    error("redefinition of builtin function '" + Name + "'");
  if (F->isDefinition())
    error("redefinition of function " + Name);

  CurFn = F;
  EntryBlock = F->createBlock("entry");
  BasicBlock *Body = F->createBlock("body");
  B.setInsertPoint(EntryBlock);
  B.br(Body);
  B.setInsertPoint(Body);

  Scopes.emplace_back();
  // Spill parameters to allocas so their address can be taken; mem2reg
  // promotes the ones that never are.
  for (unsigned I = 0; I < F->numArgs(); ++I) {
    std::string PN = I < ParamNames.size() && !ParamNames[I].empty()
                         ? ParamNames[I]
                         : "arg" + std::to_string(I);
    AllocaInst *Slot = createLocal(FnTy->param(I), PN);
    B.store(F->arg(I), Slot);
    Binding Bd;
    Bd.Addr = Slot;
    Bd.Ty = FnTy->param(I);
    bind(PN, Bd);
  }

  expect(Tok::LBrace, "{");
  while (!accept(Tok::RBrace))
    parseStatement();
  Scopes.pop_back();

  // Terminate a fall-through tail.
  if (!B.blockTerminated()) {
    if (RetTy->isVoid())
      B.ret();
    else if (RetTy->isPointer())
      B.ret(M.nullPtr(cast<PointerType>(RetTy)));
    else
      B.ret(M.constInt(cast<IntType>(RetTy), 0));
  }
  CurFn = nullptr;
}

//===----------------------------------------------------------------------===//
// Globals
//===----------------------------------------------------------------------===//

int64_t Parser::parseConstIntExpr() {
  // Small constant-expression evaluator: literals, sizeof, + - * / and
  // parentheses; enough for array bounds and global scalar initializers.
  std::function<int64_t()> Mul, Add, Prim;
  Prim = [&]() -> int64_t {
    if (accept(Tok::Minus))
      return -Prim();
    if (is(Tok::IntLit) || is(Tok::CharLit)) {
      int64_t V = cur().IntVal;
      next();
      return V;
    }
    if (accept(Tok::KwSizeof)) {
      expect(Tok::LParen, "(");
      Type *T = parseAbstractType();
      expect(Tok::RParen, ")");
      return static_cast<int64_t>(T->sizeInBytes());
    }
    if (accept(Tok::LParen)) {
      int64_t V = Add();
      expect(Tok::RParen, ")");
      return V;
    }
    error("expected a constant expression");
    return 0;
  };
  Mul = [&]() -> int64_t {
    int64_t V = Prim();
    while (is(Tok::Star) || is(Tok::Slash)) {
      bool IsMul = is(Tok::Star);
      next();
      int64_t R = Prim();
      V = IsMul ? V * R : (R ? V / R : 0);
    }
    return V;
  };
  Add = [&]() -> int64_t {
    int64_t V = Mul();
    while (is(Tok::Plus) || is(Tok::Minus)) {
      bool IsAdd = is(Tok::Plus);
      next();
      int64_t R = Mul();
      V = IsAdd ? V + R : V - R;
    }
    return V;
  };
  return Add();
}

void Parser::encodeConstInto(Type *Ty, GlobalInitializer &Init,
                             uint64_t Offset) {
  auto PutInt = [&](uint64_t V, uint64_t Size) {
    if (Init.Bytes.size() < Offset + Size)
      Init.Bytes.resize(Offset + Size, 0);
    std::memcpy(Init.Bytes.data() + Offset, &V, Size);
  };

  // Pointer initializers: NULL, &global, function name, string literal.
  if (Ty->isPointer()) {
    if (accept(Tok::KwNull) || (is(Tok::IntLit) && cur().IntVal == 0)) {
      if (is(Tok::IntLit))
        next();
      PutInt(0, 8);
      return;
    }
    if (is(Tok::StrLit)) {
      GlobalVariable *S = M.createStringLiteral(cur().Text);
      next();
      PutInt(0, 8);
      Init.Relocs.push_back({Offset, S});
      return;
    }
    bool TookAddr = accept(Tok::Amp);
    (void)TookAddr;
    if (!is(Tok::Ident))
      error("unsupported pointer initializer");
    Binding *Bd = lookup(cur().Text);
    if (!Bd)
      error("unknown name in initializer: " + cur().Text);
    next();
    PutInt(0, 8);
    if (Bd->F) {
      Init.Relocs.push_back({Offset, Bd->F});
      return;
    }
    Init.Relocs.push_back({Offset, cast<Constant>(Bd->Addr)});
    return;
  }

  if (Ty->isInt()) {
    int64_t V = parseConstIntExpr();
    PutInt(static_cast<uint64_t>(V), Ty->sizeInBytes());
    return;
  }

  if (auto *AT = dyn_cast<ArrayType>(Ty)) {
    // String initializer for char arrays.
    if (AT->element() == Ctx.i8() && is(Tok::StrLit)) {
      const std::string &S = cur().Text;
      if (Init.Bytes.size() < Offset + S.size() + 1)
        Init.Bytes.resize(Offset + S.size() + 1, 0);
      std::memcpy(Init.Bytes.data() + Offset, S.data(), S.size());
      next();
      return;
    }
    expect(Tok::LBrace, "{");
    uint64_t ElemSize = AT->element()->sizeInBytes();
    uint64_t Idx = 0;
    if (!is(Tok::RBrace)) {
      do {
        encodeConstInto(AT->element(), Init, Offset + Idx * ElemSize);
        ++Idx;
      } while (accept(Tok::Comma) && !is(Tok::RBrace));
    }
    expect(Tok::RBrace, "}");
    return;
  }

  if (auto *ST = dyn_cast<StructType>(Ty)) {
    expect(Tok::LBrace, "{");
    unsigned Idx = 0;
    if (!is(Tok::RBrace)) {
      do {
        if (Idx >= ST->numFields())
          error("too many struct initializers");
        encodeConstInto(ST->field(Idx), Init, Offset + ST->fieldOffset(Idx));
        ++Idx;
      } while (accept(Tok::Comma) && !is(Tok::RBrace));
    }
    expect(Tok::RBrace, "}");
    return;
  }

  error("unsupported global initializer");
}

void Parser::parseGlobalRest(Type *Base, Type *FirstTy,
                             const std::string &Name) {
  std::string CurName = Name;
  Type *CurTy = FirstTy;
  while (true) {
    GlobalInitializer Init;
    if (accept(Tok::Assign)) {
      // Unsized arrays take their size from a string initializer.
      if (auto *AT = dyn_cast<ArrayType>(CurTy);
          AT && AT->count() == 0 && is(Tok::StrLit))
        CurTy = Ctx.arrayOf(AT->element(), cur().Text.size() + 1);
      encodeConstInto(CurTy, Init, 0);
    }
    GlobalVariable *G = M.createGlobal(CurName, CurTy, std::move(Init));
    Binding Bd;
    Bd.Addr = G;
    Bd.Ty = CurTy;
    Scopes.front()[CurName] = Bd;

    if (!accept(Tok::Comma))
      break;
    CurName.clear();
    CurTy = parseDeclarator(Base, CurName, nullptr, nullptr);
    if (CurName.empty())
      error("expected a name in declaration");
  }
  expect(Tok::Semi, ";");
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

AllocaInst *Parser::createLocal(Type *Ty, const std::string &Name) {
  // Allocas live in the entry block, before its terminator.
  auto Term = std::prev(EntryBlock->end());
  auto *AI = new AllocaInst(Ctx.ptrTo(Ty), Ty, Name);
  EntryBlock->insertBefore(Term, std::unique_ptr<Instruction>(AI));
  return AI;
}

void Parser::ensureBlock() {
  // After a return/break the block is closed; open an unreachable
  // continuation block so further statements have a home.
  if (B.blockTerminated())
    B.setInsertPoint(CurFn->createBlock("dead"));
}

void Parser::parseBlock() {
  expect(Tok::LBrace, "{");
  Scopes.emplace_back();
  while (!accept(Tok::RBrace))
    parseStatement();
  Scopes.pop_back();
}

void Parser::parseLocalDecl() {
  Type *Base = parseTypeSpec();
  while (true) {
    std::string Name;
    Type *Ty = parseDeclarator(Base, Name, nullptr, nullptr);
    if (Name.empty())
      error("expected a variable name");

    // Unsized char array with string init takes its size from the string.
    if (auto *AT = dyn_cast<ArrayType>(Ty); AT && AT->count() == 0) {
      if (is(Tok::Assign) && peek().Kind == Tok::StrLit)
        Ty = Ctx.arrayOf(AT->element(), peek().Text.size() + 1);
      else
        error("unsized local array needs a string initializer");
    }

    AllocaInst *Slot = createLocal(Ty, Name);
    Binding Bd;
    Bd.Addr = Slot;
    Bd.Ty = Ty;
    bind(Name, Bd);

    if (accept(Tok::Assign)) {
      if (auto *AT = dyn_cast<ArrayType>(Ty)) {
        if (is(Tok::StrLit)) {
          // Local char array initialized from a string constant: memcpy.
          GlobalVariable *S = M.createStringLiteral(cur().Text);
          uint64_t N = cur().Text.size() + 1;
          next();
          Function *Memcpy = M.declareBuiltin(Builtin::Memcpy);
          Value *Dst = B.gep(AT, Slot, {M.constI64(0), M.constI64(0)});
          Value *Src =
              B.gep(S->valueType(), S, {M.constI64(0), M.constI64(0)});
          B.call(Memcpy, {Dst, Src, M.constI64(static_cast<int64_t>(N))});
        } else {
          // Brace-initialized local array: element stores.
          expect(Tok::LBrace, "{");
          uint64_t Idx = 0;
          if (!is(Tok::RBrace)) {
            do {
              Value *V = rvalue(parseAssign());
              Value *Slot2 = B.gep(
                  AT, Slot,
                  {M.constI64(0), M.constI64(static_cast<int64_t>(Idx))});
              B.store(convert(V, AT->element()), Slot2);
              ++Idx;
            } while (accept(Tok::Comma) && !is(Tok::RBrace));
          }
          expect(Tok::RBrace, "}");
        }
      } else {
        Value *V = rvalue(parseAssign());
        B.store(convert(V, Ty), Slot);
      }
    }
    if (!accept(Tok::Comma))
      break;
  }
  expect(Tok::Semi, ";");
}

void Parser::parseStatement() {
  ensureBlock();

  if (is(Tok::LBrace)) {
    parseBlock();
    return;
  }
  if (accept(Tok::Semi))
    return;

  if (startsType()) {
    parseLocalDecl();
    return;
  }

  if (accept(Tok::KwReturn)) {
    Type *RetTy = CurFn->returnType();
    if (accept(Tok::Semi)) {
      B.ret();
      return;
    }
    Value *V = rvalue(parseExpr());
    expect(Tok::Semi, ";");
    B.ret(convert(V, RetTy));
    return;
  }

  if (accept(Tok::KwIf)) {
    // An `else if` chain is read in a loop, so a long chain cannot
    // overflow the host stack. Each link's if.end waits on Pending until
    // the chain's last else closes; the if.ends are then joined innermost
    // first.
    std::vector<BasicBlock *> Pending;
    while (true) {
      expect(Tok::LParen, "(");
      Value *Cond = toBool(rvalue(parseExpr()));
      expect(Tok::RParen, ")");
      BasicBlock *Then = CurFn->createBlock("if.then");
      BasicBlock *Else = CurFn->createBlock("if.else");
      Pending.push_back(CurFn->createBlock("if.end"));
      B.condBr(Cond, Then, Else);
      B.setInsertPoint(Then);
      parseStatement();
      if (!B.blockTerminated())
        B.br(Pending.back());
      B.setInsertPoint(Else);
      if (!accept(Tok::KwElse))
        break;
      if (!accept(Tok::KwIf)) {
        parseStatement();
        break;
      }
    }
    for (auto It = Pending.rbegin(); It != Pending.rend(); ++It) {
      if (!B.blockTerminated())
        B.br(*It);
      B.setInsertPoint(*It);
    }
    return;
  }

  if (accept(Tok::KwWhile)) {
    expect(Tok::LParen, "(");
    BasicBlock *CondBB = CurFn->createBlock("while.cond");
    BasicBlock *BodyBB = CurFn->createBlock("while.body");
    BasicBlock *EndBB = CurFn->createBlock("while.end");
    B.br(CondBB);
    B.setInsertPoint(CondBB);
    Value *Cond = toBool(rvalue(parseExpr()));
    expect(Tok::RParen, ")");
    B.condBr(Cond, BodyBB, EndBB);
    B.setInsertPoint(BodyBB);
    LoopStack.push_back({EndBB, CondBB});
    parseStatement();
    LoopStack.pop_back();
    if (!B.blockTerminated())
      B.br(CondBB);
    B.setInsertPoint(EndBB);
    return;
  }

  if (accept(Tok::KwDo)) {
    BasicBlock *BodyBB = CurFn->createBlock("do.body");
    BasicBlock *CondBB = CurFn->createBlock("do.cond");
    BasicBlock *EndBB = CurFn->createBlock("do.end");
    B.br(BodyBB);
    B.setInsertPoint(BodyBB);
    LoopStack.push_back({EndBB, CondBB});
    parseStatement();
    LoopStack.pop_back();
    if (!B.blockTerminated())
      B.br(CondBB);
    expect(Tok::KwWhile, "while");
    expect(Tok::LParen, "(");
    B.setInsertPoint(CondBB);
    Value *Cond = toBool(rvalue(parseExpr()));
    expect(Tok::RParen, ")");
    expect(Tok::Semi, ";");
    B.condBr(Cond, BodyBB, EndBB);
    B.setInsertPoint(EndBB);
    return;
  }

  if (accept(Tok::KwFor)) {
    expect(Tok::LParen, "(");
    Scopes.emplace_back();
    if (!accept(Tok::Semi)) {
      if (startsType())
        parseLocalDecl(); // Consumes the ';'.
      else {
        parseExpr();
        expect(Tok::Semi, ";");
      }
    }
    BasicBlock *CondBB = CurFn->createBlock("for.cond");
    BasicBlock *BodyBB = CurFn->createBlock("for.body");
    BasicBlock *StepBB = CurFn->createBlock("for.step");
    BasicBlock *EndBB = CurFn->createBlock("for.end");
    B.br(CondBB);
    B.setInsertPoint(CondBB);
    if (is(Tok::Semi)) {
      B.br(BodyBB);
    } else {
      Value *Cond = toBool(rvalue(parseExpr()));
      B.condBr(Cond, BodyBB, EndBB);
    }
    expect(Tok::Semi, ";");
    // Step expression: parse later; remember tokens.
    size_t StepStart = Pos;
    int Depth = 0;
    while (!(Depth == 0 && is(Tok::RParen))) {
      if (is(Tok::LParen))
        ++Depth;
      if (is(Tok::RParen))
        --Depth;
      if (is(Tok::End))
        error("unterminated for header");
      next();
    }
    size_t StepEnd = Pos;
    expect(Tok::RParen, ")");

    B.setInsertPoint(BodyBB);
    LoopStack.push_back({EndBB, StepBB});
    parseStatement();
    LoopStack.pop_back();
    if (!B.blockTerminated())
      B.br(StepBB);

    B.setInsertPoint(StepBB);
    if (StepEnd > StepStart) {
      size_t Resume = Pos;
      Pos = StepStart;
      parseExpr();
      Pos = Resume;
    }
    B.br(CondBB);
    B.setInsertPoint(EndBB);
    Scopes.pop_back();
    return;
  }

  if (accept(Tok::KwBreak)) {
    expect(Tok::Semi, ";");
    if (LoopStack.empty())
      error("break outside a loop");
    B.br(LoopStack.back().first);
    return;
  }
  if (accept(Tok::KwContinue)) {
    expect(Tok::Semi, ";");
    if (LoopStack.empty())
      error("continue outside a loop");
    B.br(LoopStack.back().second);
    return;
  }

  parseExpr();
  expect(Tok::Semi, ";");
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Binding *Parser::lookup(const std::string &Name) {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto F = It->find(Name);
    if (F != It->end())
      return &F->second;
  }
  return nullptr;
}

Value *Parser::rvalue(CVal C) {
  if (!C.LV)
    return C.V;
  if (auto *AT = dyn_cast<ArrayType>(C.Ty))
    return B.gep(AT, C.V, {M.constI64(0), M.constI64(0)}, "decay");
  return B.load(C.Ty, C.V);
}

Value *Parser::convert(Value *V, Type *To) {
  Type *From = V->type();
  if (From == To)
    return V;
  if (From->isInt() && To->isInt()) {
    unsigned FB = cast<IntType>(From)->bits(), TB = cast<IntType>(To)->bits();
    if (FB == TB)
      return V;
    if (FB > TB)
      return B.castOp(CastInst::Op::Trunc, V, To);
    // i1 widens with zero extension (comparison results are 0/1).
    return B.castOp(FB == 1 ? CastInst::Op::ZExt : CastInst::Op::SExt, V, To);
  }
  if (From->isPointer() && To->isPointer())
    return B.bitcast(V, To);
  if (From->isInt() && To->isPointer()) {
    if (auto *CI = dyn_cast<ConstantInt>(V); CI && CI->isZero())
      return M.nullPtr(cast<PointerType>(To));
    if (cast<IntType>(From)->bits() != 64)
      V = B.castOp(CastInst::Op::SExt, V, Ctx.i64());
    return B.castOp(CastInst::Op::IntToPtr, V, To);
  }
  if (From->isPointer() && To->isInt()) {
    Value *I = B.castOp(CastInst::Op::PtrToInt, V, Ctx.i64());
    return convert(I, To);
  }
  error("invalid conversion from " + From->str() + " to " + To->str());
  return nullptr;
}

Value *Parser::toBool(Value *V) {
  if (V->type()->isPointer())
    return B.icmp(ICmpInst::Pred::NE, V,
                  M.nullPtr(cast<PointerType>(V->type())));
  if (cast<IntType>(V->type())->bits() == 1)
    return V;
  return B.icmp(ICmpInst::Pred::NE, V,
                M.constInt(cast<IntType>(V->type()), 0));
}

Type *Parser::promote2(Value *&L, Value *&R) {
  // Usual arithmetic promotions: everything to int, then to the wider.
  auto Widen = [&](Value *V) -> Value * {
    unsigned Bits = cast<IntType>(V->type())->bits();
    return Bits < 32 ? convert(V, Ctx.i32()) : V;
  };
  L = Widen(L);
  R = Widen(R);
  unsigned LB = cast<IntType>(L->type())->bits();
  unsigned RB = cast<IntType>(R->type())->bits();
  if (LB < RB)
    L = convert(L, R->type());
  else if (RB < LB)
    R = convert(R, L->type());
  return L->type();
}

Value *Parser::emitBinop(Tok Op, Value *L, Value *R) {
  // Pointer arithmetic and comparisons.
  bool LP = L->type()->isPointer(), RP = R->type()->isPointer();
  if (LP || RP) {
    switch (Op) {
    case Tok::Plus: {
      if (RP)
        std::swap(L, R);
      Type *Elem = cast<PointerType>(L->type())->pointee();
      return B.gep(Elem, L, {convert(R, Ctx.i64())}, "padd");
    }
    case Tok::Minus: {
      if (LP && RP) {
        Value *LI = B.castOp(CastInst::Op::PtrToInt, L, Ctx.i64());
        Value *RI = B.castOp(CastInst::Op::PtrToInt, R, Ctx.i64());
        Value *D = B.sub(LI, RI);
        uint64_t ES = cast<PointerType>(L->type())->pointee()->sizeInBytes();
        return B.binop(BinOpInst::Op::SDiv, D,
                       M.constI64(static_cast<int64_t>(ES ? ES : 1)));
      }
      Type *Elem = cast<PointerType>(L->type())->pointee();
      Value *Neg = B.sub(M.constI64(0), convert(R, Ctx.i64()));
      return B.gep(Elem, L, {Neg}, "psub");
    }
    case Tok::EqEq:
    case Tok::NotEq:
    case Tok::Lt:
    case Tok::Gt:
    case Tok::Le:
    case Tok::Ge: {
      if (!LP)
        L = convert(L, R->type());
      if (!RP)
        R = convert(R, L->type());
      if (L->type() != R->type())
        R = B.bitcast(R, L->type());
      ICmpInst::Pred P;
      switch (Op) {
      case Tok::EqEq:
        P = ICmpInst::Pred::EQ;
        break;
      case Tok::NotEq:
        P = ICmpInst::Pred::NE;
        break;
      case Tok::Lt:
        P = ICmpInst::Pred::ULT;
        break;
      case Tok::Gt:
        P = ICmpInst::Pred::UGT;
        break;
      case Tok::Le:
        P = ICmpInst::Pred::ULE;
        break;
      default:
        P = ICmpInst::Pred::UGE;
        break;
      }
      return convert(B.icmp(P, L, R), Ctx.i32());
    }
    default:
      error("invalid operands to binary operator");
    }
  }

  promote2(L, R);
  switch (Op) {
  case Tok::Plus:
    return B.add(L, R);
  case Tok::Minus:
    return B.sub(L, R);
  case Tok::Star:
    return B.mul(L, R);
  case Tok::Slash:
    return B.binop(BinOpInst::Op::SDiv, L, R);
  case Tok::Percent:
    return B.binop(BinOpInst::Op::SRem, L, R);
  case Tok::Amp:
    return B.binop(BinOpInst::Op::And, L, R);
  case Tok::Pipe:
    return B.binop(BinOpInst::Op::Or, L, R);
  case Tok::Caret:
    return B.binop(BinOpInst::Op::Xor, L, R);
  case Tok::Shl:
    return B.binop(BinOpInst::Op::Shl, L, R);
  case Tok::Shr:
    return B.binop(BinOpInst::Op::AShr, L, R);
  case Tok::EqEq:
    return convert(B.icmp(ICmpInst::Pred::EQ, L, R), Ctx.i32());
  case Tok::NotEq:
    return convert(B.icmp(ICmpInst::Pred::NE, L, R), Ctx.i32());
  case Tok::Lt:
    return convert(B.icmp(ICmpInst::Pred::SLT, L, R), Ctx.i32());
  case Tok::Gt:
    return convert(B.icmp(ICmpInst::Pred::SGT, L, R), Ctx.i32());
  case Tok::Le:
    return convert(B.icmp(ICmpInst::Pred::SLE, L, R), Ctx.i32());
  case Tok::Ge:
    return convert(B.icmp(ICmpInst::Pred::SGE, L, R), Ctx.i32());
  default:
    sb_unreachable("not a binary operator");
  }
}

namespace {
int precOf(Tok K) {
  switch (K) {
  case Tok::Star:
  case Tok::Slash:
  case Tok::Percent:
    return 10;
  case Tok::Plus:
  case Tok::Minus:
    return 9;
  case Tok::Shl:
  case Tok::Shr:
    return 8;
  case Tok::Lt:
  case Tok::Gt:
  case Tok::Le:
  case Tok::Ge:
    return 7;
  case Tok::EqEq:
  case Tok::NotEq:
    return 6;
  case Tok::Amp:
    return 5;
  case Tok::Caret:
    return 4;
  case Tok::Pipe:
    return 3;
  default:
    return -1;
  }
}
} // namespace

CVal Parser::parseBinary(int MinPrec) {
  CVal L = parseUnary();
  while (true) {
    int P = precOf(cur().Kind);
    if (P < MinPrec)
      return L;
    Tok Op = cur().Kind;
    next();
    CVal Rv = parseBinary(P + 1);
    L = makeRV(emitBinop(Op, rvalue(L), rvalue(Rv)));
  }
}

CVal Parser::parseLogAnd() {
  CVal L = parseBinary(0);
  if (!is(Tok::AmpAmp))
    return L;
  AllocaInst *Tmp = createLocal(Ctx.i32(), "andtmp");
  BasicBlock *FalseBB = CurFn->createBlock("land.false");
  BasicBlock *EndBB = CurFn->createBlock("land.end");
  while (accept(Tok::AmpAmp)) {
    Value *C = toBool(rvalue(L));
    BasicBlock *NextBB = CurFn->createBlock("land.rhs");
    B.condBr(C, NextBB, FalseBB);
    B.setInsertPoint(NextBB);
    L = parseBinary(0);
  }
  Value *Last = toBool(rvalue(L));
  B.store(convert(Last, Ctx.i32()), Tmp);
  B.br(EndBB);
  B.setInsertPoint(FalseBB);
  B.store(M.constI32(0), Tmp);
  B.br(EndBB);
  B.setInsertPoint(EndBB);
  return CVal{Tmp, Ctx.i32(), true};
}

CVal Parser::parseLogOr() {
  CVal L = parseLogAnd();
  if (!is(Tok::PipePipe))
    return L;
  AllocaInst *Tmp = createLocal(Ctx.i32(), "ortmp");
  BasicBlock *TrueBB = CurFn->createBlock("lor.true");
  BasicBlock *EndBB = CurFn->createBlock("lor.end");
  while (accept(Tok::PipePipe)) {
    Value *C = toBool(rvalue(L));
    BasicBlock *NextBB = CurFn->createBlock("lor.rhs");
    B.condBr(C, TrueBB, NextBB);
    B.setInsertPoint(NextBB);
    L = parseLogAnd();
  }
  Value *Last = toBool(rvalue(L));
  B.store(convert(Last, Ctx.i32()), Tmp);
  B.br(EndBB);
  B.setInsertPoint(TrueBB);
  B.store(M.constI32(1), Tmp);
  B.br(EndBB);
  B.setInsertPoint(EndBB);
  return CVal{Tmp, Ctx.i32(), true};
}

CVal Parser::parseCondExpr() {
  CVal C = parseLogOr();
  if (!is(Tok::Question))
    return C;
  next();
  Value *Cond = toBool(rvalue(C));
  BasicBlock *TrueBB = CurFn->createBlock("sel.true");
  BasicBlock *FalseBB = CurFn->createBlock("sel.false");
  BasicBlock *EndBB = CurFn->createBlock("sel.end");
  B.condBr(Cond, TrueBB, FalseBB);

  B.setInsertPoint(TrueBB);
  Value *TV = rvalue(parseAssign());
  BasicBlock *TrueOut = B.insertBlock();
  expect(Tok::Colon, ":");

  B.setInsertPoint(FalseBB);
  Value *FV = rvalue(parseCondExpr());
  BasicBlock *FalseOut = B.insertBlock();

  // Unify the result type.
  Type *RTy;
  if (TV->type()->isPointer() || FV->type()->isPointer())
    RTy = TV->type()->isPointer() ? TV->type() : FV->type();
  else
    RTy = cast<IntType>(TV->type())->bits() >=
                  cast<IntType>(FV->type())->bits()
              ? TV->type()
              : FV->type();
  if (RTy->isInt() && cast<IntType>(RTy)->bits() < 32)
    RTy = Ctx.i32();

  AllocaInst *Tmp = createLocal(RTy, "seltmp");
  B.setInsertPoint(TrueOut);
  B.store(convert(TV, RTy), Tmp);
  B.br(EndBB);
  B.setInsertPoint(FalseOut);
  B.store(convert(FV, RTy), Tmp);
  B.br(EndBB);
  B.setInsertPoint(EndBB);
  return CVal{Tmp, RTy, true};
}

CVal Parser::parseAssign() {
  CVal L = parseCondExpr();
  Tok K = cur().Kind;
  bool Simple = K == Tok::Assign;
  Tok Under;
  switch (K) {
  case Tok::PlusAssign:
    Under = Tok::Plus;
    break;
  case Tok::MinusAssign:
    Under = Tok::Minus;
    break;
  case Tok::StarAssign:
    Under = Tok::Star;
    break;
  case Tok::SlashAssign:
    Under = Tok::Slash;
    break;
  case Tok::PercentAssign:
    Under = Tok::Percent;
    break;
  case Tok::AmpAssign:
    Under = Tok::Amp;
    break;
  case Tok::PipeAssign:
    Under = Tok::Pipe;
    break;
  case Tok::CaretAssign:
    Under = Tok::Caret;
    break;
  case Tok::ShlAssign:
    Under = Tok::Shl;
    break;
  case Tok::ShrAssign:
    Under = Tok::Shr;
    break;
  default:
    if (!Simple)
      return L;
    Under = Tok::Assign;
    break;
  }
  next();
  if (!L.LV)
    error("assignment to a non-lvalue");
  CVal Rv = parseAssign();
  Value *RV = rvalue(Rv);
  if (!Simple) {
    Value *Old = B.load(L.Ty, L.V);
    RV = emitBinop(Under, Old, RV);
  }
  RV = convert(RV, L.Ty);
  B.store(RV, L.V);
  return makeRV(RV);
}

CVal Parser::parseUnary() {
  switch (cur().Kind) {
  case Tok::Plus:
    next();
    return makeRV(rvalue(parseUnary()));
  case Tok::Minus: {
    next();
    Value *V = rvalue(parseUnary());
    Value *Z = M.constInt(cast<IntType>(V->type()), 0);
    return makeRV(B.sub(Z, V));
  }
  case Tok::Tilde: {
    next();
    Value *V = rvalue(parseUnary());
    Value *AllOnes = M.constInt(cast<IntType>(V->type()), -1);
    return makeRV(B.binop(BinOpInst::Op::Xor, V, AllOnes));
  }
  case Tok::Bang: {
    next();
    Value *V = toBool(rvalue(parseUnary()));
    Value *NotV = B.binop(BinOpInst::Op::Xor, V, M.constI1(true));
    return makeRV(convert(NotV, Ctx.i32()));
  }
  case Tok::Star: {
    next();
    Value *P = rvalue(parseUnary());
    if (!P->type()->isPointer())
      error("dereference of a non-pointer");
    Type *Pointee = cast<PointerType>(P->type())->pointee();
    return CVal{P, Pointee, true};
  }
  case Tok::Amp: {
    next();
    CVal L = parseUnary();
    if (!L.LV) {
      // &function is the function value itself.
      if (L.V->type()->isPointer() &&
          cast<PointerType>(L.V->type())->pointee()->isFunction())
        return L;
      error("address of a non-lvalue");
    }
    if (L.Ty->isArray()) {
      // &array decays to a pointer to the first element (paper §3.1 usage).
      return makeRV(rvalue(L));
    }
    return CVal{L.V, Ctx.ptrTo(L.Ty), false};
  }
  case Tok::PlusPlus:
  case Tok::MinusMinus: {
    bool Inc = cur().Kind == Tok::PlusPlus;
    next();
    CVal L = parseUnary();
    if (!L.LV)
      error("++/-- on a non-lvalue");
    Value *Old = B.load(L.Ty, L.V);
    Value *New = emitBinop(Inc ? Tok::Plus : Tok::Minus, Old,
                           M.constI32(1));
    New = convert(New, L.Ty);
    B.store(New, L.V);
    return makeRV(New);
  }
  case Tok::KwSizeof: {
    next();
    if (is(Tok::LParen) && startsTypeAt(1)) {
      next();
      Type *T = parseAbstractType();
      expect(Tok::RParen, ")");
      return makeRV(M.constI64(static_cast<int64_t>(T->sizeInBytes())));
    }
    CVal V = parseUnary();
    return makeRV(M.constI64(static_cast<int64_t>(V.Ty->sizeInBytes())));
  }
  case Tok::LParen:
    // Cast expression?
    if (startsTypeAt(1)) {
      next();
      Type *T = parseAbstractType();
      expect(Tok::RParen, ")");
      Value *V = rvalue(parseUnary());
      if (T->isVoid())
        return makeRV(M.constI32(0));
      return makeRV(convert(V, T));
    }
    return parsePostfix();
  default:
    return parsePostfix();
  }
}

CVal Parser::parsePostfix() {
  CVal C = parsePrimary();
  while (true) {
    if (accept(Tok::LBracket)) {
      Value *P = rvalue(C);
      Value *Idx = rvalue(parseExpr());
      expect(Tok::RBracket, "]");
      if (!P->type()->isPointer())
        error("subscript of a non-pointer");
      Type *Elem = cast<PointerType>(P->type())->pointee();
      Value *Addr = B.gep(Elem, P, {convert(Idx, Ctx.i64())}, "idx");
      C = CVal{Addr, Elem, true};
      continue;
    }
    if (is(Tok::LParen)) {
      C = parseCall(C);
      continue;
    }
    if (accept(Tok::Dot) || (is(Tok::Arrow) && (next(), true))) {
      bool WasArrow = Toks[Pos - 1].Kind == Tok::Arrow;
      if (!is(Tok::Ident))
        error("expected field name");
      std::string FName = cur().Text;
      next();
      Value *BaseAddr;
      Type *AggTy;
      if (WasArrow) {
        Value *P = rvalue(C);
        if (!P->type()->isPointer())
          error("-> on a non-pointer");
        AggTy = cast<PointerType>(P->type())->pointee();
        BaseAddr = P;
      } else {
        if (!C.LV)
          error(". on a non-lvalue");
        AggTy = C.Ty;
        BaseAddr = C.V;
      }
      auto *ST = dyn_cast<StructType>(AggTy);
      if (!ST || ST->isOpaque())
        error("member access on a non-struct");
      int FieldIdx = ST->fieldIndex(FName);
      if (FieldIdx < 0)
        error("no field named " + FName + " in " + ST->name());
      Value *Addr =
          B.gep(ST, BaseAddr, {M.constI64(0), M.constI64(FieldIdx)}, FName);
      C = CVal{Addr, ST->field(FieldIdx), true};
      continue;
    }
    if (is(Tok::PlusPlus) || is(Tok::MinusMinus)) {
      bool Inc = is(Tok::PlusPlus);
      next();
      if (!C.LV)
        error("++/-- on a non-lvalue");
      Value *Old = B.load(C.Ty, C.V);
      Value *New =
          emitBinop(Inc ? Tok::Plus : Tok::Minus, Old, M.constI32(1));
      B.store(convert(New, C.Ty), C.V);
      C = makeRV(Old);
      continue;
    }
    return C;
  }
}

CVal Parser::parseCall(CVal Callee) {
  expect(Tok::LParen, "(");
  std::vector<Value *> Args;
  if (!is(Tok::RParen)) {
    do {
      Args.push_back(rvalue(parseAssign()));
    } while (accept(Tok::Comma));
  }
  expect(Tok::RParen, ")");

  // Determine the callee: a function constant or a function-pointer value.
  Value *CalleeV = Callee.LV ? rvalue(Callee) : Callee.V;
  FunctionType *FTy = nullptr;
  Function *Direct = dyn_cast<Function>(CalleeV);
  if (Direct) {
    FTy = Direct->functionType();
  } else if (CalleeV->type()->isPointer() &&
             cast<PointerType>(CalleeV->type())->pointee()->isFunction()) {
    FTy = cast<FunctionType>(cast<PointerType>(CalleeV->type())->pointee());
  } else {
    error("call of a non-function");
  }

  if (Args.size() < FTy->numParams() ||
      (Args.size() > FTy->numParams() && !FTy->isVarArg()))
    error("wrong number of arguments");
  for (unsigned I = 0; I < FTy->numParams(); ++I)
    Args[I] = convert(Args[I], FTy->param(I));
  // Default promotions for variadic extras.
  for (size_t I = FTy->numParams(); I < Args.size(); ++I)
    if (Args[I]->type()->isInt() &&
        cast<IntType>(Args[I]->type())->bits() < 32)
      Args[I] = convert(Args[I], Ctx.i32());

  CallInst *CI =
      Direct ? B.call(Direct, Args) : B.callIndirect(FTy, CalleeV, Args);
  if (FTy->returnType()->isVoid())
    return makeRV(M.constI32(0));
  return makeRV(CI);
}

CVal Parser::parsePrimary() {
  switch (cur().Kind) {
  case Tok::IntLit: {
    int64_t V = cur().IntVal;
    next();
    bool Fits32 = V >= INT32_MIN && V <= INT32_MAX;
    return makeRV(Fits32 ? static_cast<Value *>(M.constI32(V))
                         : static_cast<Value *>(M.constI64(V)));
  }
  case Tok::CharLit: {
    int64_t V = cur().IntVal;
    next();
    return makeRV(M.constI32(V));
  }
  case Tok::StrLit: {
    GlobalVariable *S = M.createStringLiteral(cur().Text);
    next();
    Value *P = B.gep(S->valueType(), S, {M.constI64(0), M.constI64(0)}, "str");
    return makeRV(P);
  }
  case Tok::KwNull:
    next();
    return makeRV(M.nullPtr(Ctx.ptrTo(Ctx.i8())));
  case Tok::LParen: {
    next();
    CVal C = parseExpr();
    expect(Tok::RParen, ")");
    return C;
  }
  case Tok::Ident: {
    Binding *Bd = lookup(cur().Text);
    if (!Bd)
      error("unknown identifier: " + cur().Text);
    next();
    if (Bd->F)
      return makeRV(Bd->F);
    return CVal{Bd->Addr, Bd->Ty, true};
  }
  default:
    error("expected an expression");
    return {};
  }
}

} // namespace

CompileResult softbound::compileC(const std::string &Source) {
  CompileResult Out;
  Lexer L(Source);
  if (L.hadError()) {
    Out.Errors.push_back(L.error());
    return Out;
  }
  auto M = std::make_unique<Module>();
  Parser P(L.tokens(), *M);
  bool Ok = P.run();
  Out.Errors = P.takeErrors();
  if (Ok)
    Out.M = std::move(M);
  return Out;
}

//===- frontend/Compiler.h - mini-C to IR compiler --------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles the mini-C dialect to IR in one pass (lex + parse + emit). The
/// dialect covers the C features the paper's transformation must handle:
/// arbitrary pointer arithmetic, arrays conflated with pointers, structs
/// with internal arrays, unions (via casts), function pointers, varargs,
/// setjmp/longjmp, string/heap library calls, and global initializers.
///
/// Deliberate simplifications (documented in DESIGN.md): no floating point
/// (fixed-point arithmetic instead), `unsigned` parsed but treated as
/// signed, no typedef/switch/goto.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_FRONTEND_COMPILER_H
#define SOFTBOUND_FRONTEND_COMPILER_H

#include "ir/Module.h"

#include <memory>
#include <string>
#include <vector>

namespace softbound {

/// Result of compiling one source buffer.
struct CompileResult {
  std::unique_ptr<Module> M;
  std::vector<std::string> Errors;

  bool ok() const { return M != nullptr && Errors.empty(); }
  /// All errors joined for test assertions / diagnostics.
  std::string errorText() const {
    std::string S;
    for (const auto &E : Errors)
      S += E + "\n";
    return S;
  }
};

/// Compiles mini-C source into a fresh module. The builtin library
/// (ir/Builtins.h) is pre-declared. On error, M may be null or partial
/// and Errors is non-empty.
CompileResult compileC(const std::string &Source);

} // namespace softbound

#endif // SOFTBOUND_FRONTEND_COMPILER_H

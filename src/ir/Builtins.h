//===- ir/Builtins.h - the builtin library table ----------------*- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The builtin library the VM implements natively, declared once: each
/// row gives a builtin's name, signature and SoftBound contract (§5.2) —
/// its checked `_sb_` wrapper, what that checks, how a pointer result
/// gets bounds, and whether a call can end or redirect the run. The
/// frontend, the SoftBound pass, checkopt and the VM all read this table.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_IR_BUILTINS_H
#define SOFTBOUND_IR_BUILTINS_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace softbound {

/// One builtin; `None` marks an ordinary function.
enum class Builtin : uint8_t {
  None, Malloc, Free, Memcpy, Memset, Strlen, Strcpy, Strcat, Strcmp,
  PrintInt, PrintChar, PrintStr, Exit, Rand, Srand, Setjmp, Longjmp,
  RequestGuard, RequestEnd, SetBound, Unbound
};

/// Which implementation of a builtin a declaration stands for.
enum class BuiltinVariant : uint8_t {
  Plain,         ///< The C-level function.
  Checked,       ///< Its `_sb_` wrapper: the arguments, then one bounds per
                 ///< pointer parameter (§3.3); each access is checked.
  CheckedNoMeta, ///< memcpy's pointer-free wrapper: clears, not copies, the
                 ///< destination's metadata (§5.2).
};

/// A type in a builtin signature.
enum class BuiltinType : uint8_t { Void, I32, I64, I8Ptr, I64Ptr };

/// What a checked call checks through one pointer parameter.
enum class BuiltinAccess : uint8_t { None, Load, Store };

/// How the pointer result of an instrumented call gets its bounds.
enum class ResultBounds : uint8_t {
  None,      ///< No pointer result.
  Arg0,      ///< Argument 0's bounds (the destination).
  Alloc,     ///< [p, p + arg0), or null bounds when p is null (malloc).
  SetBound,  ///< [p, p + arg1): the __setbound escape hatch.
  Unbounded, ///< The whole address space: __unbound.
};

/// One builtin's declaration and SoftBound contract.
struct BuiltinRow {
  Builtin Id = Builtin::None;
  const char *Name = nullptr;
  BuiltinType Ret = BuiltinType::Void;
  /// Parameter types; the first Void ends the list.
  std::array<BuiltinType, 3> Params = {};
  /// The access a checked call checks through each parameter.
  std::array<BuiltinAccess, 3> Checks = {};
  /// The checked wrapper an instrumented call is rewritten to, or null.
  const char *Wrapper = nullptr;
  /// The wrapper chosen when the copied data is provably pointer-free.
  const char *NoMetaWrapper = nullptr;
  /// Nonzero when argument 0 points to a fixed-size object (the jmp_buf):
  /// the SoftBound pass checks it inline, before the call.
  uint8_t InlineCheckBytes = 0;
  ResultBounds Result = ResultBounds::None;
  /// A call can end the run normally or resume it elsewhere.
  bool Escapes = false;

  constexpr unsigned numParams() const {
    unsigned N = 0;
    while (N < Params.size() && Params[N] != BuiltinType::Void)
      ++N;
    return N;
  }
  static constexpr bool isPointer(BuiltinType T) {
    return T == BuiltinType::I8Ptr || T == BuiltinType::I64Ptr;
  }
  /// Argument index of parameter \p I's bounds in a checked call: the
  /// bounds follow the original arguments, one per pointer parameter.
  constexpr unsigned boundsArg(unsigned I) const {
    unsigned Idx = numParams();
    for (unsigned K = 0; K < I; ++K)
      Idx += isPointer(Params[K]);
    return Idx;
  }
};

namespace detail {
using T = BuiltinType;
using A = BuiltinAccess;
using R = ResultBounds;
inline constexpr BuiltinRow BuiltinRows[] = {
    {.Id = Builtin::Malloc, .Name = "malloc", .Ret = T::I8Ptr,
     .Params = {T::I64}, .Result = R::Alloc},
    // The runtime clears the block's metadata on free (§5.2).
    {.Id = Builtin::Free, .Name = "free", .Params = {T::I8Ptr}},
    {.Id = Builtin::Memcpy, .Name = "memcpy", .Ret = T::I8Ptr,
     .Params = {T::I8Ptr, T::I8Ptr, T::I64}, .Checks = {A::Store, A::Load},
     .Wrapper = "_sb_memcpy", .NoMetaWrapper = "_sb_memcpy_nometa",
     .Result = R::Arg0},
    {.Id = Builtin::Memset, .Name = "memset", .Ret = T::I8Ptr,
     .Params = {T::I8Ptr, T::I32, T::I64}, .Checks = {A::Store},
     .Wrapper = "_sb_memset", .Result = R::Arg0},
    {.Id = Builtin::Strlen, .Name = "strlen", .Ret = T::I64,
     .Params = {T::I8Ptr}, .Checks = {A::Load}, .Wrapper = "_sb_strlen"},
    {.Id = Builtin::Strcpy, .Name = "strcpy", .Ret = T::I8Ptr,
     .Params = {T::I8Ptr, T::I8Ptr}, .Checks = {A::Store, A::Load},
     .Wrapper = "_sb_strcpy", .Result = R::Arg0},
    {.Id = Builtin::Strcat, .Name = "strcat", .Ret = T::I8Ptr,
     .Params = {T::I8Ptr, T::I8Ptr}, .Checks = {A::Store, A::Load},
     .Wrapper = "_sb_strcat", .Result = R::Arg0},
    {.Id = Builtin::Strcmp, .Name = "strcmp", .Ret = T::I32,
     .Params = {T::I8Ptr, T::I8Ptr}, .Checks = {A::Load, A::Load},
     .Wrapper = "_sb_strcmp"},
    {.Id = Builtin::PrintInt, .Name = "print_int", .Params = {T::I64}},
    {.Id = Builtin::PrintChar, .Name = "print_char", .Params = {T::I32}},
    {.Id = Builtin::PrintStr, .Name = "print_str", .Params = {T::I8Ptr}},
    {.Id = Builtin::Exit, .Name = "exit", .Params = {T::I32}, .Escapes = true},
    {.Id = Builtin::Rand, .Name = "sb_rand", .Ret = T::I64},
    {.Id = Builtin::Srand, .Name = "sb_srand", .Params = {T::I64}},
    // jmp_buf is written (setjmp) / read (longjmp) as a 32-byte object.
    {.Id = Builtin::Setjmp, .Name = "setjmp", .Ret = T::I32,
     .Params = {T::I64Ptr}, .Checks = {A::Store}, .InlineCheckBytes = 32,
     .Escapes = true},
    {.Id = Builtin::Longjmp, .Name = "longjmp", .Params = {T::I64Ptr, T::I32},
     .Checks = {A::Load}, .InlineCheckBytes = 32, .Escapes = true},
    {.Id = Builtin::RequestGuard, .Name = "sb_guard", .Ret = T::I32},
    {.Id = Builtin::RequestEnd, .Name = "sb_request_end"},
    {.Id = Builtin::SetBound, .Name = "__setbound", .Ret = T::I8Ptr,
     .Params = {T::I8Ptr, T::I64}, .Result = R::SetBound},
    {.Id = Builtin::Unbound, .Name = "__unbound", .Ret = T::I8Ptr,
     .Params = {T::I8Ptr}, .Result = R::Unbounded},
};

constexpr bool rowsFollowIds() {
  for (size_t I = 0; I < std::size(BuiltinRows); ++I)
    if (static_cast<size_t>(BuiltinRows[I].Id) != I + 1)
      return false;
  return static_cast<size_t>(Builtin::Unbound) == std::size(BuiltinRows);
}
static_assert(rowsFollowIds(), "builtin rows must follow the Builtin enum");
} // namespace detail

/// Every builtin, in Builtin order.
inline constexpr const auto &builtinTable() { return detail::BuiltinRows; }

/// The row of builtin \p B (not Builtin::None).
inline constexpr const BuiltinRow &builtinRow(Builtin B) {
  return detail::BuiltinRows[static_cast<size_t>(B) - 1];
}

} // namespace softbound

#endif // SOFTBOUND_IR_BUILTINS_H

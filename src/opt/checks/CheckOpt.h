//===- opt/checks/CheckOpt.h - static spatial-check optimization *- C++ -*-===//
//
// Part of the SoftBound reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static check-optimization subsystem that runs after the SoftBound
/// transformation and before VM execution. The §6.1 re-optimization
/// itself (block-local redundant-check elimination) belongs to the
/// SoftBound pass (opt/Passes.h eliminateRedundantChecks); this subsystem
/// goes past it with four sub-passes, each independently toggleable:
///
///   1. Loop-invariant check hoisting with range widening (LoopHoist.cpp):
///      in counted loops, per-iteration checks on loop-invariant pointers
///      collapse to one pre-loop check, and checks on `base[affine(iv)]`
///      are replaced by checks at the two endpoints of the access range's
///      convex hull (à la CHOP), turning O(trip-count) dynamic checks
///      into O(1). Loops counted by run-time bounds get hulls behind a
///      region guard, with the in-loop check kept as the fallback.
///   2. Inter-procedural bounds propagation (InterProc.h, module-level):
///      a call-graph pass that elides callee-side checks every direct
///      call site already proves, turns callee-guaranteed checks into
///      caller-side facts, and settles global-array checks whose
///      argument-propagated index range stays inside the object. Its
///      scoped fact walk down the dominator tree is also the subsystem's
///      dominance-based redundant-check elimination: a check whose bytes
///      a dominating check on the same root and bounds already proved
///      is deleted, guarded checks included.
///   3. Checked-region partitioning (Partition.h, module-level): after
///      every other sub-pass has run, classify each function fully-proven
///      (no checks left, no escaping metadata obligations) or
///      instrumented, and strip metadata propagation from the
///      fully-proven ones — the CheckedCBox-style checked/unchecked
///      region split. On by default, left off by explicit knob lists
///      (the A/B convention).
///   4. CCured-SAFE check elision (SafeElision.cpp, off by default): a
///      check whose pointer is an all-constant, per-index-validated GEP
///      chain into a known-size stack or global object, with the access
///      contained in the object, is deleted outright — the §6.5 CCured
///      comparison knob (`checkopt(safe)` in pipeline specs).
///
/// The pointer decompositions and scoped interval facts the sub-passes
/// share live in RangeAnalysis.h.
///
/// Soundness contract: sub-passes 1-2 only ever *strengthen or move
/// earlier* the set of conditions checked on any path — a program that
/// would have trapped still traps (possibly at an earlier instruction),
/// and a program that ran clean still runs clean. Every transformation is
/// gated on static proofs (constant trip counts, single-exit loops, no
/// in-loop control-flow escapes) described in LoopHoist.cpp and
/// InterProc.cpp. Sub-pass 3 removes no check: it strips only metadata
/// operations whose values no remaining check can consult. Sub-pass 4 is
/// the deliberate exception: its leading pointer-arithmetic step is
/// judged against the *whole* object, so a sub-object overflow reached
/// through a derived field pointer plus constant arithmetic can lose its
/// (field-shrunk) check — the CCured-SAFE trade-off §6.5 measures — and
/// it is therefore not part of the default pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef SOFTBOUND_OPT_CHECKS_CHECKOPT_H
#define SOFTBOUND_OPT_CHECKS_CHECKOPT_H

#include "ir/Module.h"

namespace softbound {

/// Per-sub-pass toggles (ablation knobs).
struct CheckOptConfig {
  /// Master switch for the whole subsystem.
  bool Enable = true;
  /// Hoist loop-invariant and affine-indexed checks out of counted loops.
  bool HoistLoopChecks = true;
  /// Extend hull hoisting to loops counted by loop-invariant *symbolic*
  /// bounds — `for (i = 0; i < n; i++)`, symbolic init
  /// (`for (i = lo; i < hi; i++)`), the decreasing
  /// `for (i = n-1; i >= 0; i--)` shape, and |step| > 1 sweeps behind a
  /// stride-divisibility test: hull endpoints are computed from the live
  /// bound values in the preheader behind a trip/wrap region guard, with
  /// the original in-loop check kept as the out-of-region fallback
  /// (LoopHoist.cpp "Run-time bounds"). Sub-knob of HoistLoopChecks;
  /// `checkopt(hoist,runtime-limit)` in pipeline specs.
  bool RuntimeLimitHulls = true;
  /// Inter-procedural bounds propagation (opt/checks/InterProc.h): elide
  /// callee checks proven at every call site, reuse callee-guaranteed
  /// checks as caller facts, delete checks covered by dominating facts,
  /// and settle global-array checks via inter-procedural integer ranges.
  bool InterProc = true;
  /// Checked-region partitioning (opt/checks/Partition.h): classify each
  /// function as fully-proven or instrumented after the other sub-passes
  /// have run, and strip metadata propagation (meta.load/meta.store) from
  /// the fully-proven ones. Leans on the closed-module contract like
  /// InterProc.
  bool Partition = true;
  /// CCured-SAFE elision (§6.5 modeling knob): delete checks statically
  /// proven inside their *whole* base object. Off by default — it gives up
  /// sub-object protection for constant-offset accesses.
  bool ElideSafeChecks = false;
};

/// One function's checked-region classification (Partition.cpp). Verdicts
/// are reported for every defined function the partition pass inspected,
/// in module order.
struct PartitionVerdict {
  std::string Func;           ///< Post-transform (`_sb_`) function name.
  bool FullyProven = false;   ///< Checked region: instrumentation stripped.
  std::string Reason;         ///< First blocking reason, or "proven".
  unsigned MetaLoadsRemoved = 0;  ///< meta.load instructions stripped.
  unsigned MetaStoresRemoved = 0; ///< meta.store instructions stripped.
};

/// What the subsystem did (reported by benches and asserted by tests).
struct CheckOptStats {
  unsigned ChecksBefore = 0;   ///< Static spatial checks entering the pass.
  unsigned ChecksAfter = 0;    ///< Static spatial checks remaining.
  unsigned SafeChecksElided = 0;    ///< CCured-SAFE static elisions.
  unsigned LoopChecksHoisted = 0;   ///< In-loop checks replaced/deleted.
  unsigned HoistedChecksInserted = 0; ///< Pre-loop hull checks added.
  unsigned LoopsAnalyzed = 0;  ///< Natural loops inspected.
  unsigned LoopsCounted = 0;   ///< Loops with a provable constant trip set.

  // Runtime-bound hull hoisting (LoopHoist.cpp "Run-time bounds").
  unsigned LoopsCountedRuntime = 0; ///< Symbolic-bound counted loops.
  unsigned LoopsCountedSymInit = 0; ///< ... with a symbolic *init* (incl.
                                    ///< the decreasing `i = n-1; i >= 0`
                                    ///< shape).
  unsigned LoopsCountedStrided = 0; ///< ... with |step| > 1.
  unsigned RuntimeHullChecks = 0;   ///< Guard-protected hull checks added.
  unsigned RuntimeGuardedFallbacks = 0; ///< In-loop fallback checks kept.
  unsigned RuntimeGuardsDischarged = 0; ///< Guards settled by arg ranges.
  unsigned RuntimeDivisGuards = 0;      ///< Stride-divisibility tests emitted.

  // Inter-procedural bounds propagation (opt/checks/InterProc.h).
  unsigned InterProcChecksElided = 0;  ///< Total checks the pass deleted.
  unsigned InterProcCalleeElided = 0;  ///< Proven at every call site.
  unsigned InterProcCallerElided = 0;  ///< Covered by callee/caller facts.
  unsigned InterProcRangeElided = 0;   ///< Static index-range proofs.
  unsigned InterProcSunkElided = 0;    ///< Duplicates sunk into callees.
  unsigned InterProcArgSummaries = 0;  ///< Argument/global check summaries.
  unsigned InterProcRetSummaries = 0;  ///< Functions with return summaries.
  unsigned InterProcFunctionsAnalyzed = 0; ///< Defined functions visited.

  // Checked-region partitioning (opt/checks/Partition.h).
  unsigned PartitionFunctions = 0; ///< Defined functions classified.
  unsigned PartitionProven = 0;    ///< Classified fully-proven (stripped).
  unsigned PartitionMetaLoadsRemoved = 0;  ///< meta.loads stripped.
  unsigned PartitionMetaStoresRemoved = 0; ///< meta.stores stripped.
  std::vector<PartitionVerdict> Partition; ///< Per-function verdicts.

  /// Fraction of static checks removed, in [0, 1].
  double eliminationRate() const {
    return ChecksBefore
               ? 1.0 - static_cast<double>(ChecksAfter) / ChecksBefore
               : 0.0;
  }

  CheckOptStats &operator+=(const CheckOptStats &O) {
    ChecksBefore += O.ChecksBefore;
    ChecksAfter += O.ChecksAfter;
    SafeChecksElided += O.SafeChecksElided;
    LoopChecksHoisted += O.LoopChecksHoisted;
    HoistedChecksInserted += O.HoistedChecksInserted;
    LoopsAnalyzed += O.LoopsAnalyzed;
    LoopsCounted += O.LoopsCounted;
    LoopsCountedRuntime += O.LoopsCountedRuntime;
    LoopsCountedSymInit += O.LoopsCountedSymInit;
    LoopsCountedStrided += O.LoopsCountedStrided;
    RuntimeHullChecks += O.RuntimeHullChecks;
    RuntimeGuardedFallbacks += O.RuntimeGuardedFallbacks;
    RuntimeGuardsDischarged += O.RuntimeGuardsDischarged;
    RuntimeDivisGuards += O.RuntimeDivisGuards;
    InterProcChecksElided += O.InterProcChecksElided;
    InterProcCalleeElided += O.InterProcCalleeElided;
    InterProcCallerElided += O.InterProcCallerElided;
    InterProcRangeElided += O.InterProcRangeElided;
    InterProcSunkElided += O.InterProcSunkElided;
    InterProcArgSummaries += O.InterProcArgSummaries;
    InterProcRetSummaries += O.InterProcRetSummaries;
    InterProcFunctionsAnalyzed += O.InterProcFunctionsAnalyzed;
    PartitionFunctions += O.PartitionFunctions;
    PartitionProven += O.PartitionProven;
    PartitionMetaLoadsRemoved += O.PartitionMetaLoadsRemoved;
    PartitionMetaStoresRemoved += O.PartitionMetaStoresRemoved;
    Partition.insert(Partition.end(), O.Partition.begin(), O.Partition.end());
    return *this;
  }
};

/// Runs the configured sub-passes over the module: per function SAFE
/// elision and hoisting, then inter-procedural propagation, then
/// partitioning. The module must be verifier-clean; it stays
/// verifier-clean.
CheckOptStats optimizeChecks(Module &M, const CheckOptConfig &Cfg = {});

namespace checkopt {

/// The SafeElision sub-pass (SafeElision.cpp), run by optimizeChecks when
/// CheckOptConfig::ElideSafeChecks is set: deletes every spatial check
/// whose pointer is a constant offset into a known-size alloca/global with
/// the access contained in the object.
void elideSafeChecks(Function &F, CheckOptStats &Stats);

} // namespace checkopt
} // namespace softbound

#endif // SOFTBOUND_OPT_CHECKS_CHECKOPT_H

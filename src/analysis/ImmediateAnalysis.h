//===- analysis/ImmediateAnalysis.h - Static immediacy proofs ---*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A whole-program analysis proving which RC statements operate on values
/// that can only ever be immediates (Int/Bool/Enum/FnRef/Unit). Value
/// types are never heap allocated (paper Section 2.7.1), so dup/drop/
/// decref on them are dynamic no-ops today — the bytecode peephole pass
/// uses this analysis to delete them statically.
///
/// The analysis runs an optimistic interprocedural fixpoint over three
/// families of facts, all on the two-point lattice {immediate, unknown}:
///
///   FieldImm[ctor][i]  — field i of ctor only ever holds an immediate.
///                        Constrained by every Con site of ctor; a reusing
///                        `Con@ru` writes every field, so it is per-ctor
///                        precise too.
///   ParamImm[f][i]     — parameter i of top-level f only receives
///                        immediates. Constrained by every direct
///                        full-arity call; functions whose reference
///                        escapes as a value get no assumptions.
///   RetImm[f]          — f only returns immediates.
///
/// Match binders take their immediacy from FieldImm of the arm's ctor,
/// which is what makes the analysis bite on the Figure-9 programs (their
/// hottest dups are on destructured int fields).
///
/// Soundness boundary: ParamImm/FieldImm assume every value entering the
/// program is an immediate and every heap cell was built by this
/// program's own constructor sites. Runs whose *entry* arguments include
/// heap references void that assumption — VM::run detects this and runs
/// the unoptimized code instead (see CompiledProgram::Peepholed).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_ANALYSIS_IMMEDIATEANALYSIS_H
#define PERCEUS_ANALYSIS_IMMEDIATEANALYSIS_H

#include "ir/Program.h"

namespace perceus {

/// Result of the immediacy analysis over one Program.
struct ImmediateInfo {
  /// The marks the analysis leaves on the Dup/Drop/DecRef nodes it
  /// visits (`Expr::immMark`).
  enum Mark : uint8_t { Unvisited, Kept, Elidable };

  /// Whether \p Site is a Dup/Drop/DecRef statement whose operand is a
  /// proven immediate on every path that reaches it (shared subtrees are
  /// marked only when every occurrence qualifies). Free never is: it
  /// disposes real memory. Valid until the next analysis of the program.
  static bool elidable(const Expr *Site) {
    return Site && Site->immMark() == Elidable;
  }

  /// How many fixpoint rounds the interprocedural loop took.
  uint32_t Rounds = 0;
};

/// Runs the analysis on \p P (after RC insertion — the interesting nodes
/// are the inserted dup/drop/decref statements).
ImmediateInfo analyzeImmediates(const Program &P);

} // namespace perceus

#endif // PERCEUS_ANALYSIS_IMMEDIATEANALYSIS_H

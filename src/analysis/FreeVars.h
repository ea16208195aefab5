//===- analysis/FreeVars.h - Free variable analysis -------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Free local variables of an expression (fv(e) in the paper, Figure 4).
/// Globals are static and do not count. The analysis memoizes per node,
/// since the Perceus insertion rules (Figure 8) query fv of subexpressions
/// repeatedly while splitting the owned environment.
///
/// The memo is flat: an open-addressing table maps a node to the index
/// of its set, and the sets live in fixed-size chunks that never move.
/// IR nodes are immutable and arena-owned, so one analysis stays valid
/// for a whole program, across every function and every rewrite that
/// only adds nodes.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_ANALYSIS_FREEVARS_H
#define PERCEUS_ANALYSIS_FREEVARS_H

#include "analysis/VarSet.h"
#include "ir/Expr.h"

#include <memory>
#include <vector>

namespace perceus {

/// Computes and caches free-variable sets.
class FreeVarAnalysis {
public:
  /// The free local variables of \p E. The reference stays valid for the
  /// lifetime of the analysis, however many queries follow.
  const VarSet &freeVars(const Expr *E);

private:
  struct Slot {
    const Expr *Key = nullptr;
    uint32_t Index = 0;
  };
  static constexpr uint32_t ChunkSets = 64;

  VarSet compute(const Expr *E);
  /// The slot that holds \p E, or the empty slot where it belongs.
  Slot &slotFor(const Expr *E);
  void grow();

  std::vector<Slot> Slots; // power-of-two size, at most half full
  std::vector<std::unique_ptr<VarSet[]>> Chunks; // ChunkSets sets each
  uint32_t NumSets = 0;
};

} // namespace perceus

#endif // PERCEUS_ANALYSIS_FREEVARS_H

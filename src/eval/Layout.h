//===- eval/Layout.h - Frame layout for the abstract machine ----*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns every binder a dense slot index within its enclosing frame
/// (function or lambda activation) and annotates every variable-bearing
/// IR node with the slots it touches, so the abstract machine runs with
/// plain array indexing instead of environment lookups.
///
/// Annotation scheme (via Expr::layoutA/layoutB):
///   Var              A = slot
///   Let              A = binder slot
///   Match            A = scrutinee slot, B = slot-list index (binder
///                        slots of all arms, concatenated in arm order)
///   Lam              A = slot-list index ([capture source slots in the
///                        enclosing frame] ++ [capture target slots in
///                        the lambda frame]), B = lambda frame size
///   Dup/Drop/Free/DecRef/IsUnique/ReuseAddr   A = variable slot
///   DropReuse        A = variable slot, B = token slot
///   Con (with token) A = token slot
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_EVAL_LAYOUT_H
#define PERCEUS_EVAL_LAYOUT_H

#include "ir/Program.h"

#include <vector>

namespace perceus {

/// The side tables produced by frame layout.
struct ProgramLayout {
  /// Frame size (in slots) of each top-level function.
  std::vector<uint32_t> FuncFrameSize;
  /// Slot lists referenced by node annotations.
  std::vector<std::vector<uint32_t>> SlotLists;
};

/// Runs frame layout over every function of \p P, writing node
/// annotations and returning the side tables. Must be re-run after any
/// pass changes function bodies.
ProgramLayout layoutProgram(const Program &P);

} // namespace perceus

#endif // PERCEUS_EVAL_LAYOUT_H

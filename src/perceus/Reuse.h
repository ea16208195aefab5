//===- perceus/Reuse.h - Reuse analysis -------------------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reuse analysis (Section 2.4 of the paper): pairs dropped matched cells
/// with same-size constructor allocations, turning `drop x` into
/// `val ru = drop-reuse(x)` and the paired allocation into `Con@ru(...)`,
/// so a unique cell is updated in place instead of freed and reallocated.
/// It runs on RC-instrumented IR (after Perceus insertion).
///
/// The paper's reuse specialization (Section 2.5), which rewrites a
/// same-constructor `Con@ru` to store only its changed fields, is not
/// done: the VM's `ConReuse` writes every field in one dispatch, where a
/// specialized store would be a dispatch of its own (DESIGN.md §3).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_PERCEUS_REUSE_H
#define PERCEUS_PERCEUS_REUSE_H

#include "ir/Program.h"

namespace perceus {

/// Runs reuse analysis on every function (or one function).
void runReuseAnalysis(Program &P);
void runReuseAnalysis(Program &P, FuncId F);

} // namespace perceus

#endif // PERCEUS_PERCEUS_REUSE_H

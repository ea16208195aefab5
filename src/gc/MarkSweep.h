//===- gc/MarkSweep.h - Tracing collector baseline --------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A mark-sweep tracing garbage collector over the runtime heap. This is
/// the stand-in for the tracing-collector runtimes the paper benchmarks
/// against (OCaml/Haskell/Java; see DESIGN.md, substitutions): the IR is
/// run *without* any RC instructions and memory is reclaimed by tracing
/// from the abstract machine's stacks.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_GC_MARKSWEEP_H
#define PERCEUS_GC_MARKSWEEP_H

#include "runtime/Heap.h"

#include <functional>

namespace perceus {

/// Enumerates GC roots, one word each, into a callback.
using RootEnumerator = std::function<void(const std::function<void(Word)> &)>;

/// Runs one mark-sweep collection of \p H using \p Roots.
void collectMarkSweep(Heap &H, const RootEnumerator &Roots);

/// Arms \p H (which must be in GC mode) to collect automatically when its
/// allocation threshold is crossed.
void attachCollector(Heap &H, RootEnumerator Roots);

} // namespace perceus

#endif // PERCEUS_GC_MARKSWEEP_H

//===- gc/MarkSweep.cpp - Tracing collector baseline --------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "gc/MarkSweep.h"

#include <vector>

using namespace perceus;

void perceus::collectMarkSweep(Heap &H, const RootEnumerator &Roots) {
  assert(H.mode() == HeapMode::Gc && "mark-sweep requires a GC-mode heap");
  ++H.stats().Collections;

  // Mark.
  std::vector<Cell *> Work;
  auto mark = [&](Word V) {
    if (V.isHeap() && V.Bits != 0 && !V.ref()->H.GcMark) {
      V.ref()->H.GcMark = 1;
      Work.push_back(V.ref());
    }
  };
  Roots(mark); // registers may hold the empty word, which mark skips
  while (!Work.empty()) {
    Cell *C = Work.back();
    Work.pop_back();
    for (uint32_t I = 0; I != C->H.Arity; ++I)
      mark(C->field(I));
  }

  // Sweep: release unmarked cells, unmark survivors.
  std::vector<Cell *> &All = H.allCells();
  size_t Live = 0;
  for (Cell *C : All) {
    if (C->H.GcMark) {
      C->H.GcMark = 0;
      All[Live++] = C;
    } else {
      H.releaseForSweep(C);
    }
  }
  All.resize(Live);
  H.resetGcThreshold();
}

void perceus::attachCollector(Heap &H, RootEnumerator Roots) {
  H.setCollectHook(
      [&H, Roots = std::move(Roots)] { collectMarkSweep(H, Roots); });
}

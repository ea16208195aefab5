//===- runtime/SharedPool.cpp - Lock-free shared-cell release ------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pool is header-only since the mutexed shards were replaced with
// lock-free Treiber free lists (park/drain are small enough to inline
// into the release hot path). This TU pins the layout contracts that
// the header's static_asserts cannot express about the completed type.
//
//===----------------------------------------------------------------------===//

#include "runtime/SharedPool.h"

namespace perceus {

// A freed cell must be able to carry the Treiber link in payload word 0:
// the 16-byte minimum allocation guarantees the word exists even for
// arity-0 cells.
static_assert(sizeof(CellHeader) + sizeof(Cell *) <= Cell::allocSize(0),
              "free-link slot must fit the minimum cell allocation");

} // namespace perceus

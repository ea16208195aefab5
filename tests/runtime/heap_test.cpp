//===- tests/runtime/heap_test.cpp - RC heap unit tests ------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "eval/Runner.h"
#include "ir/Program.h"
#include "programs/Programs.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

using namespace perceus;

namespace {

Value mkCell(Heap &H, uint32_t Arity, uint32_t Tag = 0) {
  Cell *C = H.alloc(Arity, Tag, CellKind::Ctor);
  for (uint32_t I = 0; I != Arity; ++I)
    C->fields()[I] = Value::unit();
  return Value::makeRef(C);
}

/// Heap::reclaim over roots in decoded form.
size_t reclaim(Heap &H, std::initializer_list<Value> Roots) {
  std::vector<Word> Words;
  for (Value V : Roots)
    Words.push_back(V.encode());
  return H.reclaim(Words);
}

TEST(Heap, AllocInitializesHeader) {
  Heap H;
  Value V = mkCell(H, 3, 7);
  EXPECT_EQ(V.Ref->H.Rc.load(), 1);
  EXPECT_EQ(V.Ref->H.Tag, 7);
  EXPECT_EQ(V.Ref->H.Arity, 3);
  EXPECT_EQ(H.stats().Allocs, 1u);
  EXPECT_EQ(H.stats().LiveCells, 1u);
  H.drop(V);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, DupDropCounts) {
  Heap H;
  Value V = mkCell(H, 1);
  H.dup(V);
  H.dup(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), 3);
  H.drop(V);
  H.drop(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), 1);
  EXPECT_EQ(H.stats().Frees, 0u);
  H.drop(V);
  EXPECT_EQ(H.stats().Frees, 1u);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, RcOpsOnImmediatesAreNoops) {
  Heap H;
  H.dup(Value::makeInt(5));
  H.drop(Value::makeBool(true));
  H.decref(Value::makeEnum(0, 1));
  H.drop(Value::makeFnRef(3));
  EXPECT_EQ(H.stats().DupOps, 0u);
  EXPECT_EQ(H.stats().DropOps, 0u);
  EXPECT_EQ(H.stats().NonHeapRcOps, 4u);
}

TEST(Heap, DropFreesChildrenRecursively) {
  Heap H;
  // A list of 100 cells, each owning the next.
  Value Tail = Value::unit();
  for (int I = 0; I != 100; ++I) {
    Cell *C = H.alloc(2, 0, CellKind::Ctor);
    C->fields()[0] = Value::makeInt(I);
    C->fields()[1] = Tail;
    Tail = Value::makeRef(C);
  }
  EXPECT_EQ(H.stats().LiveCells, 100u);
  H.drop(Tail);
  EXPECT_TRUE(H.empty());
  EXPECT_EQ(H.stats().Frees, 100u);
}

TEST(Heap, DropStopsAtSharedChildren) {
  Heap H;
  Value Shared = mkCell(H, 0);
  H.dup(Shared); // now rc 2: one for us, one for the parent below
  Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
  Parent->fields()[0] = Shared;
  H.drop(Value::makeRef(Parent));
  EXPECT_EQ(H.stats().LiveCells, 1u); // the shared child survives
  EXPECT_EQ(Shared.Ref->H.Rc.load(), 1);
  H.drop(Shared);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, VeryDeepDropDoesNotOverflowTheStack) {
  Heap H;
  Value Tail = Value::unit();
  for (int I = 0; I != 1000000; ++I) {
    Cell *C = H.alloc(2, 0, CellKind::Ctor);
    C->fields()[0] = Value::makeInt(I);
    C->fields()[1] = Tail;
    Tail = Value::makeRef(C);
  }
  H.drop(Tail); // iterative worklist, not native recursion
  EXPECT_TRUE(H.empty());
}

TEST(Heap, FreeListReusesMemory) {
  Heap H;
  Value V = mkCell(H, 2);
  Cell *Raw = V.Ref;
  H.drop(V);
  Value V2 = mkCell(H, 2);
  EXPECT_EQ(V2.Ref, Raw); // same arity class comes back from the free list
  H.drop(V2);
  Value V3 = mkCell(H, 3); // different size class: fresh memory
  EXPECT_NE(V3.Ref, Raw);
  H.drop(V3);
}

TEST(Heap, PeakBytesTracksHighWater) {
  Heap H;
  std::vector<Value> Keep;
  for (int I = 0; I != 10; ++I)
    Keep.push_back(mkCell(H, 1));
  size_t Peak = H.stats().PeakBytes;
  EXPECT_EQ(Peak, 10 * Cell::allocSize(1)); // rounded slab consumption
  for (Value V : Keep)
    H.drop(V);
  EXPECT_EQ(H.stats().LiveBytes, 0u);
  EXPECT_EQ(H.stats().PeakBytes, Peak); // peak is sticky
}

TEST(Heap, MarkSharedFlipsCountsNegative) {
  Heap H;
  Cell *Child = H.alloc(0, 0, CellKind::Ctor);
  Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
  Parent->fields()[0] = Value::makeRef(Child);
  Value V = Value::makeRef(Parent);
  H.dup(V);
  H.markShared(V); // recursive
  EXPECT_EQ(Parent->H.Rc.load(), -2);
  EXPECT_EQ(Child->H.Rc.load(), -1);
  EXPECT_FALSE(H.isUnique(Value::makeRef(Child))); // shared is never unique
}

TEST(Heap, SharedDupDropAreAtomicAndCounted) {
  Heap H;
  Value V = mkCell(H, 0);
  H.markShared(V);
  uint64_t Atomic0 = H.stats().AtomicRcOps;
  H.dup(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), -2);
  H.drop(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), -1);
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0 + 2);
  H.drop(V); // count reaches zero: freed
  EXPECT_TRUE(H.empty());
}

TEST(Heap, SharedDropFreesChildren) {
  Heap H;
  Value Child = mkCell(H, 0);
  Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
  Parent->fields()[0] = Child;
  Value V = Value::makeRef(Parent);
  H.markShared(V);
  H.drop(V);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, StickyCountIsNeverTouched) {
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MIN, std::memory_order_relaxed);
  H.dup(V);
  H.drop(V);
  H.drop(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN);
  EXPECT_EQ(H.stats().LiveCells, 1u); // pinned alive
  H.freeMemoryOnly(V.Ref);            // test cleanup
}

TEST(Heap, IsUnique) {
  Heap H;
  Value V = mkCell(H, 0);
  EXPECT_TRUE(H.isUnique(V));
  H.dup(V);
  EXPECT_FALSE(H.isUnique(V));
  H.drop(V);
  EXPECT_TRUE(H.isUnique(V));
  EXPECT_FALSE(H.isUnique(Value::makeInt(3)));
  // The immediate was never actually count-tested: it classifies as a
  // non-heap RC op, not an is-unique test.
  EXPECT_EQ(H.stats().IsUniqueTests, 3u);
  EXPECT_EQ(H.stats().NonHeapRcOps, 1u);
  H.drop(V);
}

TEST(Heap, DecRefNeverChecksUniqueness) {
  Heap H;
  Value V = mkCell(H, 0);
  H.dup(V);
  H.decref(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), 1);
  EXPECT_EQ(H.stats().DecRefOps, 1u);
  H.drop(V);
}

TEST(Heap, DecRefOnCountOneFreesTheCell) {
  // The shared branch of a specialized drop can reach a *thread-local*
  // count of 1 too; decref must free the cell, children dropped. (A
  // release build once wrote the rc == 0 freed marker without calling
  // release(), leaking a cell the trap-unwind walk then silently
  // skipped.)
  Heap H;
  Value Child = mkCell(H, 0);
  Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
  Parent->fields()[0] = Child;
  H.decref(Value::makeRef(Parent));
  EXPECT_EQ(H.stats().DecRefOps, 1u);
  EXPECT_EQ(H.stats().Frees, 2u) << "cell and child both freed";
  EXPECT_TRUE(H.empty());
}

// A stale reference (its cell already freed, rc == 0) reaching dup, drop
// or decref stops the process in every build, Release included: freeing
// the cell again would corrupt the free list and send the drop cascade
// through freed memory. ("freed cell" also matches a Debug build's
// fast-path assert.)
TEST(HeapDeathTest, DropOfAFreedCellAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Heap H;
        Value V = mkCell(H, 1);
        H.drop(V);
        H.drop(V);
      },
      "freed cell");
}

TEST(HeapDeathTest, DupOfAFreedCellAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Heap H;
        Value V = mkCell(H, 2);
        H.drop(V);
        H.dup(V);
      },
      "freed cell");
}

TEST(HeapDeathTest, DecRefOfAFreedCellAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Heap H;
        Value V = mkCell(H, 0);
        H.drop(V);
        H.decref(V);
      },
      "freed cell");
}

TEST(HeapDeathTest, FreedChildReachedByTheCascadeAborts) {
  // The mutants that hung: a child freed while its parent still points
  // at it, then the parent dropped.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Heap H;
        Value Child = mkCell(H, 0);
        Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
        Parent->fields()[0] = Child;
        H.drop(Child);
        H.drop(Value::makeRef(Parent));
      },
      "heap corruption: drop of a freed cell");
}

TEST(Heap, DupSaturatesToStickyInsteadOfOverflowing) {
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MAX, std::memory_order_relaxed);
  H.dup(V); // would overflow into the shared encoding
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN) << "pinned sticky";
  // Pinned cells ignore every further RC operation and never free.
  H.dup(V);
  H.drop(V);
  H.decref(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN);
  EXPECT_EQ(H.stats().AtomicRcOps, 0u) << "sticky counts never RMW";
  H.freeMemoryOnly(V.Ref); // test cleanup
}

TEST(Heap, StickyBandPinsNearMinimumCounts) {
  // Sticky is a band, not one value: any count at or below
  // INT32_MIN + 2^20 is pinned, so racing atomic decrements that passed
  // the band check cannot wrap a count past INT32_MIN.
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MIN + (1 << 20), std::memory_order_relaxed);
  H.dup(V);
  H.drop(V);
  H.decref(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN + (1 << 20)) << "in-band: pinned";
  EXPECT_EQ(H.stats().AtomicRcOps, 0u);
  // Just above the band the count is an ordinary shared count.
  V.Ref->H.Rc.store(INT32_MIN + (1 << 20) + 1, std::memory_order_relaxed);
  H.dup(V); // count grows: rc moves down, into the band — and pins
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN + (1 << 20));
  EXPECT_EQ(H.stats().AtomicRcOps, 1u);
  H.freeMemoryOnly(V.Ref); // test cleanup
}

TEST(Heap, SharedDecRefCanFree) {
  // A thread-shared cell with count 1 fails is-unique, so the shared
  // branch of a specialized drop can decref it to zero (Section 2.7.2).
  Heap H;
  Value V = mkCell(H, 0);
  H.markShared(V);
  EXPECT_FALSE(H.isUnique(V));
  H.decref(V);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, FreeMemoryOnlyLeavesChildrenAlone) {
  Heap H;
  Value Child = mkCell(H, 0);
  Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
  Parent->fields()[0] = Child;
  H.freeMemoryOnly(Parent); // the `free` instruction
  EXPECT_EQ(H.stats().LiveCells, 1u);
  EXPECT_EQ(Child.Ref->H.Rc.load(), 1); // untouched
  H.drop(Child);
}

TEST(Heap, DropChildrenIsTheDropReusePath) {
  Heap H;
  Value A = mkCell(H, 0);
  Value B = mkCell(H, 0);
  Cell *Parent = H.alloc(2, 0, CellKind::Ctor);
  Parent->fields()[0] = A;
  Parent->fields()[1] = B;
  H.dropChildren(Parent);
  EXPECT_EQ(H.stats().LiveCells, 1u); // only the token cell remains
  H.freeMemoryOnly(Parent);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, ConcurrentSharedCounting) {
  // The threading model of 2.7.2: heaps are single-threaded, shared
  // *counts* are atomic. Each racer therefore drives its own private
  // heap (as ParallelRunner workers do) against the one shared cell.
  Heap Owner;
  Value V = mkCell(Owner, 0);
  Owner.markShared(V);
  constexpr int Threads = 4, Iters = 20000;
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T) {
    Ts.emplace_back([V] {
      Heap H;
      for (int I = 0; I != Iters; ++I) {
        H.dup(V);
        H.drop(V);
      }
    });
  }
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(V.Ref->H.Rc.load(), -1); // balanced
  Owner.drop(V);
  EXPECT_TRUE(Owner.empty());
}

TEST(Heap, SharedDecRefDropToZeroFreesChildren) {
  // decref on a thread-shared cell whose (negative) count reaches zero
  // must free the cell *and* recursively drop its children, exactly like
  // the unique drop path (Section 2.7.2's fused rc <= 1 slow path).
  Heap H;
  Value Child = mkCell(H, 0);
  Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
  Parent->fields()[0] = Child;
  Value V = Value::makeRef(Parent);
  H.markShared(V);
  EXPECT_EQ(Parent->H.Rc.load(), -1);
  EXPECT_EQ(Child.Ref->H.Rc.load(), -1);
  uint64_t Atomic0 = H.stats().AtomicRcOps;
  H.decref(V);
  EXPECT_TRUE(H.empty()) << "shared decref to zero must cascade";
  // One atomic decref on the parent, one atomic drop on the child.
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0 + 2);
  EXPECT_EQ(H.stats().DecRefOps, 1u);
}

TEST(Heap, SharedDecRefAboveOneJustDecrements) {
  Heap H;
  Value V = mkCell(H, 0);
  H.dup(V); // rc 2
  H.markShared(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), -2);
  uint64_t Atomic0 = H.stats().AtomicRcOps;
  H.decref(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), -1);
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0 + 1);
  EXPECT_EQ(H.stats().LiveCells, 1u);
  H.decref(V);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, IsUniqueIsAlwaysFalseOnSharedValues) {
  // A thread-shared cell with logical count 1 still fails is-unique:
  // another thread may be duplicating it concurrently, so the reuse fast
  // path must not fire (Section 2.7.2).
  Heap H;
  Value V = mkCell(H, 0);
  EXPECT_TRUE(H.isUnique(V));
  H.markShared(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), -1); // logical count 1, but shared
  EXPECT_FALSE(H.isUnique(V));
  H.dup(V);
  EXPECT_FALSE(H.isUnique(V));
  H.drop(V);
  EXPECT_FALSE(H.isUnique(V));
  H.drop(V);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, MarkSharedIsIdempotentAndStopsAtSharedSubtrees) {
  Heap H;
  Value Child = mkCell(H, 0);
  H.markShared(Child); // already shared before the parent is
  Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
  Parent->fields()[0] = Child;
  Value V = Value::makeRef(Parent);
  H.markShared(V);
  H.markShared(V); // idempotent: counts must not flip back or double
  EXPECT_EQ(Parent->H.Rc.load(), -1);
  EXPECT_EQ(Child.Ref->H.Rc.load(), -1);
  H.drop(V);
  EXPECT_TRUE(H.empty());
}

TEST(Heap, SharedDupDropAtomicAccountingOnDeepChain) {
  // Every RC operation on a shared cell is atomic and counted; dropping
  // a shared chain to zero performs one atomic op per cell.
  Heap H;
  Value Tail = Value::unit();
  constexpr int Len = 10;
  for (int I = 0; I != Len; ++I) {
    Cell *C = H.alloc(2, 0, CellKind::Ctor);
    C->fields()[0] = Value::makeInt(I);
    C->fields()[1] = Tail;
    Tail = Value::makeRef(C);
  }
  H.markShared(Tail);
  uint64_t Atomic0 = H.stats().AtomicRcOps;
  H.drop(Tail);
  EXPECT_TRUE(H.empty());
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0 + Len);
}

TEST(Heap, StickyCellIgnoresDecRef) {
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MIN, std::memory_order_relaxed);
  H.decref(V);
  H.decref(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN);
  EXPECT_EQ(H.stats().LiveCells, 1u);
  H.freeMemoryOnly(V.Ref); // test cleanup
}

TEST(Heap, StickyDecRefCountsNoAtomicOp) {
  // The sticky early-out performs no RMW, so it must not count as an
  // atomic op (it used to be counted before the check).
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MIN, std::memory_order_relaxed);
  uint64_t Atomic0 = H.stats().AtomicRcOps;
  H.decref(V);
  H.decref(V);
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0);
  // The calls still classify: each is one decref op.
  EXPECT_EQ(H.stats().DecRefOps, 2u);
  H.freeMemoryOnly(V.Ref);
}

TEST(Heap, StickyDupDropCountNoAtomicOps) {
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MIN, std::memory_order_relaxed);
  uint64_t Atomic0 = H.stats().AtomicRcOps;
  H.dup(V);
  H.drop(V);
  H.drop(V);
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0);
  EXPECT_EQ(H.stats().DupOps, 1u);
  EXPECT_EQ(H.stats().DropOps, 2u);
  H.freeMemoryOnly(V.Ref);
}

TEST(Heap, MarkSharedTerminatesOnKnottedCycle) {
  // A knotted ref cycle (a -> b -> a) must not loop forever: the
  // negative count doubles as the visited mark.
  Heap H;
  Cell *A = H.alloc(1, 0, CellKind::Ctor);
  Cell *B = H.alloc(1, 0, CellKind::Ctor);
  A->fields()[0] = Value::makeRef(B);
  B->fields()[0] = Value::makeRef(A);
  H.markShared(Value::makeRef(A));
  EXPECT_EQ(A->H.Rc.load(), -1);
  EXPECT_EQ(B->H.Rc.load(), -1);
  H.markShared(Value::makeRef(A)); // idempotent on the cycle too
  EXPECT_EQ(A->H.Rc.load(), -1);
  EXPECT_EQ(B->H.Rc.load(), -1);
  H.freeMemoryOnly(A); // the knot cannot be dropped; test cleanup
  H.freeMemoryOnly(B);
}

TEST(Heap, StickyCellStaysStickyThroughSharingAndRcOps) {
  Heap H;
  Cell *Child = H.alloc(0, 0, CellKind::Ctor);
  Child->H.Rc.store(INT32_MIN, std::memory_order_relaxed);
  Cell *Parent = H.alloc(1, 0, CellKind::Ctor);
  Parent->fields()[0] = Value::makeRef(Child);
  Value V = Value::makeRef(Parent);
  H.markShared(V); // sticky is negative: the walk must leave it alone
  EXPECT_EQ(Parent->H.Rc.load(), -1);
  EXPECT_EQ(Child->H.Rc.load(), INT32_MIN);
  Value CV = Value::makeRef(Child);
  H.dup(CV);
  H.drop(CV);
  H.drop(CV);
  H.decref(CV);
  EXPECT_EQ(Child->H.Rc.load(), INT32_MIN);
  EXPECT_FALSE(H.isUnique(CV)) << "sticky is shared, never unique";
  H.freeMemoryOnly(Parent); // cleanup (parent's child ref is sticky)
  H.freeMemoryOnly(Child);
}

TEST(HeapGc, GcModeRcOpsClassifyAsNonHeap) {
  // In the tracing configuration every RC entry point is a no-op, and
  // each call classifies as exactly one non-heap RC op — not as a
  // dup/drop/decref/is-unique.
  Heap H(HeapMode::Gc);
  Value V = mkCell(H, 0);
  H.dup(V);
  H.drop(V);
  H.decref(V);
  EXPECT_FALSE(H.isUnique(V));
  EXPECT_EQ(H.stats().DupOps, 0u);
  EXPECT_EQ(H.stats().DropOps, 0u);
  EXPECT_EQ(H.stats().DecRefOps, 0u);
  EXPECT_EQ(H.stats().IsUniqueTests, 0u);
  EXPECT_EQ(H.stats().NonHeapRcOps, 4u);
}

//===--- Telemetry sink ------------------------------------------------------//

TEST(HeapTelemetry, SinkSeesEveryRcCallAndAllocFree) {
  Heap H;
  CountingSink Sink;
  H.setStatsSink(&Sink);
  Value V = mkCell(H, 1);
  H.dup(V);                 // rc 2
  H.dup(Value::makeInt(3)); // non-heap calls are events too
  EXPECT_TRUE(!H.isUnique(V));
  H.decref(V); // rc 1 (decref never frees a thread-local cell)
  H.drop(V);   // rc 0: freed
  EXPECT_EQ(Sink.count(RcEvent::Alloc), 1u);
  EXPECT_EQ(Sink.count(RcEvent::DupCall), 2u);
  EXPECT_EQ(Sink.count(RcEvent::IsUniqueCall), 1u);
  EXPECT_EQ(Sink.count(RcEvent::DropCall), 1u);
  EXPECT_EQ(Sink.count(RcEvent::DecRefCall), 1u);
  EXPECT_EQ(Sink.count(RcEvent::Free), 1u);
  EXPECT_TRUE(H.empty());
  // Sum over classification counters equals the sink's call events.
  const HeapStats &S = H.stats();
  EXPECT_EQ(S.DupOps + S.DropOps + S.DecRefOps + S.IsUniqueTests +
                S.NonHeapRcOps,
            Sink.totalRcCalls());
  H.setStatsSink(nullptr);
}

TEST(HeapTelemetry, ReuseKeepsShadowByteLedgerExact) {
  // The drop-reuse -> Con@ru sequence at the heap level: children are
  // dropped, the cell itself is neither freed nor reallocated, and its
  // fields are overwritten in place. Live bytes must track only real
  // allocs and frees, and the peak stays monotone.
  Heap H;
  CountingSink Sink;
  H.setStatsSink(&Sink);
  Value A = mkCell(H, 0);
  Value B = mkCell(H, 0);
  Cell *Parent = H.alloc(2, 0, CellKind::Ctor);
  Parent->fields()[0] = A;
  Parent->fields()[1] = B;
  size_t PeakBefore = H.stats().PeakBytes;
  size_t LiveParentOnly = Cell::allocSize(2);

  H.dropChildren(Parent); // drop-reuse unique path: children freed
  EXPECT_EQ(H.stats().LiveBytes, LiveParentOnly);
  // Con@ru: write fresh fields into the reused cell — no heap calls.
  Parent->fields()[0] = Value::makeInt(1);
  Parent->fields()[1] = Value::makeInt(2);
  EXPECT_EQ(H.stats().LiveBytes, LiveParentOnly) << "reuse must not move "
                                                    "live bytes";
  EXPECT_EQ(H.stats().PeakBytes, PeakBefore) << "peak is monotone";
  EXPECT_EQ(Sink.shadowLiveBytes(), H.stats().LiveBytes);
  EXPECT_EQ(Sink.shadowPeakBytes(), H.stats().PeakBytes);
  H.drop(Value::makeRef(Parent));
  EXPECT_TRUE(H.empty());
  EXPECT_EQ(Sink.shadowLiveBytes(), 0u);
  H.setStatsSink(nullptr);
}

//===--- Resource governor ---------------------------------------------------//

TEST(HeapGovernor, UnlimitedByDefault) {
  Heap H;
  EXPECT_TRUE(H.limits().unlimited());
  for (int I = 0; I != 1000; ++I)
    EXPECT_NE(H.alloc(1, 0, CellKind::Ctor), nullptr);
  EXPECT_EQ(H.stats().FailedAllocs, 0u);
}

TEST(HeapGovernor, MaxLiveCellsRefusesAtTheCap) {
  Heap H;
  HeapLimits L;
  L.MaxLiveCells = 2;
  H.setLimits(L);
  Value A = mkCell(H, 0);
  Value B = mkCell(H, 0);
  EXPECT_TRUE(B.isHeap());
  EXPECT_EQ(H.alloc(0, 0, CellKind::Ctor), nullptr);
  EXPECT_EQ(H.stats().FailedAllocs, 1u);
  H.drop(A); // freeing makes room again
  EXPECT_NE(H.alloc(0, 0, CellKind::Ctor), nullptr);
  EXPECT_EQ(H.stats().LiveCells, 2u);
}

TEST(HeapGovernor, MaxLiveBytesAccountsCellSize) {
  Heap H;
  HeapLimits L;
  L.MaxLiveBytes = Cell::allocSize(2) + Cell::allocSize(0);
  H.setLimits(L);
  Value A = mkCell(H, 2);
  EXPECT_EQ(H.alloc(2, 0, CellKind::Ctor), nullptr) << "would exceed cap";
  EXPECT_NE(H.alloc(0, 0, CellKind::Ctor), nullptr) << "small cell fits";
  EXPECT_EQ(H.stats().FailedAllocs, 1u);
  (void)A;
}

TEST(HeapGovernor, AllocBudgetCountsLifetimeAllocations) {
  Heap H;
  HeapLimits L;
  L.AllocBudget = 3;
  H.setLimits(L);
  Value A = mkCell(H, 0);
  H.drop(A); // freeing does not refund the budget
  Value B = mkCell(H, 0);
  H.drop(B);
  Value C = mkCell(H, 0);
  H.drop(C);
  EXPECT_EQ(H.alloc(0, 0, CellKind::Ctor), nullptr);
  EXPECT_EQ(H.stats().FailedAllocs, 1u);
}

TEST(HeapGovernor, FaultInjectorFailsExactlyTheNthAttempt) {
  Heap H;
  FaultInjector FI = FaultInjector::failNth(3);
  H.setFaultInjector(&FI);
  EXPECT_NE(H.alloc(0, 0, CellKind::Ctor), nullptr);
  EXPECT_NE(H.alloc(0, 0, CellKind::Ctor), nullptr);
  EXPECT_EQ(H.alloc(0, 0, CellKind::Ctor), nullptr);
  EXPECT_NE(H.alloc(0, 0, CellKind::Ctor), nullptr);
  EXPECT_EQ(FI.attempts(), 4u);
  EXPECT_EQ(FI.injected(), 1u);
  H.setFaultInjector(nullptr);
  EXPECT_NE(H.alloc(0, 0, CellKind::Ctor), nullptr);
  EXPECT_EQ(FI.attempts(), 4u) << "uninstalled injector must not see allocs";
}

//===--- Trap unwinding ------------------------------------------------------//

TEST(HeapReclaim, FreesAReachableGraph) {
  Heap H;
  // A diamond: root -> {a, b}, both -> shared (properly dup'd).
  Value Shared = mkCell(H, 0);
  H.dup(Shared);
  Cell *A = H.alloc(1, 0, CellKind::Ctor);
  A->fields()[0] = Shared;
  Cell *B = H.alloc(1, 0, CellKind::Ctor);
  B->fields()[0] = Shared;
  Cell *Root = H.alloc(2, 0, CellKind::Ctor);
  Root->fields()[0] = Value::makeRef(A);
  Root->fields()[1] = Value::makeRef(B);
  EXPECT_EQ(reclaim(H, {Value::makeRef(Root)}), 4u);
  EXPECT_TRUE(H.empty());
  EXPECT_EQ(H.stats().UnwindFrees, 4u);
}

TEST(HeapReclaim, SkipsStaleReferencesToFreedCells) {
  // The machine's slots can hold references whose cell was already freed
  // (ownership consumed earlier on the trapping path). The freed marker
  // (rc == 0) makes the walk skip them instead of double-freeing.
  Heap H;
  Value Dead = mkCell(H, 3);
  H.drop(Dead); // freed; the stale Value still points at the cell
  // Different size class, so Dead's cell is not recycled and stays freed.
  Value Live = mkCell(H, 0);
  EXPECT_EQ(reclaim(H, {Dead, Live, Dead}), 1u);
  EXPECT_TRUE(H.empty());
}

TEST(HeapReclaim, DedupsAliasedRoots) {
  Heap H;
  Value V = mkCell(H, 1);
  V.Ref->fields()[0] = Value::makeInt(1);
  EXPECT_EQ(reclaim(H, {V, V, V}), 1u);
  EXPECT_TRUE(H.empty());
}

TEST(HeapReclaim, FreesReuseTokensWithoutChasingStaleFields) {
  // A reuse token holds a cell whose children were already dropped; its
  // field area is stale. Reclaim must free the token cell once and skip
  // the dangling children.
  Heap H;
  Value ChildA = mkCell(H, 0);
  Value ChildB = mkCell(H, 0);
  Cell *Parent = H.alloc(2, 0, CellKind::Ctor);
  Parent->fields()[0] = ChildA;
  Parent->fields()[1] = ChildB;
  H.dropChildren(Parent); // the drop-reuse unique path
  EXPECT_EQ(H.stats().LiveCells, 1u);
  EXPECT_EQ(reclaim(H, {Value::makeToken(Parent)}), 1u);
  EXPECT_TRUE(H.empty());
}

TEST(HeapReclaim, NullTokenAndImmediatesAreIgnored) {
  Heap H;
  EXPECT_EQ(reclaim(H, {Value::makeToken(nullptr), Value::makeInt(7),
                       Value::makeBool(true), Value::unit(),
                       Value::makeEnum(0, 1), Value::makeFnRef(2)}),
            0u);
  EXPECT_TRUE(H.empty());
}

TEST(HeapReclaim, FreedCellsKeepAReadableHeader) {
  // The free-list link must not clobber the header: the unwind walk
  // depends on rc == 0 and a valid arity in freed cells.
  Heap H;
  Value V = mkCell(H, 2);
  Cell *C = V.Ref;
  H.drop(V);
  EXPECT_EQ(C->H.Rc.load(), 0);
  EXPECT_EQ(C->H.Arity, 2);
  // And the free list still works: same size class comes back.
  Value V2 = mkCell(H, 2);
  EXPECT_EQ(V2.Ref, C);
  H.drop(V2);
}

TEST(HeapReclaim, GcModeReclaimAllReleasesEverything) {
  Heap H(HeapMode::Gc);
  for (int I = 0; I != 32; ++I)
    mkCell(H, 1);
  EXPECT_EQ(H.stats().LiveCells, 32u);
  EXPECT_EQ(H.reclaimAll(), 32u);
  EXPECT_TRUE(H.empty());
  EXPECT_TRUE(H.allCells().empty());
  // The heap stays serviceable afterwards.
  mkCell(H, 1);
  EXPECT_EQ(H.stats().LiveCells, 1u);
  EXPECT_EQ(H.reclaimAll(), 1u);
}

TEST(HeapGc, GcModeIgnoresRcOps) {
  Heap H(HeapMode::Gc);
  Value V = mkCell(H, 1);
  H.dup(V);
  H.drop(V);
  H.drop(V);
  EXPECT_EQ(H.stats().LiveCells, 1u); // nothing freed without a collector
  EXPECT_EQ(H.allCells().size(), 1u);
}

TEST(HeapGc, CollectHookFiresAtThreshold) {
  Heap H(HeapMode::Gc, /*GcThresholdBytes=*/256);
  int Fired = 0;
  H.setCollectHook([&] { ++Fired; });
  for (int I = 0; I != 64; ++I)
    mkCell(H, 2);
  EXPECT_GT(Fired, 0);
}

//===--- RC saturation boundary matrix ------------------------------------===//
//
// The count encoding has three regimes — thread-local positive counts,
// thread-shared negative counts, and the sticky band pinned at the
// bottom — and the saturation audit walks every entry point (dup, drop,
// decref) across each regime's boundary values: INT32_MAX and its
// neighbors on the positive side, StickyRc = INT32_MIN, sticky ± 1, and
// both sides of the band top INT32_MIN + 2^20.

TEST(HeapSaturation, DropAtInt32MaxDecrementsNormally) {
  // INT32_MAX is a legal thread-local count, not a trap state: only a
  // *dup* there saturates (it has nowhere to go). Drop moves away from
  // the boundary and must behave like any other decrement.
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MAX, std::memory_order_relaxed);
  H.drop(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MAX - 1);
  EXPECT_EQ(H.stats().Frees, 0u);
  V.Ref->H.Rc.store(1, std::memory_order_relaxed); // cleanup via free
  H.drop(V);
  EXPECT_TRUE(H.empty());
}

TEST(HeapSaturation, DecRefAtInt32MaxDecrementsNormally) {
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MAX, std::memory_order_relaxed);
  H.decref(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MAX - 1);
  EXPECT_EQ(H.stats().Frees, 0u);
  V.Ref->H.Rc.store(1, std::memory_order_relaxed);
  H.drop(V);
  EXPECT_TRUE(H.empty());
}

TEST(HeapSaturation, DupBelowInt32MaxReachesExactlyInt32Max) {
  // The saturation check is `== INT32_MAX` *before* incrementing: a dup
  // at INT32_MAX - 1 lands on INT32_MAX exactly (still a live ordinary
  // count); only the *next* dup pins. An off-by-one here would either
  // pin a count early or overflow into the shared encoding.
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MAX - 1, std::memory_order_relaxed);
  H.dup(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MAX) << "not pinned yet";
  H.dup(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN) << "now pinned";
  H.freeMemoryOnly(V.Ref); // pinned cells never free; test cleanup
}

TEST(HeapSaturation, StickyPlusOneIsInsideTheBand) {
  // INT32_MIN + 1 is deep inside the sticky band: every RC entry point
  // must leave it untouched with no atomic RMW, exactly like StickyRc
  // itself — the band exists so counts *near* the pin are as inert as
  // the pin.
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(INT32_MIN + 1, std::memory_order_relaxed);
  uint64_t Atomic0 = H.stats().AtomicRcOps;
  H.dup(V);
  H.drop(V);
  H.decref(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN + 1);
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0);
  EXPECT_EQ(H.stats().LiveCells, 1u) << "pinned alive";
  H.freeMemoryOnly(V.Ref);
}

TEST(HeapSaturation, BandTopBoundaryIsExact) {
  // At exactly StickyBandTop every op is inert; one above it the count
  // is an ordinary shared count again. Both sides of the edge, same ops.
  constexpr int32_t BandTop = INT32_MIN + (1 << 20);
  Heap H;
  Value V = mkCell(H, 0);

  V.Ref->H.Rc.store(BandTop, std::memory_order_relaxed);
  uint64_t Atomic0 = H.stats().AtomicRcOps;
  H.drop(V);
  H.decref(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), BandTop);
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0);

  // One above the band: drop decrements the (negative-encoded) count
  // atomically, moving it *away* from the band — toward zero.
  V.Ref->H.Rc.store(BandTop + 1, std::memory_order_relaxed);
  H.drop(V);
  EXPECT_EQ(V.Ref->H.Rc.load(), BandTop + 2);
  EXPECT_EQ(H.stats().AtomicRcOps, Atomic0 + 1);
  H.freeMemoryOnly(V.Ref); // still in shared encoding; test cleanup
}

TEST(HeapSaturation, SharedDecrementCannotEnterTheBandByOne) {
  // The guard property the 2^20 band buys: a decrement (fetch_add on
  // the negative encoding) from just above the band lands *further*
  // from INT32_MIN, never on it — so racing decrements that all passed
  // the band check cannot wrap the count past the pin.
  constexpr int32_t BandTop = INT32_MIN + (1 << 20);
  Heap H;
  Value V = mkCell(H, 0);
  V.Ref->H.Rc.store(BandTop + 1, std::memory_order_relaxed);
  H.decref(V);
  EXPECT_GT(V.Ref->H.Rc.load(), BandTop);
  H.freeMemoryOnly(V.Ref);
}

//===--- Retained-memory trim ---------------------------------------------===//

TEST(HeapTrim, TrimOnNonEmptyHeapIsRefused) {
  // Live cells pin their slabs (cells are slab-interior pointers; there
  // is no per-slab occupancy map), so trim must be a no-op until the
  // heap is empty.
  Heap H;
  Value V = mkCell(H, 2);
  size_t Held = H.retainedBytes();
  EXPECT_GT(Held, 0u);
  EXPECT_EQ(H.trimRetained(), 0u);
  EXPECT_EQ(H.retainedBytes(), Held);
  H.drop(V);
  EXPECT_TRUE(H.empty());
}

TEST(HeapTrim, TrimBoundsRetainedBytesAfterAPeak) {
  // Grow several MB of slabs, free everything, trim: retained bytes
  // must come back to at most one warm standard slab (256 KiB), and the
  // released amount is exactly the difference.
  constexpr size_t OneSlab = 256 * 1024;
  Heap H;
  std::vector<Value> Cells;
  for (int I = 0; I != 50000; ++I) // 50k cells × 24 B ≫ one slab
    Cells.push_back(mkCell(H, 2));
  size_t Peak = H.retainedBytes();
  EXPECT_GT(Peak, 4u * OneSlab);
  for (Value V : Cells)
    H.drop(V);
  ASSERT_TRUE(H.empty());
  // Freeing populates free lists but returns nothing to the OS.
  EXPECT_EQ(H.retainedBytes(), Peak);
  size_t Released = H.trimRetained();
  EXPECT_EQ(Released, Peak - H.retainedBytes());
  EXPECT_LE(H.retainedBytes(), OneSlab);
}

TEST(HeapTrim, HeapIsFullyUsableAfterTrim) {
  // The trim drops the free lists and restarts the bump pointer in the
  // kept slab; allocation, reuse, and the empty-heap invariant must all
  // survive it.
  Heap H;
  std::vector<Value> Cells;
  for (int I = 0; I != 20000; ++I)
    Cells.push_back(mkCell(H, 1));
  for (Value V : Cells)
    H.drop(V);
  ASSERT_TRUE(H.empty());
  H.trimRetained();

  Value A = mkCell(H, 3, 5);
  EXPECT_EQ(A.Ref->H.Tag, 5u);
  EXPECT_EQ(A.Ref->H.Rc.load(), 1);
  H.dup(A);
  H.drop(A);
  H.drop(A);
  EXPECT_TRUE(H.empty());
  // And a second trim on the already-trimmed heap releases nothing new.
  EXPECT_EQ(H.trimRetained(), 0u);
}

//===--- Shared-count coalescing ------------------------------------------===//

TEST(HeapCoalesce, SharedTrafficNetsToZeroRmws) {
  // The tentpole property: balanced dup/drop traffic on a shared cell
  // accumulates in the buffer and cancels — no atomic RMW ever issues,
  // not even at the flush (the net delta is zero).
  Heap H;
  H.enableSharedCoalescing();
  Value V = mkCell(H, 0);
  H.markShared(V);
  for (int I = 0; I != 1000; ++I) {
    H.dup(V);
    H.drop(V);
  }
  EXPECT_EQ(H.stats().CoalescedRcOps, 2000u);
  EXPECT_EQ(H.stats().AtomicRcOps, 0u);
  EXPECT_EQ(V.Ref->H.Rc.load(), -1);
  H.flushSharedDeltas();
  EXPECT_EQ(H.stats().AtomicRcOps, 0u);
  EXPECT_EQ(V.Ref->H.Rc.load(), -1);
  H.drop(V);
  H.flushSharedDeltas();
  EXPECT_TRUE(H.empty());
}

TEST(HeapCoalesce, FlushAppliesTheNetDeltaInOneRmw) {
  Heap H;
  H.enableSharedCoalescing();
  Value V = mkCell(H, 0);
  H.markShared(V);
  H.dup(V);
  H.dup(V);
  H.dup(V);
  // Three buffered increments, count not yet touched.
  EXPECT_EQ(V.Ref->H.Rc.load(), -1);
  H.flushSharedDeltas();
  // One RMW applied the net +3 (count grows = rc decreases).
  EXPECT_EQ(H.stats().AtomicRcOps, 1u);
  EXPECT_EQ(V.Ref->H.Rc.load(), -4);
  for (int I = 0; I != 4; ++I)
    H.decref(V);
  H.flushSharedDeltas();
  EXPECT_TRUE(H.empty());
}

TEST(HeapCoalesce, LastReferenceFreesViaFlushWithCascade) {
  // A buffered decrement defers the free until the flush; the flush's
  // cascade then re-buffers the child's decrement and the flush loop
  // applies it too — the heap ends empty, same as without coalescing.
  Heap H;
  H.enableSharedCoalescing();
  Value Child = mkCell(H, 0);
  Value Parent = mkCell(H, 1);
  Parent.Ref->fields()[0] = Child;
  H.markShared(Parent);
  H.decref(Parent);
  // Deferred: nothing freed yet, count untouched.
  EXPECT_EQ(H.stats().Frees, 0u);
  EXPECT_EQ(Parent.Ref->H.Rc.load(), -1);
  H.flushSharedDeltas();
  EXPECT_EQ(H.stats().Frees, 2u);
  EXPECT_TRUE(H.empty());
  // Parent's decrement and the cascaded child decrement: one RMW each.
  EXPECT_EQ(H.stats().AtomicRcOps, 2u);
}

TEST(HeapCoalesce, StickyDeltasAreDiscardedAtFlush) {
  Heap H;
  H.enableSharedCoalescing();
  Value V = mkCell(H, 0);
  H.markShared(V);
  V.Ref->H.Rc.store(INT32_MIN, std::memory_order_relaxed);
  for (int I = 0; I != 10; ++I) {
    H.dup(V);
    H.drop(V);
  }
  H.drop(V); // would free a non-sticky cell
  H.flushSharedDeltas();
  // Buffered ops were classified, but the sticky band pins the cell:
  // no RMW, no free, count untouched.
  EXPECT_EQ(H.stats().CoalescedRcOps, 21u);
  EXPECT_EQ(H.stats().AtomicRcOps, 0u);
  EXPECT_EQ(H.stats().Frees, 0u);
  EXPECT_EQ(V.Ref->H.Rc.load(), INT32_MIN);
}

TEST(HeapCoalesce, ConflictEvictionAppliesTheResidentDelta) {
  // More distinct shared cells than buffer slots: direct-mapped
  // conflicts evict residents (applying their deltas) instead of
  // growing unbounded state; the final flush settles the rest and a
  // balancing pass still empties the heap.
  Heap H;
  H.enableSharedCoalescing();
  constexpr size_t N = 3000; // > CoalesceSlots
  std::vector<Value> Cells;
  for (size_t I = 0; I != N; ++I) {
    Cells.push_back(mkCell(H, 0));
    H.markShared(Cells.back());
    H.dup(Cells.back());
  }
  // At most one delta per slot can stay resident; the rest were applied
  // on eviction.
  EXPECT_GE(H.stats().AtomicRcOps, uint64_t(N) - 2048u);
  for (Value V : Cells) {
    H.drop(V);
    H.drop(V);
  }
  H.flushSharedDeltas();
  EXPECT_TRUE(H.empty());
}

TEST(HeapCoalesce, SlotSaturationAutoApplies) {
  // A single hot cell dup'd past the saturation bound auto-applies its
  // slot so a racing flush can never step the count further than
  // MaxCoalescedDelta past what the sticky-band check saw.
  Heap H;
  H.enableSharedCoalescing();
  Value V = mkCell(H, 0);
  H.markShared(V);
  constexpr int N = (1 << 16) + 5;
  for (int I = 0; I != N; ++I)
    H.dup(V);
  // The 2^16-th dup saturated the slot and applied it (one RMW); five
  // more sit buffered.
  EXPECT_EQ(H.stats().AtomicRcOps, 1u);
  EXPECT_EQ(V.Ref->H.Rc.load(), -1 - (1 << 16));
  for (int I = 0; I != N + 1; ++I)
    H.decref(V);
  H.flushSharedDeltas();
  EXPECT_TRUE(H.empty());
}

TEST(HeapCoalesce, ReclaimFlushesBufferedDeltasFirst) {
  // Trap unwind must not run against counts the heap privately owes
  // updates to: reclaim flushes, which here frees the cell, and the
  // walk then skips it via the freed marker instead of double-freeing.
  Heap H;
  H.enableSharedCoalescing();
  Value V = mkCell(H, 0);
  H.markShared(V);
  H.decref(V);
  EXPECT_EQ(H.stats().Frees, 0u);
  size_t Freed = reclaim(H, {V});
  EXPECT_TRUE(H.empty());
  EXPECT_EQ(H.stats().Frees, 1u);
  // The flush freed it; the unwind walk found only the freed marker.
  EXPECT_EQ(Freed, 0u);
}

TEST(HeapCoalesce, IsUniqueNeverTrueWithStaleDeltas) {
  // A stale unflushed delta must never let is-unique report true on a
  // shared cell: buffered decrements leave the applied count too
  // negative, and the probe reads the applied count.
  Heap H;
  H.enableSharedCoalescing();
  Value V = mkCell(H, 0);
  H.markShared(V);
  H.dup(V); // applied count lags the true count by one
  EXPECT_FALSE(H.isUnique(V));
  H.drop(V);
  H.drop(V);
  EXPECT_FALSE(H.isUnique(V));
  H.flushSharedDeltas();
  EXPECT_TRUE(H.empty());
}

TEST(HeapCoalesce, DisabledByDefaultKeepsEagerAtomics) {
  Heap H;
  Value V = mkCell(H, 0);
  H.markShared(V);
  H.dup(V);
  H.drop(V);
  EXPECT_EQ(H.stats().AtomicRcOps, 2u);
  EXPECT_EQ(H.stats().CoalescedRcOps, 0u);
  H.drop(V);
  EXPECT_TRUE(H.empty());
}

TEST(HeapTrim, WidestCellFitsOneSlab) {
  // The header arity caps a cell at 255 fields, so every cell comes out
  // of a standard slab and a trim always leaves at most one slab.
  constexpr size_t OneSlab = 256 * 1024;
  Heap H;
  Value Big = mkCell(H, 255);
  EXPECT_EQ(H.retainedBytes(), OneSlab);
  H.drop(Big);
  ASSERT_TRUE(H.empty());
  H.trimRetained();
  EXPECT_LE(H.retainedBytes(), OneSlab);
}

//===--- Cell layout -------------------------------------------------------===//

/// Every kind at its extremes: the 63-bit integer edges, the largest
/// DataId and constructor tag the resolver admits, the largest function
/// id a program may have, both tokens, a closure code pointer.
std::vector<Value> extremeValues(Cell *Child, const void *Code) {
  return {
      Value::unit(),
      Value::makeInt(IntMax),
      Value::makeInt(IntMin),
      Value::makeInt(0),
      Value::makeInt(-1),
      Value::makeBool(true),
      Value::makeBool(false),
      Value::makeEnum(InvalidId - 1, MaxTypeCtors - 1),
      Value::makeEnum(0, 0),
      Value::makeFnRef(65535),
      Value::makeRef(Child),
      Value::makeToken(nullptr),
      Value::makeToken(Child),
      Value::makeRaw(Code),
  };
}

TEST(CellLayout, EveryValueKindRoundTripsThroughAWord) {
  Heap H;
  alignas(8) static const char Code[8] = {};
  Cell *Child = H.alloc(0, 0, CellKind::Ctor);
  const std::vector<Value> Vals = extremeValues(Child, Code);
  std::vector<uint64_t> Words;
  for (const Value &V : Vals) {
    Word W = V.encode();
    EXPECT_EQ(W.kind(), V.Kind) << W.Bits;
    Value Back = Value::decode(W);
    EXPECT_EQ(Back.Kind, V.Kind) << W.Bits;
    EXPECT_EQ(Back.Bits, V.Bits) << W.Bits;
    EXPECT_EQ(W.isHeap(), V.Kind == ValueKind::HeapRef) << W.Bits;
    EXPECT_NE(W.Bits, 0u) << "no value is the empty word";
    Words.push_back(W.Bits);
  }
  std::sort(Words.begin(), Words.end());
  EXPECT_EQ(std::unique(Words.begin(), Words.end()), Words.end())
      << "distinct values have distinct words";
  EXPECT_EQ(Value::decode(Value::makeInt(IntMax).encode()).Int, IntMax);
  EXPECT_EQ(Value::decode(Value::makeInt(IntMin).encode()).Int, IntMin);
  EXPECT_EQ(Word::makeInt(IntMin).asInt(), IntMin);
  EXPECT_EQ(Value::decode(Vals[7].encode()).enumTag(), MaxTypeCtors - 1);
  EXPECT_EQ(Value::decode(Vals[7].encode()).Bits >> 32, InvalidId - 1);
  EXPECT_EQ(Value::decode(Vals[9].encode()).fnId(), 65535u);
  EXPECT_EQ(Value::decode(Vals[11].encode()).Tok, nullptr);
  EXPECT_EQ(Value::decode(Vals[12].encode()).Tok, Child);
  EXPECT_EQ(Value::decode(Vals[13].encode()).rawPtr(), Code);
  // The empty word a fresh frame holds reads as unit.
  EXPECT_EQ(Value::decode(Word{}).Kind, ValueKind::Unit);
  EXPECT_EQ(Word{}.cellOrNull(), nullptr);
  H.drop(Value::makeRef(Child));
  EXPECT_TRUE(H.empty());
}

TEST(CellLayout, EveryValueKindRoundTripsThroughAField) {
  Heap H;
  alignas(8) static const char Code[8] = {};
  Cell *Child = H.alloc(0, 0, CellKind::Ctor);
  const std::vector<Value> Vals = extremeValues(Child, Code);
  Cell *C = H.alloc(static_cast<uint32_t>(Vals.size()), 0, CellKind::Ctor);
  for (uint32_t J = 0; J != Vals.size(); ++J)
    C->fields()[J] = Vals[J];
  for (uint32_t J = 0; J != Vals.size(); ++J) {
    Value V = C->fields()[J];
    EXPECT_EQ(V.Kind, Vals[J].Kind) << J;
    EXPECT_EQ(V.Bits, Vals[J].Bits) << J;
    EXPECT_EQ(C->field(J), Vals[J].encode()) << J;
  }
  // The proxy reads and writes the same storage.
  Value Via = C->fields()[1];
  EXPECT_EQ(Via.Int, IntMax);
  C->fields()[3] = C->fields()[2];
  EXPECT_EQ(Value(C->fields()[3]).Int, IntMin);
  // Dropping the cell follows the one HeapRef field, not the tokens.
  H.drop(Value::makeRef(C));
  EXPECT_TRUE(H.empty());
}

TEST(CellLayout, FieldWritesStayInTheirOwnSlot) {
  // At every arity, writing one field leaves every other field alone.
  Heap H;
  for (uint32_t A = 1; A != 10; ++A) {
    Cell *C = H.alloc(A, 0, CellKind::Ctor);
    for (uint32_t J = 0; J != A; ++J)
      C->setField(J, Word::makeInt(-int64_t(J) - 1));
    for (uint32_t J = 0; J != A; ++J) {
      C->setField(J, Word::makeBool(true));
      for (uint32_t K = 0; K != A; ++K) {
        Value V = C->fields()[K];
        if (K == J) {
          EXPECT_EQ(V.Kind, ValueKind::Bool);
        } else {
          EXPECT_EQ(V.Kind, ValueKind::Int) << A << " " << J << " " << K;
          EXPECT_EQ(V.Int, -int64_t(K) - 1);
        }
      }
      C->setField(J, Word::makeInt(-int64_t(J) - 1));
    }
    H.drop(Value::makeRef(C));
  }
  EXPECT_TRUE(H.empty());
}

TEST(CellLayout, AllocSizeIsHeaderPlusOneWordPerField) {
  // 8-byte header, one 8-byte word per field, with a 16-byte minimum.
  const size_t Expected[] = {16, 16, 24, 32, 40, 48, 56, 64, 72};
  for (uint32_t A = 0; A != 9; ++A)
    EXPECT_EQ(Cell::allocSize(A), Expected[A]) << A;
  EXPECT_EQ(Cell::allocSize(255), 2048u);
}

TEST(CellLayout, FreedCellKeepsHeaderAndLinksThroughPayloadWordZero) {
  Heap H;
  Value A = mkCell(H, 3, 5);
  Value B = mkCell(H, 3, 6);
  Cell *CA = A.Ref, *CB = B.Ref;
  H.drop(A);
  H.drop(B);
  for (Cell *C : {CA, CB}) {
    EXPECT_EQ(C->H.Rc.load(), 0); // the freed marker
    EXPECT_EQ(C->H.Arity, 3);     // still readable for the unwind walk
    EXPECT_EQ(reinterpret_cast<char *>(&cellFreeLink(C)),
              reinterpret_cast<char *>(C) + sizeof(CellHeader));
  }
  // B was freed last: it heads the arity-3 list and links to A.
  EXPECT_EQ(cellFreeLink(CB), CA);
  EXPECT_EQ(cellFreeLink(CA), nullptr);
  Value B2 = mkCell(H, 3);
  Value A2 = mkCell(H, 3);
  EXPECT_EQ(B2.Ref, CB);
  EXPECT_EQ(A2.Ref, CA);
  H.drop(A2);
  H.drop(B2);
  EXPECT_TRUE(H.empty());
}

TEST(CellLayout, WidestCellRoundTrips) {
  Heap H;
  Cell *C = H.alloc(UINT8_MAX, 9, CellKind::Ctor);
  auto valueAt = [](uint32_t J) {
    return J % 2 ? Value::makeInt(-int64_t(J) * 1000000007)
                 : Value::makeEnum(J, J + 1);
  };
  for (uint32_t J = 0; J != UINT8_MAX; ++J)
    C->fields()[J] = valueAt(J);
  for (uint32_t J = 0; J != UINT8_MAX; ++J) {
    Value V = C->fields()[J];
    EXPECT_EQ(V.Kind, valueAt(J).Kind) << J;
    EXPECT_EQ(V.Bits, valueAt(J).Bits) << J;
  }
  EXPECT_EQ(C->H.Arity, UINT8_MAX);
  EXPECT_EQ(H.stats().LiveBytes, Cell::allocSize(UINT8_MAX));
  H.drop(Value::makeRef(C));
  EXPECT_TRUE(H.empty());
}

TEST(CellLayout, Figure9PeakBytesArePinnedOnBothVmTiers) {
  // The paper's memory column at small n under the perceus config. The
  // peaks are the cell layout's footprint (8 + 8·arity bytes a cell), so
  // they are the same on the raw and the peepholed VM.
  struct Case {
    const char *Source;
    const char *Entry;
    int64_t N;
    size_t PeakBytes;
  };
  const Case Cases[] = {
      {rbtreeSource(), "bench_rbtree", 120, 5760},
      {rbtreeCkSource(), "bench_rbtree_ck", 60, 6552},
      {derivSource(), "bench_deriv", 4, 656},
      {nqueensSource(), "bench_nqueens", 6, 4272},
      {cfoldSource(), "bench_cfold", 6, 2536},
  };
  for (const Case &C : Cases) {
    for (bool Peephole : {false, true}) {
      SCOPED_TRACE(std::string(C.Entry) + (Peephole ? " vm+peephole" : " vm"));
      Runner R(C.Source, PassConfig::perceusFull(),
               EngineConfig{}.withPeephole(Peephole));
      ASSERT_TRUE(R.ok()) << R.diagnostics().str();
      RunResult Res = R.callInt(C.Entry, {C.N});
      ASSERT_TRUE(Res.Ok) << Res.Error;
      EXPECT_EQ(R.heap().stats().PeakBytes, C.PeakBytes);
      EXPECT_TRUE(R.heapIsEmpty());
    }
  }
}

} // namespace

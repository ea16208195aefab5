//===- runtime/Heap.h - Reference-counted heap ------------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime heap. In RC mode it implements the reference-counting
/// operations of the paper (dup, drop, decref, is-unique, free,
/// thread-shared marking with atomic negative counts); in GC mode it
/// registers every allocation so a tracing collector (src/gc) can
/// mark-and-sweep, and RC operations become no-ops that are never emitted
/// anyway. Both modes share the allocator: size-class (per-arity) free
/// lists over bump-allocated slabs, in the spirit of the mimalloc
/// allocator Koka uses.
///
/// The heap tracks precise statistics (allocations, frees, executed RC
/// operations, atomic operations, live/peak bytes) — these drive the
/// benchmark tables that reproduce the paper's Figure 9.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_RUNTIME_HEAP_H
#define PERCEUS_RUNTIME_HEAP_H

#include "runtime/Value.h"

#include <cstddef>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

namespace perceus {

/// How the heap reclaims memory.
enum class HeapMode : uint8_t {
  Rc, ///< explicit reference counting (dup/drop in the program)
  Gc, ///< tracing mark-sweep collection (src/gc)
};

class FaultInjector;
class SharedCellPool;
class StatsSink;

/// Resource-governor limits. A zero field means "unlimited"; the default
/// value imposes no limits at all, and the governed checks are skipped
/// entirely (a single predicted-false branch) until a limit or a fault
/// injector is installed.
struct HeapLimits {
  size_t MaxLiveBytes = 0;   ///< cap on Stats.LiveBytes after an alloc
  uint64_t MaxLiveCells = 0; ///< cap on Stats.LiveCells after an alloc
  uint64_t AllocBudget = 0;  ///< cap on total allocations (Stats.Allocs)

  bool unlimited() const {
    return MaxLiveBytes == 0 && MaxLiveCells == 0 && AllocBudget == 0;
  }
};

/// Counters the benchmarks and tests read.
///
/// Classification invariant: every call of `dup`/`drop`/`decref`/
/// `isUnique` increments exactly one of DupOps, DropOps, DecRefOps,
/// IsUniqueTests, or NonHeapRcOps. A call lands in NonHeapRcOps when it
/// was a no-op — the operand is a non-heap immediate, or the heap is in
/// GC mode where RC state does not exist. Consequently
/// `DupOps + DropOps + DecRefOps + IsUniqueTests + NonHeapRcOps` equals
/// the number of RC operations the machine issued, which
/// tests/runtime/stats_invariant_test.cpp cross-checks against the
/// machine's own instruction counts for every program × config.
/// AtomicRcOps and CoalescedRcOps are overlay counters on top of that
/// classification (never extra operations): AtomicRcOps counts atomic
/// RMWs actually *issued* on shared counts — with coalescing enabled
/// that is one per buffer flush/eviction, not one per operation — and
/// CoalescedRcOps counts shared-count updates absorbed into the
/// coalescing buffer instead of being RMW'd immediately. A sticky count
/// is never updated, so it contributes to neither.
struct HeapStats {
  uint64_t Allocs = 0;        ///< cells allocated (fresh, not reused)
  uint64_t Frees = 0;         ///< cells released
  uint64_t DupOps = 0;        ///< executed dups on heap values
  uint64_t DropOps = 0;       ///< executed drops on heap values
  uint64_t DecRefOps = 0;     ///< executed decrefs
  uint64_t NonHeapRcOps = 0;  ///< rc ops that were no-ops (see invariant)
  uint64_t AtomicRcOps = 0;   ///< atomic RMWs issued (flushes, not ops)
  uint64_t CoalescedRcOps = 0;///< shared rc updates absorbed by the buffer
  uint64_t IsUniqueTests = 0; ///< executed is-unique tests
  uint64_t Collections = 0;   ///< tracing GC runs
  uint64_t FailedAllocs = 0;  ///< allocations refused by the governor
  uint64_t EmergencyCollections = 0; ///< GC runs forced by a limit
  uint64_t UnwindFrees = 0;   ///< cells reclaimed by trap unwinding
  size_t LiveBytes = 0;       ///< allocated bytes (Cell::allocSize each)
  size_t PeakBytes = 0;       ///< high-water mark of LiveBytes
  uint64_t LiveCells = 0;     ///< currently allocated cells
};

/// Accumulates \p From into \p Into (the parallel join: per-worker stats
/// are summed into one combined view). Every counter adds, including
/// PeakBytes — the combined peak is the pessimistic aggregate footprint,
/// as if every worker peaked simultaneously.
void accumulate(HeapStats &Into, const HeapStats &From);

/// The runtime heap; see the file comment.
class Heap {
public:
  explicit Heap(HeapMode Mode = HeapMode::Rc,
                size_t GcThresholdBytes = 4u << 20);
  ~Heap();
  Heap(const Heap &) = delete;
  Heap &operator=(const Heap &) = delete;

  HeapMode mode() const { return Mode; }
  HeapStats &stats() { return Stats; }
  const HeapStats &stats() const { return Stats; }

  /// Allocates a cell with \p Arity fields (fields uninitialized). In GC
  /// mode this may trigger a collection via the collect hook.
  ///
  /// Returns null when the governor refuses the allocation: an installed
  /// fault injector fired, or a limit would be exceeded (after an
  /// emergency collection in GC mode). Callers must treat null as an
  /// out-of-memory trap, never dereference it.
  Cell *alloc(uint32_t Arity, uint32_t Tag, CellKind Kind);

  //===--- Resource governor ------------------------------------------------//

  /// Installs allocation limits (default: unlimited).
  void setLimits(const HeapLimits &L) {
    Limits = L;
    updateGoverned();
  }
  const HeapLimits &limits() const { return Limits; }

  /// Installs a fault injector (non-owning; null uninstalls). The
  /// injector sees every allocation attempt.
  void setFaultInjector(FaultInjector *FI) {
    Injector = FI;
    updateGoverned();
  }

  //===--- Telemetry --------------------------------------------------------//

  /// Installs a telemetry sink (non-owning; null uninstalls). When set,
  /// every dup/drop/decref/is-unique call and every alloc/free is
  /// reported to it before classification; when null (the default) each
  /// event site is a single predicted-false branch, like the governor.
  void setStatsSink(StatsSink *S) { Sink = S; }
  StatsSink *statsSink() const { return Sink; }

  /// Increments the reference count of \p V (no-op on immediates).
  ///
  /// The four RC entry points below inline their uncontended fast path
  /// (no sink, RC mode, heap operand, thread-local count) straight into
  /// the interpreter loops; everything else — telemetry, GC mode,
  /// immediates, shared counts, saturation, frees — takes the
  /// out-of-line *Slow twin, which re-derives the case from scratch.
  /// The split is profile-driven: these calls dominate the VM's
  /// non-dispatch time on the Figure 9 set. An immediate is one tag test
  /// (Word::isHeap); the empty word never reaches them.
  void dup(Word V) {
    if (Sink == nullptr && Mode == HeapMode::Rc) {
      if (!V.isHeap()) {
        ++Stats.NonHeapRcOps;
        return;
      }
      assert(V.Bits != 0 && "dup of an empty register");
      Cell *C = V.ref();
      int32_t Rc = C->H.Rc.load(std::memory_order_relaxed);
      assert(Rc != 0 && "dup of freed cell");
      if (Rc > 0 && Rc != INT32_MAX) {
        ++Stats.DupOps;
        C->H.Rc.store(Rc + 1, std::memory_order_relaxed);
        return;
      }
    }
    dupSlow(V);
  }

  /// Decrements; frees the cell and recursively drops its children when
  /// the count reaches zero.
  void drop(Word V) {
    if (Sink == nullptr && Mode == HeapMode::Rc) {
      if (!V.isHeap()) {
        ++Stats.NonHeapRcOps;
        return;
      }
      assert(V.Bits != 0 && "drop of an empty register");
      Cell *C = V.ref();
      int32_t Rc = C->H.Rc.load(std::memory_order_relaxed);
      assert(Rc != 0 && "drop of freed cell");
      if (Rc > 1) {
        ++Stats.DropOps;
        C->H.Rc.store(Rc - 1, std::memory_order_relaxed);
        return;
      }
    }
    dropSlow(V);
  }

  /// Decrements without the uniqueness fast path (the shared branch of a
  /// specialized drop). Still frees when a thread-shared count reaches 0.
  void decref(Word V) {
    if (Sink == nullptr && Mode == HeapMode::Rc) {
      if (!V.isHeap()) {
        ++Stats.NonHeapRcOps;
        return;
      }
      assert(V.Bits != 0 && "decref of an empty register");
      Cell *C = V.ref();
      int32_t Rc = C->H.Rc.load(std::memory_order_relaxed);
      assert(Rc != 0 && "decref of freed cell");
      if (Rc > 1) {
        ++Stats.DecRefOps;
        C->H.Rc.store(Rc - 1, std::memory_order_relaxed);
        return;
      }
    }
    decrefSlow(V);
  }

  /// The `is-unique` test: true iff the count is exactly 1 and the value
  /// is not thread-shared.
  bool isUnique(Word V) {
    if (Sink == nullptr && Mode == HeapMode::Rc) {
      if (!V.isHeap()) {
        ++Stats.NonHeapRcOps;
        return false;
      }
      ++Stats.IsUniqueTests;
      return V.ref()->H.Rc.load(std::memory_order_acquire) == 1;
    }
    return isUniqueSlow(V);
  }

  /// Marks \p V and everything reachable from it thread-shared
  /// (the paper's `tshare`): counts become negative and all further RC
  /// operations on them are atomic.
  void markShared(Word V);

  /// The same operations on a decoded value.
  void dup(Value V) { dup(V.encode()); }
  void drop(Value V) { drop(V.encode()); }
  void decref(Value V) { decref(V.encode()); }
  bool isUnique(Value V) { return isUnique(V.encode()); }
  void markShared(Value V) { markShared(V.encode()); }

  //===--- Cross-thread sharing (src/parallel) -------------------------------//

  /// Installs the release path for *foreign* thread-shared cells
  /// (non-owning; null uninstalls). With a pool installed, when this
  /// heap's drop/decref observes the last reference to a shared cell it
  /// did not share itself, the cell is parked in the pool instead of
  /// being spliced into this heap's single-threaded free lists — the
  /// memory belongs to the heap that allocated it, which absorbs the
  /// pool at join via absorbSharedFrees(). Shared cells this heap marked
  /// with its own markShared() stay on the ordinary release path.
  void setSharedPool(SharedCellPool *P) { SharedPool = P; }
  SharedCellPool *sharedPool() const { return SharedPool; }

  //===--- Shared-count coalescing (deferred/batched RC traffic) -------------//

  /// Enables per-heap coalescing of shared-count traffic: dup/drop/decref
  /// on thread-shared cells accumulate *net deltas* in a small
  /// direct-mapped buffer instead of issuing one atomic RMW per
  /// operation (most RC traffic on shared structures cancels locally —
  /// the Counting Immutable Beans observation). Deltas are applied — one
  /// RMW per cell per flush — when a slot is evicted or saturates, on
  /// flushSharedDeltas() (engines call it on a safepoint cadence;
  /// ParallelRunner at join), and unconditionally on trap unwind
  /// (reclaim/reclaimAll flush first), so the heap-empty guarantee is
  /// untouched. isUnique probes need no flush: deltas exist only for
  /// shared cells, which are never unique regardless of what this heap
  /// privately owes their counts (see the comment in isUnique).
  ///
  /// Flush ordering contract: within a flush, net increments apply
  /// before net decrements (the classic deferred-RC rule), so a pending
  /// increment justified by a reference this thread still holds lands
  /// before any decrement can expose a zero. A shared cell's count can
  /// therefore only reach zero through deltas of references the program
  /// really gave up — provided the segment owner retains its root
  /// reference until every worker joined and flushed, which
  /// ParallelRunner guarantees (see DESIGN.md §7d).
  void enableSharedCoalescing();
  bool sharedCoalescingEnabled() const { return Coalescing; }

  /// Applies every buffered shared-count delta (one RMW per distinct
  /// cell), freeing/parking cells whose count reached zero, and loops
  /// until cascaded frees stop refilling the buffer. No-op when
  /// coalescing is off or the buffer is empty.
  void flushSharedDeltas();

  /// Drains \p Pool into this heap: every parked cell is released here —
  /// statistics reconciled, memory recycled through the per-arity free
  /// lists. Call on the owning heap after all foreign threads joined.
  /// Returns the number of cells absorbed.
  size_t absorbSharedFrees(SharedCellPool &Pool);

  /// Registers every allocation in allCells() even in RC mode, enabling
  /// reclaimLeaked(). Call before the first allocation.
  void enableCellRegistry() { RegisterAllCells = true; }

  /// Releases every registered cell that is still live (rc != 0),
  /// regardless of reachability. This is the shared-segment analogue of
  /// the trap unwind: after a worker trapped, counts on the shared
  /// segment are leaked *high*, and subtrees can be stranded with no
  /// path from any root — only a full registry sweep recovers them.
  /// Requires enableCellRegistry() before the cells were allocated; only
  /// meaningful once no other thread can touch the cells. Returns the
  /// number of cells freed.
  size_t reclaimLeaked();

  /// Releases a cell's memory without touching its children (the `free`
  /// instruction after drop specialization, and token disposal).
  void freeMemoryOnly(Cell *C);

  /// Drops every field of \p C (the unique path of drop-reuse).
  void dropChildren(Cell *C);

  //===--- GC support (used by gc::MarkSweep) -------------------------------//

  /// Called when allocation crosses the GC threshold (GC mode only).
  void setCollectHook(std::function<void()> Hook) {
    CollectHook = std::move(Hook);
  }

  /// Every live-or-garbage cell (GC mode, or enableCellRegistry()).
  std::vector<Cell *> &allCells() { return AllCells; }

  /// Releases \p C during sweep (returns it to the free list).
  void releaseForSweep(Cell *C) { release(C); }

  /// Re-arms the collection threshold after a sweep.
  void resetGcThreshold();

  /// True when no cells are live — the garbage-free-at-exit check.
  bool empty() const { return Stats.LiveCells == 0; }

  //===--- Retained-memory control (long-lived processes) -------------------//

  /// Bytes of slab memory this heap holds from the OS — live cells,
  /// free-listed cells and unbumped slab tails alike. This is what a
  /// long-lived process retains between runs even when the heap is
  /// empty: slabs and per-arity free lists are never returned by the
  /// ordinary release path.
  size_t retainedBytes() const { return SlabBytesHeld; }

  /// Releases retained memory back to the OS. Only an empty heap can
  /// trim (live cells pin their slabs; returns 0 otherwise): the free
  /// lists are dropped, every slab but one warm slab is
  /// released, and the bump pointer restarts in the kept slab. After a
  /// trim, retainedBytes() is bounded by one slab regardless of the
  /// previous peak — the long-lived-service contract (a peaky request
  /// must not pin peak RSS forever). Returns the bytes released.
  size_t trimRetained();

  //===--- Trap unwinding ---------------------------------------------------//

  /// Frees every live cell reachable from \p Roots (heap references and
  /// tokens; empty words are skipped; reuse tokens are freed without
  /// traversing their stale fields' ownership — every reachable live
  /// cell is released exactly once, regardless of its reference count).
  /// Used by the machine's clean-unwind path: at a trap everything the
  /// machine still references is garbage, and stale references to
  /// already-freed cells are skipped via the freed marker (rc == 0).
  /// Returns the number of cells freed.
  size_t reclaim(const std::vector<Word> &Roots);

  /// GC-mode unwind: releases every registered cell (at a trap there are
  /// no roots left, so all of them are garbage). Returns the count.
  size_t reclaimAll();

private:
  /// Out-of-line twins of the inline RC fast paths above. Each handles
  /// every case from scratch (telemetry sink, GC mode, immediates,
  /// shared/saturated counts, frees) so the inline wrappers can bail to
  /// them unconditionally without pre-classifying.
  void dupSlow(Word V);
  void dropSlow(Word V);
  void decrefSlow(Word V);
  bool isUniqueSlow(Word V);

  Cell *allocRaw(uint32_t Arity);
  void release(Cell *C);
  void dropRef(Cell *C);
  void drainDropWork();
  void bufferSharedDelta(Cell *C, int32_t D);
  void applySharedDelta(Cell *C, int32_t D);
  bool locallyShared(const Cell *C) const {
    return !LocallyShared.empty() && LocallyShared.count(C) != 0;
  }
  bool governedAllocAllowed(uint32_t Arity);
  void updateGoverned() {
    Governed = Injector != nullptr || !Limits.unlimited();
  }

  /// Free cells keep their header intact (rc == 0 marks them free, and
  /// the arity stays readable for the unwind walk); the free-list link
  /// lives in field word 0 — the shared cellFreeLink word the
  /// SharedCellPool's Treiber shards also use (a cell is on at most one
  /// list at a time).
  static Cell *&freeListNext(Cell *C) { return cellFreeLink(C); }

  HeapMode Mode;
  HeapStats Stats;
  HeapLimits Limits;
  FaultInjector *Injector = nullptr;
  bool Governed = false;
  StatsSink *Sink = nullptr;
  SharedCellPool *SharedPool = nullptr;
  bool RegisterAllCells = false;

  /// Cells this heap itself passed to markShared() while a pool was
  /// installed. They are shared (negative count, atomic updates) but the
  /// memory is ours, so their frees bypass the pool. Consulted only on
  /// the rare shared-free path; erased on release.
  std::unordered_set<const Cell *> LocallyShared;

  // Bump-allocated slabs, all of one size (the widest cell fits one).
  std::vector<std::unique_ptr<char[]>> Slabs;
  char *SlabCur = nullptr;
  char *SlabEnd = nullptr;
  size_t SlabBytesHeld = 0;

  // Per-arity free lists (field word 0 of a free cell is the next
  // pointer).
  std::vector<Cell *> FreeLists;

  // GC mode bookkeeping.
  std::vector<Cell *> AllCells;
  size_t GcThreshold;
  size_t GcThresholdMin;
  std::function<void()> CollectHook;
  bool InCollect = false;

  // Reused worklist for iterative recursive drops.
  std::vector<Cell *> DropStack;

  // Shared-count coalescing. The buffer is a direct-mapped table of
  // (cell, net delta) slots, allocated on enableSharedCoalescing();
  // SharedZero collects cells whose flushed count reached zero, for
  // drainDropWork to free/park.
  struct CoalesceSlot {
    Cell *C = nullptr;
    int32_t Delta = 0;
  };
  /// Power-of-two slot count: sized so a hot working set coalesces well
  /// while the table stays cache-resident (2048 slots × 16 B = 32 KiB).
  /// Cross-round cancellation — this round's dup netting against last
  /// round's decref — needs the whole traversed structure resident, so
  /// the table is sized for thousands of distinct shared cells.
  static constexpr size_t CoalesceSlots = 2048;
  /// A slot auto-applies when its net delta saturates. Together with the
  /// worker count this bounds how far a racing flush can step a count
  /// past the sticky-band check: MaxCoalescedDelta × racers must stay
  /// well below the 2^20 band width (2^16 leaves room for 15 racers).
  static constexpr int32_t MaxCoalescedDelta = 1 << 16;
  bool Coalescing = false;
  std::unique_ptr<CoalesceSlot[]> Coalesce;
  std::vector<Cell *> SharedZero;
};

} // namespace perceus

#endif // PERCEUS_RUNTIME_HEAP_H

//===- runtime/Heap.cpp - Reference-counted heap ------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Heap.h"

#include "runtime/SharedPool.h"
#include "support/FaultInjector.h"
#include "support/Telemetry.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace perceus;

namespace {
/// The canonical sticky count a saturating dup writes.
constexpr int32_t StickyRc = INT32_MIN;
/// Top of the sticky band (see CellHeader): any count at or below this
/// pins the cell alive, and is never updated. The 2^20 guard keeps racing
/// atomic decrements that passed the band check from wrapping the count
/// past INT32_MIN.
constexpr int32_t StickyBandTop = INT32_MIN + (1 << 20);
constexpr size_t SlabBytes = 256 * 1024;
static_assert(Cell::allocSize(UINT8_MAX) <= SlabBytes,
              "a cell of the widest header arity fits one slab");

/// Direct-mapped coalescing-buffer index. Fibonacci hashing: cells are
/// allocated at a constant stride (bump allocation of equal-size cells),
/// and a plain shift-xor of the address maps a strided sequence onto a
/// sub-lattice of the table — pairing nearly every cell with a conflict
/// partner that evicts it each round. Multiplying by the golden-ratio
/// constant spreads any stride uniformly; the well-mixed middle bits
/// select the slot.
size_t coalesceIndex(const Cell *C, size_t Slots) {
  auto Bits = static_cast<uint64_t>(reinterpret_cast<uintptr_t>(C) >> 4);
  return static_cast<size_t>((Bits * 0x9E3779B97F4A7C15ull) >> 32) &
         (Slots - 1);
}
} // namespace

Heap::Heap(HeapMode Mode, size_t GcThresholdBytes)
    : Mode(Mode), GcThreshold(GcThresholdBytes),
      GcThresholdMin(GcThresholdBytes) {}

Heap::~Heap() = default;

Cell *Heap::allocRaw(uint32_t Arity) {
  if (Arity < FreeLists.size() && FreeLists[Arity]) {
    Cell *C = FreeLists[Arity];
    FreeLists[Arity] = freeListNext(C);
    return C;
  }
  size_t Bytes = Cell::allocSize(Arity);
  // Compare remaining space, not `SlabCur + Bytes > SlabEnd`: on the
  // first allocation both pointers are null and arithmetic on a null
  // pointer is UB (UBSan flags it); the subtraction below is only formed
  // once a slab exists.
  if (!SlabCur || size_t(SlabEnd - SlabCur) < Bytes) {
    Slabs.push_back(std::make_unique<char[]>(SlabBytes));
    SlabBytesHeld += SlabBytes;
    SlabCur = Slabs.back().get();
    SlabEnd = SlabCur + SlabBytes;
  }
  Cell *C = reinterpret_cast<Cell *>(SlabCur);
  SlabCur += Bytes;
  return C;
}

Cell *Heap::alloc(uint32_t Arity, uint32_t Tag, CellKind Kind) {
  assert(Arity <= 255 && "constructor arity exceeds cell header capacity");
  if (Mode == HeapMode::Gc && !InCollect && CollectHook &&
      Stats.LiveBytes >= GcThreshold) {
    InCollect = true;
    CollectHook();
    InCollect = false;
  }
  if (Governed && !governedAllocAllowed(Arity)) {
    ++Stats.FailedAllocs;
    return nullptr;
  }
  Cell *C = allocRaw(Arity);
  C->H.Rc.store(1, std::memory_order_relaxed);
  C->H.Tag = static_cast<uint8_t>(Tag);
  C->H.Arity = static_cast<uint8_t>(Arity);
  C->H.Kind = Kind;
  C->H.GcMark = 0;
  ++Stats.Allocs;
  ++Stats.LiveCells;
  Stats.LiveBytes += Cell::allocSize(Arity);
  if (Stats.LiveBytes > Stats.PeakBytes)
    Stats.PeakBytes = Stats.LiveBytes;
  if (Mode == HeapMode::Gc || RegisterAllCells)
    AllCells.push_back(C);
  if (Sink)
    Sink->record(RcEvent::Alloc, Cell::allocSize(Arity));
  return C;
}

void Heap::release(Cell *C) {
  if (Sink)
    Sink->record(RcEvent::Free, Cell::allocSize(C->H.Arity));
  ++Stats.Frees;
  --Stats.LiveCells;
  Stats.LiveBytes -= Cell::allocSize(C->H.Arity);
  if (!LocallyShared.empty())
    LocallyShared.erase(C);
  uint32_t Arity = C->H.Arity;
  // rc == 0 is the freed marker; the trap-unwind walk relies on it to
  // skip stale references, so it is written in release builds too.
  C->H.Rc.store(0, std::memory_order_relaxed);
  if (Arity >= FreeLists.size())
    FreeLists.resize(Arity + 1, nullptr);
  freeListNext(C) = FreeLists[Arity];
  FreeLists[Arity] = C;
}

/// Slow path behind the single `Governed` branch in alloc: consults the
/// fault injector, then the limits; in GC mode a limit violation first
/// forces an emergency collection, since tracing may be sitting on
/// reclaimable garbage.
bool Heap::governedAllocAllowed(uint32_t Arity) {
  if (Injector && Injector->shouldFailAllocation())
    return false; // injected faults are deterministic: no rescue attempts
  if (Limits.unlimited())
    return true;
  auto withinLimits = [&] {
    if (Limits.MaxLiveBytes &&
        Stats.LiveBytes + Cell::allocSize(Arity) > Limits.MaxLiveBytes)
      return false;
    if (Limits.MaxLiveCells && Stats.LiveCells + 1 > Limits.MaxLiveCells)
      return false;
    if (Limits.AllocBudget && Stats.Allocs + 1 > Limits.AllocBudget)
      return false;
    return true;
  };
  if (withinLimits())
    return true;
  // An allocation budget counts history, not live data — no collection
  // can recover it. Live-data limits may be rescued by an emergency GC.
  if (Mode == HeapMode::Gc && CollectHook && !InCollect &&
      (Limits.MaxLiveBytes || Limits.MaxLiveCells)) {
    ++Stats.EmergencyCollections;
    InCollect = true;
    CollectHook();
    InCollect = false;
    if (withinLimits())
      return true;
  }
  return false;
}

/// A dup, drop or decref reached a cell whose count is the rc == 0 freed
/// marker: a compile or VM bug freed a cell that is still referenced.
/// Going on would free it again and walk freed memory, so the process
/// stops here in every build. The inline fast paths send rc == 0 to the
/// slow paths, which is where this is checked.
[[noreturn, gnu::cold, gnu::noinline]] static void
reportFreedCell(const char *Op) {
  std::fprintf(stderr, "heap corruption: %s of a freed cell\n", Op);
  std::abort();
}

void Heap::dupSlow(Word V) {
  if (Sink)
    Sink->record(RcEvent::DupCall, 0);
  if (Mode == HeapMode::Gc || !V.isHeap()) {
    // No-op: tracing configuration has no counts, immediates carry none.
    ++Stats.NonHeapRcOps;
    return;
  }
  ++Stats.DupOps;
  Cell *C = V.ref();
  int32_t Rc = C->H.Rc.load(std::memory_order_relaxed);
  if (Rc == 0) [[unlikely]]
    reportFreedCell("dup");
  if (Rc > 0) {
    if (Rc == INT32_MAX) {
      // Count saturation: pin the cell alive forever instead of
      // overflowing into the shared encoding.
      C->H.Rc.store(StickyRc, std::memory_order_relaxed);
      return;
    }
    C->H.Rc.store(Rc + 1, std::memory_order_relaxed);
    return;
  }
  // Thread-shared: the count is negative; incrementing the count means
  // subtracting one, atomically. With coalescing the increment is
  // absorbed into the buffer instead (an eviction may flush another
  // slot, whose freed cells drainDropWork then disposes of).
  if (Coalescing) {
    ++Stats.CoalescedRcOps;
    bufferSharedDelta(C, +1);
    if (!SharedZero.empty() || !DropStack.empty())
      drainDropWork();
    return;
  }
  // Sticky counts (the band at the bottom of the range) stay untouched
  // — and since no RMW executes for them, they do not count as atomic
  // ops.
  if (Rc <= StickyBandTop)
    return;
  ++Stats.AtomicRcOps;
  C->H.Rc.fetch_sub(1, std::memory_order_relaxed);
}

/// Decrements the count of \p C; when it reaches zero, frees the cell and
/// (iteratively) drops its children.
void Heap::dropRef(Cell *C) {
  DropStack.push_back(C);
  drainDropWork();
}

/// The unified free-cascade loop: processes pending drops (DropStack) and
/// cells whose flushed shared count reached zero (SharedZero) until both
/// are empty. Freeing a cell pushes its children as drops; with coalescing
/// those may land back in the buffer rather than on a count.
void Heap::drainDropWork() {
  while (!DropStack.empty() || !SharedZero.empty()) {
    if (!SharedZero.empty()) {
      // A flushed delta took this shared count to zero: this heap holds
      // the last reference and must free. Children of a shared cell are
      // shared too (markShared is transitive), so the cascade stays on
      // shared paths.
      Cell *Cur = SharedZero.back();
      SharedZero.pop_back();
      for (uint32_t I = 0; I != Cur->H.Arity; ++I)
        if (Word F = Cur->field(I); F.isHeap())
          DropStack.push_back(F.ref());
      if (SharedPool && !locallyShared(Cur))
        SharedPool->park(Cur);
      else
        release(Cur);
      continue;
    }
    Cell *Cur = DropStack.back();
    DropStack.pop_back();
    int32_t Rc = Cur->H.Rc.load(std::memory_order_relaxed);
    if (Rc == 0) [[unlikely]]
      reportFreedCell("drop");
    bool Foreign = false;
    if (Rc > 1) {
      Cur->H.Rc.store(Rc - 1, std::memory_order_relaxed);
      continue;
    }
    if (Rc < 0) {
      // Thread-shared slow path (single fused `rc <= 1` test, 2.7.2).
      // With coalescing the decrement is absorbed into the buffer; a
      // zero can then only surface at a flush (applySharedDelta).
      if (Coalescing) {
        ++Stats.CoalescedRcOps;
        bufferSharedDelta(Cur, -1);
        continue;
      }
      // Sticky counts are never updated, so no atomic op is recorded.
      if (Rc <= StickyBandTop)
        continue;
      ++Stats.AtomicRcOps;
      // Release on the decrement; the acquire *load* below (only on the
      // zero path) synchronizes with every other thread's decrement via
      // the release sequence — the shared_ptr pattern, far cheaper than
      // acq_rel on every decrement. A load (not a fence) so TSan models
      // the ordering.
      if (Cur->H.Rc.fetch_add(1, std::memory_order_release) != -1)
        continue;
      (void)Cur->H.Rc.load(std::memory_order_acquire);
      // The count reached zero: this thread holds the last reference and
      // must free. A shared cell owned by another heap cannot go on our
      // free lists — park it in the pool for the owner to absorb at
      // join.
      Foreign = SharedPool && !locallyShared(Cur);
    }
    // Unique (or last shared reference): free, then drop the children.
    for (uint32_t I = 0; I != Cur->H.Arity; ++I)
      if (Word F = Cur->field(I); F.isHeap())
        DropStack.push_back(F.ref());
    if (Foreign)
      SharedPool->park(Cur);
    else
      release(Cur);
  }
}

void Heap::enableSharedCoalescing() {
  if (Coalescing)
    return;
  Coalescing = true;
  Coalesce = std::make_unique<CoalesceSlot[]>(CoalesceSlots);
}

/// Accumulates \p D into the direct-mapped slot for \p C, evicting (i.e.
/// applying) a conflicting resident first and auto-applying the slot when
/// its net delta saturates. May push freed cells onto SharedZero via
/// applySharedDelta; callers drain afterwards.
void Heap::bufferSharedDelta(Cell *C, int32_t D) {
  CoalesceSlot &S = Coalesce[coalesceIndex(C, CoalesceSlots)];
  if (S.C != C) {
    if (S.C && S.Delta != 0)
      applySharedDelta(S.C, S.Delta);
    S.C = C;
    S.Delta = 0;
  }
  S.Delta += D;
  if (S.Delta >= MaxCoalescedDelta || S.Delta <= -MaxCoalescedDelta) {
    int32_t Delta = S.Delta;
    S.Delta = 0;
    applySharedDelta(C, Delta);
  }
}

/// Applies a net delta to \p C's shared count with a single RMW. A
/// positive delta is net increments (count grows, rc decreases); a
/// negative delta is net decrements, and if the applied count reaches
/// zero the cell is queued on SharedZero for drainDropWork to free/park.
/// Sticky-band counts discard their deltas without any RMW.
void Heap::applySharedDelta(Cell *C, int32_t D) {
  if (D == 0)
    return;
  int32_t Rc = C->H.Rc.load(std::memory_order_relaxed);
  assert(Rc < 0 && "coalesced delta on a non-shared cell");
  if (Rc <= StickyBandTop)
    return;
  ++Stats.AtomicRcOps;
  if (D > 0) {
    C->H.Rc.fetch_sub(D, std::memory_order_relaxed);
    return;
  }
  int32_t Add = -D;
  int32_t Old = C->H.Rc.fetch_add(Add, std::memory_order_release);
  assert(Old + Add <= 0 && "coalesced decrements exceeded the shared count");
  if (Old + Add == 0) {
    (void)C->H.Rc.load(std::memory_order_acquire);
    SharedZero.push_back(C);
  }
}

void Heap::flushSharedDeltas() {
  if (!Coalescing)
    return;
  // Cascaded frees re-buffer child decrements, so loop until a full
  // sweep finds the buffer empty. Within each sweep, net increments
  // apply before net decrements (the deferred-RC flush rule): a pending
  // increment justified by a still-held reference lands before any
  // decrement can expose a zero.
  bool Any = true;
  while (Any) {
    Any = false;
    for (size_t I = 0; I != CoalesceSlots; ++I) {
      CoalesceSlot &S = Coalesce[I];
      if (S.C && S.Delta > 0) {
        int32_t D = S.Delta;
        S.Delta = 0;
        applySharedDelta(S.C, D);
        Any = true;
      }
    }
    for (size_t I = 0; I != CoalesceSlots; ++I) {
      CoalesceSlot &S = Coalesce[I];
      if (S.C && S.Delta < 0) {
        Cell *C = S.C;
        int32_t D = S.Delta;
        S.Delta = 0;
        applySharedDelta(C, D);
        Any = true;
      }
    }
    drainDropWork();
  }
}


void Heap::dropSlow(Word V) {
  if (Sink)
    Sink->record(RcEvent::DropCall, 0);
  if (Mode == HeapMode::Gc || !V.isHeap()) {
    ++Stats.NonHeapRcOps;
    return;
  }
  ++Stats.DropOps;
  dropRef(V.ref());
}

void Heap::decrefSlow(Word V) {
  if (Sink)
    Sink->record(RcEvent::DecRefCall, 0);
  if (Mode == HeapMode::Gc || !V.isHeap()) {
    ++Stats.NonHeapRcOps;
    return;
  }
  ++Stats.DecRefOps;
  // Decref skips only the is-unique *fast path* of a specialized drop,
  // not the free: the decrement itself is drop's. In particular a
  // thread-local count of 1 must free the cell with its children
  // dropped — an earlier version asserted `Rc > 1` and, in release
  // builds where the assert vanished, stored the rc == 0 freed marker
  // without calling release(), leaking a cell the trap-unwind walk then
  // silently skipped (it treats rc == 0 as already freed).
  dropRef(V.ref());
}

bool Heap::isUniqueSlow(Word V) {
  if (Sink)
    Sink->record(RcEvent::IsUniqueCall, 0);
  if (Mode == HeapMode::Gc || !V.isHeap()) {
    // Nothing is tested: classify with the other no-op RC operations
    // rather than inflating IsUniqueTests.
    ++Stats.NonHeapRcOps;
    return false;
  }
  ++Stats.IsUniqueTests;
  // Pending coalesced deltas never require a flush here: deltas exist
  // only for thread-shared cells (negative counts), and a shared cell is
  // never unique no matter what this heap privately owes its count — a
  // buffered decrement leaves the applied count too *negative*, and a
  // buffered increment cannot carry it to zero while the run is live
  // (the segment owner retains its root until after join). So the probe
  // reads the applied count directly; a stale delta can never make it
  // report true on a cell another thread holds.
  return V.ref()->H.Rc.load(std::memory_order_acquire) == 1;
}

void Heap::markShared(Word V) {
  if (!V.isHeap() || V.Bits == 0)
    return;
  std::vector<Cell *> Work{V.ref()};
  while (!Work.empty()) {
    Cell *C = Work.back();
    Work.pop_back();
    int32_t Rc = C->H.Rc.load(std::memory_order_relaxed);
    if (Rc < 0)
      continue; // already shared (children are too)
    assert(Rc > 0 && "tshare of freed cell");
    C->H.Rc.store(-Rc, std::memory_order_release);
    // With a pool installed, remember that *we* shared this cell: its
    // memory is ours, so its eventual free must not detour through the
    // foreign-cell pool.
    if (SharedPool)
      LocallyShared.insert(C);
    for (uint32_t I = 0; I != C->H.Arity; ++I)
      if (Word F = C->field(I); F.isHeap())
        Work.push_back(F.ref());
  }
}

void Heap::freeMemoryOnly(Cell *C) {
  release(C);
}

void Heap::dropChildren(Cell *C) {
  for (uint32_t I = 0; I != C->H.Arity; ++I)
    drop(C->field(I));
}

void Heap::resetGcThreshold() {
  size_t Next = Stats.LiveBytes * 2;
  GcThreshold = Next > GcThresholdMin ? Next : GcThresholdMin;
}

size_t Heap::reclaim(const std::vector<Word> &Roots) {
  // Trap unwind: buffered shared deltas are applied first,
  // unconditionally — a worker must never carry unflushed counts out of
  // a trapped run (the other workers and the joining owner read those
  // counts).
  flushSharedDeltas();
  // Mark-and-free over the machine's (over-approximate) root set. Slots
  // may hold stale references — to cells whose ownership already moved
  // elsewhere, or to cells already freed. The former are deduplicated
  // with the GcMark bit; the latter are skipped via the rc == 0 freed
  // marker, which release() maintains and whose header stays intact
  // because the free-list link lives past it, in field word 0.
  // Reference counts are otherwise ignored: at a trap, everything
  // reachable is garbage.
  std::vector<Cell *> Work;
  auto push = [&](Word V) {
    Cell *C = V.cellOrNull(); // a heap reference or a token
    if (!C || C->H.GcMark)
      return;
    int32_t Rc = C->H.Rc.load(std::memory_order_relaxed);
    if (Rc == 0)
      return;
    // Foreign thread-shared cells are not ours to unwind: other threads
    // may still hold references (this heap's dups on them were already
    // balanced or are leaked *into* the shared segment, which its owner
    // sweeps after join). Touching them here would free live memory.
    if (Rc < 0 && SharedPool && !locallyShared(C))
      return;
    C->H.GcMark = 1;
    Work.push_back(C);
  };
  for (Word V : Roots)
    push(V);
  for (size_t I = 0; I != Work.size(); ++I) {
    Cell *C = Work[I];
    for (uint32_t F = 0; F != C->H.Arity; ++F)
      push(C->field(F));
  }
  for (Cell *C : Work)
    release(C);
  Stats.UnwindFrees += Work.size();
  return Work.size();
}

size_t Heap::reclaimAll() {
  flushSharedDeltas();
  size_t N = AllCells.size();
  for (Cell *C : AllCells)
    release(C);
  AllCells.clear();
  Stats.UnwindFrees += N;
  return N;
}

size_t Heap::reclaimLeaked() {
  flushSharedDeltas();
  size_t N = 0;
  for (Cell *C : AllCells) {
    // Registry entries can repeat (free-list reuse re-registers the
    // address) and include already-freed cells; the rc == 0 marker
    // guards both.
    if (C->H.Rc.load(std::memory_order_relaxed) == 0)
      continue;
    release(C);
    ++N;
  }
  AllCells.clear();
  Stats.UnwindFrees += N;
  return N;
}

size_t Heap::trimRetained() {
  // Live cells pin their slabs (cells are carved out of slab interiors;
  // there is no per-slab occupancy map), so only an empty heap can give
  // memory back. Between service requests that is exactly the state the
  // garbage-free guarantee leaves the heap in.
  if (Stats.LiveCells != 0)
    return 0;
  size_t Before = SlabBytesHeld;
  // Every free-list entry and registry entry points into a slab that is
  // about to be released; drop them wholesale.
  FreeLists.clear();
  FreeLists.shrink_to_fit();
  AllCells.clear();
  AllCells.shrink_to_fit();
  DropStack.shrink_to_fit();
  // Keep one slab warm so the next run's first allocation doesn't pay a
  // fresh OS allocation; the bump pointer restarts at its base (every
  // cell in it is free — the heap is empty).
  SlabCur = SlabEnd = nullptr;
  SlabBytesHeld = 0;
  if (!Slabs.empty()) {
    Slabs.resize(1);
    SlabBytesHeld = SlabBytes;
    SlabCur = Slabs.back().get();
    SlabEnd = SlabCur + SlabBytes;
  }
  return Before - SlabBytesHeld;
}

size_t Heap::absorbSharedFrees(SharedCellPool &Pool) {
  size_t N = 0;
  // Parked cells already carry the rc == 0 freed marker; release()
  // re-stores it harmlessly and does the stats + free-list work.
  Pool.drain([&](Cell *C) {
    release(C);
    ++N;
  });
  return N;
}

void perceus::accumulate(HeapStats &Into, const HeapStats &From) {
  Into.Allocs += From.Allocs;
  Into.Frees += From.Frees;
  Into.DupOps += From.DupOps;
  Into.DropOps += From.DropOps;
  Into.DecRefOps += From.DecRefOps;
  Into.NonHeapRcOps += From.NonHeapRcOps;
  Into.AtomicRcOps += From.AtomicRcOps;
  Into.CoalescedRcOps += From.CoalescedRcOps;
  Into.IsUniqueTests += From.IsUniqueTests;
  Into.Collections += From.Collections;
  Into.FailedAllocs += From.FailedAllocs;
  Into.EmergencyCollections += From.EmergencyCollections;
  Into.UnwindFrees += From.UnwindFrees;
  Into.LiveBytes += From.LiveBytes;
  Into.PeakBytes += From.PeakBytes;
  Into.LiveCells += From.LiveCells;
}

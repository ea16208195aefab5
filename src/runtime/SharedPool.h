//===- runtime/SharedPool.h - Lock-free shared-cell release -----*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The release path for thread-shared cells freed from foreign threads.
///
/// Under the paper's `tshare` contract (Section 2.7.2) a cell published
/// to other threads carries a negative count and every RC update on it is
/// atomic — but the *memory* still belongs to the heap that allocated it.
/// When a worker's drop takes a shared count to zero, the worker must not
/// splice the cell into its own free lists (they are single-threaded and
/// the slab belongs to another heap). Instead the freeing thread parks
/// the cell in a SharedCellPool. At join, the owning heap absorbs the
/// pool (Heap::absorbSharedFrees), reconciling its live-cell/live-byte
/// statistics and recycling the memory through its ordinary per-arity
/// free lists.
///
/// The pool is sharded by cell address, and each shard is a *lock-free
/// MPSC Treiber free list*: any number of workers push concurrently with
/// a release CAS (cells link through the off-header free-link slot, see
/// cellFreeLink), and the single consumer — the owning heap, after join —
/// detaches a whole shard with one acquire exchange. There is no pop of
/// individual cells, so the classic Treiber ABA hazard cannot arise.
/// Exactly one thread ever parks a given cell — the one whose atomic
/// decrement observed the last reference — so the cell's link word needs
/// no synchronization beyond the publishing CAS.
///
/// Shards are 64-byte aligned and padded so two shards never share a
/// cache line: under contention the per-shard heads and counters must
/// not bounce a line between cores that are parking into different
/// shards.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_RUNTIME_SHAREDPOOL_H
#define PERCEUS_RUNTIME_SHAREDPOOL_H

#include "runtime/Value.h"

#include <atomic>
#include <cassert>
#include <cstdint>

namespace perceus {

/// A thread-safe parking lot for freed thread-shared cells; see the file
/// comment. Sharded by cell address to keep unrelated frees off the same
/// shard head.
class SharedCellPool {
public:
  SharedCellPool() = default;
  SharedCellPool(const SharedCellPool &) = delete;
  SharedCellPool &operator=(const SharedCellPool &) = delete;

  /// Every shard is padded to (at least) a cache line; kept public so
  /// tests can pin the no-false-sharing property.
  static constexpr size_t ShardAlignment = 64;

  /// Parks \p C, which the calling thread just freed (it observed the
  /// last shared reference). Writes the rc == 0 freed marker so stale
  /// references and unwind walks skip the cell from here on, then
  /// publishes the cell with a release CAS push.
  void park(Cell *C) {
    assert(!Quiesced.load(std::memory_order_relaxed) &&
           "park into a quiesced pool: a worker outlived the join");
    C->H.Rc.store(0, std::memory_order_release);
    Shard &S = shardFor(C);
    Cell *Old = S.Head.load(std::memory_order_relaxed);
    do {
      cellFreeLink(C) = Old;
    } while (!S.Head.compare_exchange_weak(Old, C, std::memory_order_release,
                                           std::memory_order_relaxed));
    S.Count.fetch_add(1, std::memory_order_relaxed);
  }

  /// Number of cells currently parked. While workers are still freeing
  /// this is approximate (relaxed per-shard counters); once the pool is
  /// quiesced (setQuiesced after join) it is exact — no parker can be
  /// in flight, which the debug assert in park() enforces.
  uint64_t parkedCells() const {
    uint64_t N = 0;
    for (const Shard &S : Shards)
      N += S.Count.load(std::memory_order_relaxed);
    return N;
  }

  /// Marks the pool quiescent: every thread that could park has joined.
  /// From here parkedCells() is exact and park() asserts (debug builds)
  /// — the epoch flag turns the "exact after join" documentation into a
  /// checked contract. Pass false to re-arm the pool for another run.
  void setQuiesced(bool Q) { Quiesced.store(Q, std::memory_order_release); }
  bool quiesced() const { return Quiesced.load(std::memory_order_acquire); }

  /// Drains every parked cell into \p Consume. Each shard is detached
  /// with one acquire exchange (synchronizing with every parker's
  /// release CAS), then walked without any lock; Consume may re-link the
  /// cell through the same slot, so the successor is read first. Used by
  /// Heap::absorbSharedFrees, on the owning heap, after join.
  template <typename Fn> void drain(Fn Consume) {
    for (Shard &S : Shards) {
      Cell *C = S.Head.exchange(nullptr, std::memory_order_acquire);
      uint64_t Taken = 0;
      while (C) {
        Cell *Next = cellFreeLink(C);
        Consume(C);
        C = Next;
        ++Taken;
      }
      S.Count.fetch_sub(Taken, std::memory_order_relaxed);
    }
  }

private:
  static constexpr size_t NumShards = 8;

  struct alignas(ShardAlignment) Shard {
    std::atomic<Cell *> Head{nullptr};
    std::atomic<uint64_t> Count{0};
  };
  static_assert(alignof(Shard) >= 64 && sizeof(Shard) % 64 == 0,
                "shards must not share a cache line");

  Shard &shardFor(const Cell *C) {
    // Cells are 8-byte aligned; mix the significant address bits.
    auto Bits = reinterpret_cast<uintptr_t>(C) >> 3;
    return Shards[(Bits ^ (Bits >> 7)) % NumShards];
  }

  std::atomic<bool> Quiesced{false};
  Shard Shards[NumShards];
};

} // namespace perceus

#endif // PERCEUS_RUNTIME_SHAREDPOOL_H

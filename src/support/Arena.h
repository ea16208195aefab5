//===- support/Arena.h - Bump-pointer arena allocator -----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple bump-pointer arena used for allocating IR nodes. Objects
/// allocated in an arena are never individually freed; the whole arena is
/// released at once when it is destroyed. Trivially-destructible payloads
/// only (IR nodes keep their variable-length parts in the arena as well).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SUPPORT_ARENA_H
#define PERCEUS_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace perceus {

/// A bump-pointer allocator with geometrically growing slabs.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  /// Moving hands over the slabs, so memory already handed out stays
  /// where it is; the moved-from arena is empty.
  Arena(Arena &&O) noexcept { *this = std::move(O); }
  Arena &operator=(Arena &&O) noexcept {
    Slabs = std::move(O.Slabs);
    Cur = std::exchange(O.Cur, 0);
    End = std::exchange(O.End, 0);
    SlabBytes = std::exchange(O.SlabBytes, 0);
    BytesAllocated = std::exchange(O.BytesAllocated, 0);
    O.Slabs.clear();
    return *this;
  }

  /// Allocates \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align) {
    assert((Align & (Align - 1)) == 0 && "alignment must be a power of two");
    uintptr_t P = (Cur + Align - 1) & ~uintptr_t(Align - 1);
    if (P + Size > End) {
      growSlab(Size + Align);
      P = (Cur + Align - 1) & ~uintptr_t(Align - 1);
    }
    Cur = P + Size;
    BytesAllocated += Size;
    return reinterpret_cast<void *>(P);
  }

  /// Constructs a \p T in the arena, forwarding \p Args to its constructor.
  template <typename T, typename... Args> T *make(Args &&...As) {
    void *Mem = allocate(sizeof(T), alignof(T));
    return new (Mem) T(std::forward<Args>(As)...);
  }

  /// Allocates an uninitialized array of \p N objects of type \p T.
  template <typename T> T *allocateArray(size_t N) {
    if (N == 0)
      return nullptr;
    return static_cast<T *>(allocate(sizeof(T) * N, alignof(T)));
  }

  /// Copies \p N elements from \p Src into the arena and returns the copy.
  template <typename T> T *copyArray(const T *Src, size_t N) {
    T *Dst = allocateArray<T>(N);
    for (size_t I = 0; I != N; ++I)
      new (Dst + I) T(Src[I]);
    return Dst;
  }

  /// Makes room for \p Bytes more without a new slab: a size hint before
  /// the first allocation saves the doubling steps.
  void reserve(size_t Bytes) {
    if (Cur + Bytes > End)
      growSlab(Bytes);
  }

  /// Total payload bytes handed out so far (excludes slab slack).
  size_t bytesAllocated() const { return BytesAllocated; }

  /// Number of slabs owned by this arena.
  size_t numSlabs() const { return Slabs.size(); }

private:
  /// Out of line: inlined into every allocate() call site, this slow
  /// path grew recursive callers' frames (the ASan build's mapChildren
  /// frame went from 1.7 to 11.6 KB).
  [[gnu::noinline]] void growSlab(size_t MinBytes) {
    size_t SlabSize = Slabs.empty() ? 4096 : SlabBytes * 2;
    if (SlabSize < MinBytes)
      SlabSize = MinBytes;
    SlabBytes = SlabSize;
    Slabs.push_back(std::make_unique_for_overwrite<char[]>(SlabSize));
    Cur = reinterpret_cast<uintptr_t>(Slabs.back().get());
    End = Cur + SlabSize;
  }

  std::vector<std::unique_ptr<char[]>> Slabs;
  uintptr_t Cur = 0;
  uintptr_t End = 0;
  size_t SlabBytes = 0;
  size_t BytesAllocated = 0;
};

} // namespace perceus

#endif // PERCEUS_SUPPORT_ARENA_H

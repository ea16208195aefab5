//===- analysis/VarSet.h - Ordered variable sets ----------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small ordered set of Symbols (sorted by id, duplicate-free) used for
/// the borrowed/owned environments (Delta and Gamma) of the Perceus
/// derivation rules and for free-variable sets. Sets are tiny in
/// practice, so a sorted array wins, and the first few symbols live
/// inline: the environment splits of Figure 8 (`intersect`, `minus`,
/// `unite`) then run without touching the heap. The ordering also makes
/// emitted dup/drop sequences deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_ANALYSIS_VARSET_H
#define PERCEUS_ANALYSIS_VARSET_H

#include "support/Symbol.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>

namespace perceus {

/// An ordered, duplicate-free set of symbols. Up to `InlineCapacity`
/// symbols are stored in the object itself; larger sets spill to one
/// heap block that grows by doubling.
class VarSet {
public:
  static constexpr uint32_t InlineCapacity = 6;

  VarSet() {}
  VarSet(std::initializer_list<Symbol> Xs) {
    for (Symbol X : Xs)
      insert(X);
  }
  VarSet(const VarSet &Other) { assignFrom(Other); }
  VarSet(VarSet &&Other) noexcept { stealFrom(Other); }
  VarSet &operator=(const VarSet &Other) {
    if (this != &Other) {
      Size = 0;
      assignFrom(Other);
    }
    return *this;
  }
  VarSet &operator=(VarSet &&Other) noexcept {
    if (this != &Other) {
      release();
      stealFrom(Other);
    }
    return *this;
  }
  ~VarSet() { release(); }

  bool contains(Symbol X) const {
    return std::binary_search(begin(), end(), X);
  }

  /// Inserts \p X; returns true if it was not present.
  bool insert(Symbol X) {
    const Symbol *It = std::lower_bound(begin(), end(), X);
    if (It != end() && *It == X)
      return false;
    uint32_t At = static_cast<uint32_t>(It - begin());
    reserve(Size + 1);
    Symbol *D = data();
    std::copy_backward(D + At, D + Size, D + Size + 1);
    D[At] = X;
    ++Size;
    return true;
  }

  /// Removes \p X; returns true if it was present.
  bool erase(Symbol X) {
    const Symbol *It = std::lower_bound(begin(), end(), X);
    if (It == end() || *It != X)
      return false;
    Symbol *D = data();
    uint32_t At = static_cast<uint32_t>(It - begin());
    std::copy(D + At + 1, D + Size, D + At);
    --Size;
    return true;
  }

  void insertAll(const VarSet &Other) {
    if (!Other.empty())
      *this = unite(Other);
  }
  void eraseAll(const VarSet &Other) {
    // In place: the write position never passes the read position.
    Symbol *D = data();
    const Symbol *O = Other.begin(), *OE = Other.end();
    uint32_t Out = 0;
    for (uint32_t I = 0; I != Size; ++I) {
      while (O != OE && *O < D[I])
        ++O;
      if (O == OE || D[I] < *O)
        D[Out++] = D[I];
    }
    Size = Out;
  }

  /// Set intersection.
  VarSet intersect(const VarSet &Other) const {
    VarSet R;
    R.reserve(std::min(Size, Other.Size));
    R.Size = static_cast<uint32_t>(
        std::set_intersection(begin(), end(), Other.begin(), Other.end(),
                              R.data()) -
        R.data());
    return R;
  }

  /// Set difference (this minus Other).
  VarSet minus(const VarSet &Other) const {
    VarSet R;
    R.reserve(Size);
    R.Size = static_cast<uint32_t>(
        std::set_difference(begin(), end(), Other.begin(), Other.end(),
                            R.data()) -
        R.data());
    return R;
  }

  /// Set union.
  VarSet unite(const VarSet &Other) const {
    VarSet R;
    R.reserve(Size + Other.Size);
    R.Size = static_cast<uint32_t>(std::set_union(begin(), end(),
                                                  Other.begin(), Other.end(),
                                                  R.data()) -
                                   R.data());
    return R;
  }

  bool empty() const { return Size == 0; }
  size_t size() const { return Size; }

  const Symbol *begin() const { return data(); }
  const Symbol *end() const { return data() + Size; }

  friend bool operator==(const VarSet &A, const VarSet &B) {
    return std::equal(A.begin(), A.end(), B.begin(), B.end());
  }

private:
  bool spilled() const { return Capacity > InlineCapacity; }
  Symbol *data() { return spilled() ? Heap : Inline; }
  const Symbol *data() const { return spilled() ? Heap : Inline; }

  /// Makes room for \p N symbols, keeping the current ones.
  void reserve(uint32_t N) {
    if (N <= Capacity)
      return;
    uint32_t NewCap = std::max(N, 2 * Capacity);
    Symbol *Block = new Symbol[NewCap];
    std::copy(begin(), end(), Block);
    release();
    Heap = Block;
    Capacity = NewCap;
  }

  /// Frees a spilled block; the set is left inline with its size intact.
  void release() {
    if (spilled())
      delete[] Heap;
    Capacity = InlineCapacity;
  }

  /// Copies \p Other's symbols into this set, which must be empty.
  void assignFrom(const VarSet &Other) {
    reserve(Other.Size);
    std::copy(Other.begin(), Other.end(), data());
    Size = Other.Size;
  }

  /// Takes \p Other's symbols (its block, if spilled); this set must hold
  /// no block. Leaves \p Other empty and inline.
  void stealFrom(VarSet &Other) {
    if (Other.spilled()) {
      Heap = Other.Heap;
      Capacity = Other.Capacity;
      Other.Capacity = InlineCapacity;
    } else {
      std::copy(Other.begin(), Other.end(), Inline);
    }
    Size = Other.Size;
    Other.Size = 0;
  }

  uint32_t Size = 0;
  uint32_t Capacity = InlineCapacity;
  union {
    Symbol Inline[InlineCapacity];
    Symbol *Heap;
  };
};

} // namespace perceus

#endif // PERCEUS_ANALYSIS_VARSET_H

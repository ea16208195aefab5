//===- runtime/Value.h - Runtime values and heap cells ----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime value representation. Integers, booleans, unit, nullary
/// constructors and top-level function references are unboxed immediates
/// ("value types are not heap allocated", Section 2.7.1); constructor
/// applications and closures live in reference-counted heap cells.
///
/// The cell header encodes the reference count exactly as Section 2.7.2
/// describes: positive counts for thread-local objects, negative counts
/// for thread-shared ones (updated atomically), with a single fused
/// `rc <= 1` test covering both the free path and the atomic slow path,
/// and a sticky minimum value that pins an object alive.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_RUNTIME_VALUE_H
#define PERCEUS_RUNTIME_VALUE_H

#include <atomic>
#include <cassert>
#include <cstdint>

namespace perceus {

struct Cell;

/// Discriminates runtime values.
enum class ValueKind : uint8_t {
  Unit,
  Int,     ///< unboxed 64-bit integer
  Bool,    ///< unboxed boolean
  Enum,    ///< nullary constructor (tag immediate)
  FnRef,   ///< top-level function (static, never counted)
  HeapRef, ///< constructor cell or closure cell
  Token,   ///< reuse token (&cell or NULL), Section 2.4
  Raw,     ///< untraced pointer (closure code pointer)
};

/// A runtime value: a kind byte plus an 8-byte payload union. 16 bytes in
/// registers, trivially copyable; a heap cell stores the two parts apart
/// (see Cell), and `Bits` is the payload as one word.
struct Value {
  ValueKind Kind = ValueKind::Unit;
  union {
    int64_t Int;      // Int / Bool
    uint64_t Bits;    // Enum: (dataId << 32) | tag; FnRef: function id; Raw
    Cell *Ref;        // HeapRef
    Cell *Tok;        // Token (may be null)
  };

  Value() : Int(0) {}

  static Value unit() { return Value(); }
  static Value makeInt(int64_t V) {
    Value R;
    R.Kind = ValueKind::Int;
    R.Int = V;
    return R;
  }
  static Value makeBool(bool V) {
    Value R;
    R.Kind = ValueKind::Bool;
    R.Int = V ? 1 : 0;
    return R;
  }
  static Value makeEnum(uint32_t DataId, uint32_t Tag) {
    Value R;
    R.Kind = ValueKind::Enum;
    R.Bits = (uint64_t(DataId) << 32) | Tag;
    return R;
  }
  static Value makeFnRef(uint32_t FuncId) {
    Value R;
    R.Kind = ValueKind::FnRef;
    R.Bits = FuncId;
    return R;
  }
  static Value makeRef(Cell *C) {
    Value R;
    R.Kind = ValueKind::HeapRef;
    R.Ref = C;
    return R;
  }
  static Value makeToken(Cell *C) {
    Value R;
    R.Kind = ValueKind::Token;
    R.Tok = C;
    return R;
  }
  static Value makeRaw(const void *P) {
    Value R;
    R.Kind = ValueKind::Raw;
    R.Bits = reinterpret_cast<uint64_t>(P);
    return R;
  }

  const void *rawPtr() const {
    assert(Kind == ValueKind::Raw);
    return reinterpret_cast<const void *>(Bits);
  }

  bool isHeap() const { return Kind == ValueKind::HeapRef; }
  uint32_t enumTag() const {
    assert(Kind == ValueKind::Enum);
    return static_cast<uint32_t>(Bits & 0xffffffffu);
  }
  uint32_t fnId() const {
    assert(Kind == ValueKind::FnRef);
    return static_cast<uint32_t>(Bits);
  }
  bool asBool() const {
    assert(Kind == ValueKind::Bool);
    return Int != 0;
  }
};

/// What a heap cell holds.
enum class CellKind : uint8_t {
  Ctor,    ///< constructor: fields are the constructor arguments
  Closure, ///< closure: field 0 is the code pointer, rest are captures
  Ref,     ///< mutable reference cell: field 0 is the content (2.7.3)
};

/// The reference count occupies the low 32 bits of the header.
///
/// Encoding (Section 2.7.2): `1..INT32_MAX` thread-local counts;
/// negative values are thread-shared counts (count = -rc), updated
/// atomically; `0` marks a freed cell (debug).
///
/// Sticky counts are a *band*, not a single value: every count at or
/// below `INT32_MIN + 2^20` pins the cell alive forever. A band is
/// required under real concurrency — racing `fetch_sub` dups that pass
/// the sticky check before another thread's update lands could step a
/// single sticky value past `INT32_MIN` and wrap to positive. With a
/// 2^20-wide guard band the count would need over a million in-flight
/// racers to escape, so saturation is permanent in practice. A
/// thread-local count that reaches `INT32_MAX` saturates the same way:
/// dup pins it into the sticky band instead of overflowing.
struct CellHeader {
  std::atomic<int32_t> Rc;
  uint8_t Tag = 0;
  uint8_t Arity = 0;
  CellKind Kind = CellKind::Ctor;
  uint8_t GcMark = 0;
};

/// A heap cell. Layout: `[header][Arity payload words][Arity kind bytes]`,
/// rounded up to 8 bytes with a 16-byte minimum. Field J is payload word
/// J (Value's union as one word) plus kind byte J: 9 bytes, from which
/// every Value round-trips exactly. The kind row sits after the last
/// payload word, found through H.Arity: alloc sets the arity before any
/// field is written, and it stays put while the cell is reused or free.
/// All field access goes through field/setField.
struct Cell {
  CellHeader H;

  Value field(uint32_t J) const {
    assert(J < H.Arity && "field index out of range");
    Value V;
    V.Kind = kinds()[J];
    V.Bits = words()[J];
    return V;
  }
  void setField(uint32_t J, Value V) {
    assert(J < H.Arity && "field index out of range");
    words()[J] = V.Bits;
    kinds()[J] = V.Kind;
  }

  /// Field J as an assignable proxy, so `C->fields()[J] = V` and
  /// `Value V = C->fields()[J]` read and write through field/setField.
  class FieldRef {
  public:
    FieldRef(Cell *C, uint32_t J) : C(C), J(J) {}
    operator Value() const { return C->field(J); }
    FieldRef &operator=(Value V) {
      C->setField(J, V);
      return *this;
    }
    FieldRef &operator=(const FieldRef &O) { return *this = Value(O); }

  private:
    Cell *C;
    uint32_t J;
  };
  struct FieldRow {
    Cell *C;
    FieldRef operator[](uint32_t J) const { return {C, J}; }
  };
  FieldRow fields() { return {this}; }

  /// Slab bytes a cell with \p Arity fields consumes; the allocator bumps
  /// by this and all live/peak-byte accounting uses it, so the statistics
  /// reflect real memory. The 16-byte minimum gives an arity-0 cell the
  /// payload word its free link needs (cellFreeLink).
  static constexpr size_t allocSize(uint32_t Arity) {
    size_t Bytes = sizeof(CellHeader) +
                   Arity * (sizeof(uint64_t) + sizeof(ValueKind));
    Bytes = (Bytes + 7) & ~size_t(7);
    return Bytes < 16 ? 16 : Bytes;
  }

private:
  uint64_t *words() { return reinterpret_cast<uint64_t *>(this + 1); }
  const uint64_t *words() const {
    return reinterpret_cast<const uint64_t *>(this + 1);
  }
  // Typed ValueKind, not uint8_t: a character-typed store may alias
  // anything, so the compiler would reload H.Arity after every field
  // write.
  ValueKind *kinds() {
    return reinterpret_cast<ValueKind *>(words() + H.Arity);
  }
  const ValueKind *kinds() const {
    return reinterpret_cast<const ValueKind *>(words() + H.Arity);
  }
};

static_assert(sizeof(Value) == 16, "Value should stay two words");
static_assert(sizeof(Cell) == 8, "payload words follow an 8-byte header");
static_assert(sizeof(Value::Bits) == 8 && sizeof(Cell *) <= 8,
              "one payload word holds every Value member");

/// The free-link of a freed cell. Free cells keep their header intact
/// (rc == 0 is the freed marker, and the arity stays readable for the
/// trap-unwind walk), so the link lives in payload word 0 — which every
/// cell has thanks to the 16-byte minimum allocation. The same word
/// serves the heap's single-threaded per-arity free lists and the
/// SharedCellPool's lock-free Treiber shards: a cell is on at most one
/// of them at a time (exactly one thread ever frees a given cell).
inline Cell *&cellFreeLink(Cell *C) {
  return *reinterpret_cast<Cell **>(reinterpret_cast<char *>(C) +
                                    sizeof(CellHeader));
}

} // namespace perceus

#endif // PERCEUS_RUNTIME_VALUE_H

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
/// applications and closures live in reference-counted heap cells. Every
/// value is one tagged word (Word) in registers, constants and cell
/// fields; Value is its decoded form at the API boundary.
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

/// Discriminates runtime values (the decoded form, Value).
enum class ValueKind : uint8_t {
  Unit,
  Int,     ///< unboxed 63-bit integer
  Bool,    ///< unboxed boolean
  Enum,    ///< nullary constructor (tag immediate)
  FnRef,   ///< top-level function (static, never counted)
  HeapRef, ///< constructor cell or closure cell
  Token,   ///< reuse token (&cell or NULL), Section 2.4
  Raw,     ///< untraced pointer (closure code pointer)
};

/// The integer range: a word keeps one bit for its tag, so integers have
/// 63 bits. Every arithmetic primitive traps past these bounds, and every
/// way into the VM (literals, wire arguments, `perc` arguments, VM::run)
/// rejects an integer outside them.
constexpr int64_t IntMax = (int64_t(1) << 62) - 1;
constexpr int64_t IntMin = -(int64_t(1) << 62);
constexpr bool fitsInt(int64_t V) { return V >= IntMin && V <= IntMax; }
/// The range as diagnostics name it.
constexpr const char *IntRangeText =
    "[-4611686018427387904, 4611686018427387903]";

/// One tagged 8-byte word: how the VM's registers, the constant pool and
/// every cell field hold a value. By the low bits:
///   ...000  heap reference: the cell pointer itself, untagged (cells
///           are 8-aligned); the all-zero word is an empty slot
///   ....1   integer: the 63-bit value shifted left once
///   ...010  immediate; the low byte is the kind (unit 0x02, boolean
///           0x0a, enum 0x12, function 0x1a) and the payload sits above
///           it: a boolean in bit 8, an enum's tag in bits 8-31 and its
///           DataId in bits 32-63, a function id in bits 32-63
///   ...100  reuse token: the cell pointer plus 4 (null plus 4 is the
///           null token)
///   ...110  raw pointer (a closure's code) plus 6
/// Every value has exactly one word, so equal words are equal values.
/// The empty word is what a fresh frame's memset leaves: the collector
/// and the unwind walk skip it, and no instruction reads a register
/// before writing it, so the RC fast paths test the tag alone.
struct Word {
  uint64_t Bits = 0;

  static constexpr uint64_t TagMask = 7, TokenTag = 4, RawTag = 6;
  static constexpr uint64_t UnitByte = 0x02, BoolByte = 0x0a,
                            EnumByte = 0x12, FnRefByte = 0x1a;

  static constexpr Word unit() { return {UnitByte}; }
  /// \p V must fit the 63-bit range (fitsInt); outside it the top bit is
  /// lost.
  static constexpr Word makeInt(int64_t V) {
    return {(static_cast<uint64_t>(V) << 1) | 1};
  }
  static constexpr Word makeBool(bool V) {
    return {BoolByte | uint64_t(V) << 8};
  }
  static constexpr Word makeEnum(uint32_t DataId, uint32_t Tag) {
    return {uint64_t(DataId) << 32 | uint64_t(Tag & 0xffffff) << 8 |
            EnumByte};
  }
  static constexpr Word makeFnRef(uint32_t FuncId) {
    return {uint64_t(FuncId) << 32 | FnRefByte};
  }
  static Word makeRef(Cell *C) {
    return {static_cast<uint64_t>(reinterpret_cast<uintptr_t>(C))};
  }
  static Word makeToken(Cell *C) {
    return {static_cast<uint64_t>(reinterpret_cast<uintptr_t>(C)) | TokenTag};
  }
  static Word makeRaw(const void *P) {
    assert((reinterpret_cast<uintptr_t>(P) & TagMask) == 0 &&
           "a raw pointer must be 8-aligned");
    return {static_cast<uint64_t>(reinterpret_cast<uintptr_t>(P)) | RawTag};
  }

  /// A heap reference, or the empty word (see above).
  bool isHeap() const { return (Bits & TagMask) == 0; }
  bool isInt() const { return Bits & 1; }
  bool isBool() const { return (Bits & 0xff) == BoolByte; }
  bool isEnum() const { return (Bits & 0xff) == EnumByte; }
  bool isFnRef() const { return (Bits & 0xff) == FnRefByte; }
  bool isToken() const { return (Bits & TagMask) == TokenTag; }

  Cell *ref() const { return reinterpret_cast<Cell *>(Bits); }
  /// The cell of a heap reference or a token; null for the empty word and
  /// the null token, and for every other kind.
  Cell *cellOrNull() const {
    return (Bits & 3) == 0 ? reinterpret_cast<Cell *>(Bits & ~TagMask)
                           : nullptr;
  }
  Cell *tok() const { return reinterpret_cast<Cell *>(Bits - TokenTag); }
  int64_t asInt() const { return static_cast<int64_t>(Bits) >> 1; }
  bool asBool() const { return Bits >> 8; }
  uint32_t fnId() const { return static_cast<uint32_t>(Bits >> 32); }
  const void *rawPtr() const {
    return reinterpret_cast<const void *>(Bits & ~TagMask);
  }
  ValueKind kind() const {
    if (Bits & 1)
      return ValueKind::Int;
    switch (Bits & TagMask) {
    case 0:
      return Bits ? ValueKind::HeapRef : ValueKind::Unit;
    case TokenTag:
      return ValueKind::Token;
    case RawTag:
      return ValueKind::Raw;
    }
    switch (Bits & 0xff) {
    case BoolByte:
      return ValueKind::Bool;
    case EnumByte:
      return ValueKind::Enum;
    case FnRefByte:
      return ValueKind::FnRef;
    default:
      return ValueKind::Unit;
    }
  }

  friend bool operator==(Word A, Word B) { return A.Bits == B.Bits; }
};

/// A runtime value in decoded form: a kind byte plus an 8-byte payload
/// union. The VM holds words (Word); Value is what crosses its API: the
/// arguments of VM::run, RunResult::Result, the Heap's Value entry points
/// and Cell::fields(). encode and decode convert.
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

  /// The word of this value. An integer must fit the 63-bit range
  /// (fitsInt); the VM's entry points check that before encoding.
  Word encode() const {
    switch (Kind) {
    case ValueKind::Unit:
      return Word::unit();
    case ValueKind::Int:
      return Word::makeInt(Int);
    case ValueKind::Bool:
      return Word::makeBool(Int != 0);
    case ValueKind::Enum:
      return Word::makeEnum(static_cast<uint32_t>(Bits >> 32),
                            static_cast<uint32_t>(Bits));
    case ValueKind::FnRef:
      return Word::makeFnRef(static_cast<uint32_t>(Bits));
    case ValueKind::HeapRef:
      return Word::makeRef(Ref);
    case ValueKind::Token:
      return Word::makeToken(Tok);
    case ValueKind::Raw:
      return Word::makeRaw(reinterpret_cast<const void *>(Bits));
    }
    return Word::unit();
  }

  /// The value of \p W; the empty word reads as unit.
  static Value decode(Word W) {
    switch (W.kind()) {
    case ValueKind::Unit:
      return unit();
    case ValueKind::Int:
      return makeInt(W.asInt());
    case ValueKind::Bool:
      return makeBool(W.asBool());
    case ValueKind::Enum:
      return makeEnum(static_cast<uint32_t>(W.Bits >> 32),
                      static_cast<uint32_t>(W.Bits >> 8) & 0xffffff);
    case ValueKind::FnRef:
      return makeFnRef(W.fnId());
    case ValueKind::HeapRef:
      return makeRef(W.ref());
    case ValueKind::Token:
      return makeToken(W.tok());
    case ValueKind::Raw:
      return makeRaw(W.rawPtr());
    }
    return unit();
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

/// A heap cell. Layout: `[header][Arity words]`, with a 16-byte minimum.
/// Field J is word J, one tagged Word (8 bytes), so a cell is one header
/// word plus one word per field.
struct Cell {
  CellHeader H;

  Word field(uint32_t J) const {
    assert(J < H.Arity && "field index out of range");
    return words()[J];
  }
  void setField(uint32_t J, Word V) {
    assert(J < H.Arity && "field index out of range");
    words()[J] = V;
  }

  /// Field J as an assignable proxy in decoded form, so
  /// `C->fields()[J] = V` and `Value V = C->fields()[J]` encode and
  /// decode through field/setField.
  class FieldRef {
  public:
    FieldRef(Cell *C, uint32_t J) : C(C), J(J) {}
    operator Value() const { return Value::decode(C->field(J)); }
    FieldRef &operator=(Value V) {
      C->setField(J, V.encode());
      return *this;
    }
    FieldRef &operator=(const FieldRef &O) {
      C->setField(J, O.C->field(O.J));
      return *this;
    }

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
  /// word its free link needs (cellFreeLink).
  static constexpr size_t allocSize(uint32_t Arity) {
    size_t Bytes = sizeof(CellHeader) + Arity * sizeof(Word);
    return Bytes < 16 ? 16 : Bytes;
  }

private:
  Word *words() { return reinterpret_cast<Word *>(this + 1); }
  const Word *words() const { return reinterpret_cast<const Word *>(this + 1); }
};

static_assert(sizeof(Word) == 8, "a value is one word");
static_assert(sizeof(Value) == 16, "the decoded form is two words");
static_assert(sizeof(Cell) == 8, "fields follow an 8-byte header");

/// The free-link of a freed cell. Free cells keep their header intact
/// (rc == 0 is the freed marker, and the arity stays readable for the
/// trap-unwind walk), so the link lives in field word 0 — which every
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

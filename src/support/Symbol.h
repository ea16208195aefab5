//===- support/Symbol.h - Interned identifiers ------------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned identifiers. A Symbol is a dense 32-bit id; the SymbolTable
/// owns the backing strings. Every binder in a resolved program carries a
/// unique Symbol (alpha-renamed), which lets downstream passes use plain
/// dense arrays keyed by symbol id.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SUPPORT_SYMBOL_H
#define PERCEUS_SUPPORT_SYMBOL_H

#include "support/Arena.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace perceus {

/// A lightweight interned identifier. Value-semantic; compares by id.
class Symbol {
public:
  Symbol() = default;

  bool isValid() const { return Id != 0; }
  explicit operator bool() const { return isValid(); }

  uint32_t id() const { return Id; }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

  static Symbol fromId(uint32_t Id) {
    Symbol S;
    S.Id = Id;
    return S;
  }

private:
  uint32_t Id = 0; // 0 is the invalid sentinel.
};

/// An open-addressing index from spellings to dense ids. It stores only
/// the ids and reads an id's spelling back from its owner's list, so a
/// lookup builds no string and an entry costs four bytes. Shared by the
/// SymbolTable and the front end's per-module name table.
class SpellingIndex {
public:
  static constexpr uint32_t NotFound = UINT32_MAX;

  /// The indexed id whose spelling in \p Keys is \p Text, or NotFound.
  uint32_t find(std::string_view Text,
                const std::vector<std::string_view> &Keys) const {
    if (Slots.empty())
      return NotFound;
    size_t Mask = Slots.size() - 1;
    for (size_t I = hash(Text) & Mask; Slots[I] != 0; I = (I + 1) & Mask)
      if (Keys[Slots[I] - 1] == Text)
        return Slots[I] - 1;
    return NotFound;
  }

  /// Indexes \p Id, spelled `Keys[Id]`, which find() does not know yet.
  void insert(uint32_t Id, const std::vector<std::string_view> &Keys) {
    reserve(1, Keys);
    place(Id, Keys[Id]);
    ++Count;
  }

  /// Makes room for \p N more ids without rehashing.
  void reserve(size_t N, const std::vector<std::string_view> &Keys) {
    size_t Want = Slots.empty() ? 16 : Slots.size();
    while (Want < 2 * (Count + N))
      Want *= 2;
    if (Want == Slots.size())
      return;
    std::vector<uint32_t> Old(Want, 0);
    Old.swap(Slots);
    for (uint32_t S : Old)
      if (S != 0)
        place(S - 1, Keys[S - 1]);
  }

private:
  /// FNV-1a: identifiers are short.
  static uint32_t hash(std::string_view S) {
    uint32_t H = 2166136261u;
    for (char C : S)
      H = (H ^ uint8_t(C)) * 16777619u;
    return H;
  }

  void place(uint32_t Id, std::string_view Text) {
    size_t Mask = Slots.size() - 1;
    size_t I = hash(Text) & Mask;
    while (Slots[I] != 0)
      I = (I + 1) & Mask;
    Slots[I] = Id + 1;
  }

  std::vector<uint32_t> Slots; ///< id + 1; 0 is an empty slot
  size_t Count = 0;
};

/// Interns strings into Symbols and mints fresh (unique) symbols.
///
/// Fresh symbols keep a base name for printing but never collide with any
/// interned name or other fresh symbol. Every name's characters live in
/// the table's own arena, so a name costs no allocation of its own.
class SymbolTable {
public:
  SymbolTable() {
    // Reserve id 0 as invalid.
    Names.emplace_back();
  }

  /// Returns the symbol for \p Name, interning it on first use.
  Symbol intern(std::string_view Name) {
    uint32_t Id = Index.find(Name, Names);
    if (Id != SpellingIndex::NotFound)
      return Symbol::fromId(Id);
    Id = static_cast<uint32_t>(Names.size());
    char *Copy = Chars.allocateArray<char>(Name.size());
    std::copy(Name.begin(), Name.end(), Copy);
    Names.emplace_back(Copy, Name.size());
    Index.insert(Id, Names);
    return Symbol::fromId(Id);
  }

  /// Mints a brand new symbol whose printed name derives from \p Base.
  /// The result never compares equal to any other symbol.
  Symbol fresh(std::string_view Base) {
    Symbol S = Symbol::fromId(static_cast<uint32_t>(Names.size()));
    char Digits[24];
    char *DigitsEnd =
        std::to_chars(Digits, Digits + sizeof Digits, FreshCounter++).ptr;
    size_t Len = Base.size() + 1 + size_t(DigitsEnd - Digits);
    char *Copy = Chars.allocateArray<char>(Len);
    char *Out = std::copy(Base.begin(), Base.end(), Copy);
    *Out++ = '.';
    std::copy(Digits, DigitsEnd, Out);
    Names.emplace_back(Copy, Len);
    return S;
  }

  /// The printed name of \p S.
  std::string_view name(Symbol S) const {
    assert(S.id() < Names.size() && "unknown symbol");
    return Names[S.id()];
  }

  /// Number of symbols minted so far (ids are < this bound).
  uint32_t size() const { return static_cast<uint32_t>(Names.size()); }

private:
  Arena Chars;
  std::vector<std::string_view> Names;
  SpellingIndex Index; ///< interned names only; fresh ones never match
  uint32_t FreshCounter = 0;
};

} // namespace perceus

template <> struct std::hash<perceus::Symbol> {
  size_t operator()(perceus::Symbol S) const noexcept {
    return std::hash<uint32_t>()(S.id());
  }
};

#endif // PERCEUS_SUPPORT_SYMBOL_H

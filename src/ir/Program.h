//===- ir/Program.h - Datatypes, functions, whole programs ------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations surrounding expressions: algebraic data types with their
/// constructors, top-level functions, and the Program that owns them all
/// (together with the arena the expression trees live in and the symbol
/// table binders are interned in).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_IR_PROGRAM_H
#define PERCEUS_IR_PROGRAM_H

#include "ir/Expr.h"
#include "support/Arena.h"
#include "support/Symbol.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace perceus {

/// Width limits of the runtime encodings, which the resolver enforces:
/// a cell header stores a cell's arity and constructor tag in one byte
/// each, and a bytecode instruction stores a call's argument count in
/// one byte.
constexpr uint32_t MaxCellFields = 255; ///< constructor fields; captures + 1
constexpr uint32_t MaxTypeCtors = 256;  ///< constructors of one type
constexpr uint32_t MaxCallArgs = 255;   ///< parameters; call arguments

/// Depth limit of the expression tree, which the parser enforces (see
/// lang/Parser.cpp for how levels are counted): the resolver, the Perceus
/// passes and the bytecode compiler all recurse over the tree, so a
/// deeper program would exhaust a worker thread's native stack. Set at
/// least 2x below the depth an 8 MB thread stack still compiles and runs
/// in the AddressSanitizer build, whose frames are the largest.
constexpr uint32_t MaxExprDepth = 256;

/// One constructor of an algebraic data type.
///
/// Nullary constructors (like `Nil`, `Red`, `Black`) are *enum-like*: they
/// are represented as unboxed immediates at runtime and never allocate,
/// mirroring how Koka treats value constructors.
struct CtorDecl {
  Symbol Name;
  uint32_t DataId = InvalidId;
  uint32_t Tag = 0;   // unique within the data type
  uint32_t Arity = 0; // number of fields
  std::vector<Symbol> FieldNames; // optional; empty symbols allowed

  bool isEnumLike() const { return Arity == 0; }
};

/// An algebraic data type declaration.
struct DataDecl {
  Symbol Name;
  uint32_t Id = InvalidId;
  std::vector<CtorId> Ctors;
};

/// A top-level function. Top-level functions capture nothing; references
/// to them are static values (no heap cell, rc ops are no-ops).
struct FunctionDecl {
  Symbol Name;
  FuncId Id = InvalidId;
  std::vector<Symbol> Params;
  const Expr *Body = nullptr;
};

/// A whole program: data types, functions, and the arena/symbols backing
/// the expression trees. Passes rewrite function bodies in place (the
/// trees themselves are immutable; rewritten trees share the arena).
class Program {
public:
  Program() = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  Arena &arena() { return A; }
  const Arena &arena() const { return A; }
  SymbolTable &symbols() { return Syms; }
  const SymbolTable &symbols() const { return Syms; }

  //===--- Data types -----------------------------------------------------===//

  /// Creates a data type named \p Name; returns its id.
  uint32_t addData(Symbol Name) {
    uint32_t Id = static_cast<uint32_t>(Datas.size());
    Datas.push_back({Name, Id, {}});
    DataByName.emplace(Name, Id);
    return Id;
  }

  /// Adds a constructor to data type \p DataId.
  CtorId addCtor(uint32_t DataId, Symbol Name, uint32_t Arity,
                 std::vector<Symbol> FieldNames = {}) {
    CtorId Id = static_cast<CtorId>(Ctors.size());
    CtorDecl C;
    C.Name = Name;
    C.DataId = DataId;
    C.Tag = static_cast<uint32_t>(Datas[DataId].Ctors.size());
    C.Arity = Arity;
    C.FieldNames = std::move(FieldNames);
    Ctors.push_back(std::move(C));
    Datas[DataId].Ctors.push_back(Id);
    CtorByName.emplace(Name, Id);
    return Id;
  }

  const DataDecl &data(uint32_t Id) const { return Datas[Id]; }
  const CtorDecl &ctor(CtorId Id) const { return Ctors[Id]; }
  size_t numDatas() const { return Datas.size(); }
  size_t numCtors() const { return Ctors.size(); }

  /// Looks up a constructor by name; returns InvalidId if absent.
  CtorId findCtor(Symbol Name) const {
    auto It = CtorByName.find(Name);
    return It == CtorByName.end() ? InvalidId : It->second;
  }

  /// Looks up a data type by name; returns InvalidId if absent.
  uint32_t findData(Symbol Name) const {
    auto It = DataByName.find(Name);
    return It == DataByName.end() ? InvalidId : It->second;
  }

  //===--- Functions ------------------------------------------------------===//

  /// Declares a function (body may be set later); returns its id.
  FuncId addFunction(Symbol Name, std::vector<Symbol> Params,
                     const Expr *Body = nullptr) {
    FuncId Id = static_cast<FuncId>(Funcs.size());
    Funcs.push_back({Name, Id, std::move(Params), Body});
    FuncByName.emplace(Name, Id);
    return Id;
  }

  FunctionDecl &function(FuncId Id) { return Funcs[Id]; }
  const FunctionDecl &function(FuncId Id) const { return Funcs[Id]; }
  size_t numFunctions() const { return Funcs.size(); }

  /// Looks up a function by name; returns InvalidId if absent.
  FuncId findFunction(Symbol Name) const {
    auto It = FuncByName.find(Name);
    return It == FuncByName.end() ? InvalidId : It->second;
  }

  /// Replaces the body of \p Id (used by the rewriting passes).
  void setBody(FuncId Id, const Expr *Body) { Funcs[Id].Body = Body; }

  //===--- Lambdas --------------------------------------------------------===//

  /// Mints a program-unique lambda id (used by LamExpr and frame layout).
  uint32_t nextLamId() { return LamCounter++; }
  uint32_t numLamIds() const { return LamCounter; }

private:
  Arena A;
  SymbolTable Syms;
  std::vector<DataDecl> Datas;
  std::vector<CtorDecl> Ctors;
  std::vector<FunctionDecl> Funcs;
  std::unordered_map<Symbol, uint32_t> DataByName;
  std::unordered_map<Symbol, CtorId> CtorByName;
  std::unordered_map<Symbol, FuncId> FuncByName;
  uint32_t LamCounter = 0;
};

} // namespace perceus

#endif // PERCEUS_IR_PROGRAM_H

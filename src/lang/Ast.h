//===- lang/Ast.h - Surface language syntax tree ----------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parse tree of the surface language. Deliberately separate from the
/// core IR: surface constructs (nested patterns, if-elif chains, operator
/// expressions, blocks) are lowered by the resolver.
///
/// A module owns one arena that holds a copy of the source and every node
/// of its tree. Children are plain pointers, lists are spans, and names
/// are views into the source copy, so a parse allocates per program, not
/// per node. Each distinct identifier spelling also gets a dense NameId
/// (in order of first appearance), which the resolver keys its scopes on
/// instead of strings.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_LANG_AST_H
#define PERCEUS_LANG_AST_H

#include "lang/Lexer.h"
#include "support/Arena.h"
#include "support/Symbol.h"

#include <span>
#include <string>
#include <vector>

namespace perceus {

/// A per-module identifier id: one per distinct spelling.
using NameId = uint32_t;
constexpr NameId NoName = SpellingIndex::NotFound;

/// The module's identifier spellings, by NameId.
class NameTable {
public:
  /// Makes room for \p N more spellings without rehashing.
  void reserve(size_t N) {
    Names.reserve(Names.size() + N);
    Index.reserve(N, Names);
  }

  /// The id of \p Text, assigning the next one on first sight. \p Text
  /// must outlive the table (the parser passes views into the module's
  /// source copy).
  NameId intern(std::string_view Text) {
    NameId Id = Index.find(Text, Names);
    if (Id != NoName)
      return Id;
    Id = size();
    Names.push_back(Text);
    Index.insert(Id, Names);
    return Id;
  }

  /// The id of \p Text, or NoName if the module never spells it.
  NameId find(std::string_view Text) const { return Index.find(Text, Names); }

  std::string_view name(NameId Id) const { return Names[Id]; }
  uint32_t size() const { return static_cast<uint32_t>(Names.size()); }

private:
  std::vector<std::string_view> Names;
  SpellingIndex Index;
};

struct SExpr;

/// A surface pattern (possibly nested).
struct SPat {
  enum class K { Ctor, Var, Wild, Int, Bool } Kind = K::Wild;
  SourceLoc Loc;
  std::string_view Name;             // Ctor / Var
  NameId Id = NoName;                // Ctor / Var
  int64_t Int = 0;                   // Int / Bool payload
  std::span<const SPat *const> Sub;  // Ctor subpatterns
};

/// One statement of a block: either `val name = expr` or a bare expr.
struct SStmt {
  bool IsVal = false;
  std::string_view Name; // for val
  NameId Id = NoName;    // for val
  SourceLoc Loc;
  const SExpr *E = nullptr;
};

/// One arm of a surface match.
struct SMatchArm {
  const SPat *Pat = nullptr;
  const SExpr *Body = nullptr;
};

/// A surface expression.
struct SExpr {
  enum class K : uint8_t {
    IntLit,
    BoolLit,
    Unit,
    Var,    // lowercase identifier (variable or function)
    Ctor,   // constructor application (possibly nullary)
    Call,   // A(Args...)
    Binop,  // A Op B
    Unop,   // Op A
    If,     // A ? B : C
    Match,  // match A { Arms }
    Lambda, // fn(Params) A
    Block,  // { Stmts }
  } Kind = K::Unit;

  TokKind Op = TokKind::Eof; // Binop / Unop
  NameId Id = NoName;        // Var / Ctor
  SourceLoc Loc;
  int64_t Int = 0;           // IntLit / BoolLit
  std::string_view Name;     // Var / Ctor
  const SExpr *A = nullptr, *B = nullptr, *C = nullptr;
  std::span<const SExpr *const> Args; // Call / Ctor arguments
  std::span<const NameId> Params;     // Lambda
  std::span<const SStmt> Stmts;       // Block
  std::span<const SMatchArm> Arms;    // Match
};

/// A constructor declaration inside a type declaration.
struct SCtorDecl {
  std::string_view Name;
  std::span<const NameId> Fields; // field names (may repeat "_")
  SourceLoc Loc;
};

/// `type name { ctors }`.
struct STypeDecl {
  std::string_view Name;
  std::span<const SCtorDecl> Ctors;
  SourceLoc Loc;
};

/// `fun name(params) { body }`.
struct SFunDecl {
  std::string_view Name;
  std::vector<std::string> Params;
  std::span<const NameId> ParamIds; // parallel to Params
  const SExpr *Body = nullptr;
  SourceLoc Loc;
  uint32_t MatchArms = 0; ///< arms of every match in the body, nested ones
                          ///< and those inside lambdas included
};

/// A parsed source file. Moving it keeps every node and name in place.
struct SModule {
  Arena Mem; ///< the source copy and every node; views point into it
  NameTable Names;
  std::vector<STypeDecl> Types;
  std::vector<SFunDecl> Funs;
};

} // namespace perceus

#endif // PERCEUS_LANG_AST_H

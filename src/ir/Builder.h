//===- ir/Builder.h - Convenience IR construction ---------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IRBuilder constructs arena-allocated expression trees with a compact
/// API. Used by the resolver, all rewriting passes, tests and examples.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_IR_BUILDER_H
#define PERCEUS_IR_BUILDER_H

#include "ir/Program.h"

#include <initializer_list>

namespace perceus {

/// Builds expressions into a Program's arena.
class IRBuilder {
public:
  explicit IRBuilder(Program &P) : P(P) {}

  Program &program() { return P; }
  SymbolTable &symbols() { return P.symbols(); }

  /// Interns \p Name.
  Symbol sym(std::string_view Name) { return P.symbols().intern(Name); }
  /// Mints a fresh symbol based on \p Base.
  Symbol freshSym(std::string_view Base) { return P.symbols().fresh(Base); }

  //===--- Leaves ----------------------------------------------------------//

  const Expr *litInt(int64_t V, SourceLoc L = {}) {
    return P.arena().make<LitExpr>(LitValue::makeInt(V), L);
  }
  const Expr *litBool(bool V, SourceLoc L = {}) {
    return P.arena().make<LitExpr>(LitValue::makeBool(V), L);
  }
  const Expr *unit(SourceLoc L = {}) {
    return P.arena().make<LitExpr>(LitValue::makeUnit(), L);
  }
  const Expr *var(Symbol Name, SourceLoc L = {}) {
    return P.arena().make<VarExpr>(Name, L);
  }
  const Expr *var(std::string_view Name, SourceLoc L = {}) {
    return var(sym(Name), L);
  }
  const Expr *global(FuncId F, SourceLoc L = {}) {
    return P.arena().make<GlobalExpr>(P.function(F).Name, F, L);
  }

  //===--- Compound --------------------------------------------------------//

  const Expr *app(const Expr *Fn, std::span<const Expr *const> Args,
                  SourceLoc L = {}) {
    return P.arena().make<AppExpr>(Fn, copyExprs(Args), L);
  }
  const Expr *app(const Expr *Fn, std::initializer_list<const Expr *> Args,
                  SourceLoc L = {}) {
    return app(Fn, std::span<const Expr *const>(Args.begin(), Args.size()), L);
  }
  /// Calls top-level function \p F.
  const Expr *call(FuncId F, std::initializer_list<const Expr *> Args,
                   SourceLoc L = {}) {
    return app(global(F, L), Args, L);
  }

  const Expr *lam(std::span<const Symbol> Params,
                  std::span<const Symbol> Captures, const Expr *Body,
                  SourceLoc L = {}) {
    return P.arena().make<LamExpr>(copySyms(Params), copySyms(Captures), Body,
                                   P.nextLamId(), L);
  }
  /// Rebuilds a lambda keeping its existing LamId (for pass rewrites).
  const Expr *lamWithId(uint32_t LamId, std::span<const Symbol> Params,
                        std::span<const Symbol> Captures, const Expr *Body,
                        SourceLoc L = {}) {
    return P.arena().make<LamExpr>(copySyms(Params), copySyms(Captures), Body,
                                   LamId, L);
  }

  const Expr *let(Symbol Name, const Expr *Bound, const Expr *Body,
                  SourceLoc L = {}) {
    return P.arena().make<LetExpr>(Name, Bound, Body, L);
  }
  const Expr *seq(const Expr *First, const Expr *Second, SourceLoc L = {}) {
    return P.arena().make<SeqExpr>(First, Second, L);
  }
  const Expr *iff(const Expr *Cond, const Expr *Then, const Expr *Else,
                  SourceLoc L = {}) {
    return P.arena().make<IfExpr>(Cond, Then, Else, L);
  }

  const Expr *match(Symbol Scrutinee, std::span<const MatchArm> Arms,
                    SourceLoc L = {}) {
    return P.arena().make<MatchExpr>(
        Scrutinee,
        std::span<const MatchArm>(
            P.arena().copyArray(Arms.data(), Arms.size()), Arms.size()),
        L);
  }

  /// A constructor arm; \p Binders must cover every field.
  MatchArm ctorArm(CtorId C, std::span<const Symbol> Binders,
                   const Expr *Body) {
    assert(Binders.size() == P.ctor(C).Arity && "arity mismatch in pattern");
    MatchArm A;
    A.Kind = ArmKind::Ctor;
    A.Ctor = C;
    A.Binders = copySyms(Binders);
    A.Body = Body;
    return A;
  }
  MatchArm ctorArm(CtorId C, std::initializer_list<Symbol> Binders,
                   const Expr *Body) {
    return ctorArm(C, std::span<const Symbol>(Binders.begin(), Binders.size()),
                   Body);
  }
  MatchArm intArm(int64_t V, const Expr *Body) {
    MatchArm A;
    A.Kind = ArmKind::IntLit;
    A.Lit = LitValue::makeInt(V);
    A.Body = Body;
    return A;
  }
  MatchArm boolArm(bool V, const Expr *Body) {
    MatchArm A;
    A.Kind = ArmKind::BoolLit;
    A.Lit = LitValue::makeBool(V);
    A.Body = Body;
    return A;
  }
  MatchArm defaultArm(const Expr *Body) {
    MatchArm A;
    A.Kind = ArmKind::Default;
    A.Body = Body;
    return A;
  }

  const Expr *con(CtorId C, std::span<const Expr *const> Args,
                  Symbol ReuseToken = Symbol(), SourceLoc L = {}) {
    assert(Args.size() == P.ctor(C).Arity && "arity mismatch in constructor");
    return P.arena().make<ConExpr>(C, copyExprs(Args), ReuseToken, L);
  }
  const Expr *con(CtorId C, std::initializer_list<const Expr *> Args,
                  Symbol ReuseToken = Symbol(), SourceLoc L = {}) {
    return con(C, std::span<const Expr *const>(Args.begin(), Args.size()),
               ReuseToken, L);
  }

  const Expr *prim(PrimOp Op, std::initializer_list<const Expr *> Args,
                   SourceLoc L = {}) {
    return prim(Op, std::span<const Expr *const>(Args.begin(), Args.size()),
                L);
  }
  const Expr *prim(PrimOp Op, std::span<const Expr *const> Args,
                   SourceLoc L = {}) {
    return P.arena().make<PrimExpr>(Op, copyExprs(Args), L);
  }

  //===--- RC internal forms ------------------------------------------------//

  const Expr *dup(Symbol X, const Expr *Rest, SourceLoc L = {}) {
    return P.arena().make<DupExpr>(X, Rest, L);
  }
  const Expr *drop(Symbol X, const Expr *Rest, SourceLoc L = {}) {
    return P.arena().make<DropExpr>(X, Rest, L);
  }
  const Expr *freeCell(Symbol X, const Expr *Rest, SourceLoc L = {}) {
    return P.arena().make<FreeExpr>(X, Rest, L);
  }
  const Expr *decref(Symbol X, const Expr *Rest, SourceLoc L = {}) {
    return P.arena().make<DecRefExpr>(X, Rest, L);
  }
  const Expr *isUnique(Symbol X, const Expr *Then, const Expr *Else,
                       SourceLoc L = {}) {
    return P.arena().make<IsUniqueExpr>(X, Then, Else, L);
  }
  const Expr *dropReuse(Symbol X, Symbol Token, const Expr *Rest,
                        SourceLoc L = {}) {
    return P.arena().make<DropReuseExpr>(X, Token, Rest, L);
  }
  const Expr *reuseAddr(Symbol X, SourceLoc L = {}) {
    return P.arena().make<ReuseAddrExpr>(X, L);
  }
  const Expr *nullToken(SourceLoc L = {}) {
    return P.arena().make<NullTokenExpr>(L);
  }

  //===--- Helpers ---------------------------------------------------------//

  std::span<const Symbol> copySyms(std::span<const Symbol> Syms) {
    return {P.arena().copyArray(Syms.data(), Syms.size()), Syms.size()};
  }
  std::span<const Expr *const> copyExprs(std::span<const Expr *const> Es) {
    return {P.arena().copyArray(Es.data(), Es.size()), Es.size()};
  }

private:
  Program &P;
};

} // namespace perceus

#endif // PERCEUS_IR_BUILDER_H

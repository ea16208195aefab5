//===- ir/Rewrite.cpp - Generic child-rewriting helper ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Rewrite.h"

#include "support/Casting.h"

#include <vector>

using namespace perceus;

namespace {

using ChildFn = std::function<const Expr *(const Expr *)>;

/// Children of one node are rewritten into a buffer on the stack; only a
/// node with more children than this (a rare, wide call) spills to the
/// heap.
constexpr size_t InlineChildren = 8;

/// Writes `Fn(C)` for each of \p Children into \p Out, in order; returns
/// whether any child changed.
bool rewriteInto(std::span<const Expr *const> Children, const Expr **Out,
                 const ChildFn &Fn) {
  bool Changed = false;
  for (size_t I = 0; I != Children.size(); ++I) {
    Out[I] = Fn(Children[I]);
    Changed |= Out[I] != Children[I];
  }
  return Changed;
}

} // namespace

const Expr *perceus::mapChildren(IRBuilder &B, const Expr *E,
                                 const ChildFn &Fn) {
  const Expr *Inline[InlineChildren];
  std::vector<const Expr *> Spill;
  auto buffer = [&](size_t N) {
    if (N <= InlineChildren)
      return Inline;
    Spill.resize(N);
    return Spill.data();
  };

  switch (E->kind()) {
  case ExprKind::Lit:
  case ExprKind::Var:
  case ExprKind::Global:
  case ExprKind::ReuseAddr:
  case ExprKind::NullToken:
    return E;

  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    const Expr *Body = Fn(L->body());
    if (Body == L->body())
      return E;
    return B.lamWithId(L->lamId(), L->params(), L->captures(), Body,
                       E->loc());
  }

  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    const Expr *FnE = Fn(A->fn());
    size_t N = A->args().size();
    const Expr **Args = buffer(N);
    bool Changed = rewriteInto(A->args(), Args, Fn) || FnE != A->fn();
    if (!Changed)
      return E;
    return B.app(FnE, std::span<const Expr *const>(Args, N), E->loc());
  }

  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    const Expr *Bound = Fn(L->bound());
    const Expr *Body = Fn(L->body());
    if (Bound == L->bound() && Body == L->body())
      return E;
    return B.let(L->name(), Bound, Body, E->loc());
  }

  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    const Expr *First = Fn(S->first());
    const Expr *Second = Fn(S->second());
    if (First == S->first() && Second == S->second())
      return E;
    return B.seq(First, Second, E->loc());
  }

  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    const Expr *C = Fn(I->cond());
    const Expr *T = Fn(I->thenExpr());
    const Expr *El = Fn(I->elseExpr());
    if (C == I->cond() && T == I->thenExpr() && El == I->elseExpr())
      return E;
    return B.iff(C, T, El, E->loc());
  }

  case ExprKind::Match: {
    const auto *M = cast<MatchExpr>(E);
    std::span<const MatchArm> Arms = M->arms();
    size_t N = Arms.size();
    const Expr **Bodies = buffer(N);
    bool Changed = false;
    for (size_t I = 0; I != N; ++I) {
      Bodies[I] = Fn(Arms[I].Body);
      Changed |= Bodies[I] != Arms[I].Body;
    }
    if (!Changed)
      return E;
    // The arms go straight to the arena, as IRBuilder::match would copy
    // them there.
    Arena &A = B.program().arena();
    MatchArm *NewArms = A.copyArray(Arms.data(), N);
    for (size_t I = 0; I != N; ++I)
      NewArms[I].Body = Bodies[I];
    return A.make<MatchExpr>(M->scrutinee(),
                             std::span<const MatchArm>(NewArms, N), E->loc());
  }

  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    size_t N = C->args().size();
    const Expr **Args = buffer(N);
    if (!rewriteInto(C->args(), Args, Fn))
      return E;
    return B.con(C->ctor(), std::span<const Expr *const>(Args, N),
                 C->reuseToken(), E->loc());
  }

  case ExprKind::Prim: {
    const auto *Pr = cast<PrimExpr>(E);
    size_t N = Pr->args().size();
    const Expr **Args = buffer(N);
    if (!rewriteInto(Pr->args(), Args, Fn))
      return E;
    return B.prim(Pr->op(), std::span<const Expr *const>(Args, N),
                  E->loc());
  }

  case ExprKind::Dup: {
    const auto *D = cast<DupExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E : B.dup(D->var(), Rest, E->loc());
  }
  case ExprKind::Drop: {
    const auto *D = cast<DropExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E : B.drop(D->var(), Rest, E->loc());
  }
  case ExprKind::Free: {
    const auto *D = cast<FreeExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E : B.freeCell(D->var(), Rest, E->loc());
  }
  case ExprKind::DecRef: {
    const auto *D = cast<DecRefExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E : B.decref(D->var(), Rest, E->loc());
  }

  case ExprKind::IsUnique: {
    const auto *U = cast<IsUniqueExpr>(E);
    const Expr *T = Fn(U->thenExpr());
    const Expr *El = Fn(U->elseExpr());
    if (T == U->thenExpr() && El == U->elseExpr())
      return E;
    return B.isUnique(U->var(), T, El, E->loc());
  }

  case ExprKind::DropReuse: {
    const auto *D = cast<DropReuseExpr>(E);
    const Expr *Rest = Fn(D->rest());
    return Rest == D->rest() ? E
                             : B.dropReuse(D->var(), D->token(), Rest,
                                           E->loc());
  }
  }
  return E;
}

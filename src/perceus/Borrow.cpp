//===- perceus/Borrow.cpp - Borrow inference (Section 6) ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/Borrow.h"

#include "support/Casting.h"

#include <algorithm>

using namespace perceus;

namespace {

/// Does \p E contain a reusable (arity > 0) constructor application?
bool allocatesReusableCells(const Program &P, const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Lit:
  case ExprKind::Var:
  case ExprKind::Global:
    return false;
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    if (P.ctor(C->ctor()).Arity > 0)
      return true;
    for (const Expr *Arg : C->args())
      if (allocatesReusableCells(P, Arg))
        return true;
    return false;
  }
  case ExprKind::Lam:
    // Closures allocate, but in a later activation; what matters for
    // the reuse trade-off is this function's own allocations. Still,
    // creating a closure *stores* values, which onlyBorrowUses already
    // rejects, so we only need to scan for constructor allocations.
    return allocatesReusableCells(P, cast<LamExpr>(E)->body());
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    if (allocatesReusableCells(P, A->fn()))
      return true;
    for (const Expr *Arg : A->args())
      if (allocatesReusableCells(P, Arg))
        return true;
    return false;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    return allocatesReusableCells(P, L->bound()) ||
           allocatesReusableCells(P, L->body());
  }
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    return allocatesReusableCells(P, S->first()) ||
           allocatesReusableCells(P, S->second());
  }
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    return allocatesReusableCells(P, I->cond()) ||
           allocatesReusableCells(P, I->thenExpr()) ||
           allocatesReusableCells(P, I->elseExpr());
  }
  case ExprKind::Match: {
    for (const MatchArm &Arm : cast<MatchExpr>(E)->arms())
      if (allocatesReusableCells(P, Arm.Body))
        return true;
    return false;
  }
  case ExprKind::Prim: {
    for (const Expr *Arg : cast<PrimExpr>(E)->args())
      if (allocatesReusableCells(P, Arg))
        return true;
    return false;
  }
  default:
    // RC instructions never appear pre-insertion.
    return true; // be conservative on unexpected forms
  }
}

class BorrowUseChecker {
public:
  BorrowUseChecker(const Program &P, Symbol X, const BorrowSignatures &Sigs)
      : P(P), X(X), Sigs(Sigs) {}

  /// True when every free occurrence of X in E is borrow-compatible.
  bool check(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Global:
      return true;
    case ExprKind::Var:
      // A bare use: the value flows somewhere we cannot see — owned.
      return cast<VarExpr>(E)->name() != X;
    case ExprKind::Match: {
      // Scrutinizing a borrowed value is fine; the arms are checked
      // (binders shadowing X cannot occur thanks to unique binders).
      for (const MatchArm &Arm : cast<MatchExpr>(E)->arms())
        if (!check(Arm.Body))
          return false;
      return true;
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      // Direct calls may receive X at a borrowed position.
      const auto *G = dyn_cast<GlobalExpr>(A->fn());
      if (!check(A->fn()))
        return false;
      for (size_t I = 0; I != A->args().size(); ++I) {
        const Expr *Arg = A->args()[I];
        if (G && I < Sigs[G->func()].size() && Sigs[G->func()][I]) {
          if (const auto *V = dyn_cast<VarExpr>(Arg); V && V->name() == X)
            continue; // whole-argument borrowed use
        }
        if (!check(Arg))
          return false;
      }
      return true;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      return check(L->bound()) && check(L->body());
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      return check(S->first()) && check(S->second());
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      return check(I->cond()) && check(I->thenExpr()) &&
             check(I->elseExpr());
    }
    case ExprKind::Con: {
      // Storing into a constructor is an owned use of whatever is
      // stored; nested occurrences are checked recursively (a bare Var
      // occurrence in an argument is rejected by the Var case).
      for (const Expr *Arg : cast<ConExpr>(E)->args())
        if (!check(Arg))
          return false;
      return true;
    }
    case ExprKind::Prim: {
      // Primitives either consume (tshare) or apply to unboxed values;
      // treat any occurrence as owned (rejected by the Var case).
      for (const Expr *Arg : cast<PrimExpr>(E)->args())
        if (!check(Arg))
          return false;
      return true;
    }
    case ExprKind::Lam: {
      // Capturing X stores it in a closure: owned. The captures are
      // exactly fv(lambda) (the resolver computes them, Verifier checks).
      std::span<const Symbol> Caps = cast<LamExpr>(E)->captures();
      return std::find(Caps.begin(), Caps.end(), X) == Caps.end();
    }
    default:
      return false; // RC forms: not expected pre-insertion
    }
  }

private:
  const Program &P;
  Symbol X;
  const BorrowSignatures &Sigs;
};

} // namespace

bool perceus::onlyBorrowUses(const Program &P, const Expr *E, Symbol X,
                             const BorrowSignatures &Sigs) {
  return BorrowUseChecker(P, X, Sigs).check(E);
}

BorrowSignatures perceus::inferBorrowSignatures(const Program &P) {
  BorrowSignatures Sigs(P.numFunctions());
  std::vector<bool> Candidate(P.numFunctions());
  for (FuncId F = 0; F != P.numFunctions(); ++F) {
    const FunctionDecl &Fn = P.function(F);
    // The judicious-application heuristic: allocating functions keep all
    // parameters owned so reuse analysis keeps its fuel.
    Candidate[F] = Fn.Body && !allocatesReusableCells(P, Fn.Body);
    Sigs[F].assign(Fn.Params.size(), Candidate[F]);
  }

  // Greatest fixpoint: start optimistic, strike parameters whose uses
  // are not borrow-compatible under the current signatures.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (FuncId F = 0; F != P.numFunctions(); ++F) {
      if (!Candidate[F])
        continue;
      const FunctionDecl &Fn = P.function(F);
      for (size_t I = 0; I != Fn.Params.size(); ++I) {
        if (!Sigs[F][I])
          continue;
        if (!onlyBorrowUses(P, Fn.Body, Fn.Params[I], Sigs)) {
          Sigs[F][I] = false;
          Changed = true;
        }
      }
    }
  }
  return Sigs;
}

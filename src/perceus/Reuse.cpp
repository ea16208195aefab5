//===- perceus/Reuse.cpp - Reuse analysis -----------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/Reuse.h"

#include "ir/Builder.h"
#include "ir/Rewrite.h"
#include "support/Casting.h"

#include <unordered_map>

using namespace perceus;

namespace {

//===----------------------------------------------------------------------===//
// Reuse analysis
//===----------------------------------------------------------------------===//

class ReuseAnalyzer {
public:
  ReuseAnalyzer(Program &P) : P(P), B(P) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    P.setBody(F, rewrite(Fn.Body));
  }

private:
  const Expr *rewrite(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      bool Changed = false;
      std::vector<MatchArm> Arms;
      for (const MatchArm &Arm : M->arms()) {
        MatchArm NewArm = Arm;
        if (Arm.Kind == ArmKind::Ctor) {
          // Inside this arm the scrutinee has a known shape.
          auto Saved = Shape.find(M->scrutinee());
          CtorId Old = Saved == Shape.end() ? InvalidId : Saved->second;
          Shape[M->scrutinee()] = Arm.Ctor;
          NewArm.Body = rewrite(Arm.Body);
          if (Old == InvalidId)
            Shape.erase(M->scrutinee());
          else
            Shape[M->scrutinee()] = Old;
        } else {
          NewArm.Body = rewrite(Arm.Body);
        }
        Changed |= NewArm.Body != Arm.Body;
        Arms.push_back(NewArm);
      }
      if (!Changed)
        return E;
      return B.match(M->scrutinee(),
                     std::span<const MatchArm>(Arms.data(), Arms.size()),
                     E->loc());
    }

    case ExprKind::Drop: {
      const auto *D = cast<DropExpr>(E);
      // Inner drops pair first (innermost pairing, as in Lean/Koka),
      // then this drop tries the remaining allocations.
      const Expr *Rest = rewrite(D->rest());
      auto It = Shape.find(D->var());
      if (It != Shape.end() && P.ctor(It->second).Arity > 0) {
        uint32_t Arity = P.ctor(It->second).Arity;
        Symbol Ru = P.symbols().fresh("ru");
        // Prefer pairing with the same constructor, then any same-size
        // allocation. The order decides which allocation each token goes
        // to: the one that rebuilds the matched cell (Figure 1's `Cons`
        // for `Cons`) before one of another constructor.
        auto [WithToken, Used] =
            attach(Rest, Ru, Arity, It->second, /*SameCtorOnly=*/true);
        if (!Used)
          std::tie(WithToken, Used) =
              attach(Rest, Ru, Arity, It->second, /*SameCtorOnly=*/false);
        if (Used)
          return B.dropReuse(D->var(), Ru, WithToken, E->loc());
      }
      return Rest == D->rest() ? E : B.drop(D->var(), Rest, E->loc());
    }

    case ExprKind::Lam:
      // Reuse tokens cannot cross a closure boundary (the body runs in a
      // later activation), but the body gets its own analysis.
      return mapChildren(B, E,
                         [&](const Expr *C) { return rewrite(C); });

    default:
      return mapChildren(B, E,
                         [&](const Expr *C) { return rewrite(C); });
    }
  }

  /// Tries to attach reuse token \p Ru to a constructor allocation of
  /// arity \p Arity along every path of \p E. Branches without a use get
  /// an explicit `free ru` so the token cannot leak. Returns the new
  /// expression and whether the token was consumed (on all paths).
  std::pair<const Expr *, bool> attach(const Expr *E, Symbol Ru,
                                       uint32_t Arity, CtorId Origin,
                                       bool SameCtorOnly) {
    switch (E->kind()) {
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      // The cell itself is allocated after its arguments, but pairing
      // with the outermost eligible allocation keeps same-constructor
      // pairing stable under nesting (bal-left), so try self first.
      if (!C->hasReuseToken() && P.ctor(C->ctor()).Arity == Arity &&
          (!SameCtorOnly || C->ctor() == Origin)) {
        return {B.con(C->ctor(), C->args(), Ru, E->loc()), true};
      }
      for (size_t I = 0; I != C->args().size(); ++I) {
        auto [NewArg, Used] =
            attach(C->args()[I], Ru, Arity, Origin, SameCtorOnly);
        if (!Used)
          continue;
        std::vector<const Expr *> Args(C->args().begin(), C->args().end());
        Args[I] = NewArg;
        return {B.con(C->ctor(),
                      std::span<const Expr *const>(Args.data(), Args.size()),
                      C->reuseToken(), E->loc()),
                true};
      }
      return {E, false};
    }

    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      for (size_t I = 0; I != A->args().size(); ++I) {
        auto [NewArg, Used] =
            attach(A->args()[I], Ru, Arity, Origin, SameCtorOnly);
        if (!Used)
          continue;
        std::vector<const Expr *> Args(A->args().begin(), A->args().end());
        Args[I] = NewArg;
        return {B.app(A->fn(),
                      std::span<const Expr *const>(Args.data(), Args.size()),
                      E->loc()),
                true};
      }
      return {E, false};
    }

    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      for (size_t I = 0; I != Pr->args().size(); ++I) {
        auto [NewArg, Used] =
            attach(Pr->args()[I], Ru, Arity, Origin, SameCtorOnly);
        if (!Used)
          continue;
        std::vector<const Expr *> Args(Pr->args().begin(), Pr->args().end());
        Args[I] = NewArg;
        return {B.prim(Pr->op(),
                       std::span<const Expr *const>(Args.data(), Args.size()),
                       E->loc()),
                true};
      }
      return {E, false};
    }

    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      auto [Bound, UsedB] = attach(L->bound(), Ru, Arity, Origin,
                                   SameCtorOnly);
      if (UsedB)
        return {B.let(L->name(), Bound, L->body(), E->loc()), true};
      auto [Body, UsedBody] =
          attach(L->body(), Ru, Arity, Origin, SameCtorOnly);
      if (UsedBody)
        return {B.let(L->name(), L->bound(), Body, E->loc()), true};
      return {E, false};
    }

    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      auto [First, UsedF] =
          attach(S->first(), Ru, Arity, Origin, SameCtorOnly);
      if (UsedF)
        return {B.seq(First, S->second(), E->loc()), true};
      auto [Second, UsedS] =
          attach(S->second(), Ru, Arity, Origin, SameCtorOnly);
      if (UsedS)
        return {B.seq(S->first(), Second, E->loc()), true};
      return {E, false};
    }

    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef: {
      const auto *R = cast<RcStmtExpr>(E);
      auto [Rest, Used] = attach(R->rest(), Ru, Arity, Origin, SameCtorOnly);
      if (!Used)
        return {E, false};
      switch (E->kind()) {
      case ExprKind::Dup:
        return {B.dup(R->var(), Rest, E->loc()), true};
      case ExprKind::Drop:
        return {B.drop(R->var(), Rest, E->loc()), true};
      case ExprKind::Free:
        return {B.freeCell(R->var(), Rest, E->loc()), true};
      default:
        return {B.decref(R->var(), Rest, E->loc()), true};
      }
    }

    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      auto [Rest, Used] = attach(D->rest(), Ru, Arity, Origin, SameCtorOnly);
      if (!Used)
        return {E, false};
      return {B.dropReuse(D->var(), D->token(), Rest, E->loc()), true};
    }

    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      auto [Cond, UsedC] = attach(I->cond(), Ru, Arity, Origin, SameCtorOnly);
      if (UsedC)
        return {B.iff(Cond, I->thenExpr(), I->elseExpr(), E->loc()), true};
      auto [Then, UsedT] =
          attach(I->thenExpr(), Ru, Arity, Origin, SameCtorOnly);
      auto [Else, UsedE] =
          attach(I->elseExpr(), Ru, Arity, Origin, SameCtorOnly);
      if (!UsedT && !UsedE)
        return {E, false};
      if (!UsedT)
        Then = B.freeCell(Ru, Then, E->loc());
      if (!UsedE)
        Else = B.freeCell(Ru, Else, E->loc());
      return {B.iff(I->cond(), Then, Else, E->loc()), true};
    }

    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      std::vector<const Expr *> Bodies;
      bool Any = false;
      std::vector<bool> UsedArm;
      for (const MatchArm &Arm : M->arms()) {
        auto [Body, Used] = attach(Arm.Body, Ru, Arity, Origin, SameCtorOnly);
        Bodies.push_back(Body);
        UsedArm.push_back(Used);
        Any |= Used;
      }
      if (!Any)
        return {E, false};
      std::vector<MatchArm> Arms;
      for (size_t I = 0; I != M->arms().size(); ++I) {
        MatchArm NewArm = M->arms()[I];
        NewArm.Body =
            UsedArm[I] ? Bodies[I] : B.freeCell(Ru, Bodies[I], E->loc());
        Arms.push_back(NewArm);
      }
      return {B.match(M->scrutinee(),
                      std::span<const MatchArm>(Arms.data(), Arms.size()),
                      E->loc()),
              true};
    }

    default:
      // Leaves, lambdas (token must not escape into a closure), and
      // token forms: no attachment here.
      return {E, false};
    }
  }

  Program &P;
  IRBuilder B;
  std::unordered_map<Symbol, CtorId> Shape;
};

} // namespace

void perceus::runReuseAnalysis(Program &P) {
  ReuseAnalyzer A(P);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    A.runOnFunction(F);
}

void perceus::runReuseAnalysis(Program &P, FuncId F) {
  ReuseAnalyzer A(P);
  A.runOnFunction(F);
}

//===- perceus/Perceus.cpp - Precise dup/drop insertion ---------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/Perceus.h"

#include "analysis/FreeVars.h"
#include "ir/Builder.h"
#include "support/Casting.h"

#include <cassert>

using namespace perceus;

namespace {

/// True when \p E always evaluates to unit (so a discarding sequence
/// needs no drop of the discarded value).
bool producesUnit(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::Lit:
    return cast<LitExpr>(E)->value().Kind == LitKind::Unit;
  case ExprKind::Prim: {
    PrimOp Op = cast<PrimExpr>(E)->op();
    return Op == PrimOp::PrintLn || Op == PrimOp::MarkShared ||
           Op == PrimOp::Abort || Op == PrimOp::RefSet;
  }
  case ExprKind::Seq:
    return producesUnit(cast<SeqExpr>(E)->second());
  default:
    return false;
  }
}

//===----------------------------------------------------------------------===//
// Perceus insertion (Figure 8)
//===----------------------------------------------------------------------===//

class PerceusInserter {
public:
  PerceusInserter(Program &P, const BorrowSignatures *Borrow)
      : P(P), B(P), Borrow(Borrow) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    assert(Fn.Body && "function has no body");
    // Function entry: Gamma = owned params that occur free in the body;
    // unused owned parameters are dropped immediately (the function-level
    // analogue of rule slam-drop). Borrowed parameters (Section 6
    // extension) belong to the borrowed environment Delta: the caller
    // retains ownership, so they are never consumed nor dropped here.
    const VarSet &BodyFree = FV.freeVars(Fn.Body);
    VarSet Gamma;
    for (size_t I = 0; I != Fn.Params.size(); ++I)
      if (!isBorrowedParam(F, I) && BodyFree.contains(Fn.Params[I]))
        Gamma.insert(Fn.Params[I]);
    const Expr *Body = transform(Fn.Body, Gamma);
    for (size_t I = Fn.Params.size(); I-- > 0;)
      if (!BodyFree.contains(Fn.Params[I]) && !isBorrowedParam(F, I))
        Body = B.drop(Fn.Params[I], Body);
    P.setBody(F, Body);
  }

  bool isBorrowedParam(FuncId F, size_t I) const {
    return Borrow && I < (*Borrow)[F].size() && (*Borrow)[F][I];
  }

private:
  /// The syntax-directed derivation `Delta | Gamma |-s e ~> e'`. Delta
  /// is implicit: it is every free variable of e outside Gamma, so no
  /// rule needs it built (checkLinearity checks the output statically).
  const Expr *transform(const Expr *E, const VarSet &Gamma) {
    assert(Gamma.minus(FV.freeVars(E)).empty() &&
           "Gamma must be within fv(e)");
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Global:
      assert(Gamma.empty() && "leaf with owned variables");
      return E;

    case ExprKind::Var: {
      Symbol X = cast<VarExpr>(E)->name();
      if (Gamma.contains(X)) { // [svar]: consume the owned reference
        assert(Gamma.size() == 1 && "svar with extra owned variables");
        return E;
      }
      return B.dup(X, E, E->loc()); // [svar-dup]: borrow needs a dup
    }

    case ExprKind::Lam: {
      // [slam] / [slam-drop].
      const auto *L = cast<LamExpr>(E);
      VarSet Ys;
      for (Symbol C : L->captures())
        Ys.insert(C);
      VarSet Delta1 = Ys.minus(Gamma); // borrowed captures need a dup
      assert(Gamma.minus(Ys).empty() && "owned vars not captured by lambda");

      const VarSet &BodyFree = FV.freeVars(L->body());
      VarSet BodyOwned = Ys; // every capture is free in the body
      for (Symbol Pm : L->params())
        if (BodyFree.contains(Pm))
          BodyOwned.insert(Pm);
      const Expr *Body = transform(L->body(), BodyOwned);
      for (auto It = L->params().rbegin(); It != L->params().rend(); ++It)
        if (!BodyFree.contains(*It))
          Body = B.drop(*It, Body, E->loc());

      const Expr *Result =
          B.lamWithId(L->lamId(), L->params(), L->captures(), Body, E->loc());
      // Wrap dups so they print in ascending order.
      std::vector<Symbol> Dups(Delta1.begin(), Delta1.end());
      for (auto It = Dups.rbegin(); It != Dups.rend(); ++It)
        Result = B.dup(*It, Result, E->loc());
      return Result;
    }

    case ExprKind::App: {
      // [sapp] generalized to n-ary: ownership is claimed right-to-left
      // so dups happen as late as possible; earlier components borrow
      // the owned sets of later ones.
      const auto *A = cast<AppExpr>(E);
      const auto *G = dyn_cast<GlobalExpr>(A->fn());

      // Section 6 extension: direct calls at borrowed positions.
      if (Borrow && G) {
        const std::vector<bool> &Sig = (*Borrow)[G->func()];
        bool AnyBorrowed = false;
        bool NeedHoist = false;
        for (size_t I = 0; I != A->args().size() && I < Sig.size(); ++I) {
          if (!Sig[I])
            continue;
          AnyBorrowed = true;
          if (!isa<VarExpr>(A->args()[I]))
            NeedHoist = true;
        }
        if (NeedHoist) {
          // Normalize complex borrowed arguments to let-bound variables
          // (pre-insertion IR), then transform the whole let chain.
          std::vector<const Expr *> Args(A->args().begin(), A->args().end());
          std::vector<std::pair<Symbol, const Expr *>> Hoisted;
          for (size_t I = 0; I != Args.size() && I < Sig.size(); ++I) {
            if (!Sig[I] || isa<VarExpr>(Args[I]))
              continue;
            Symbol Tmp = P.symbols().fresh("barg");
            Hoisted.push_back({Tmp, Args[I]});
            Args[I] = B.var(Tmp, E->loc());
          }
          const Expr *NewApp =
              B.app(A->fn(),
                    std::span<const Expr *const>(Args.data(), Args.size()),
                    E->loc());
          for (size_t I = Hoisted.size(); I-- > 0;)
            NewApp = B.let(Hoisted[I].first, Hoisted[I].second, NewApp,
                           E->loc());
          // No cache invalidation: the rewritten nodes are fresh, and
          // callers hold references into the memo table.
          return transform(NewApp, Gamma);
        }
        if (AnyBorrowed) {
          // Borrowed variable arguments: the caller keeps ownership. If
          // this was the variable's last owned use, it is dropped right
          // after the call returns (losing strict garbage-freedom for
          // the call's duration — the paper's stated trade-off).
          VarSet BorrowArgs;
          for (size_t I = 0; I != A->args().size() && I < Sig.size(); ++I)
            if (Sig[I])
              BorrowArgs.insert(cast<VarExpr>(A->args()[I])->name());
          VarSet PostDrop = Gamma.intersect(BorrowArgs);
          VarSet Gamma2 = Gamma.minus(PostDrop);

          std::vector<const Expr *> Comps;
          Comps.push_back(A->fn());
          for (const Expr *Arg : A->args())
            Comps.push_back(Arg);
          std::vector<bool> PassThrough(Comps.size(), false);
          for (size_t I = 0; I != A->args().size() && I < Sig.size(); ++I)
            if (Sig[I])
              PassThrough[I + 1] = true;
          std::vector<const Expr *> Out =
              splitAndTransform(Comps, Gamma2, &PassThrough);
          const Expr *Call =
              B.app(Out[0],
                    std::span<const Expr *const>(Out.data() + 1,
                                                 Out.size() - 1),
                    E->loc());
          if (PostDrop.empty())
            return Call;
          Symbol R = P.symbols().fresh("bres");
          const Expr *Rest = B.var(R, E->loc());
          std::vector<Symbol> Drops(PostDrop.begin(), PostDrop.end());
          for (auto It = Drops.rbegin(); It != Drops.rend(); ++It)
            Rest = B.drop(*It, Rest, E->loc());
          return B.let(R, Call, Rest, E->loc());
        }
      }

      std::vector<const Expr *> Comps;
      Comps.push_back(A->fn());
      for (const Expr *Arg : A->args())
        Comps.push_back(Arg);
      std::vector<const Expr *> Out = splitAndTransform(Comps, Gamma);
      return B.app(Out[0],
                   std::span<const Expr *const>(Out.data() + 1,
                                                Out.size() - 1),
                   E->loc());
    }

    case ExprKind::Con: {
      // [scon].
      const auto *C = cast<ConExpr>(E);
      assert(!C->hasReuseToken() && "reuse tokens appear only after reuse "
                                    "analysis");
      std::vector<const Expr *> Comps(C->args().begin(), C->args().end());
      std::vector<const Expr *> Out = splitAndTransform(Comps, Gamma);
      return B.con(C->ctor(),
                   std::span<const Expr *const>(Out.data(), Out.size()),
                   Symbol(), E->loc());
    }

    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      std::vector<const Expr *> Comps(Pr->args().begin(), Pr->args().end());
      std::vector<const Expr *> Out = splitAndTransform(Comps, Gamma);
      return B.prim(Pr->op(),
                    std::span<const Expr *const>(Out.data(), Out.size()),
                    E->loc());
    }

    case ExprKind::Let: {
      // [sbind] / [sbind-drop].
      const auto *L = cast<LetExpr>(E);
      const VarSet &BodyFree = FV.freeVars(L->body());
      bool Used = BodyFree.contains(L->name());
      VarSet BodyClaim = BodyFree;
      BodyClaim.erase(L->name());
      VarSet Gamma2 = Gamma.intersect(BodyClaim);
      const Expr *Bound = transform(L->bound(), Gamma.minus(Gamma2));
      VarSet BodyOwned = Gamma2;
      if (Used)
        BodyOwned.insert(L->name());
      const Expr *Body = transform(L->body(), BodyOwned);
      if (!Used)
        Body = B.drop(L->name(), Body, E->loc());
      return B.let(L->name(), Bound, Body, E->loc());
    }

    case ExprKind::Seq: {
      // `a; b` is `val tmp = a; b` with tmp unused (sbind-drop), so the
      // discarded value is dropped and cannot leak. When `a` is provably
      // unit-valued the binding is elided.
      const auto *S = cast<SeqExpr>(E);
      VarSet Gamma2 = Gamma.intersect(FV.freeVars(S->second()));
      const Expr *First = transform(S->first(), Gamma.minus(Gamma2));
      const Expr *Second = transform(S->second(), Gamma2);
      if (producesUnit(S->first()))
        return B.seq(First, Second, E->loc());
      Symbol Tmp = P.symbols().fresh("seq");
      return B.let(Tmp, First, B.drop(Tmp, Second, E->loc()), E->loc());
    }

    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      VarSet BranchFree =
          FV.freeVars(I->thenExpr()).unite(FV.freeVars(I->elseExpr()));
      VarSet GammaBr = Gamma.intersect(BranchFree);
      const Expr *Cond = transform(I->cond(), Gamma.minus(GammaBr));
      const Expr *Then = transformBranch(I->thenExpr(), GammaBr);
      const Expr *Else = transformBranch(I->elseExpr(), GammaBr);
      return B.iff(Cond, Then, Else, E->loc());
    }

    case ExprKind::Match: {
      // [smatch]: binders that the arm uses are dup'ed at arm entry, the
      // scrutinee is dropped if the arm no longer needs it, and owned
      // variables dead in this arm are dropped (Gamma'_i).
      const auto *M = cast<MatchExpr>(E);
      Symbol X = M->scrutinee();
      bool OwnedScrutinee = Gamma.contains(X);
      std::vector<MatchArm> Arms;
      for (const MatchArm &Arm : M->arms()) {
        const VarSet &BodyFree = FV.freeVars(Arm.Body);
        VarSet ArmOwned = Gamma;
        VarSet Binders;
        for (Symbol Bv : Arm.Binders) {
          ArmOwned.insert(Bv);
          Binders.insert(Bv);
        }
        VarSet GammaI = ArmOwned.intersect(BodyFree);
        VarSet DropSet = ArmOwned.minus(GammaI);

        // Section 6 extension: if the scrutinee outlives this arm (it is
        // borrowed, or still owned by the body), binders whose uses are
        // all borrow-compatible can themselves stay borrowed — no dup at
        // arm entry at all (e.g. the fields of a borrowed fold).
        if (Borrow) {
          // Only when the scrutinee is itself borrowed (alive for the
          // whole enclosing scope) is a borrowed binder unconditionally
          // safe; an owned-but-live scrutinee could be consumed between
          // two binder uses.
          bool ScrutAlive = !OwnedScrutinee;
          if (ScrutAlive) {
            for (Symbol Bv : Arm.Binders) {
              if (GammaI.contains(Bv) &&
                  onlyBorrowUses(P, Arm.Body, Bv, *Borrow)) {
                GammaI.erase(Bv);
              }
            }
          }
        }

        const Expr *Body = transform(Arm.Body, GammaI);

        // Emit: dup used binders; drop scrutinee; drop dead owned vars.
        // (Built in reverse since each op wraps the rest.)
        std::vector<Symbol> Drops;
        if (OwnedScrutinee && DropSet.contains(X))
          Drops.push_back(X);
        for (Symbol Z : DropSet)
          if (Z != X && !Binders.contains(Z))
            Drops.push_back(Z);
        for (auto It = Drops.rbegin(); It != Drops.rend(); ++It)
          Body = B.drop(*It, Body, E->loc());
        for (size_t BI = Arm.Binders.size(); BI-- > 0;)
          if (GammaI.contains(Arm.Binders[BI]))
            Body = B.dup(Arm.Binders[BI], Body, E->loc());

        MatchArm NewArm = Arm;
        NewArm.Body = Body;
        NewArm.BindersUsed = std::any_of(
            Arm.Binders.begin(), Arm.Binders.end(),
            [&](Symbol Bv) { return BodyFree.contains(Bv); });
        Arms.push_back(NewArm);
      }
      return B.match(X, std::span<const MatchArm>(Arms.data(), Arms.size()),
                     E->loc());
    }

    default:
      assert(false && "RC instruction in pre-insertion IR");
      return E;
    }
  }

  /// Handles the shared Gamma'_i-drop logic for if-branches.
  const Expr *transformBranch(const Expr *Branch, const VarSet &GammaBr) {
    VarSet GammaI = GammaBr.intersect(FV.freeVars(Branch));
    VarSet DropSet = GammaBr.minus(GammaI);
    const Expr *Out = transform(Branch, GammaI);
    std::vector<Symbol> Drops(DropSet.begin(), DropSet.end());
    for (auto It = Drops.rbegin(); It != Drops.rend(); ++It)
      Out = B.drop(*It, Out, Branch->loc());
    return Out;
  }

  /// Splits Gamma over \p Comps (evaluated left-to-right; ownership
  /// claimed right-to-left) and transforms each component. Components
  /// flagged in \p PassThrough are whole-variable borrowed arguments:
  /// they are emitted verbatim (no dup, no ownership claim).
  std::vector<const Expr *> splitAndTransform(
      const std::vector<const Expr *> &Comps, const VarSet &Gamma,
      const std::vector<bool> *PassThrough = nullptr) {
    size_t N = Comps.size();
    auto isPass = [&](size_t I) {
      return PassThrough && (*PassThrough)[I];
    };
    std::vector<VarSet> Gammas(N);
    VarSet Rem = Gamma;
    for (size_t I = N; I-- > 0;) {
      if (isPass(I))
        continue;
      Gammas[I] = Rem.intersect(FV.freeVars(Comps[I]));
      Rem.eraseAll(Gammas[I]);
    }
    assert(Rem.empty() && "owned variable free in no component");
    // Later components' owned sets are borrowed by earlier ones.
    std::vector<const Expr *> Out(N);
    for (size_t I = N; I-- > 0;)
      Out[I] = isPass(I) ? Comps[I] : transform(Comps[I], Gammas[I]);
    return Out;
  }

  Program &P;
  IRBuilder B;
  FreeVarAnalysis FV;
  const BorrowSignatures *Borrow;
};

//===----------------------------------------------------------------------===//
// Scoped-lifetime RC insertion (the Section 2.2 baseline)
//===----------------------------------------------------------------------===//

class ScopedInserter {
public:
  ScopedInserter(Program &P) : P(P), B(P) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    assert(Fn.Body && "function has no body");
    const Expr *Body = transform(Fn.Body);
    P.setBody(F, wrapScopeEnd(Body, Fn.Params));
  }

private:
  /// `val r = body; drop x1; ...; drop xn; r` — release a scope's
  /// bindings only after its result is computed.
  const Expr *wrapScopeEnd(const Expr *Body, std::span<const Symbol> Owned) {
    if (Owned.empty())
      return Body;
    Symbol R = P.symbols().fresh("ret");
    const Expr *Out = B.var(R);
    for (size_t I = Owned.size(); I-- > 0;)
      Out = B.drop(Owned[I], Out);
    return B.let(R, Body, Out);
  }

  const Expr *transform(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Global:
      return E;

    case ExprKind::Var:
      // Every use copies its reference, shared_ptr style.
      return B.dup(cast<VarExpr>(E)->name(), E, E->loc());

    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      const Expr *Body = transform(L->body());
      std::vector<Symbol> Owned(L->params().begin(), L->params().end());
      Owned.insert(Owned.end(), L->captures().begin(), L->captures().end());
      Body = wrapScopeEnd(Body,
                          std::span<const Symbol>(Owned.data(), Owned.size()));
      const Expr *Result =
          B.lamWithId(L->lamId(), L->params(), L->captures(), Body, E->loc());
      // Closure construction copies each captured reference.
      for (size_t I = L->captures().size(); I-- > 0;)
        Result = B.dup(L->captures()[I], Result, E->loc());
      return Result;
    }

    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      std::vector<const Expr *> Args;
      for (const Expr *Arg : A->args())
        Args.push_back(transform(Arg));
      return B.app(transform(A->fn()),
                   std::span<const Expr *const>(Args.data(), Args.size()),
                   E->loc());
    }

    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      std::vector<const Expr *> Args;
      for (const Expr *Arg : C->args())
        Args.push_back(transform(Arg));
      return B.con(C->ctor(),
                   std::span<const Expr *const>(Args.data(), Args.size()),
                   Symbol(), E->loc());
    }

    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      std::vector<const Expr *> Args;
      for (const Expr *Arg : Pr->args())
        Args.push_back(transform(Arg));
      return B.prim(Pr->op(),
                    std::span<const Expr *const>(Args.data(), Args.size()),
                    E->loc());
    }

    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      Symbol X = L->name();
      const Expr *Body = transform(L->body());
      Body = wrapScopeEnd(Body, std::span<const Symbol>(&X, 1));
      return B.let(X, transform(L->bound()), Body, E->loc());
    }

    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      const Expr *First = transform(S->first());
      const Expr *Second = transform(S->second());
      if (producesUnit(S->first()))
        return B.seq(First, Second, E->loc());
      Symbol Tmp = P.symbols().fresh("seq");
      const Expr *Body = wrapScopeEnd(Second, std::span<const Symbol>(&Tmp, 1));
      return B.let(Tmp, First, Body, E->loc());
    }

    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      return B.iff(transform(I->cond()), transform(I->thenExpr()),
                   transform(I->elseExpr()), E->loc());
    }

    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      std::vector<MatchArm> Arms;
      for (const MatchArm &Arm : M->arms()) {
        const Expr *Body = transform(Arm.Body);
        Body = wrapScopeEnd(Body, Arm.Binders);
        // Binding a field copies its reference.
        for (size_t I = Arm.Binders.size(); I-- > 0;)
          Body = B.dup(Arm.Binders[I], Body, E->loc());
        MatchArm NewArm = Arm;
        NewArm.Body = Body;
        Arms.push_back(NewArm);
      }
      return B.match(M->scrutinee(),
                     std::span<const MatchArm>(Arms.data(), Arms.size()),
                     E->loc());
    }

    default:
      assert(false && "RC instruction in pre-insertion IR");
      return E;
    }
  }

  Program &P;
  IRBuilder B;
};

} // namespace

void perceus::insertPerceus(Program &P, const BorrowSignatures *Borrow) {
  PerceusInserter I(P, Borrow);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    I.runOnFunction(F);
}

void perceus::insertPerceus(Program &P, FuncId F,
                            const BorrowSignatures *Borrow) {
  PerceusInserter I(P, Borrow);
  I.runOnFunction(F);
}

void perceus::insertScopedRc(Program &P) {
  ScopedInserter I(P);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    I.runOnFunction(F);
}

void perceus::insertScopedRc(Program &P, FuncId F) {
  ScopedInserter I(P);
  I.runOnFunction(F);
}

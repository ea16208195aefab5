//===- calculus/SubstEval.cpp - Standard semantics of lambda-1 ----------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "calculus/SubstEval.h"

#include "ir/Builder.h"
#include "support/Casting.h"

#include <functional>

using namespace perceus;

namespace {

class SubstInterp {
public:
  SubstInterp(Program &P, uint64_t Fuel) : P(P), B(P), Fuel(Fuel) {}

  Program &P;
  IRBuilder B;
  uint64_t Fuel;
  bool OutOfFuel = false;
  bool Stuck = false;

  /// Leaves only; compound forms are handled by the driver (eval2).
  const Expr *eval(const Expr *E) {
    if (OutOfFuel || Stuck)
      return nullptr;
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Lam:
    case ExprKind::Global:
      return E;
    default:
      // Open variables, RC instructions, and non-calculus forms are
      // stuck under the standard semantics.
      Stuck = true;
      return nullptr;
    }
  }

  bool spend() {
    if (Fuel == 0) {
      OutOfFuel = true;
      return false;
    }
    --Fuel;
    return true;
  }
};

} // namespace

/// Substitution must turn `match x {..}` whose scrutinee is substituted
/// into an applied match; since MatchExpr holds a Symbol we wrap the
/// value in a let with a fresh name instead, preserving semantics.
const Expr *perceus::substitute(Program &P, const Expr *E, Symbol X,
                                const Expr *V) {
  IRBuilder B(P);
  // Variable-for-variable substitution (the only kind the heap semantics
  // performs) also renames RC-instruction operands, match scrutinees and
  // token references.
  Symbol RenameTo;
  if (const auto *VV = dyn_cast<VarExpr>(V))
    RenameTo = VV->name();
  auto ren = [&](Symbol S) { return S == X && RenameTo ? RenameTo : S; };
  std::function<const Expr *(const Expr *)> Go =
      [&](const Expr *N) -> const Expr * {
    switch (N->kind()) {
    case ExprKind::Lit:
    case ExprKind::Global:
      return N;
    case ExprKind::Var:
      return cast<VarExpr>(N)->name() == X ? V : N;
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(N);
      for (Symbol Pm : L->params())
        if (Pm == X)
          return N; // shadowed (cannot happen with unique binders)
      const Expr *Body = Go(L->body());
      bool CapsHit = false;
      for (Symbol C : L->captures())
        CapsHit |= C == X;
      if (Body == L->body() && !CapsHit)
        return N;
      // Update the capture annotation (the multiset ys of Figure 4):
      // var-for-var substitution renames the capture; substituting a
      // closed value removes it.
      std::vector<Symbol> Caps;
      for (Symbol C : L->captures()) {
        if (C != X)
          Caps.push_back(C);
        else if (RenameTo)
          Caps.push_back(RenameTo);
      }
      return B.lamWithId(L->lamId(), L->params(),
                         std::span<const Symbol>(Caps.data(), Caps.size()),
                         Body, N->loc());
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(N);
      const Expr *F = Go(A->fn());
      bool Changed = F != A->fn();
      std::vector<const Expr *> Args;
      for (const Expr *Arg : A->args()) {
        Args.push_back(Go(Arg));
        Changed |= Args.back() != Arg;
      }
      if (!Changed)
        return N;
      return B.app(F, std::span<const Expr *const>(Args.data(), Args.size()),
                   N->loc());
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(N);
      const Expr *Bound = Go(L->bound());
      const Expr *Body = L->name() == X ? L->body() : Go(L->body());
      if (Bound == L->bound() && Body == L->body())
        return N;
      return B.let(L->name(), Bound, Body, N->loc());
    }
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(N);
      Symbol Tok = C->hasReuseToken() ? ren(C->reuseToken())
                                      : C->reuseToken();
      bool Changed = Tok != C->reuseToken();
      std::vector<const Expr *> Args;
      for (const Expr *Arg : C->args()) {
        Args.push_back(Go(Arg));
        Changed |= Args.back() != Arg;
      }
      if (!Changed)
        return N;
      return B.con(C->ctor(),
                   std::span<const Expr *const>(Args.data(), Args.size()),
                   Tok, N->loc());
    }
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(N);
      bool ScrutHit = M->scrutinee() == X;
      bool Changed = false;
      std::vector<MatchArm> Arms;
      for (const MatchArm &Arm : M->arms()) {
        bool Shadowed = false;
        for (Symbol Bv : Arm.Binders)
          if (Bv == X)
            Shadowed = true;
        MatchArm NewArm = Arm;
        if (!Shadowed)
          NewArm.Body = Go(Arm.Body);
        Changed |= NewArm.Body != Arm.Body;
        Arms.push_back(NewArm);
      }
      if (ScrutHit) {
        if (RenameTo) {
          return B.match(RenameTo,
                         std::span<const MatchArm>(Arms.data(), Arms.size()),
                         N->loc());
        }
        // The scrutinee variable is replaced by a value term: rebuild as
        // an immediate match via a fresh binding (rule (match) fires
        // once the bound value is in place).
        Symbol Tmp = P.symbols().fresh("scrut");
        const Expr *Inner = B.match(
            Tmp, std::span<const MatchArm>(Arms.data(), Arms.size()),
            N->loc());
        return B.let(Tmp, V, Inner, N->loc());
      }
      if (!Changed)
        return N;
      return B.match(M->scrutinee(),
                     std::span<const MatchArm>(Arms.data(), Arms.size()),
                     N->loc());
    }

    case ExprKind::Seq: {
      const auto *Q = cast<SeqExpr>(N);
      const Expr *First = Go(Q->first());
      const Expr *Second = Go(Q->second());
      if (First == Q->first() && Second == Q->second())
        return N;
      return B.seq(First, Second, N->loc());
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(N);
      const Expr *C = Go(I->cond());
      const Expr *T = Go(I->thenExpr());
      const Expr *El = Go(I->elseExpr());
      if (C == I->cond() && T == I->thenExpr() && El == I->elseExpr())
        return N;
      return B.iff(C, T, El, N->loc());
    }
    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(N);
      bool Changed = false;
      std::vector<const Expr *> Args;
      for (const Expr *Arg : Pr->args()) {
        Args.push_back(Go(Arg));
        Changed |= Args.back() != Arg;
      }
      if (!Changed)
        return N;
      return B.prim(Pr->op(),
                    std::span<const Expr *const>(Args.data(), Args.size()),
                    N->loc());
    }

    //===--- RC instructions (variable renaming only) ---------------------===//
    case ExprKind::Dup: {
      const auto *D = cast<DupExpr>(N);
      const Expr *Rest = Go(D->rest());
      if (ren(D->var()) == D->var() && Rest == D->rest())
        return N;
      return B.dup(ren(D->var()), Rest, N->loc());
    }
    case ExprKind::Drop: {
      const auto *D = cast<DropExpr>(N);
      const Expr *Rest = Go(D->rest());
      if (ren(D->var()) == D->var() && Rest == D->rest())
        return N;
      return B.drop(ren(D->var()), Rest, N->loc());
    }
    case ExprKind::Free: {
      const auto *D = cast<FreeExpr>(N);
      const Expr *Rest = Go(D->rest());
      if (ren(D->var()) == D->var() && Rest == D->rest())
        return N;
      return B.freeCell(ren(D->var()), Rest, N->loc());
    }
    case ExprKind::DecRef: {
      const auto *D = cast<DecRefExpr>(N);
      const Expr *Rest = Go(D->rest());
      if (ren(D->var()) == D->var() && Rest == D->rest())
        return N;
      return B.decref(ren(D->var()), Rest, N->loc());
    }
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(N);
      const Expr *T = Go(U->thenExpr());
      const Expr *El = Go(U->elseExpr());
      if (ren(U->var()) == U->var() && T == U->thenExpr() &&
          El == U->elseExpr())
        return N;
      return B.isUnique(ren(U->var()), T, El, N->loc());
    }
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(N);
      const Expr *Rest = D->token() == X ? D->rest() : Go(D->rest());
      if (ren(D->var()) == D->var() && Rest == D->rest())
        return N;
      return B.dropReuse(ren(D->var()), D->token(), Rest, N->loc());
    }
    case ExprKind::ReuseAddr:
      if (ren(cast<ReuseAddrExpr>(N)->var()) == cast<ReuseAddrExpr>(N)->var())
        return N;
      return B.reuseAddr(ren(cast<ReuseAddrExpr>(N)->var()), N->loc());
    default:
      // NullToken and other leaves.
      return N;
    }
  };
  return Go(E);
}

SubstResult perceus::substEval(Program &P, const Expr *E, uint64_t Fuel) {
  // The evaluator above treats `match` specially: because MatchExpr
  // scrutinees are symbols, substitute() rewrites a hit scrutinee into
  // `val tmp = v; match tmp {..}`; eval of Let then substitutes tmp and
  // hits the same case again. To break that cycle we implement match
  // here, on let-bound values.
  struct Interp : SubstInterp {
    using SubstInterp::SubstInterp;

    const Expr *eval2(const Expr *E) {
      if (OutOfFuel || Stuck)
        return nullptr;
      if (const auto *Lt = dyn_cast<LetExpr>(E)) {
        if (const auto *M = dyn_cast<MatchExpr>(Lt->body());
            M && M->scrutinee() == Lt->name()) {
          const Expr *V = eval2(Lt->bound());
          if (!V)
            return nullptr;
          return evalMatch(M, V);
        }
        const Expr *V = eval2(Lt->bound());
        if (!V)
          return nullptr;
        if (!spend())
          return nullptr;
        return eval2(substitute(P, Lt->body(), Lt->name(), V));
      }
      if (const auto *A = dyn_cast<AppExpr>(E)) {
        const Expr *F = eval2(A->fn());
        if (!F)
          return nullptr;
        std::vector<const Expr *> Args;
        for (const Expr *Arg : A->args()) {
          const Expr *V = eval2(Arg);
          if (!V)
            return nullptr;
          Args.push_back(V);
        }
        const auto *L = dyn_cast<LamExpr>(F);
        if (!L || L->params().size() != Args.size()) {
          Stuck = true;
          return nullptr;
        }
        if (!spend())
          return nullptr;
        const Expr *Body = L->body();
        for (size_t I = 0; I != Args.size(); ++I)
          Body = substitute(P, Body, L->params()[I], Args[I]);
        return eval2(Body);
      }
      if (const auto *C = dyn_cast<ConExpr>(E)) {
        std::vector<const Expr *> Args;
        for (const Expr *Arg : C->args()) {
          const Expr *V = eval2(Arg);
          if (!V)
            return nullptr;
          Args.push_back(V);
        }
        return B.con(C->ctor(),
                     std::span<const Expr *const>(Args.data(), Args.size()),
                     Symbol(), E->loc());
      }
      return eval(E); // leaves and errors
    }

    const Expr *evalMatch(const MatchExpr *M, const Expr *V) {
      const auto *C = dyn_cast<ConExpr>(V);
      if (!C) {
        Stuck = true;
        return nullptr;
      }
      for (const MatchArm &Arm : M->arms()) {
        bool Hit = false;
        if (Arm.Kind == ArmKind::Ctor)
          Hit = Arm.Ctor == C->ctor();
        else if (Arm.Kind == ArmKind::Default)
          Hit = true;
        if (!Hit)
          continue;
        if (!spend())
          return nullptr;
        // The arm may still name the let-bound scrutinee itself; it is
        // bound to V like any other let (names are unique, so no binder
        // can shadow it).
        const Expr *Body = substitute(P, Arm.Body, M->scrutinee(), V);
        for (size_t I = 0; I != Arm.Binders.size(); ++I)
          Body = substitute(P, Body, Arm.Binders[I], C->args()[I]);
        return eval2(Body);
      }
      Stuck = true;
      return nullptr;
    }
  };

  Interp I(P, Fuel);
  SubstResult R;
  R.Value = I.eval2(E);
  R.OutOfFuel = I.OutOfFuel;
  R.Stuck = I.Stuck;
  return R;
}

bool perceus::valueEquals(const Program &P, const Expr *A, const Expr *B) {
  if (A->kind() != B->kind())
    return false;
  if (const auto *CA = dyn_cast<ConExpr>(A)) {
    const auto *CB = cast<ConExpr>(B);
    if (CA->ctor() != CB->ctor() || CA->args().size() != CB->args().size())
      return false;
    for (size_t I = 0; I != CA->args().size(); ++I)
      if (!valueEquals(P, CA->args()[I], CB->args()[I]))
        return false;
    return true;
  }
  if (const auto *LA = dyn_cast<LitExpr>(A))
    return LA->value() == cast<LitExpr>(B)->value();
  if (const auto *LA = dyn_cast<LamExpr>(A))
    return LA->params().size() == cast<LamExpr>(B)->params().size();
  return true;
}

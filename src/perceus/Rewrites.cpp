//===- perceus/Rewrites.cpp - Reuse, drop specialization and fusion -------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three rewrites that follow insertion, applied where a constructor
/// arm opens (Sections 2.3-2.4, Figure 1e-g):
///
///   * reuse pairing (2.4) turns `drop x` of a matched cell into
///     `val ru = drop-reuse(x)` and hands the token to a same-size
///     constructor allocation in the rest (`Con@ru(...)`); a branch that
///     allocates nothing frees the token;
///   * drop specialization (2.3) inlines `drop x` and `drop-reuse(x)` at
///     the matched constructor into an is-unique test that drops the
///     children and frees (or yields `&x`) on the unique path, and only
///     decrements on the shared one. A plain drop is specialized only
///     where the arm uses a child (the paper skips e.g. the Nil branch);
///   * dup push-down and fusion cancel `dup y; ...; drop y` pairs in
///     straight-line RC chains, push the remaining dups into the branches
///     of a following is-unique test when its unique path drops them (so
///     they cancel there), and sink the others past the test.
///
/// Pairing and specialization run in one post-order walk: an arm pushes
/// its scrutinee's shape on a stack, and a drop is rewritten after its
/// rest, so inner drops pair first (innermost pairing, as in Lean and
/// Koka). Fusion needs the is-unique tests specialization leaves, and it
/// moves dups downward, so it is a second, top-down walk. Both keep their
/// working state in buffers reused across the program.
///
/// The paper's reuse specialization (Section 2.5), which rewrites a
/// same-constructor `Con@ru` to store only its changed fields, is not
/// done: the VM's `ConReuse` writes every field in one dispatch, where a
/// specialized store would be a dispatch of its own (DESIGN.md §3).
///
//===----------------------------------------------------------------------===//

#include "perceus/Pipeline.h"

#include "analysis/VarSet.h"
#include "ir/Builder.h"
#include "ir/Rewrite.h"
#include "support/Casting.h"

#include <vector>

using namespace perceus;

namespace {

/// What an enclosing constructor arm says about its scrutinee.
struct Shape {
  Symbol Var;
  const MatchArm *Arm;
};

/// One straight-line RC instruction of a fusion chain.
struct RcOp {
  ExprKind Kind;
  Symbol Var;
  SourceLoc Loc;
  bool Dead = false;
};

class Rewriter {
public:
  Rewriter(Program &P, const PassConfig &C)
      : P(P), B(P), Reuse(C.EnableReuse), Spec(C.EnableDropSpec),
        Fuse(C.EnableFusion) {}

  void runOnFunction(FuncId F) {
    const Expr *Body = P.function(F).Body;
    if (Reuse || Spec)
      Body = pairAndSpecialize(Body);
    if (Fuse)
      Body = fuse(Body);
    P.setBody(F, Body);
  }

private:
  //===--- Reuse pairing and drop specialization ---------------------------===//

  /// The innermost arm that matched \p X at or above stack index \p Base,
  /// among arms with fields only when \p WithFields.
  const MatchArm *shapeOf(Symbol X, size_t Base, bool WithFields) const {
    for (size_t I = Shapes.size(); I-- > Base;)
      if (Shapes[I].Var == X &&
          (!WithFields || !Shapes[I].Arm->Binders.empty()))
        return Shapes[I].Arm;
    return nullptr;
  }

  const Expr *pairAndSpecialize(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      std::span<const MatchArm> Arms = M->arms();
      const size_t Base = Bodies.size();
      bool Changed = false;
      for (const MatchArm &Arm : Arms) {
        // Inside a constructor arm the scrutinee has a known shape.
        bool Pushed = Arm.Kind == ArmKind::Ctor;
        if (Pushed)
          Shapes.push_back({M->scrutinee(), &Arm});
        const Expr *Body = pairAndSpecialize(Arm.Body);
        if (Pushed)
          Shapes.pop_back();
        Bodies.push_back(Body);
        Changed |= Body != Arm.Body;
      }
      const Expr *Out = E;
      if (Changed) {
        MatchArm *NewArms = P.arena().copyArray(Arms.data(), Arms.size());
        for (size_t I = 0; I != Arms.size(); ++I)
          NewArms[I].Body = Bodies[Base + I];
        Out = P.arena().make<MatchExpr>(
            M->scrutinee(), std::span<const MatchArm>(NewArms, Arms.size()),
            E->loc());
      }
      Bodies.resize(Base);
      return Out;
    }

    case ExprKind::Drop: {
      const auto *D = cast<DropExpr>(E);
      Symbol X = D->var();
      const Expr *Rest = pairAndSpecialize(D->rest());
      const MatchArm *Arm = Reuse ? shapeOf(X, 0, false) : nullptr;
      if (Arm && !Arm->Binders.empty()) {
        uint32_t Arity = P.ctor(Arm->Ctor).Arity;
        Symbol Ru = P.symbols().fresh("ru");
        // Prefer pairing with the same constructor, then any same-size
        // allocation. The order decides which allocation each token goes
        // to: the one that rebuilds the matched cell (Figure 1's `Cons`
        // for `Cons`) before one of another constructor.
        auto [WithToken, Used] =
            attach(Rest, Ru, Arity, Arm->Ctor, /*SameCtorOnly=*/true);
        if (!Used)
          std::tie(WithToken, Used) =
              attach(Rest, Ru, Arity, Arm->Ctor, /*SameCtorOnly=*/false);
        if (Used)
          return dropReuse(X, Ru, WithToken, E->loc());
      }
      Arm = Spec ? shapeOf(X, SpecBase, true) : nullptr;
      if (!Arm || !Arm->BindersUsed)
        return Rest == D->rest() ? E : B.drop(X, Rest, E->loc());
      // if is-unique(x) then { drop children; free x } else decref x
      const Expr *Then = B.freeCell(X, B.unit(E->loc()), E->loc());
      for (size_t I = Arm->Binders.size(); I-- > 0;)
        Then = B.drop(Arm->Binders[I], Then, E->loc());
      const Expr *Else = B.decref(X, B.unit(E->loc()), E->loc());
      return B.seq(B.isUnique(X, Then, Else, E->loc()), Rest, E->loc());
    }

    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      const Expr *Rest = pairAndSpecialize(D->rest());
      if (Rest == D->rest() && !(Spec && shapeOf(D->var(), SpecBase, true)))
        return E;
      return dropReuse(D->var(), D->token(), Rest, E->loc());
    }

    case ExprKind::Lam: {
      // A lambda body runs in its own activation: the enclosing arms'
      // binders are not in scope there, so specialization must not use
      // their shapes. A token may still pair inside the body.
      size_t Saved = SpecBase;
      SpecBase = Shapes.size();
      const Expr *Out = mapChildren(
          B, E, [&](const Expr *C) { return pairAndSpecialize(C); });
      SpecBase = Saved;
      return Out;
    }

    default:
      return mapChildren(
          B, E, [&](const Expr *C) { return pairAndSpecialize(C); });
    }
  }

  /// `val ru = drop-reuse(x); rest`, specialized when an enclosing arm
  /// matched x:
  ///   val ru = if is-unique(x) then { drop children; &x }
  ///            else { decref x; NULL }
  const Expr *dropReuse(Symbol X, Symbol Ru, const Expr *Rest, SourceLoc L) {
    const MatchArm *Arm = Spec ? shapeOf(X, SpecBase, true) : nullptr;
    if (!Arm)
      return B.dropReuse(X, Ru, Rest, L);
    const Expr *Then = B.reuseAddr(X, L);
    for (size_t I = Arm->Binders.size(); I-- > 0;)
      Then = B.drop(Arm->Binders[I], Then, L);
    const Expr *Else = B.decref(X, B.nullToken(L), L);
    return B.let(Ru, B.isUnique(X, Then, Else, L), Rest, L);
  }

  /// Tries to attach reuse token \p Ru to a constructor allocation of
  /// arity \p Arity along every path of \p E. Branches without a use get
  /// an explicit `free ru` so the token cannot leak. Returns the new
  /// expression and whether the token was consumed (on all paths). An
  /// is-unique test that specialization left holds no allocation.
  std::pair<const Expr *, bool> attach(const Expr *E, Symbol Ru,
                                       uint32_t Arity, CtorId Origin,
                                       bool SameCtorOnly) {
    auto inArgs = [&](std::span<const Expr *const> Args, auto Rebuild)
        -> std::pair<const Expr *, bool> {
      for (size_t I = 0; I != Args.size(); ++I) {
        auto [NewArg, Used] = attach(Args[I], Ru, Arity, Origin, SameCtorOnly);
        if (!Used)
          continue;
        const Expr **Copy = P.arena().allocateArray<const Expr *>(Args.size());
        std::copy(Args.begin(), Args.end(), Copy);
        Copy[I] = NewArg;
        return {Rebuild(std::span<const Expr *const>(Copy, Args.size())),
                true};
      }
      return {E, false};
    };
    switch (E->kind()) {
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      // The cell itself is allocated after its arguments, but pairing
      // with the outermost eligible allocation keeps same-constructor
      // pairing stable under nesting (bal-left), so try self first.
      if (!C->hasReuseToken() && P.ctor(C->ctor()).Arity == Arity &&
          (!SameCtorOnly || C->ctor() == Origin))
        return {B.con(C->ctor(), C->args(), Ru, E->loc()), true};
      return inArgs(C->args(), [&](std::span<const Expr *const> Args) {
        return P.arena().make<ConExpr>(C->ctor(), Args, C->reuseToken(),
                                       E->loc());
      });
    }

    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      return inArgs(A->args(), [&](std::span<const Expr *const> Args) {
        return P.arena().make<AppExpr>(A->fn(), Args, E->loc());
      });
    }

    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      return inArgs(Pr->args(), [&](std::span<const Expr *const> Args) {
        return P.arena().make<PrimExpr>(Pr->op(), Args, E->loc());
      });
    }

    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      auto [Bound, UsedB] =
          attach(L->bound(), Ru, Arity, Origin, SameCtorOnly);
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
    case ExprKind::DecRef:
    case ExprKind::DropReuse: {
      const Expr *Rest = isa<RcStmtExpr>(E)
                             ? cast<RcStmtExpr>(E)->rest()
                             : cast<DropReuseExpr>(E)->rest();
      auto [NewRest, Used] = attach(Rest, Ru, Arity, Origin, SameCtorOnly);
      if (!Used)
        return {E, false};
      return {mapChildren(B, E, [&](const Expr *) { return NewRest; }), true};
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
      std::span<const MatchArm> Arms = M->arms();
      MatchArm *NewArms = nullptr;
      for (size_t I = 0; I != Arms.size(); ++I) {
        auto [Body, Used] =
            attach(Arms[I].Body, Ru, Arity, Origin, SameCtorOnly);
        if (Used && !NewArms) {
          NewArms = P.arena().copyArray(Arms.data(), Arms.size());
          for (size_t J = 0; J != I; ++J)
            NewArms[J].Body = B.freeCell(Ru, Arms[J].Body, E->loc());
        }
        if (NewArms)
          NewArms[I].Body = Used ? Body : B.freeCell(Ru, Body, E->loc());
      }
      if (!NewArms)
        return {E, false};
      return {P.arena().make<MatchExpr>(
                  M->scrutinee(),
                  std::span<const MatchArm>(NewArms, Arms.size()), E->loc()),
              true};
    }

    default:
      // Leaves, lambdas (the token must not escape into a closure), and
      // token forms: no attachment here.
      return {E, false};
    }
  }

  //===--- Dup push-down and fusion ----------------------------------------===//

  /// Fuses the RC chain that opens \p E and everything below it. The
  /// chain's ops live in Ops from index Base on while this call runs.
  const Expr *fuse(const Expr *E) {
    // 1. Collect the maximal leading chain of RC statements.
    const size_t Base = Ops.size();
    const Expr *Tail = E;
    while (const auto *R = dyn_cast<RcStmtExpr>(Tail)) {
      Ops.push_back({Tail->kind(), R->var(), Tail->loc()});
      Tail = R->rest();
    }

    // 2. Cancel dup/drop pairs: each drop matches the earliest preceding
    // unmatched dup of the same variable.
    for (size_t J = Base; J != Ops.size(); ++J) {
      if (Ops[J].Kind != ExprKind::Drop)
        continue;
      for (size_t I = Base; I != J; ++I) {
        if (Ops[I].Dead || Ops[I].Kind != ExprKind::Dup ||
            Ops[I].Var != Ops[J].Var)
          continue;
        Ops[I].Dead = Ops[J].Dead = true;
        break;
      }
    }
    size_t End = Base;
    for (size_t I = Base; I != Ops.size(); ++I)
      if (!Ops[I].Dead)
        Ops[End++] = Ops[I];
    Ops.resize(End);

    // 3. Dispatch on the tail form.
    const IsUniqueExpr *Uniq = nullptr;
    const Expr *Continuation = nullptr; // nullptr: no continuation
    const auto *S = dyn_cast<SeqExpr>(Tail);
    const auto *L = dyn_cast<LetExpr>(Tail);
    if (S)
      Uniq = dyn_cast<IsUniqueExpr>(S->first());
    else if (L)
      Uniq = dyn_cast<IsUniqueExpr>(L->bound());
    else
      Uniq = dyn_cast<IsUniqueExpr>(Tail);
    if (Uniq && S)
      Continuation = S->second();
    else if (Uniq && L)
      Continuation = L->body();

    const Expr *NewTail;
    if (Uniq) {
      // Variables the unique path drops: dups of those are pushed into
      // both branches so they cancel on the fast path; other dups sink
      // past the test toward their consumer when it has a continuation.
      VarSet ThenDrops;
      for (const Expr *T = Uniq->thenExpr(); isa<RcStmtExpr>(T);
           T = cast<RcStmtExpr>(T)->rest())
        if (T->kind() == ExprKind::Drop)
          ThenDrops.insert(cast<RcStmtExpr>(T)->var());
      enum Place { Stay, Push, Sink };
      auto placeOf = [&](const RcOp &Op) {
        if (Op.Kind != ExprKind::Dup || Op.Var == Uniq->var())
          return Stay;
        if (ThenDrops.contains(Op.Var) || !Continuation)
          return Push;
        return Sink;
      };
      // Push ops go to [End, PushEnd), sink ops to [PushEnd, SinkEnd),
      // and the ops that stay are compacted to [Base, StayEnd).
      for (Place Want : {Push, Sink})
        for (size_t I = Base; I != End; ++I)
          if (placeOf(Ops[I]) == Want)
            Ops.push_back(Ops[I]);
      const size_t SinkEnd = Ops.size();
      size_t PushEnd = End;
      while (PushEnd != SinkEnd && placeOf(Ops[PushEnd]) == Push)
        ++PushEnd;
      size_t StayEnd = Base;
      for (size_t I = Base; I != End; ++I)
        if (placeOf(Ops[I]) == Stay)
          Ops[StayEnd++] = Ops[I];

      const Expr *Then = fuse(wrap(End, PushEnd, Uniq->thenExpr()));
      const Expr *Else = fuse(wrap(End, PushEnd, Uniq->elseExpr()));
      const Expr *NewUniq = B.isUnique(Uniq->var(), Then, Else, Uniq->loc());
      if (S)
        NewTail = B.seq(NewUniq, fuse(wrap(PushEnd, SinkEnd, Continuation)),
                        Tail->loc());
      else if (L)
        NewTail = B.let(L->name(), NewUniq,
                        fuse(wrap(PushEnd, SinkEnd, Continuation)),
                        Tail->loc());
      else
        NewTail = NewUniq;
      End = StayEnd;
    } else {
      NewTail = mapChildren(B, Tail, [&](const Expr *C) { return fuse(C); });
    }

    const Expr *Out = wrap(Base, End, NewTail);
    Ops.resize(Base);
    return Out;
  }

  /// Wraps Ops[From, To) (in order) around \p Rest.
  const Expr *wrap(size_t From, size_t To, const Expr *Rest) {
    const Expr *Out = Rest;
    for (size_t I = To; I-- > From;) {
      const RcOp &Op = Ops[I];
      switch (Op.Kind) {
      case ExprKind::Dup:
        Out = B.dup(Op.Var, Out, Op.Loc);
        break;
      case ExprKind::Drop:
        Out = B.drop(Op.Var, Out, Op.Loc);
        break;
      case ExprKind::Free:
        Out = B.freeCell(Op.Var, Out, Op.Loc);
        break;
      default:
        Out = B.decref(Op.Var, Out, Op.Loc);
        break;
      }
    }
    return Out;
  }

  Program &P;
  IRBuilder B;
  bool Reuse, Spec, Fuse;
  std::vector<Shape> Shapes;        ///< enclosing constructor arms
  size_t SpecBase = 0;              ///< first shape specialization may use
  std::vector<const Expr *> Bodies; ///< rewritten arm bodies, a stack
  std::vector<RcOp> Ops;            ///< fusion chains, a stack
};

} // namespace

void perceus::runRewrites(Program &P, const PassConfig &Config) {
  Rewriter R(P, Config);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    R.runOnFunction(F);
}

void perceus::runRewrites(Program &P, FuncId F, const PassConfig &Config) {
  Rewriter(P, Config).runOnFunction(F);
}

//===- analysis/ImmediateAnalysis.cpp - Static immediacy proofs ----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ImmediateAnalysis.h"

#include "support/Casting.h"

#include <unordered_map>

using namespace perceus;

namespace {

/// The two-point lattice: true = proven immediate, false = unknown.
/// Meet is logical AND; the fixpoint starts optimistic (all true) and
/// facts only ever fall, so termination is by bit count.
class Analyzer {
public:
  explicit Analyzer(const Program &P) : P(P) {
    FieldImm.resize(P.numCtors());
    for (CtorId C = 0; C != P.numCtors(); ++C)
      FieldImm[C].assign(P.ctor(C).Arity, true);
    ParamImm.resize(P.numFunctions());
    RetImm.assign(P.numFunctions(), true);
    for (FuncId F = 0; F != P.numFunctions(); ++F)
      ParamImm[F].assign(P.function(F).Params.size(), true);
    findEscapingFunctions();
  }

  ImmediateInfo run() {
    ImmediateInfo Info;
    do {
      Changed = false;
      ++Info.Rounds;
      for (FuncId F = 0; F != P.numFunctions(); ++F)
        analyzeFunction(F);
    } while (Changed);

    // One more pass with the converged facts to mark elidable RC ops.
    // A node shared between several contexts is marked only if every
    // visit proves its operand immediate (meet across visits).
    Marking = true;
    for (FuncId F = 0; F != P.numFunctions(); ++F)
      analyzeFunction(F);
    for (const auto &[E, Imm] : Marks)
      if (Imm)
        Info.ElidableRcOps.insert(E);

    Info.ParamImmMask.assign(P.numFunctions(), 0);
    for (FuncId F = 0; F != P.numFunctions(); ++F)
      for (size_t I = 0; I != ParamImm[F].size() && I != 32; ++I)
        if (ParamImm[F][I])
          Info.ParamImmMask[F] |= 1u << I;
    return Info;
  }

private:
  /// A function whose reference is used as a value (not the callee of a
  /// direct full-arity call) can be invoked through any closure call
  /// site, so its parameters get no assumptions.
  void findEscapingFunctions() {
    Escapes.assign(P.numFunctions(), false);
    for (FuncId F = 0; F != P.numFunctions(); ++F)
      if (P.function(F).Body)
        scanEscapes(P.function(F).Body);
    for (FuncId F = 0; F != P.numFunctions(); ++F)
      if (Escapes[F]) {
        ParamImm[F].assign(ParamImm[F].size(), false);
        RetImm[F] = false;
      }
  }

  void scanEscapes(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Var:
    case ExprKind::NullToken:
    case ExprKind::ReuseAddr:
    case ExprKind::TokenValue:
      return;
    case ExprKind::Global:
      Escapes[cast<GlobalExpr>(E)->func()] = true;
      return;
    case ExprKind::Lam:
      scanEscapes(cast<LamExpr>(E)->body());
      return;
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      const auto *G = dyn_cast<GlobalExpr>(A->fn());
      // The callee of a direct full-arity call does not escape.
      if (!G || P.function(G->func()).Params.size() != A->args().size())
        scanEscapes(A->fn());
      for (const Expr *Arg : A->args())
        scanEscapes(Arg);
      return;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      scanEscapes(L->bound());
      scanEscapes(L->body());
      return;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      scanEscapes(S->first());
      scanEscapes(S->second());
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      scanEscapes(I->cond());
      scanEscapes(I->thenExpr());
      scanEscapes(I->elseExpr());
      return;
    }
    case ExprKind::Match:
      for (const MatchArm &Arm : cast<MatchExpr>(E)->arms())
        scanEscapes(Arm.Body);
      return;
    case ExprKind::Con:
      for (const Expr *Arg : cast<ConExpr>(E)->args())
        scanEscapes(Arg);
      return;
    case ExprKind::Prim:
      for (const Expr *Arg : cast<PrimExpr>(E)->args())
        scanEscapes(Arg);
      return;
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef:
      scanEscapes(cast<RcStmtExpr>(E)->rest());
      return;
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(E);
      scanEscapes(U->thenExpr());
      scanEscapes(U->elseExpr());
      return;
    }
    case ExprKind::DropReuse:
      scanEscapes(cast<DropReuseExpr>(E)->rest());
      return;
    case ExprKind::IsNullToken: {
      const auto *T = cast<IsNullTokenExpr>(E);
      scanEscapes(T->thenExpr());
      scanEscapes(T->elseExpr());
      return;
    }
    case ExprKind::SetField: {
      const auto *S = cast<SetFieldExpr>(E);
      scanEscapes(S->value());
      scanEscapes(S->rest());
      return;
    }
    }
  }

  void analyzeFunction(FuncId F) {
    const FunctionDecl &Fn = P.function(F);
    if (!Fn.Body)
      return;
    Env.assign(P.symbols().size(), Unbound);
    for (size_t I = 0; I != Fn.Params.size(); ++I)
      Env[Fn.Params[I].id()] = ParamImm[F][I] ? Immediate : Unknown;
    bool R = eval(Fn.Body);
    constrainRet(F, R);
  }

  void constrainField(CtorId C, uint32_t I, bool V) {
    if (!V && I < FieldImm[C].size() && FieldImm[C][I]) {
      FieldImm[C][I] = false;
      Changed = true;
    }
  }

  void constrainParam(FuncId F, size_t I, bool V) {
    if (!V && I < ParamImm[F].size() && ParamImm[F][I]) {
      ParamImm[F][I] = false;
      Changed = true;
    }
  }

  void constrainRet(FuncId F, bool V) {
    if (!V && RetImm[F]) {
      RetImm[F] = false;
      Changed = true;
    }
  }

  void bind(Symbol S, bool V) {
    // Binders are alpha-renamed unique, but rewritten trees may share
    // subtrees; meet across rebinds so sharing can only lose precision.
    char &Slot = Env[S.id()];
    if (Slot == Unbound || !V)
      Slot = V ? Immediate : Unknown;
  }

  bool lookup(Symbol S) const { return Env[S.id()] == Immediate; }

  /// Evaluates \p E to its immediacy, applying constraints along the way.
  bool eval(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lit:
      return true;
    case ExprKind::Var:
      return lookup(cast<VarExpr>(E)->name());
    case ExprKind::Global:
      return true; // FnRef: a static, non-heap value.
    case ExprKind::Lam: {
      // Analyze the body at the creation site: captures keep the
      // immediacy they have here (the closure snapshots these values),
      // parameters get no assumptions (any call site may invoke it).
      const auto *L = cast<LamExpr>(E);
      for (Symbol Param : L->params())
        bind(Param, false);
      eval(L->body());
      return false; // the closure itself is a heap cell
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      const auto *G = dyn_cast<GlobalExpr>(A->fn());
      if (G && P.function(G->func()).Params.size() == A->args().size()) {
        for (size_t I = 0; I != A->args().size(); ++I)
          constrainParam(G->func(), I, eval(A->args()[I]));
        return RetImm[G->func()];
      }
      eval(A->fn());
      for (const Expr *Arg : A->args())
        eval(Arg);
      return false;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      bind(L->name(), eval(L->bound()));
      return eval(L->body());
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      eval(S->first());
      return eval(S->second());
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      eval(I->cond());
      bool T = eval(I->thenExpr());
      bool F = eval(I->elseExpr());
      return T && F;
    }
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      bool R = true;
      for (const MatchArm &Arm : M->arms()) {
        if (Arm.Kind == ArmKind::Ctor)
          for (size_t I = 0; I != Arm.Binders.size(); ++I)
            bind(Arm.Binders[I], I < FieldImm[Arm.Ctor].size() &&
                                     FieldImm[Arm.Ctor][I]);
        R = eval(Arm.Body) && R;
      }
      return R;
    }
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      const CtorDecl &D = P.ctor(C->ctor());
      for (size_t I = 0; I != C->args().size(); ++I)
        constrainField(C->ctor(), static_cast<uint32_t>(I),
                       eval(C->args()[I]));
      return D.isEnumLike(); // nullary ctors are unboxed immediates
    }
    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      for (const Expr *Arg : Pr->args())
        eval(Arg);
      switch (Pr->op()) {
      case PrimOp::RefNew:
      case PrimOp::RefGet:
        return false;
      default:
        return true; // ints, bools, unit
      }
    }
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::DecRef: {
      const auto *S = cast<RcStmtExpr>(E);
      if (Marking) {
        bool Imm = lookup(S->var());
        auto It = Marks.find(E);
        if (It == Marks.end())
          Marks.emplace(E, Imm);
        else
          It->second = It->second && Imm;
      }
      return eval(S->rest());
    }
    case ExprKind::Free:
      // Never elidable: disposes a real cell's memory.
      return eval(cast<RcStmtExpr>(E)->rest());
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(E);
      bool T = eval(U->thenExpr());
      bool F = eval(U->elseExpr());
      return T && F;
    }
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      bind(D->token(), false);
      return eval(D->rest());
    }
    case ExprKind::ReuseAddr:
    case ExprKind::NullToken:
      return false; // tokens are not immediates
    case ExprKind::IsNullToken: {
      const auto *T = cast<IsNullTokenExpr>(E);
      bool A = eval(T->thenExpr());
      bool B = eval(T->elseExpr());
      return A && B;
    }
    case ExprKind::SetField: {
      const auto *S = cast<SetFieldExpr>(E);
      bool V = eval(S->value());
      // The token's eventual constructor is not statically known here:
      // join the write into this field index of every ctor that has it.
      for (CtorId C = 0; C != P.numCtors(); ++C)
        constrainField(C, S->index(), V);
      return eval(S->rest());
    }
    case ExprKind::TokenValue: {
      // A reused cell keeps the unwritten fields of the same-arity cell
      // the token came from, so this ctor's field facts must cover every
      // arity-equal ctor's.
      const auto *T = cast<TokenValueExpr>(E);
      const CtorDecl &D = P.ctor(T->ctor());
      for (CtorId C = 0; C != P.numCtors(); ++C)
        if (C != T->ctor() && P.ctor(C).Arity == D.Arity)
          for (uint32_t I = 0; I != D.Arity; ++I)
            constrainField(T->ctor(), I, FieldImm[C][I]);
      return false;
    }
    }
    return false;
  }

  const Program &P;
  std::vector<std::vector<char>> FieldImm;
  std::vector<std::vector<char>> ParamImm;
  std::vector<char> RetImm;
  std::vector<char> Escapes;
  /// Per function: each symbol's immediacy, indexed by symbol id (the
  /// program's symbols are all minted before the analysis runs).
  enum : char { Unbound, Unknown, Immediate };
  std::vector<char> Env;
  std::unordered_map<const Expr *, bool> Marks;
  bool Changed = false;
  bool Marking = false;
};

} // namespace

ImmediateInfo perceus::analyzeImmediates(const Program &P) {
  return Analyzer(P).run();
}

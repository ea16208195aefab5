//===- analysis/Verifier.cpp - IR well-formedness checks -------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"

#include "analysis/FreeVars.h"
#include "support/Casting.h"

#include <unordered_set>

using namespace perceus;

namespace {

class VerifierImpl {
public:
  VerifierImpl(const Program &P) : P(P) {}

  std::vector<std::string> Errors;

  void error(std::string Msg) { Errors.push_back(std::move(Msg)); }

  std::string name(Symbol S) const {
    return S.isValid() ? std::string(P.symbols().name(S)) : "<invalid>";
  }

  void bind(Symbol X, VarSet &Scope) {
    if (!X.isValid()) {
      error("invalid binder symbol");
      return;
    }
    if (!AllBinders.insert(X).second)
      error("binder '" + name(X) + "' is bound more than once in the program "
            "(alpha-renaming invariant violated)");
    Scope.insert(X);
  }

  void checkUse(Symbol X, const VarSet &Scope, const char *What) {
    if (!Scope.contains(X))
      error(std::string(What) + " of out-of-scope variable '" + name(X) + "'");
  }

  void checkExpr(const Expr *E, VarSet Scope) {
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::NullToken:
      return;
    case ExprKind::Var:
      checkUse(cast<VarExpr>(E)->name(), Scope, "use");
      return;
    case ExprKind::Global: {
      FuncId F = cast<GlobalExpr>(E)->func();
      if (F >= P.numFunctions())
        error("reference to unknown function id " + std::to_string(F));
      return;
    }
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      // The capture list must be exactly the free variables of the lambda.
      VarSet BodyFree = FV.freeVars(L->body());
      for (Symbol Pm : L->params())
        BodyFree.erase(Pm);
      VarSet Caps;
      for (Symbol C : L->captures()) {
        Caps.insert(C);
        checkUse(C, Scope, "capture");
      }
      if (!(Caps == BodyFree))
        error("lambda capture list does not equal its free variables");
      VarSet Inner;
      for (Symbol C : L->captures())
        Inner.insert(C); // captures were bound at their origin
      for (Symbol Pm : L->params())
        bind(Pm, Inner);
      checkExpr(L->body(), Inner);
      return;
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      checkExpr(A->fn(), Scope);
      for (const Expr *Arg : A->args())
        checkExpr(Arg, Scope);
      return;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      checkExpr(L->bound(), Scope);
      bind(L->name(), Scope);
      checkExpr(L->body(), Scope);
      return;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      checkExpr(S->first(), Scope);
      checkExpr(S->second(), Scope);
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      checkExpr(I->cond(), Scope);
      checkExpr(I->thenExpr(), Scope);
      checkExpr(I->elseExpr(), Scope);
      return;
    }
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      checkUse(M->scrutinee(), Scope, "match");
      if (M->arms().empty())
        error("match with no arms");
      unsigned NumDefaults = 0;
      uint32_t DataId = InvalidId;
      for (const MatchArm &Arm : M->arms()) {
        VarSet ArmScope = Scope;
        switch (Arm.Kind) {
        case ArmKind::Ctor: {
          if (Arm.Ctor >= P.numCtors()) {
            error("match arm on unknown constructor");
            break;
          }
          const CtorDecl &C = P.ctor(Arm.Ctor);
          if (Arm.Binders.size() != C.Arity)
            error("pattern arity mismatch for constructor '" + name(C.Name) +
                  "'");
          if (DataId == InvalidId)
            DataId = C.DataId;
          else if (DataId != C.DataId)
            error("match arms mix constructors of different data types");
          for (Symbol B : Arm.Binders)
            bind(B, ArmScope);
          break;
        }
        case ArmKind::IntLit:
        case ArmKind::BoolLit:
          break;
        case ArmKind::Default:
          ++NumDefaults;
          break;
        }
        checkExpr(Arm.Body, ArmScope);
      }
      if (NumDefaults > 1)
        error("match with multiple default arms");
      return;
    }
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      if (C->ctor() >= P.numCtors()) {
        error("unknown constructor in Con");
        return;
      }
      const CtorDecl &D = P.ctor(C->ctor());
      if (C->args().size() != D.Arity)
        error("constructor arity mismatch for '" + name(D.Name) + "'");
      if (C->hasReuseToken()) {
        if (D.isEnumLike())
          error("reuse token on enum-like constructor '" + name(D.Name) + "'");
        checkUse(C->reuseToken(), Scope, "reuse-token use");
      }
      for (const Expr *Arg : C->args())
        checkExpr(Arg, Scope);
      return;
    }
    case ExprKind::Prim: {
      for (const Expr *Arg : cast<PrimExpr>(E)->args())
        checkExpr(Arg, Scope);
      return;
    }
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef: {
      const auto *R = cast<RcStmtExpr>(E);
      checkUse(R->var(), Scope, "rc operation");
      checkExpr(R->rest(), Scope);
      return;
    }
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(E);
      checkUse(U->var(), Scope, "is-unique");
      checkExpr(U->thenExpr(), Scope);
      checkExpr(U->elseExpr(), Scope);
      return;
    }
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      checkUse(D->var(), Scope, "drop-reuse");
      bind(D->token(), Scope);
      checkExpr(D->rest(), Scope);
      return;
    }
    case ExprKind::ReuseAddr:
      checkUse(cast<ReuseAddrExpr>(E)->var(), Scope, "reuse-addr");
      return;
    }
  }

  void checkFunction(FuncId F) {
    const FunctionDecl &Fn = P.function(F);
    if (!Fn.Body) {
      error("function '" + name(Fn.Name) + "' has no body");
      return;
    }
    VarSet Scope;
    for (Symbol Pm : Fn.Params)
      bind(Pm, Scope);
    checkExpr(Fn.Body, Scope);
  }

private:
  const Program &P;
  FreeVarAnalysis FV; // one memo for all lambdas, nested ones included
  std::unordered_set<Symbol> AllBinders;
};

} // namespace

std::vector<std::string> perceus::verifyProgram(const Program &P) {
  VerifierImpl V(P);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    V.checkFunction(F);
  return std::move(V.Errors);
}

std::vector<std::string> perceus::verifyFunction(const Program &P, FuncId F) {
  VerifierImpl V(P);
  V.checkFunction(F);
  return std::move(V.Errors);
}

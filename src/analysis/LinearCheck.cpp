//===- analysis/LinearCheck.cpp - Linear ownership verification ------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LinearCheck.h"

#include "support/Casting.h"

#include <map>

using namespace perceus;

namespace {

/// Per-variable ownership state.
struct VarState {
  int Credits = 0;      ///< Owned references currently held.
  bool Borrowed = false; ///< Alive through an enclosing owner (match binder).
  bool Dead = false;     ///< No longer usable.
  bool IsToken = false;  ///< Reuse token: excluded from strict accounting.
  Symbol Parent;         ///< For binders: the scrutinee they project from.
};

/// Ordered map keyed by symbol id for deterministic error messages and
/// cheap whole-environment comparison at merge points.
using Env = std::map<Symbol, VarState>;

class LinearChecker {
public:
  LinearChecker(const Program &P, const BorrowSignatures *Borrow)
      : P(P), Borrow(Borrow) {}

  std::vector<std::string> Errors;

  std::string name(Symbol S) const { return std::string(P.symbols().name(S)); }

  void error(const std::string &Msg) {
    // Cap noise: one function can trip many cascading errors.
    if (Errors.size() < 64)
      Errors.push_back(Where + ": " + Msg);
  }

  bool alive(Env &E, Symbol X) {
    auto It = E.find(X);
    if (It == E.end())
      return false;
    const VarState &S = It->second;
    return !S.Dead && (S.Credits > 0 || S.Borrowed);
  }

  /// Marks \p X dead and revokes the borrows of its pattern binders.
  /// If \p TransferToChildren, each live binder of \p X inherits one
  /// credit (the semantics of `free`/`&x`).
  void die(Env &E, Symbol X, bool TransferToChildren) {
    auto It = E.find(X);
    if (It != E.end())
      It->second.Dead = true;
    for (auto &[Sym, S] : E) {
      if (S.Parent != X || !S.Borrowed)
        continue;
      S.Borrowed = false;
      if (TransferToChildren)
        S.Credits += 1;
      else if (S.Credits == 0)
        die(E, Sym, false);
    }
  }

  /// Consumes one owned credit of \p X via operation \p What.
  void consume(Env &E, Symbol X, const char *What,
               bool TransferToChildren = false) {
    auto It = E.find(X);
    if (It == E.end()) {
      error(std::string(What) + " of unbound variable '" + name(X) + "'");
      return;
    }
    VarState &S = It->second;
    if (S.Dead) {
      error(std::string(What) + " of dead variable '" + name(X) + "'");
      return;
    }
    if (S.Credits <= 0) {
      error(std::string(What) + " of variable '" + name(X) +
            "' without an owned reference");
      return;
    }
    S.Credits -= 1;
    if (S.Credits == 0 && !S.Borrowed)
      die(E, X, TransferToChildren);
    else if (TransferToChildren)
      error(std::string(What) + " on non-uniquely-owned '" + name(X) + "'");
  }

  void bind(Env &E, Symbol X, VarState S) { E[X] = S; }

  /// Checks \p A and \p B agree (the two sides of a branch merge).
  void requireMergeable(const Env &A, const Env &B, const char *What) {
    auto AI = A.begin();
    auto BI = B.begin();
    while (AI != A.end() && BI != B.end()) {
      if (AI->first != BI->first) {
        // A variable bound in only one branch (e.g. a token) is fine as
        // long as it carries no owned credits.
        const auto &[Sym, S] =
            (AI->first < BI->first) ? *AI : *BI;
        if (S.Credits != 0 && !S.IsToken)
          error(std::string(What) + ": variable '" + name(Sym) +
                "' owned on only one branch");
        (AI->first < BI->first) ? (void)++AI : (void)++BI;
        continue;
      }
      if (!AI->second.IsToken &&
          (AI->second.Credits != BI->second.Credits ||
           AI->second.Dead != BI->second.Dead))
        error(std::string(What) + ": branches disagree on ownership of '" +
              name(AI->first) + "' (" + std::to_string(AI->second.Credits) +
              (AI->second.Dead ? " dead" : "") + " vs " +
              std::to_string(BI->second.Credits) +
              (BI->second.Dead ? " dead" : "") + ")");
      ++AI;
      ++BI;
    }
    for (; AI != A.end(); ++AI)
      if (AI->second.Credits != 0 && !AI->second.IsToken)
        error(std::string(What) + ": variable '" + name(AI->first) +
              "' owned on only one branch");
    for (; BI != B.end(); ++BI)
      if (BI->second.Credits != 0 && !BI->second.IsToken)
        error(std::string(What) + ": variable '" + name(BI->first) +
              "' owned on only one branch");
  }

  /// Walks \p Ex in evaluation order, consuming from \p E.
  ///
  /// \p UniqueCtx names the variable tested by an enclosing
  /// `is-unique` whose then-branch we are inside (through a chain of RC
  /// statements only). On that unique path, dropping a borrowed,
  /// zero-credit binder of UniqueCtx is legal: it consumes the parent's
  /// field reference ahead of the `free`/`&x` (drop specialization,
  /// Section 2.3).
  void check(const Expr *Ex, Env &E, Symbol UniqueCtx = Symbol()) {
    switch (Ex->kind()) {
    case ExprKind::Lit:
    case ExprKind::Global:
    case ExprKind::NullToken:
      return;
    case ExprKind::Var:
      consume(E, cast<VarExpr>(Ex)->name(), "use");
      return;
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(Ex);
      // The closure takes ownership of each captured reference.
      for (Symbol C : L->captures())
        consume(E, C, "capture");
      // The body runs later in a fresh environment owning captures+params.
      Env Inner;
      for (Symbol C : L->captures()) {
        VarState S;
        S.Credits += 1;
        auto It = Inner.find(C);
        if (It != Inner.end())
          It->second.Credits += 1; // multiset captures
        else
          Inner[C] = S;
      }
      for (Symbol Pm : L->params()) {
        VarState S;
        S.Credits = 1;
        Inner[Pm] = S;
      }
      check(L->body(), Inner);
      requireAllConsumed(Inner, "lambda body");
      return;
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(Ex);
      check(A->fn(), E);
      const auto *G = dyn_cast<GlobalExpr>(A->fn());
      for (size_t I = 0; I != A->args().size(); ++I) {
        const Expr *Arg = A->args()[I];
        // A variable at a borrowed position is lent, not consumed.
        if (Borrow && G && I < (*Borrow)[G->func()].size() &&
            (*Borrow)[G->func()][I]) {
          if (const auto *V = dyn_cast<VarExpr>(Arg)) {
            if (!alive(E, V->name()))
              error("borrowed argument '" + name(V->name()) +
                    "' is dead or unbound");
            continue;
          }
        }
        check(Arg, E);
      }
      return;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(Ex);
      check(L->bound(), E);
      VarState S;
      S.Credits = 1;
      bind(E, L->name(), S);
      check(L->body(), E);
      return;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(Ex);
      check(S->first(), E);
      check(S->second(), E);
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(Ex);
      check(I->cond(), E);
      Env ElseEnv = E;
      check(I->thenExpr(), E);
      check(I->elseExpr(), ElseEnv);
      requireMergeable(E, ElseEnv, "if");
      return;
    }
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(Ex);
      Symbol X = M->scrutinee();
      if (!alive(E, X))
        error("match on dead or unbound variable '" + name(X) + "'");
      bool First = true;
      Env Merged;
      for (const MatchArm &Arm : M->arms()) {
        Env ArmEnv = E;
        for (Symbol B : Arm.Binders) {
          VarState S;
          S.Borrowed = true;
          S.Parent = X;
          bind(ArmEnv, B, S);
        }
        check(Arm.Body, ArmEnv);
        // Binders must not carry credits out of their scope.
        for (Symbol B : Arm.Binders) {
          auto It = ArmEnv.find(B);
          if (It != ArmEnv.end()) {
            if (It->second.Credits != 0)
              error("match binder '" + name(B) +
                    "' leaks an owned reference");
            ArmEnv.erase(It);
          }
        }
        if (First) {
          Merged = std::move(ArmEnv);
          First = false;
        } else {
          requireMergeable(Merged, ArmEnv, "match");
        }
      }
      if (!First)
        E = std::move(Merged);
      return;
    }
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(Ex);
      for (const Expr *Arg : C->args())
        check(Arg, E);
      // `Con@ru` consumes the reuse token (fresh-allocating when null).
      if (C->hasReuseToken())
        consume(E, C->reuseToken(), "constructor reuse");
      return;
    }
    case ExprKind::Prim: {
      for (const Expr *Arg : cast<PrimExpr>(Ex)->args())
        check(Arg, E);
      return;
    }
    case ExprKind::Dup: {
      const auto *D = cast<DupExpr>(Ex);
      Symbol X = D->var();
      auto It = E.find(X);
      if (It == E.end() || (It->second.Dead) ||
          (It->second.Credits == 0 && !It->second.Borrowed))
        error("dup of dead or unbound variable '" + name(X) + "'");
      else if (!It->second.IsToken)
        It->second.Credits += 1;
      check(D->rest(), E, UniqueCtx);
      return;
    }
    case ExprKind::Drop: {
      Symbol X = cast<DropExpr>(Ex)->var();
      auto It = E.find(X);
      if (UniqueCtx.isValid() && It != E.end() && It->second.Borrowed &&
          It->second.Credits == 0 && It->second.Parent == UniqueCtx) {
        // Unique path: this drop releases the freed parent's field
        // reference; the binder is spent.
        It->second.Borrowed = false;
        It->second.Dead = true;
      } else {
        consume(E, X, "drop");
      }
      check(cast<DropExpr>(Ex)->rest(), E, UniqueCtx);
      return;
    }
    case ExprKind::DecRef:
      consume(E, cast<DecRefExpr>(Ex)->var(), "decref");
      check(cast<DecRefExpr>(Ex)->rest(), E, UniqueCtx);
      return;
    case ExprKind::Free:
      // Releases the cell only; field ownership transfers to the binders.
      consume(E, cast<FreeExpr>(Ex)->var(), "free",
              /*TransferToChildren=*/true);
      check(cast<FreeExpr>(Ex)->rest(), E, UniqueCtx);
      return;
    case ExprKind::ReuseAddr:
      consume(E, cast<ReuseAddrExpr>(Ex)->var(), "reuse-addr",
              /*TransferToChildren=*/true);
      return;
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(Ex);
      consume(E, D->var(), "drop-reuse");
      VarState S;
      S.Credits = 1;
      S.IsToken = true;
      bind(E, D->token(), S);
      check(D->rest(), E);
      return;
    }
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(Ex);
      if (!alive(E, U->var()))
        error("is-unique on dead or unbound variable '" + name(U->var()) +
              "'");
      Env ElseEnv = E;
      check(U->thenExpr(), E, U->var());
      check(U->elseExpr(), ElseEnv);
      requireMergeable(E, ElseEnv, "is-unique");
      return;
    }
    }
  }

  void requireAllConsumed(const Env &E, const char *What) {
    for (const auto &[Sym, S] : E) {
      if (S.IsToken)
        continue;
      if (S.Credits != 0)
        error(std::string(What) + " ends with '" + name(Sym) +
              "' still holding " + std::to_string(S.Credits) +
              " owned reference(s)");
    }
  }

  void checkFunction(FuncId F) {
    const FunctionDecl &Fn = P.function(F);
    Where = name(Fn.Name);
    if (!Fn.Body)
      return;
    Env E;
    for (size_t I = 0; I != Fn.Params.size(); ++I) {
      VarState S;
      if (Borrow && I < (*Borrow)[F].size() && (*Borrow)[F][I])
        S.Borrowed = true; // held for the caller; never consumed
      else
        S.Credits = 1;
      E[Fn.Params[I]] = S;
    }
    check(Fn.Body, E);
    requireAllConsumed(E, "function body");
  }

private:
  const Program &P;
  const BorrowSignatures *Borrow;
  std::string Where;
};

} // namespace

std::vector<std::string>
perceus::checkLinearity(const Program &P, const BorrowSignatures *Borrow) {
  LinearChecker C(P, Borrow);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    C.checkFunction(F);
  return std::move(C.Errors);
}

std::vector<std::string>
perceus::checkLinearity(const Program &P, FuncId F,
                        const BorrowSignatures *Borrow) {
  LinearChecker C(P, Borrow);
  C.checkFunction(F);
  return std::move(C.Errors);
}

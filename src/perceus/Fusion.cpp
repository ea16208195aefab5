//===- perceus/Fusion.cpp - Dup push-down and dup/drop fusion ----------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/Fusion.h"

#include "analysis/VarSet.h"
#include "ir/Builder.h"
#include "ir/Rewrite.h"
#include "support/Casting.h"

#include <vector>

using namespace perceus;

namespace {

/// One straight-line RC instruction.
struct RcOp {
  ExprKind Kind;
  Symbol Var;
  SourceLoc Loc;
};

class Fuser {
public:
  Fuser(Program &P) : P(P), B(P) {}

  void runOnFunction(FuncId F) {
    FunctionDecl &Fn = P.function(F);
    P.setBody(F, fuse(Fn.Body));
  }

  const Expr *fuse(const Expr *E) {
    // 1. Collect the maximal leading chain of RC statements.
    std::vector<RcOp> Chain;
    const Expr *Tail = E;
    while (isa<RcStmtExpr>(Tail)) {
      const auto *R = cast<RcStmtExpr>(Tail);
      Chain.push_back({Tail->kind(), R->var(), Tail->loc()});
      Tail = R->rest();
    }

    // 2. Cancel dup/drop pairs: each drop matches the earliest preceding
    // unmatched dup of the same variable.
    std::vector<bool> Removed(Chain.size(), false);
    for (size_t J = 0; J != Chain.size(); ++J) {
      if (Chain[J].Kind != ExprKind::Drop)
        continue;
      for (size_t I = 0; I != J; ++I) {
        if (Removed[I] || Chain[I].Kind != ExprKind::Dup ||
            Chain[I].Var != Chain[J].Var)
          continue;
        Removed[I] = Removed[J] = true;
        break;
      }
    }
    std::vector<RcOp> Ops;
    for (size_t I = 0; I != Chain.size(); ++I)
      if (!Removed[I])
        Ops.push_back(Chain[I]);

    // 3. Dispatch on the tail form.
    const IsUniqueExpr *Uniq = nullptr;
    const Expr *Continuation = nullptr; // nullptr: no continuation
    enum { FormSeq, FormLet, FormBare, FormOther } Form = FormOther;
    Symbol LetToken;
    if (const auto *S = dyn_cast<SeqExpr>(Tail)) {
      if ((Uniq = dyn_cast<IsUniqueExpr>(S->first()))) {
        Form = FormSeq;
        Continuation = S->second();
      }
    } else if (const auto *L = dyn_cast<LetExpr>(Tail)) {
      if ((Uniq = dyn_cast<IsUniqueExpr>(L->bound()))) {
        Form = FormLet;
        LetToken = L->name();
        Continuation = L->body();
      }
    } else if ((Uniq = dyn_cast<IsUniqueExpr>(Tail))) {
      Form = FormBare;
    }

    const Expr *NewTail;
    if (Form != FormOther) {
      // Variables the unique path drops: dups of those are pushed into
      // both branches so they cancel on the fast path.
      VarSet ThenDrops;
      for (const Expr *T = Uniq->thenExpr(); isa<RcStmtExpr>(T);
           T = cast<RcStmtExpr>(T)->rest())
        if (T->kind() == ExprKind::Drop)
          ThenDrops.insert(cast<RcStmtExpr>(T)->var());

      std::vector<RcOp> Stay, Push, Sink;
      for (const RcOp &Op : Ops) {
        if (Op.Kind != ExprKind::Dup || Op.Var == Uniq->var()) {
          Stay.push_back(Op);
        } else if (ThenDrops.contains(Op.Var)) {
          Push.push_back(Op);
        } else if (Continuation) {
          Sink.push_back(Op); // delay past the test, toward its consumer
        } else {
          Push.push_back(Op);
        }
      }
      Ops = std::move(Stay);

      const Expr *Then = wrap(Push, Uniq->thenExpr());
      const Expr *Else = wrap(Push, Uniq->elseExpr());
      Then = fuse(Then);
      Else = fuse(Else);
      const Expr *NewUniq =
          B.isUnique(Uniq->var(), Then, Else, Uniq->loc());
      if (Form == FormSeq) {
        NewTail = B.seq(NewUniq, fuse(wrap(Sink, Continuation)),
                        Tail->loc());
      } else if (Form == FormLet) {
        NewTail = B.let(LetToken, NewUniq, fuse(wrap(Sink, Continuation)),
                        Tail->loc());
      } else {
        NewTail = NewUniq;
      }
    } else {
      NewTail = mapChildren(B, Tail, [&](const Expr *C) { return fuse(C); });
    }

    return wrap(Ops, NewTail);
  }

private:
  /// Wraps \p Ops (in order) around \p Rest.
  const Expr *wrap(const std::vector<RcOp> &Ops, const Expr *Rest) {
    const Expr *Out = Rest;
    for (size_t I = Ops.size(); I-- > 0;) {
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
      case ExprKind::DecRef:
        Out = B.decref(Op.Var, Out, Op.Loc);
        break;
      default:
        assert(false && "not an RC statement");
      }
    }
    return Out;
  }

  Program &P;
  IRBuilder B;
};

} // namespace

void perceus::runFusion(Program &P) {
  Fuser F_(P);
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    F_.runOnFunction(F);
}

void perceus::runFusion(Program &P, FuncId F) {
  Fuser F_(P);
  F_.runOnFunction(F);
}

//===- eval/Layout.cpp - Frame layout for the abstract machine ----------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Layout.h"

#include "support/Casting.h"

#include <unordered_map>

using namespace perceus;

namespace {

class LayoutPass {
public:
  LayoutPass(const Program &P, ProgramLayout &L) : P(P), L(L) {}

  void run() {
    L.FuncFrameSize.resize(P.numFunctions(), 0);
    for (FuncId F = 0; F != P.numFunctions(); ++F) {
      const FunctionDecl &Fn = P.function(F);
      Env.clear();
      NextSlot = 0;
      for (Symbol Pm : Fn.Params)
        bind(Pm);
      walk(Fn.Body);
      L.FuncFrameSize[F] = NextSlot;
    }
  }

private:
  uint32_t bind(Symbol S) {
    uint32_t Slot = NextSlot++;
    Env[S] = Slot;
    return Slot;
  }

  uint32_t slotOf(Symbol S) const {
    auto It = Env.find(S);
    assert(It != Env.end() && "unbound variable during layout");
    return It->second;
  }

  void walk(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Global:
    case ExprKind::NullToken:
      return;
    case ExprKind::Var:
      E->setLayout(slotOf(cast<VarExpr>(E)->name()), ~0u);
      return;
    case ExprKind::Lam: {
      const auto *Lm = cast<LamExpr>(E);
      std::vector<uint32_t> List;
      for (Symbol C : Lm->captures())
        List.push_back(slotOf(C)); // source slots (enclosing frame)
      // Switch to the lambda's own frame.
      std::unordered_map<Symbol, uint32_t> SavedEnv = std::move(Env);
      uint32_t SavedNext = NextSlot;
      Env.clear();
      NextSlot = 0;
      for (Symbol Pm : Lm->params())
        bind(Pm);
      for (Symbol C : Lm->captures())
        List.push_back(bind(C)); // target slots (lambda frame)
      walk(Lm->body());
      uint32_t FrameSize = NextSlot;
      Env = std::move(SavedEnv);
      NextSlot = SavedNext;
      E->setLayout(addList(std::move(List)), FrameSize);
      return;
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      walk(A->fn());
      for (const Expr *Arg : A->args())
        walk(Arg);
      return;
    }
    case ExprKind::Let: {
      const auto *Lt = cast<LetExpr>(E);
      walk(Lt->bound());
      E->setLayout(bind(Lt->name()), ~0u);
      walk(Lt->body());
      return;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      walk(S->first());
      walk(S->second());
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      walk(I->cond());
      walk(I->thenExpr());
      walk(I->elseExpr());
      return;
    }
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      std::vector<uint32_t> List;
      for (const MatchArm &Arm : M->arms()) {
        for (Symbol B : Arm.Binders)
          List.push_back(bind(B));
        walk(Arm.Body);
      }
      E->setLayout(slotOf(M->scrutinee()), addList(std::move(List)));
      return;
    }
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      for (const Expr *Arg : C->args())
        walk(Arg);
      if (C->hasReuseToken())
        E->setLayout(slotOf(C->reuseToken()), ~0u);
      return;
    }
    case ExprKind::Prim: {
      for (const Expr *Arg : cast<PrimExpr>(E)->args())
        walk(Arg);
      return;
    }
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef: {
      const auto *R = cast<RcStmtExpr>(E);
      E->setLayout(slotOf(R->var()), ~0u);
      walk(R->rest());
      return;
    }
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(E);
      E->setLayout(slotOf(U->var()), ~0u);
      walk(U->thenExpr());
      walk(U->elseExpr());
      return;
    }
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      uint32_t VarSlot = slotOf(D->var());
      uint32_t TokSlot = bind(D->token());
      E->setLayout(VarSlot, TokSlot);
      walk(D->rest());
      return;
    }
    case ExprKind::ReuseAddr:
      E->setLayout(slotOf(cast<ReuseAddrExpr>(E)->var()), ~0u);
      return;
    }
  }

  uint32_t addList(std::vector<uint32_t> List) {
    L.SlotLists.push_back(std::move(List));
    return static_cast<uint32_t>(L.SlotLists.size() - 1);
  }

  const Program &P;
  ProgramLayout &L;
  std::unordered_map<Symbol, uint32_t> Env;
  uint32_t NextSlot = 0;
};

} // namespace

ProgramLayout perceus::layoutProgram(const Program &P) {
  ProgramLayout L;
  LayoutPass(P, L).run();
  return L;
}

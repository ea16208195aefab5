//===- analysis/FreeVars.cpp - Free variable analysis ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/FreeVars.h"

#include "support/Casting.h"

using namespace perceus;

const VarSet &FreeVarAnalysis::freeVars(const Expr *E) {
  if (!Slots.empty()) {
    const Slot &S = slotFor(E);
    if (S.Key)
      return Chunks[S.Index / ChunkSets][S.Index % ChunkSets];
  }
  // Computing E queries its children first, which may grow the table;
  // E's slot is looked up only afterwards.
  VarSet Set = compute(E);
  if (2 * (NumSets + 1) > Slots.size())
    grow();
  uint32_t Index = NumSets++;
  if (Index % ChunkSets == 0)
    Chunks.push_back(std::make_unique<VarSet[]>(ChunkSets));
  VarSet &Stored = Chunks[Index / ChunkSets][Index % ChunkSets];
  Stored = std::move(Set);
  slotFor(E) = {E, Index};
  return Stored;
}

FreeVarAnalysis::Slot &FreeVarAnalysis::slotFor(const Expr *E) {
  // Fibonacci hashing of the node address; arena nodes are 8-aligned.
  size_t Mask = Slots.size() - 1;
  size_t I = (((reinterpret_cast<uintptr_t>(E) >> 3) *
               0x9E3779B97F4A7C15ull) >> 32) & Mask;
  while (Slots[I].Key && Slots[I].Key != E)
    I = (I + 1) & Mask;
  return Slots[I];
}

void FreeVarAnalysis::grow() {
  std::vector<Slot> Old(Slots.empty() ? 64 : 2 * Slots.size());
  Old.swap(Slots);
  for (const Slot &S : Old)
    if (S.Key)
      slotFor(S.Key) = S;
}

VarSet FreeVarAnalysis::compute(const Expr *E) {
  VarSet S;
  switch (E->kind()) {
  case ExprKind::Lit:
  case ExprKind::Global:
  case ExprKind::NullToken:
    break;
  case ExprKind::Var:
    S.insert(cast<VarExpr>(E)->name());
    break;
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    S = freeVars(L->body());
    for (Symbol P : L->params())
      S.erase(P);
    break;
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    S = freeVars(A->fn());
    for (const Expr *Arg : A->args())
      S.insertAll(freeVars(Arg));
    break;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    S = freeVars(L->body());
    S.erase(L->name());
    S.insertAll(freeVars(L->bound()));
    break;
  }
  case ExprKind::Seq: {
    const auto *Q = cast<SeqExpr>(E);
    S = freeVars(Q->first()).unite(freeVars(Q->second()));
    break;
  }
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    S = freeVars(I->cond())
            .unite(freeVars(I->thenExpr()))
            .unite(freeVars(I->elseExpr()));
    break;
  }
  case ExprKind::Match: {
    const auto *M = cast<MatchExpr>(E);
    S.insert(M->scrutinee());
    for (const MatchArm &Arm : M->arms()) {
      VarSet B = freeVars(Arm.Body);
      for (Symbol X : Arm.Binders)
        B.erase(X);
      S.insertAll(B);
    }
    break;
  }
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    for (const Expr *Arg : C->args())
      S.insertAll(freeVars(Arg));
    if (C->hasReuseToken())
      S.insert(C->reuseToken());
    break;
  }
  case ExprKind::Prim: {
    const auto *Pr = cast<PrimExpr>(E);
    for (const Expr *Arg : Pr->args())
      S.insertAll(freeVars(Arg));
    break;
  }
  case ExprKind::Dup:
  case ExprKind::Drop:
  case ExprKind::Free:
  case ExprKind::DecRef: {
    const auto *R = cast<RcStmtExpr>(E);
    S = freeVars(R->rest());
    S.insert(R->var());
    break;
  }
  case ExprKind::IsUnique: {
    const auto *U = cast<IsUniqueExpr>(E);
    S = freeVars(U->thenExpr()).unite(freeVars(U->elseExpr()));
    S.insert(U->var());
    break;
  }
  case ExprKind::DropReuse: {
    const auto *D = cast<DropReuseExpr>(E);
    S = freeVars(D->rest());
    S.erase(D->token());
    S.insert(D->var());
    break;
  }
  case ExprKind::ReuseAddr:
    S.insert(cast<ReuseAddrExpr>(E)->var());
    break;
  }
  return S;
}

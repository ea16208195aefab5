//===- perceus/Pipeline.cpp - Pass pipeline ----------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/Pipeline.h"

#include "ir/Printer.h"
#include "perceus/DropSpec.h"
#include "perceus/Fusion.h"
#include "perceus/Borrow.h"
#include "perceus/Perceus.h"
#include "perceus/Reuse.h"

using namespace perceus;

const char *PassConfig::name() const {
  switch (Mode) {
  case RcMode::None:
    return "gc";
  case RcMode::Scoped:
    return "scoped-rc";
  case RcMode::Perceus:
    break;
  }
  if (EnableBorrow)
    return "perceus-borrow";
  if (EnableReuse && EnableDropSpec)
    return "perceus";
  if (!EnableReuse && !EnableDropSpec && !EnableFusion)
    return "perceus-noopt";
  return "perceus-custom";
}

bool perceus::parsePassConfig(std::string_view Name, PassConfig &Out) {
  for (const PassConfig &C :
       {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
        PassConfig::perceusBorrow(), PassConfig::scoped(), PassConfig::gc()})
    if (Name == C.name()) {
      Out = C;
      return true;
    }
  return false;
}

IrOpCounts perceus::countIrOps(const Program &P) {
  IrOpCounts C;
  std::vector<const Expr *> Work;
  auto push = [&Work](const Expr *E) {
    if (E)
      Work.push_back(E);
  };
  for (FuncId F = 0; F != P.numFunctions(); ++F)
    push(P.function(F).Body);
  while (!Work.empty()) {
    const Expr *E = Work.back();
    Work.pop_back();
    ++C.Nodes;
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Var:
    case ExprKind::Global:
      break;
    case ExprKind::Lam:
      push(cast<LamExpr>(E)->body());
      break;
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      push(A->fn());
      for (const Expr *Arg : A->args())
        push(Arg);
      break;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      push(L->bound());
      push(L->body());
      break;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      push(S->first());
      push(S->second());
      break;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      push(I->cond());
      push(I->thenExpr());
      push(I->elseExpr());
      break;
    }
    case ExprKind::Match:
      for (const MatchArm &Arm : cast<MatchExpr>(E)->arms())
        push(Arm.Body);
      break;
    case ExprKind::Con: {
      const auto *Con = cast<ConExpr>(E);
      if (Con->hasReuseToken())
        ++C.ReuseCons;
      for (const Expr *Arg : Con->args())
        push(Arg);
      break;
    }
    case ExprKind::Prim:
      for (const Expr *Arg : cast<PrimExpr>(E)->args())
        push(Arg);
      break;
    case ExprKind::Dup:
      ++C.Dups;
      push(cast<RcStmtExpr>(E)->rest());
      break;
    case ExprKind::Drop:
      ++C.Drops;
      push(cast<RcStmtExpr>(E)->rest());
      break;
    case ExprKind::Free:
      ++C.Frees;
      push(cast<RcStmtExpr>(E)->rest());
      break;
    case ExprKind::DecRef:
      ++C.DecRefs;
      push(cast<RcStmtExpr>(E)->rest());
      break;
    case ExprKind::IsUnique: {
      ++C.IsUniques;
      const auto *U = cast<IsUniqueExpr>(E);
      push(U->thenExpr());
      push(U->elseExpr());
      break;
    }
    case ExprKind::DropReuse:
      ++C.DropReuses;
      push(cast<DropReuseExpr>(E)->rest());
      break;
    case ExprKind::ReuseAddr:
    case ExprKind::NullToken:
      ++C.TokenOps;
      break;
    }
  }
  return C;
}

void perceus::runPipeline(Program &P, const PassConfig &Config,
                          std::vector<PassStat> *Stats) {
  auto snap = [&](const char *Pass) {
    if (Stats)
      Stats->push_back({Pass, countIrOps(P)});
  };
  snap("input");
  switch (Config.Mode) {
  case RcMode::None:
    return; // erased program: the tracing collector manages memory
  case RcMode::Scoped:
    insertScopedRc(P);
    snap("scoped rc insertion (2.2)");
    return;
  case RcMode::Perceus:
    break;
  }
  if (Config.EnableBorrow) {
    BorrowSignatures Sigs = inferBorrowSignatures(P);
    insertPerceus(P, &Sigs);
    snap("perceus insertion + borrow (6)");
  } else {
    insertPerceus(P);
    snap("perceus insertion (2.2)");
  }
  if (Config.EnableReuse) {
    runReuseAnalysis(P);
    snap("reuse analysis (2.4)");
  }
  if (Config.EnableDropSpec) {
    runDropSpecialization(P);
    snap("drop specialization (2.3)");
  }
  if (Config.EnableFusion) {
    runFusion(P);
    snap("dup push-down + fusion (2.3)");
  }
}

std::vector<StageDump> perceus::runPipelineWithStages(Program &P, FuncId F) {
  std::vector<StageDump> Dumps;
  auto dump = [&](const char *Stage) {
    Dumps.push_back({Stage, printFunction(P, F)});
  };

  dump("(a) original");
  insertPerceus(P, F);
  dump("(b) dup/drop insertion (2.2)");
  const Expr *Inserted = P.function(F).Body;

  // Left column of Figure 1: drop specialization without reuse.
  runDropSpecialization(P, F);
  dump("(c) drop specialization (2.3)");
  runFusion(P, F);
  dump("(d) push down dup and fusion (2.3)");

  // Right column of Figure 1: the reuse pipeline, from (b) again.
  P.setBody(F, Inserted);
  runReuseAnalysis(P, F);
  dump("(e) reuse token insertion (2.4)");
  runDropSpecialization(P, F);
  dump("(f) drop-reuse specialization (2.4)");
  runFusion(P, F);
  dump("(g) push down dup and fusion (2.4)");

  return Dumps;
}

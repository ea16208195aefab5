//===- perceus/Pipeline.cpp - Pass pipeline ----------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "perceus/Pipeline.h"

#include "ir/Printer.h"
#include "perceus/Borrow.h"
#include "perceus/Perceus.h"

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
  if (!Stats) {
    runRewrites(P, Config);
    return;
  }
  const std::pair<bool PassConfig::*, const char *> Steps[] = {
      {&PassConfig::EnableReuse, "reuse analysis (2.4)"},
      {&PassConfig::EnableDropSpec, "drop specialization (2.3)"},
      {&PassConfig::EnableFusion, "dup push-down + fusion (2.3)"}};
  for (auto [Enabled, Pass] : Steps) {
    if (!(Config.*Enabled))
      continue;
    PassConfig One = PassConfig::perceusNoOpt();
    One.*Enabled = true;
    runRewrites(P, One);
    snap(Pass);
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
  auto step = [&](bool PassConfig::*Enabled, const char *Stage) {
    PassConfig One = PassConfig::perceusNoOpt();
    One.*Enabled = true;
    runRewrites(P, F, One);
    dump(Stage);
  };

  // Left column of Figure 1: drop specialization without reuse.
  step(&PassConfig::EnableDropSpec, "(c) drop specialization (2.3)");
  step(&PassConfig::EnableFusion, "(d) push down dup and fusion (2.3)");

  // Right column of Figure 1: the reuse pipeline, from (b) again.
  P.setBody(F, Inserted);
  step(&PassConfig::EnableReuse, "(e) reuse token insertion (2.4)");
  step(&PassConfig::EnableDropSpec, "(f) drop-reuse specialization (2.4)");
  step(&PassConfig::EnableFusion, "(g) push down dup and fusion (2.4)");

  return Dumps;
}

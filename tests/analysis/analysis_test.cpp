//===- tests/analysis/analysis_test.cpp - Analysis unit tests ------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/FreeVars.h"
#include "analysis/LinearCheck.h"
#include "analysis/VarSet.h"
#include "analysis/Verifier.h"
#include "calculus/Generator.h"
#include "ir/Builder.h"
#include "ir/Rewrite.h"
#include "lang/Resolver.h"
#include "perceus/DropSpec.h"
#include "perceus/Fusion.h"
#include "perceus/Perceus.h"
#include "perceus/Reuse.h"
#include "programs/Programs.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <sstream>

using namespace perceus;

namespace {

TEST(VarSet, BasicSetOperations) {
  SymbolTable T;
  Symbol A = T.intern("a"), B = T.intern("b"), C = T.intern("c");
  VarSet S{A, B};
  EXPECT_TRUE(S.contains(A));
  EXPECT_FALSE(S.contains(C));
  EXPECT_FALSE(S.insert(A)); // already present
  EXPECT_TRUE(S.insert(C));
  EXPECT_EQ(S.size(), 3u);
  EXPECT_TRUE(S.erase(B));
  EXPECT_FALSE(S.erase(B));

  VarSet X{A, B}, Y{B, C};
  EXPECT_EQ(X.intersect(Y), VarSet{B});
  EXPECT_EQ(X.minus(Y), VarSet{A});
  EXPECT_EQ(X.unite(Y), (VarSet{A, B, C}));
  EXPECT_TRUE(VarSet().empty());
}

TEST(VarSet, IterationIsOrderedById) {
  SymbolTable T;
  Symbol A = T.intern("a"), B = T.intern("b"), C = T.intern("c");
  VarSet S{C, A, B};
  std::vector<Symbol> Order(S.begin(), S.end());
  EXPECT_EQ(Order, (std::vector<Symbol>{A, B, C}));
}

std::set<uint32_t> idsOf(const VarSet &S) {
  std::set<uint32_t> Ids;
  for (Symbol X : S)
    Ids.insert(X.id());
  return Ids;
}

/// Checks \p S against \p Ref: same members, in ascending order.
void expectSame(const VarSet &S, const std::set<uint32_t> &Ref) {
  std::vector<uint32_t> Got;
  for (Symbol X : S)
    Got.push_back(X.id());
  EXPECT_EQ(Got, std::vector<uint32_t>(Ref.begin(), Ref.end()));
  EXPECT_EQ(S.size(), Ref.size());
  EXPECT_EQ(S.empty(), Ref.empty());
}

VarSet randomSet(Rng &R, uint32_t MaxSize, uint32_t Universe) {
  VarSet S;
  for (uint64_t I = 0, N = R.below(MaxSize + 1); I != N; ++I)
    S.insert(Symbol::fromId(1 + uint32_t(R.below(Universe))));
  return S;
}

TEST(VarSet, MatchesStdSetAcrossTheInlineCapacity) {
  // Seeded random operation sequences whose sizes grow past the inline
  // capacity and shrink back below it, checked after every step.
  const uint32_t Cap = VarSet::InlineCapacity;
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    Rng R(Seed);
    const uint32_t Universe = 4 * Cap;
    VarSet S;
    std::set<uint32_t> Ref;
    for (int Step = 0; Step != 400; ++Step) {
      // Bias toward growth in the first half, shrinking in the second.
      bool Grow = Step < 200 ? !R.chance(1, 4) : R.chance(1, 4);
      Symbol X = Symbol::fromId(1 + uint32_t(R.below(Universe)));
      switch (R.below(7)) {
      case 0:
        if (Grow)
          EXPECT_EQ(S.insert(X), Ref.insert(X.id()).second);
        else
          EXPECT_EQ(S.erase(X), Ref.erase(X.id()) == 1);
        break;
      case 1:
        EXPECT_EQ(S.erase(X), Ref.erase(X.id()) == 1);
        break;
      case 2: {
        VarSet O = randomSet(R, 2 * Cap, Universe);
        if (Grow) {
          S.insertAll(O);
          for (Symbol Y : O)
            Ref.insert(Y.id());
        } else {
          S.eraseAll(O);
          for (Symbol Y : O)
            Ref.erase(Y.id());
        }
        break;
      }
      case 3: {
        VarSet O = randomSet(R, 2 * Cap, Universe);
        S.eraseAll(O);
        for (Symbol Y : O)
          Ref.erase(Y.id());
        break;
      }
      default: {
        // The three set-valued operations, against the reference, then
        // one of them becomes the set under test.
        VarSet O = randomSet(R, 2 * Cap, Universe);
        std::set<uint32_t> RO = idsOf(O), I, M, U;
        std::set_intersection(Ref.begin(), Ref.end(), RO.begin(), RO.end(),
                              std::inserter(I, I.end()));
        std::set_difference(Ref.begin(), Ref.end(), RO.begin(), RO.end(),
                            std::inserter(M, M.end()));
        std::set_union(Ref.begin(), Ref.end(), RO.begin(), RO.end(),
                       std::inserter(U, U.end()));
        expectSame(S.intersect(O), I);
        expectSame(S.minus(O), M);
        expectSame(S.unite(O), U);
        if (Grow) {
          S = S.unite(O);
          Ref = U;
        } else {
          S = R.chance(1, 2) ? S.minus(O) : S.intersect(O);
          Ref = idsOf(S);
        }
        break;
      }
      }
      expectSame(S, Ref);
      EXPECT_EQ(S.contains(X), Ref.count(X.id()) == 1);
      if (testing::Test::HasFailure())
        FAIL() << "seed " << Seed << " step " << Step;
    }
  }
}

TEST(VarSet, CopyMoveAndSelfAssignmentOfInlineAndSpilledSets) {
  const uint32_t Cap = VarSet::InlineCapacity;
  for (uint32_t N : {0u, 1u, Cap, Cap + 1, 4 * Cap}) {
    VarSet S;
    std::set<uint32_t> Ref;
    for (uint32_t I = 0; I != N; ++I) {
      S.insert(Symbol::fromId(3 * I + 1));
      Ref.insert(3 * I + 1);
    }
    VarSet Copy(S);
    expectSame(Copy, Ref);
    expectSame(S, Ref);
    Copy.insert(Symbol::fromId(1000)); // the copy owns its own storage
    expectSame(S, Ref);

    VarSet Assigned{Symbol::fromId(7)};
    for (uint32_t I = 0; I != 2 * Cap; ++I) // spilled before assignment
      Assigned.insert(Symbol::fromId(500 + I));
    Assigned = S;
    expectSame(Assigned, Ref);

    VarSet Moved(std::move(Copy));
    Ref.insert(1000);
    expectSame(Moved, Ref);
    EXPECT_TRUE(Copy.empty()); // NOLINT(bugprone-use-after-move)
    Copy.insert(Symbol::fromId(2));  // a moved-from set is usable
    expectSame(Copy, {2});

    VarSet MoveAssigned{Symbol::fromId(9)};
    MoveAssigned = std::move(Moved);
    expectSame(MoveAssigned, Ref);

    VarSet &Alias = MoveAssigned;
    MoveAssigned = Alias; // self copy-assignment
    expectSame(MoveAssigned, Ref);
    MoveAssigned = std::move(Alias); // self move-assignment
    expectSame(MoveAssigned, Ref);
  }
}

/// fv(e) by plain recursion, with no memo: the reference for
/// FreeVarAnalysis.
std::set<uint32_t> referenceFreeVars(const Expr *E) {
  std::set<uint32_t> S;
  auto add = [&](const Expr *C) {
    std::set<uint32_t> F = referenceFreeVars(C);
    S.insert(F.begin(), F.end());
  };
  switch (E->kind()) {
  case ExprKind::Lit:
  case ExprKind::Global:
  case ExprKind::NullToken:
    break;
  case ExprKind::Var:
    S.insert(cast<VarExpr>(E)->name().id());
    break;
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    add(L->body());
    for (Symbol Pm : L->params())
      S.erase(Pm.id());
    break;
  }
  case ExprKind::App:
    add(cast<AppExpr>(E)->fn());
    for (const Expr *A : cast<AppExpr>(E)->args())
      add(A);
    break;
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    add(L->body());
    S.erase(L->name().id());
    add(L->bound());
    break;
  }
  case ExprKind::Seq:
    add(cast<SeqExpr>(E)->first());
    add(cast<SeqExpr>(E)->second());
    break;
  case ExprKind::If:
    add(cast<IfExpr>(E)->cond());
    add(cast<IfExpr>(E)->thenExpr());
    add(cast<IfExpr>(E)->elseExpr());
    break;
  case ExprKind::Match: {
    const auto *M = cast<MatchExpr>(E);
    S.insert(M->scrutinee().id());
    for (const MatchArm &Arm : M->arms()) {
      std::set<uint32_t> F = referenceFreeVars(Arm.Body);
      for (Symbol Bv : Arm.Binders)
        F.erase(Bv.id());
      S.insert(F.begin(), F.end());
    }
    break;
  }
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    for (const Expr *A : C->args())
      add(A);
    if (C->hasReuseToken())
      S.insert(C->reuseToken().id());
    break;
  }
  case ExprKind::Prim:
    for (const Expr *A : cast<PrimExpr>(E)->args())
      add(A);
    break;
  case ExprKind::Dup:
  case ExprKind::Drop:
  case ExprKind::Free:
  case ExprKind::DecRef:
    add(cast<RcStmtExpr>(E)->rest());
    S.insert(cast<RcStmtExpr>(E)->var().id());
    break;
  case ExprKind::IsUnique:
    add(cast<IsUniqueExpr>(E)->thenExpr());
    add(cast<IsUniqueExpr>(E)->elseExpr());
    S.insert(cast<IsUniqueExpr>(E)->var().id());
    break;
  case ExprKind::DropReuse: {
    const auto *D = cast<DropReuseExpr>(E);
    add(D->rest());
    S.erase(D->token().id());
    S.insert(D->var().id());
    break;
  }
  case ExprKind::ReuseAddr:
    S.insert(cast<ReuseAddrExpr>(E)->var().id());
    break;
  case ExprKind::IsNullToken:
    add(cast<IsNullTokenExpr>(E)->thenExpr());
    add(cast<IsNullTokenExpr>(E)->elseExpr());
    S.insert(cast<IsNullTokenExpr>(E)->token().id());
    break;
  case ExprKind::SetField:
    add(cast<SetFieldExpr>(E)->value());
    add(cast<SetFieldExpr>(E)->rest());
    S.insert(cast<SetFieldExpr>(E)->token().id());
    break;
  case ExprKind::TokenValue: {
    const auto *T = cast<TokenValueExpr>(E);
    S.insert(T->token().id());
    for (Symbol K : T->keptFields())
      S.insert(K.id());
    break;
  }
  }
  return S;
}

/// Checks FV against the reference at every node of \p E, children
/// first and then again top-down, so queries hit both fresh and
/// memoized entries; returns the number of nodes checked.
size_t checkEveryNode(Program &P, FreeVarAnalysis &FV, const Expr *E) {
  IRBuilder B(P);
  size_t N = 0;
  std::function<const Expr *(const Expr *)> Visit = [&](const Expr *X) {
    mapChildren(B, X, Visit); // returns X: every child is unchanged
    EXPECT_EQ(idsOf(FV.freeVars(X)), referenceFreeVars(X));
    ++N;
    return X;
  };
  Visit(E);
  EXPECT_EQ(idsOf(FV.freeVars(E)), referenceFreeVars(E));
  return N;
}

TEST(FreeVarAnalysis, MatchesPlainRecursionOnGeneratedTerms) {
  for (uint64_t Seed = 1; Seed != 61; ++Seed) {
    Program P;
    Rng R(Seed);
    GeneratedTerm G = generateTerm(P, R, 6);
    FreeVarAnalysis FV;
    checkEveryNode(P, FV, G.Body);
    ASSERT_FALSE(testing::Test::HasFailure()) << "seed " << Seed;
  }
}

std::vector<std::pair<std::string, std::string>> builtinSources() {
  std::vector<std::pair<std::string, std::string>> Out = {
      {"rbtree", rbtreeSource()},   {"rbtree-ck", rbtreeCkSource()},
      {"deriv", derivSource()},     {"nqueens", nqueensSource()},
      {"cfold", cfoldSource()},     {"tmap", tmapSource()},
      {"mapsum", mapSumSource()},   {"msort", msortSource()},
      {"queue", queueSource()},     {"shared-tree", sharedTreeSource()}};
  for (const char *F : {"hello", "msort", "nqueens", "rbtree", "shared_tree"}) {
    std::ifstream In(std::string(PERCEUS_EXAMPLE_PROGRAMS_DIR) + "/" + F +
                     ".perc");
    std::stringstream Text;
    Text << In.rdbuf();
    Out.push_back({std::string("examples/") + F, Text.str()});
  }
  return Out;
}

TEST(FreeVarAnalysis, MatchesPlainRecursionAfterEveryPipelineStage) {
  // One analysis across every stage: the earlier stages' nodes stay in
  // the memo while each rewrite adds its own.
  const std::pair<const char *, void (*)(Program &)> Stages[] = {
      {"perceus insertion", [](Program &P) { insertPerceus(P); }},
      {"reuse analysis", [](Program &P) { runReuseAnalysis(P); }},
      {"reuse specialization", [](Program &P) { runReuseSpecialization(P); }},
      {"drop specialization", [](Program &P) { runDropSpecialization(P); }},
      {"fusion", [](Program &P) { runFusion(P); }},
  };
  for (const auto &[Name, Source] : builtinSources()) {
    Program P;
    DiagnosticEngine D;
    ASSERT_TRUE(compileSource(Source, P, D)) << Name << ": " << D.str();
    FreeVarAnalysis FV;
    size_t Nodes = 0;
    for (FuncId F = 0; F != P.numFunctions(); ++F)
      Nodes += checkEveryNode(P, FV, P.function(F).Body);
    for (const auto &[Stage, Run] : Stages) {
      Run(P);
      for (FuncId F = 0; F != P.numFunctions(); ++F)
        Nodes += checkEveryNode(P, FV, P.function(F).Body);
      ASSERT_FALSE(testing::Test::HasFailure()) << Name << " after " << Stage;
    }
    EXPECT_GT(Nodes, 0u) << Name;
  }
}

TEST(FreeVarAnalysis, AnEarlyReferenceSurvivesTenThousandQueries) {
  // PerceusInserter holds fv references across the recursive calls that
  // add entries; the table may grow many times meanwhile. (A dangling
  // reference reads freed memory, which the ASan build reports.)
  Program P;
  IRBuilder B(P);
  Symbol X = B.sym("x"), Y = B.sym("y");
  const Expr *First = B.prim(PrimOp::Add, {B.var(X), B.var(Y)});
  FreeVarAnalysis FV;
  const VarSet &Held = FV.freeVars(First);
  std::set<uint32_t> Expected = idsOf(Held);
  for (int I = 0; I != 10000; ++I) {
    Symbol Z = B.freshSym("z");
    FV.freeVars(B.let(Z, B.var(X), B.var(Z)));
  }
  EXPECT_EQ(idsOf(Held), Expected);
  EXPECT_EQ(&Held, &FV.freeVars(First));
}

struct AnalysisTest : ::testing::Test {
  Program P;
  IRBuilder B{P};
  FreeVarAnalysis FV;
  CtorId Pair = InvalidId;

  void SetUp() override {
    uint32_t D = P.addData(B.sym("pair"));
    Pair = P.addCtor(D, B.sym("Pair"), 2);
  }
};

TEST_F(AnalysisTest, FreeVarsOfLeaves) {
  EXPECT_TRUE(FV.freeVars(B.litInt(1)).empty());
  Symbol X = B.sym("x");
  EXPECT_EQ(FV.freeVars(B.var(X)), VarSet{X});
}

TEST_F(AnalysisTest, LetBindsItsBody) {
  Symbol X = B.sym("x"), Y = B.sym("y");
  const Expr *E = B.let(X, B.var(Y), B.prim(PrimOp::Add, {B.var(X), B.var(X)}));
  EXPECT_EQ(FV.freeVars(E), VarSet{Y});
}

TEST_F(AnalysisTest, LambdaRemovesParams) {
  Symbol X = B.sym("x"), C = B.sym("c");
  Symbol Params[1] = {X};
  Symbol Caps[1] = {C};
  const Expr *L = B.lam(Params, Caps,
                        B.prim(PrimOp::Add, {B.var(X), B.var(C)}));
  EXPECT_EQ(FV.freeVars(L), VarSet{C});
}

TEST_F(AnalysisTest, MatchBindsArmBinders) {
  Symbol Xs = B.sym("xs"), A = B.sym("a"), Bv = B.sym("b"), Z = B.sym("z");
  MatchArm Arms[1] = {
      B.ctorArm(Pair, {A, Bv}, B.prim(PrimOp::Add, {B.var(A), B.var(Z)}))};
  const Expr *E = B.match(Xs, Arms);
  EXPECT_EQ(FV.freeVars(E), (VarSet{Xs, Z}));
}

TEST_F(AnalysisTest, RcOperandsAreFree) {
  Symbol X = B.sym("x"), Y = B.sym("y"), T = B.sym("t");
  EXPECT_EQ(FV.freeVars(B.drop(X, B.var(Y))), (VarSet{X, Y}));
  EXPECT_EQ(FV.freeVars(B.dup(X, B.litInt(0))), VarSet{X});
  // drop-reuse binds its token in the rest.
  const Expr *DR = B.dropReuse(X, T, B.con(Pair, {B.var(Y), B.unit()}, T));
  EXPECT_EQ(FV.freeVars(DR), (VarSet{X, Y}));
  Symbol Kept[1] = {X};
  EXPECT_EQ(FV.freeVars(B.tokenValue(T, Pair, Kept)), (VarSet{T, X}));
}

TEST_F(AnalysisTest, CacheIsConsistent) {
  Symbol X = B.sym("x");
  const Expr *E = B.prim(PrimOp::Add, {B.var(X), B.var(X)});
  const VarSet &S1 = FV.freeVars(E);
  const VarSet &S2 = FV.freeVars(E);
  EXPECT_EQ(&S1, &S2); // memoized
}

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

TEST_F(AnalysisTest, VerifierAcceptsWellFormed) {
  Symbol X = B.sym("x");
  P.addFunction(B.sym("f"), {X}, B.var(X));
  EXPECT_TRUE(verifyProgram(P).empty());
}

TEST_F(AnalysisTest, VerifierCatchesOutOfScope) {
  P.addFunction(B.sym("f"), {}, B.var(B.sym("ghost")));
  auto E = verifyProgram(P);
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E.front().find("out-of-scope"), std::string::npos);
}

TEST_F(AnalysisTest, VerifierCatchesDuplicateBinders) {
  Symbol X = B.sym("x");
  P.addFunction(B.sym("f"), {X}, B.let(X, B.litInt(1), B.var(X)));
  auto E = verifyProgram(P);
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E.front().find("bound more than once"), std::string::npos);
}

TEST_F(AnalysisTest, VerifierCatchesBadCaptureList) {
  Symbol X = B.sym("x"), C = B.sym("c");
  Symbol Params[1] = {X};
  // Claims no captures but uses c freely.
  const Expr *L =
      B.lam(Params, {}, B.prim(PrimOp::Add, {B.var(X), B.var(C)}));
  P.addFunction(B.sym("f"), {C}, L);
  auto E = verifyProgram(P);
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E.front().find("capture list"), std::string::npos);
}

TEST_F(AnalysisTest, VerifierCatchesEnumReuseToken) {
  uint32_t D = P.addData(B.sym("unitish"));
  CtorId U = P.addCtor(D, B.sym("U"), 0);
  Symbol X = B.sym("x"), T = B.sym("t");
  P.addFunction(B.sym("f"), {X}, B.dropReuse(X, T, B.con(U, {}, T)));
  auto E = verifyProgram(P);
  ASSERT_FALSE(E.empty());
}

//===----------------------------------------------------------------------===//
// Linearity checker
//===----------------------------------------------------------------------===//

std::vector<std::string> lintFunction(Program &P, const Expr *Body,
                                      std::vector<Symbol> Params) {
  FuncId F = P.addFunction(P.symbols().fresh("lin"), std::move(Params), Body);
  return checkLinearity(P, F);
}

TEST_F(AnalysisTest, LinearAcceptsExactConsumption) {
  Symbol X = B.sym("p1");
  EXPECT_TRUE(lintFunction(P, B.var(X), {X}).empty());
}

TEST_F(AnalysisTest, LinearRejectsLeak) {
  Symbol X = B.sym("p2");
  auto E = lintFunction(P, B.litInt(0), {X});
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E.front().find("still holding"), std::string::npos);
}

TEST_F(AnalysisTest, LinearRejectsDoubleUse) {
  Symbol X = B.sym("p3");
  auto E =
      lintFunction(P, B.con(Pair, {B.var(X), B.var(X)}), {X});
  ASSERT_FALSE(E.empty());
}

TEST_F(AnalysisTest, LinearAcceptsDupThenTwoUses) {
  Symbol X = B.sym("p4");
  const Expr *Body =
      B.dup(X, B.con(Pair, {B.var(X), B.var(X)}));
  EXPECT_TRUE(lintFunction(P, Body, {X}).empty());
}

TEST_F(AnalysisTest, LinearRejectsUseAfterDrop) {
  Symbol X = B.sym("p5");
  auto E = lintFunction(P, B.drop(X, B.var(X)), {X});
  ASSERT_FALSE(E.empty());
}

TEST_F(AnalysisTest, LinearRequiresBranchAgreement) {
  Symbol X = B.sym("p6"), C = B.sym("p7");
  // then consumes x, else leaks it.
  const Expr *Body = B.iff(B.var(C), B.var(X), B.litInt(0));
  auto E = lintFunction(P, Body, {C, X});
  ASSERT_FALSE(E.empty());
  EXPECT_NE(E.front().find("disagree"), std::string::npos);
}

TEST_F(AnalysisTest, LinearUnderstandsMatchBorrowsAndDups) {
  Symbol Xs = B.sym("p8"), A = B.sym("b1"), Bv = B.sym("b2");
  // dup both binders, drop the scrutinee, consume binders: the Figure 1b
  // pattern.
  MatchArm Arms[1] = {B.ctorArm(
      Pair, {A, Bv},
      B.dup(A, B.dup(Bv, B.drop(Xs, B.con(Pair, {B.var(A), B.var(Bv)})))))};
  EXPECT_TRUE(lintFunction(P, B.match(Xs, Arms), {Xs}).empty());
}

TEST_F(AnalysisTest, LinearRejectsBinderUseWithoutDupAfterDrop) {
  Symbol Xs = B.sym("p9"), A = B.sym("b3"), Bv = B.sym("b4");
  // Dropping the scrutinee kills non-dup'ed binders.
  MatchArm Arms[1] = {B.ctorArm(
      Pair, {A, Bv}, B.drop(Xs, B.con(Pair, {B.var(A), B.var(Bv)})))};
  auto E = lintFunction(P, B.match(Xs, Arms), {Xs});
  ASSERT_FALSE(E.empty());
}

TEST_F(AnalysisTest, LinearAcceptsTheFusedFastPath) {
  // Figure 1d: if is-unique(xs) then free xs else dup a; dup b; decref;
  // binders consumed by the continuation on both paths.
  Symbol Xs = B.sym("p10"), A = B.sym("b5"), Bv = B.sym("b6");
  const Expr *Then = B.freeCell(Xs, B.unit());
  const Expr *Else = B.dup(A, B.dup(Bv, B.decref(Xs, B.unit())));
  const Expr *ArmBody =
      B.seq(B.isUnique(Xs, Then, Else),
            B.con(Pair, {B.var(A), B.var(Bv)}));
  MatchArm Arms[1] = {B.ctorArm(Pair, {A, Bv}, ArmBody)};
  EXPECT_TRUE(lintFunction(P, B.match(Xs, Arms), {Xs}).empty());
}

TEST_F(AnalysisTest, LinearTracksTokensThroughReuse) {
  // val t = drop-reuse(xs); Pair@t(1, 2)
  Symbol Xs = B.sym("p11"), T = B.sym("tk1");
  Symbol A = B.sym("b7"), Bv = B.sym("b8");
  MatchArm Arms[1] = {B.ctorArm(
      Pair, {A, Bv},
      B.dup(A, B.dup(Bv,
                     B.dropReuse(Xs, T,
                                 B.con(Pair, {B.var(A), B.var(Bv)}, T)))))};
  EXPECT_TRUE(lintFunction(P, B.match(Xs, Arms), {Xs}).empty());
}

TEST_F(AnalysisTest, LinearCatchesCaptureLeak) {
  // A lambda that captures c but never consumes it in its body.
  Symbol C = B.sym("p12"), X = B.sym("p13");
  Symbol Params[1] = {X};
  Symbol Caps[1] = {C};
  const Expr *L = B.lam(Params, Caps, B.var(X));
  // (Note: fv-accuracy is the verifier's job; here the body simply never
  // consumes the capture, which the linear checker flags.)
  auto E = lintFunction(P, L, {C});
  ASSERT_FALSE(E.empty());
}

} // namespace

//===- tests/calculus/termmachine_test.cpp - Figure 7 rules, one by one -------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the individual reduction rules of the Figure 7 heap
/// semantics (con_r, lam_r, app_r, bind_r, match, dup_r, drop_r,
/// dlam_r/dcon_r) and for the substitution function of the standard
/// semantics (Figure 6), complementing the whole-program property tests
/// in metatheory_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "calculus/SubstEval.h"
#include "calculus/TermMachine.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

struct TermTest : ::testing::Test {
  Program P;
  IRBuilder B{P};
  CtorId Atom = InvalidId, Wrap = InvalidId, Pair = InvalidId;

  void SetUp() override {
    uint32_t D = P.addData(B.sym("box"));
    Atom = P.addCtor(D, B.sym("BAtom"), 0);
    Wrap = P.addCtor(D, B.sym("BWrap"), 1);
    Pair = P.addCtor(D, B.sym("BPair"), 2);
  }

  TermRunResult run(const Expr *E) {
    TermMachine M(P);
    M.setAudit(true);
    TermRunResult R = M.run(E);
    LastHeap = M.heap();
    if (R.Ok && R.Value.isValid())
      LastValue = M.readback(R.Value);
    return R;
  }

  std::map<Symbol, HeapEntry> LastHeap;
  const Expr *LastValue = nullptr;
};

TEST_F(TermTest, ConAllocates) {
  // (con_r): BWrap(BAtom) allocates two counted cells.
  TermRunResult R = run(B.con(Wrap, {B.con(Atom, {})}));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.AuditFailures.empty());
  EXPECT_EQ(LastHeap.size(), 2u);
  const auto *V = cast<ConExpr>(LastValue);
  EXPECT_EQ(V->ctor(), Wrap);
  EXPECT_EQ(cast<ConExpr>(V->args()[0])->ctor(), Atom);
}

TEST_F(TermTest, BindSubstitutes) {
  // (bind_r): val x = BAtom; BWrap(x).
  Symbol X = B.sym("x");
  TermRunResult R =
      run(B.let(X, B.con(Atom, {}), B.con(Wrap, {B.var(X)})));
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(cast<ConExpr>(LastValue)->ctor(), Wrap);
}

TEST_F(TermTest, AppDupsEnvironmentAndDropsClosure) {
  // (lam_r)+(app_r): (\_ys x. BPair(x, y)) BAtom with y captured.
  // The closure cell must be freed by the application's `drop f` while
  // the captured cell survives into the result via `dup ys`.
  Symbol X = B.sym("x"), Y = B.sym("y");
  Symbol Params[1] = {X};
  Symbol Caps[1] = {Y};
  const Expr *Lam =
      B.lam(Params, Caps, B.con(Pair, {B.var(X), B.var(Y)}));
  // val y = BAtom; (\x. BPair(x, y)) BAtom — with explicit RC so the
  // run is balanced: y's ownership moves into the closure.
  const Expr *E =
      B.let(Y, B.con(Atom, {}), B.app(Lam, {B.con(Atom, {})}));
  TermRunResult R = run(E);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.AuditFailures.empty())
      << R.AuditFailures.front();
  // Result: BPair(atom, atom); no closure remains.
  EXPECT_EQ(LastHeap.size(), 3u); // pair + two atoms
  for (const auto &[Loc, Entry] : LastHeap)
    EXPECT_FALSE(Entry.IsClosure);
}

TEST_F(TermTest, MatchSelectsArmAndBindsFields) {
  Symbol S = B.sym("s"), A = B.sym("a"), Bv = B.sym("b");
  MatchArm Arms[2] = {
      B.ctorArm(Pair, {A, Bv},
                B.dup(A, B.drop(S, B.var(A)))),
      B.ctorArm(Atom, {}, B.drop(S, B.con(Atom, {}))),
  };
  const Expr *E =
      B.let(S, B.con(Pair, {B.con(Wrap, {B.con(Atom, {})}), B.con(Atom, {})}),
            B.match(S, Arms));
  TermRunResult R = run(E);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.AuditFailures.empty()) << R.AuditFailures.front();
  // The first field (BWrap(BAtom)) survives; the pair and the second
  // field were freed by the drop of s.
  EXPECT_EQ(cast<ConExpr>(LastValue)->ctor(), Wrap);
  EXPECT_EQ(LastHeap.size(), 2u);
}

TEST_F(TermTest, DupDropRoundTripIsNeutral) {
  // (dup_r)+(drop_r): dup x; drop x; x.
  Symbol X = B.sym("x");
  const Expr *E =
      B.let(X, B.con(Atom, {}), B.dup(X, B.drop(X, B.var(X))));
  TermRunResult R = run(E);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.AuditFailures.empty());
  EXPECT_EQ(LastHeap.size(), 1u);
  EXPECT_EQ(LastHeap.begin()->second.Rc, 1);
}

TEST_F(TermTest, DconFreesChildrenRecursively) {
  // (dcon_r): dropping the last reference of a constructor drops its
  // children; the whole nest disappears.
  Symbol X = B.sym("x");
  const Expr *E = B.let(
      X, B.con(Pair, {B.con(Wrap, {B.con(Atom, {})}), B.con(Atom, {})}),
      B.drop(X, B.con(Atom, {})));
  TermRunResult R = run(E);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(LastHeap.size(), 1u); // only the fresh atom result
}

TEST_F(TermTest, DlamFreesCapturedEnvironment) {
  // (dlam_r): dropping a closure drops its captured cells.
  Symbol X = B.sym("x"), Y = B.sym("y"), F = B.sym("f");
  Symbol Params[1] = {X};
  Symbol Caps[1] = {Y};
  const Expr *Lam = B.lam(Params, Caps, B.var(Y));
  const Expr *E = B.let(
      Y, B.con(Atom, {}),
      B.let(F, Lam, B.drop(F, B.con(Atom, {}))));
  TermRunResult R = run(E);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(LastHeap.size(), 1u); // the captured atom died with f
}

TEST_F(TermTest, SharedCellSurvivesOneDrop) {
  Symbol X = B.sym("x");
  const Expr *E = B.let(
      X, B.con(Atom, {}),
      B.dup(X, B.drop(X, B.dup(X, B.drop(X, B.var(X))))));
  TermRunResult R = run(E);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(LastHeap.begin()->second.Rc, 1);
}

TEST_F(TermTest, StuckTermsReportErrors) {
  // Applying a constructor is stuck.
  const Expr *E = B.app(B.con(Atom, {}), {B.con(Atom, {})});
  TermRunResult R = run(E);
  EXPECT_FALSE(R.Ok);
  // Dropping an unbound variable is an error.
  TermRunResult R2 = run(B.drop(B.sym("ghost"), B.con(Atom, {})));
  EXPECT_FALSE(R2.Ok);
}

TEST_F(TermTest, StepLimitGuardsDivergence) {
  // omega: (\x. x x) (\x. x x) — untyped lambda-1 can diverge.
  Symbol X1 = B.sym("o1"), X2 = B.sym("o2");
  Symbol P1[1] = {X1};
  Symbol P2[1] = {X2};
  const Expr *Dup1 = B.dup(X1, B.app(B.var(X1), {B.var(X1)}));
  const Expr *Omega1 = B.lam(P1, {}, Dup1);
  const Expr *Dup2 = B.dup(X2, B.app(B.var(X2), {B.var(X2)}));
  const Expr *Omega2 = B.lam(P2, {}, Dup2);
  TermMachine M(P);
  M.setAudit(false);
  M.setStepLimit(5000);
  TermRunResult R = M.run(B.app(Omega1, {Omega2}));
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Substitution (Figure 6 infrastructure)
//===----------------------------------------------------------------------===//

TEST_F(TermTest, SubstituteReplacesFreeOccurrences) {
  Symbol X = B.sym("sx"), Y = B.sym("sy");
  const Expr *E = B.con(Pair, {B.var(X), B.var(Y)});
  const Expr *Out = substitute(P, E, X, B.var(Y));
  EXPECT_EQ(printExpr(P, Out), "BPair(sy, sy)");
}

TEST_F(TermTest, SubstituteRespectsShadowing) {
  Symbol X = B.sym("tx");
  Symbol Params[1] = {X};
  // \x. x — substituting for x must not touch the bound occurrence.
  const Expr *Lam = B.lam(Params, {}, B.var(X));
  const Expr *Out = substitute(P, Lam, X, B.con(Atom, {}));
  EXPECT_EQ(Out, Lam);
}

TEST_F(TermTest, SubstEvalComputesBeta) {
  Symbol X = B.sym("ux");
  Symbol Params[1] = {X};
  const Expr *Lam = B.lam(Params, {}, B.con(Wrap, {B.var(X)}));
  SubstResult R = substEval(P, B.app(Lam, {B.con(Atom, {})}));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(cast<ConExpr>(R.Value)->ctor(), Wrap);
}

TEST_F(TermTest, SubstEvalBindsTheLetBoundScrutineeInTheArm) {
  // val s = BWrap(BAtom); match s { BWrap(w) -> BPair(s, w)  BAtom -> s }
  // The chosen arm names the scrutinee itself, not just its binders.
  Symbol S = B.sym("s"), W = B.sym("w");
  MatchArm Arms[2] = {
      B.ctorArm(Wrap, {W}, B.con(Pair, {B.var(S), B.var(W)})),
      B.ctorArm(Atom, {}, B.var(S)),
  };
  const Expr *Term =
      B.let(S, B.con(Wrap, {B.con(Atom, {})}),
            B.match(S, std::span<const MatchArm>(Arms, 2)));
  SubstResult R = substEval(P, Term);
  ASSERT_TRUE(R.ok()) << (R.Stuck ? "stuck" : "out of fuel");
  const Expr *Want = B.con(Pair, {B.con(Wrap, {B.con(Atom, {})}),
                                   B.con(Atom, {})});
  EXPECT_TRUE(valueEquals(P, R.Value, Want)) << printExpr(P, R.Value);

  // The nullary arm returns the scrutinee unchanged.
  Symbol T = B.sym("t");
  MatchArm Arms2[1] = {B.ctorArm(Atom, {}, B.var(T))};
  R = substEval(P, B.let(T, B.con(Atom, {}),
                         B.match(T, std::span<const MatchArm>(Arms2, 1))));
  ASSERT_TRUE(R.ok()) << (R.Stuck ? "stuck" : "out of fuel");
  EXPECT_EQ(cast<ConExpr>(R.Value)->ctor(), Atom);
}

TEST_F(TermTest, SubstEvalRunsOutOfFuel) {
  Symbol X1 = B.sym("w1"), X2 = B.sym("w2");
  Symbol P1[1] = {X1};
  Symbol P2[1] = {X2};
  const Expr *Omega1 = B.lam(P1, {}, B.app(B.var(X1), {B.var(X1)}));
  const Expr *Omega2 = B.lam(P2, {}, B.app(B.var(X2), {B.var(X2)}));
  SubstResult R = substEval(P, B.app(Omega1, {Omega2}), 1000);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.OutOfFuel);
}

TEST_F(TermTest, ValueEqualityIsStructural) {
  const Expr *A = B.con(Pair, {B.con(Atom, {}), B.con(Atom, {})});
  const Expr *BB = B.con(Pair, {B.con(Atom, {}), B.con(Atom, {})});
  const Expr *C = B.con(Pair, {B.con(Atom, {}), B.con(Wrap, {B.con(Atom, {})})});
  EXPECT_TRUE(valueEquals(P, A, BB));
  EXPECT_FALSE(valueEquals(P, A, C));
}

} // namespace

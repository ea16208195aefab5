//===- tests/calculus/metatheory_test.cpp - Theorems 1-4, dynamically --------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic verification of the paper's meta-theory over random closed
/// lambda-1 terms:
///
///   * Theorem 1 (soundness): the reference-counted heap semantics
///     (Figure 7 term machine) computes the same value as the standard
///     semantics (Figure 6 substitution evaluator).
///   * Theorems 2/4 (garbage-free): at every audited step of the
///     Perceus-instrumented program, every heap location is reachable.
///   * Theorem 3 / Figure 8 invariants: Perceus output passes the
///     structural verifier and the linear-ownership checker.
///   * The optimized pipeline (drop specialization, fusion, reuse,
///     reuse specialization) preserves all of the above.
///   * Contrast: scoped-lifetime RC is sound but NOT garbage free —
///     the audit finds unreachable-yet-live locations (Section 2.2).
///
//===----------------------------------------------------------------------===//

#include "analysis/LinearCheck.h"
#include "analysis/Verifier.h"
#include "calculus/Generator.h"
#include "calculus/SubstEval.h"
#include "calculus/TermMachine.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "perceus/Pipeline.h"
#include "perceus/Perceus.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

struct Seeded : public ::testing::TestWithParam<uint64_t> {};

/// Runs one random term through the standard semantics and through the
/// RC'd term machine under \p Config. A seed whose reference run runs
/// out of fuel is unusable (skipped); one whose reference run is stuck
/// is a bug in the generator or in Figure 6's evaluator and fails.
struct CaseResult {
  bool Usable = false;
  bool RefStuck = false;
  bool SoundnessOk = false;
  bool GarbageFree = false;
  bool HeapOnlyResult = false;
  std::string Detail;
};

CaseResult runCase(uint64_t Seed, const PassConfig &Config) {
  CaseResult Out;
  Program P;
  Rng R(Seed);
  GeneratedTerm G = generateTerm(P, R, 6);

  // Reference result under the standard semantics (on the clean term).
  SubstResult Ref = substEval(P, G.Body, 200000);
  if (!Ref.ok()) {
    if (Ref.Stuck) {
      Out.RefStuck = true;
      Out.Detail = "standard semantics stuck on\n" + printExpr(P, G.Body);
    }
    return Out;
  }
  Out.Usable = true;

  // Instrument and execute on the Figure 7 machine with audits.
  runPipeline(P, Config);
  TermMachine M(P);
  M.setAudit(true);
  M.setStepLimit(500000);
  TermRunResult TR = M.run(P.function(G.Func).Body);
  if (!TR.Ok) {
    Out.Detail = "term machine failed: " + TR.Error;
    return Out;
  }
  Out.GarbageFree = TR.AuditFailures.empty();
  if (!TR.AuditFailures.empty())
    Out.Detail = TR.AuditFailures.front();

  const Expr *Got = M.readback(TR.Value);
  Out.SoundnessOk = valueEquals(P, Got, Ref.Value);
  if (!Out.SoundnessOk)
    Out.Detail += " value mismatch";
  return Out;
}

TEST_P(Seeded, PerceusIsSoundAndGarbageFree) {
  CaseResult C = runCase(GetParam(), PassConfig::perceusNoOpt());
  ASSERT_FALSE(C.RefStuck) << C.Detail;
  if (!C.Usable)
    GTEST_SKIP() << "seed exhausted fuel";
  EXPECT_TRUE(C.SoundnessOk) << C.Detail;
  EXPECT_TRUE(C.GarbageFree) << C.Detail;
}

TEST_P(Seeded, OptimizedPipelinePreservesTheTheorems) {
  CaseResult C = runCase(GetParam(), PassConfig::perceusFull());
  ASSERT_FALSE(C.RefStuck) << C.Detail;
  if (!C.Usable)
    GTEST_SKIP() << "seed exhausted fuel";
  EXPECT_TRUE(C.SoundnessOk) << C.Detail;
  EXPECT_TRUE(C.GarbageFree) << C.Detail;
}

TEST_P(Seeded, ScopedRcIsSoundButHoldsMemoryLonger) {
  CaseResult C = runCase(GetParam(), PassConfig::scoped());
  ASSERT_FALSE(C.RefStuck) << C.Detail;
  if (!C.Usable)
    GTEST_SKIP() << "seed exhausted fuel";
  // Scoped RC must still compute the right value...
  EXPECT_TRUE(C.SoundnessOk) << C.Detail;
  // ...but it is not garbage free in general; that is asserted as a
  // definite property on a known witness below, not per seed.
}

TEST_P(Seeded, PerceusOutputIsLinearAndWellFormed) {
  Program P;
  Rng R(GetParam());
  GeneratedTerm G = generateTerm(P, R, 6);
  for (const PassConfig &Config :
       {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
        PassConfig::scoped()}) {
    Program P2;
    Rng R2(GetParam());
    GeneratedTerm G2 = generateTerm(P2, R2, 6);
    (void)G2;
    runPipeline(P2, Config);
    auto Shape = verifyProgram(P2);
    EXPECT_TRUE(Shape.empty())
        << Config.name() << ": " << (Shape.empty() ? "" : Shape.front());
    auto Linear = checkLinearity(P2);
    EXPECT_TRUE(Linear.empty())
        << Config.name() << ": " << (Linear.empty() ? "" : Linear.front());
  }
  (void)G;
}

INSTANTIATE_TEST_SUITE_P(RandomTerms, Seeded,
                         ::testing::Range(uint64_t(1), uint64_t(151)));

/// The paper's Section 2.2 example, reduced to the calculus: scoped RC
/// retains the matched pair while the (long) right-hand side runs;
/// Perceus drops it immediately. The audit must flag the scoped version.
TEST(ScopedWitness, ScopedRcIsNotGarbageFree) {
  auto build = [](Program &P, const PassConfig &Config) -> const Expr * {
    IRBuilder B(P);
    uint32_t DataId = P.addData(P.symbols().intern("box"));
    CtorId Atom = P.addCtor(DataId, P.symbols().intern("BAtom"), 0);
    CtorId Wrap = P.addCtor(DataId, P.symbols().intern("BWrap"), 1);
    // val xs = BWrap(BAtom); match xs { BWrap(w) -> w; BAtom -> BAtom }
    // then a chain of further allocations while xs is dead.
    Symbol Xs = P.symbols().intern("xs");
    Symbol W = P.symbols().intern("w");
    Symbol Z = P.symbols().intern("z");
    MatchArm Arms[2] = {
        B.ctorArm(Wrap, {W}, B.let(Z, B.con(Wrap, {B.con(Atom, {})}),
                                   B.con(Wrap, {B.var(Z)}))),
        B.ctorArm(Atom, {}, B.con(Atom, {})),
    };
    const Expr *Body =
        B.let(Xs, B.con(Wrap, {B.con(Atom, {})}),
              B.match(Xs, std::span<const MatchArm>(Arms, 2)));
    FuncId F = P.addFunction(P.symbols().intern("main"), {}, Body);
    runPipeline(P, Config);
    return P.function(F).Body;
  };

  // Perceus: garbage free.
  {
    Program P;
    const Expr *Body = build(P, PassConfig::perceusNoOpt());
    TermMachine M(P);
    TermRunResult R = M.run(Body);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.AuditFailures.empty())
        << (R.AuditFailures.empty() ? "" : R.AuditFailures.front());
  }
  // Scoped: the dead pair cell survives into the allocation chain.
  {
    Program P;
    const Expr *Body = build(P, PassConfig::scoped());
    TermMachine M(P);
    TermRunResult R = M.run(Body);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_FALSE(R.AuditFailures.empty())
        << "scoped RC unexpectedly garbage free on the witness";
  }
}

} // namespace

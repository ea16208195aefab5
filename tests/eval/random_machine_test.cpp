//===- tests/eval/random_machine_test.cpp - Machine vs semantics, randomly ----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sweeps random closed lambda-1 programs through the *production*
/// abstract machine under every configuration (full Perceus, no-opt,
/// borrow, scoped, GC) and checks every run computes a value
/// structurally equal to the Figure 6 standard semantics, with an empty
/// final heap for the RC configurations. This complements the term-
/// machine meta-theory tests with end-to-end machine coverage (frame
/// layout, closures, tail calls, reuse tokens at machine level).
///
//===----------------------------------------------------------------------===//

#include "calculus/Generator.h"
#include "calculus/SubstEval.h"
#include "eval/Runner.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

/// Order-insensitive-free structural checksum of a value term.
uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

uint64_t checksumTerm(const Program &P, const Expr *V) {
  if (const auto *C = dyn_cast<ConExpr>(V)) {
    uint64_t H = mix(1, P.ctor(C->ctor()).Tag);
    for (const Expr *Arg : C->args())
      H = mix(H, checksumTerm(P, Arg));
    return H;
  }
  if (isa<LamExpr>(V))
    return 0xC105; // closures compare shallowly
  return 0;
}

uint64_t checksumValue(const Program &P, Value V) {
  switch (V.Kind) {
  case ValueKind::Enum:
    return mix(1, V.enumTag());
  case ValueKind::HeapRef: {
    Cell *C = V.Ref;
    if (C->H.Kind == CellKind::Closure)
      return 0xC105;
    uint64_t H = mix(1, C->H.Tag);
    for (uint32_t I = 0; I != C->H.Arity; ++I)
      H = mix(H, checksumValue(P, C->field(I)));
    return H;
  }
  default:
    return 0;
  }
}

struct MachineSeed : ::testing::TestWithParam<uint64_t> {};

TEST_P(MachineSeed, EveryConfigMatchesTheStandardSemantics) {
  // Reference value under Figure 6.
  uint64_t Expected;
  {
    Program P;
    Rng R(GetParam());
    GeneratedTerm G = generateTerm(P, R, 6);
    SubstResult Ref = substEval(P, G.Body, 200000);
    if (!Ref.ok())
      GTEST_SKIP() << "seed exhausted fuel";
    Expected = checksumTerm(P, Ref.Value);
  }

  for (const PassConfig &Config :
       {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
        PassConfig::perceusBorrow(), PassConfig::scoped(),
        PassConfig::gc()}) {
    auto P = std::make_unique<Program>();
    Rng R(GetParam());
    GeneratedTerm G = generateTerm(*P, R, 6);
    Runner Run(*P, Config);
    ASSERT_TRUE(Run.ok());
    uint64_t Got = ~0ull;
    Run.machine().setResultInspector(
        [&](Value V) { Got = checksumValue(*P, V); });
    Run.machine().setStepLimit(2000000);
    RunResult Res = Run.machine().run(G.Func, {});
    ASSERT_TRUE(Res.Ok) << Config.name() << ": " << Res.Error;
    EXPECT_EQ(Got, Expected) << Config.name();
    if (Config.Mode != RcMode::None) {
      EXPECT_TRUE(Run.heapIsEmpty())
          << Config.name() << " leaked " << Run.heap().stats().LiveCells;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, MachineSeed,
                         ::testing::Range(uint64_t(1000), uint64_t(1120)));

} // namespace

//===- tests/integration/smoke_test.cpp - End-to-end smoke tests -------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LinearCheck.h"
#include "analysis/Verifier.h"
#include "eval/Runner.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

const char *MapSource = R"(
type list {
  Cons(head, tail)
  Nil
}

fun map(xs, f) {
  match xs {
    Cons(x, xx) -> Cons(f(x), map(xx, f))
    Nil -> Nil
  }
}

fun iota(n) {
  if n <= 0 then Nil else Cons(n, iota(n - 1))
}

fun sum(xs) {
  match xs {
    Cons(x, xx) -> x + sum(xx)
    Nil -> 0
  }
}

fun main(n) {
  sum(map(iota(n), fn(x) { x * 2 }))
}
)";

std::vector<PassConfig> allConfigs() {
  return {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
          PassConfig::scoped(), PassConfig::gc()};
}

TEST(Smoke, MapSumAllConfigs) {
  for (const PassConfig &C : allConfigs()) {
    Runner R(MapSource, C);
    ASSERT_TRUE(R.ok()) << C.name() << ": " << R.diagnostics().str();
    RunResult Res = R.callInt("main", {100});
    ASSERT_TRUE(Res.Ok) << C.name() << ": " << Res.Error;
    // sum(map([100..1], *2)) = 2 * 100*101/2 = 10100
    EXPECT_EQ(Res.Result.Int, 10100) << C.name();
    if (C.Mode != RcMode::None) {
      EXPECT_TRUE(R.heapIsEmpty())
          << C.name() << ": leaked " << R.heap().stats().LiveCells
          << " cells";
    }
  }
}

TEST(Smoke, InstrumentedProgramsAreWellFormedAndLinear) {
  for (const PassConfig &C : allConfigs()) {
    if (C.Mode == RcMode::None)
      continue;
    Runner R(MapSource, C);
    ASSERT_TRUE(R.ok());
    auto Errors = verifyProgram(R.program());
    EXPECT_TRUE(Errors.empty())
        << C.name() << ": " << (Errors.empty() ? "" : Errors.front());
    auto Linear = checkLinearity(R.program());
    EXPECT_TRUE(Linear.empty())
        << C.name() << ": " << (Linear.empty() ? "" : Linear.front());
  }
}

} // namespace

//===- tests/eval/machine_test.cpp - Abstract machine unit tests ---------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

/// Runs `main` under every RC configuration plus GC and checks the same
/// integer comes out, the run is clean, and RC heaps end empty.
int64_t evalAll(std::string_view Src, std::vector<int64_t> Args = {}) {
  int64_t Result = 0;
  bool First = true;
  for (const PassConfig &C :
       {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
        PassConfig::scoped(), PassConfig::gc()}) {
    Runner R(Src, C);
    EXPECT_TRUE(R.ok()) << C.name() << ": " << R.diagnostics().str();
    if (!R.ok())
      return INT64_MIN;
    RunResult Res = R.callInt("main", Args);
    EXPECT_TRUE(Res.Ok) << C.name() << ": " << Res.Error;
    if (!Res.Ok)
      return INT64_MIN;
    if (C.Mode != RcMode::None) {
      EXPECT_TRUE(R.heapIsEmpty())
          << C.name() << " leaked " << R.heap().stats().LiveCells;
    }
    if (First) {
      Result = Res.Result.Int;
      First = false;
    } else {
      EXPECT_EQ(Res.Result.Int, Result) << C.name();
    }
  }
  return Result;
}

std::string trapOf(std::string_view Src, std::vector<int64_t> Args = {}) {
  Runner R(Src, PassConfig::perceusFull());
  EXPECT_TRUE(R.ok()) << R.diagnostics().str();
  RunResult Res = R.callInt("main", Args);
  EXPECT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Trap, TrapKind::RuntimeError);
  // Every trap takes the clean-unwind path: no cell survives it.
  EXPECT_TRUE(R.heapIsEmpty())
      << "trap leaked " << R.heap().stats().LiveCells << " cells";
  return Res.Error;
}

TEST(Machine, Arithmetic) {
  EXPECT_EQ(evalAll("fun main(a, b) { a + b * 2 - 1 }", {10, 5}), 19);
  EXPECT_EQ(evalAll("fun main(a, b) { a / b }", {17, 5}), 3);
  EXPECT_EQ(evalAll("fun main(a, b) { a % b }", {17, 5}), 2);
  EXPECT_EQ(evalAll("fun main(a) { -a }", {3}), -3);
  EXPECT_EQ(evalAll("fun main(a) { 0 - a }", {-7}), 7);
}

TEST(Machine, Comparisons) {
  EXPECT_EQ(evalAll("fun main(a, b) { if a < b then 1 else 0 }", {1, 2}), 1);
  EXPECT_EQ(evalAll("fun main(a, b) { if a >= b then 1 else 0 }", {2, 2}), 1);
  EXPECT_EQ(evalAll("fun main(a, b) { if a != b then 1 else 0 }", {2, 2}), 0);
  EXPECT_EQ(evalAll("fun main(a) { if !(a == 1) then 1 else 0 }", {1}), 0);
}

TEST(Machine, EnumEquality) {
  // Nullary constructors compare as immediates, including across tags.
  const char *Src = R"(
    type color { Red  Black }
    fun main(s) {
      val c = if s == 0 then Red else Black
      match c { Red -> 10  Black -> 20 }
    }
  )";
  EXPECT_EQ(evalAll(Src, {0}), 10);
  EXPECT_EQ(evalAll(Src, {1}), 20);
}

TEST(Machine, ClosuresCaptureValues) {
  const char *Src = R"(
    fun make-adder(n) { fn(x) { x + n } }
    fun main(a) {
      val add3 = make-adder(3)
      val add5 = make-adder(5)
      add3(a) + add5(a)
    }
  )";
  EXPECT_EQ(evalAll(Src, {10}), 28);
}

TEST(Machine, ClosureCapturesHeapValue) {
  const char *Src = R"(
    type box { Box(v) }
    fun main(a) {
      val b = Box(a)
      val get = fn(u) { match b { Box(v) -> v + u } }
      get(1) + get(2)
    }
  )";
  EXPECT_EQ(evalAll(Src, {10}), 23);
}

TEST(Machine, FunctionsAsValues) {
  const char *Src = R"(
    fun double(x) { x * 2 }
    fun apply-twice(f, x) { f(f(x)) }
    fun main(a) { apply-twice(double, a) }
  )";
  EXPECT_EQ(evalAll(Src, {5}), 20);
}

TEST(Machine, TailCallsRunInConstantStack) {
  const char *Src = R"(
    fun loop(i, acc) { if i == 0 then acc else loop(i - 1, acc + i) }
    fun main(n) { loop(n, 0) }
  )";
  Runner R(Src, PassConfig::perceusFull());
  RunResult Res = R.callInt("main", {1000000});
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Result.Int, 500000500000ll);
  EXPECT_GT(Res.TailCalls, 999999u);
  EXPECT_LT(Res.MaxLocalsSlots, 64u); // frames reused, not stacked
  EXPECT_LE(Res.MaxCallDepth, 1u);   // tail calls never deepen the stack
}

TEST(Machine, DeepNonTailRecursionUsesMachineStackNotCStack) {
  const char *Src = R"(
    fun sum(n) { if n == 0 then 0 else n + sum(n - 1) }
    fun main(n) { sum(n) }
  )";
  // 300k frames would overflow a native stack in a naive interpreter.
  Runner R(Src, PassConfig::perceusFull());
  RunResult Res = R.callInt("main", {300000});
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Result.Int, 45000150000ll);
}

TEST(Machine, PrintlnAccumulatesOutput) {
  Runner R("fun main(n) { println(n); println(n + 1); n }",
           PassConfig::perceusFull());
  RunResult Res = R.callInt("main", {7});
  ASSERT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Output, "7\n8\n");
}

TEST(Machine, Traps) {
  EXPECT_NE(trapOf("fun main(a) { a / 0 }", {1}).find("division"),
            std::string::npos);
  EXPECT_NE(trapOf("fun main(a) { a % 0 }", {1}).find("modulo"),
            std::string::npos);
  EXPECT_NE(trapOf("fun main(a) { abort() }", {1}).find("abort"),
            std::string::npos);
  EXPECT_NE(trapOf("fun main(a) { val f = fn(x) { x }; f(1, 2) }", {1})
                .find("arity"),
            std::string::npos);
  EXPECT_NE(trapOf("fun main(a) { a(1) }", {1}).find("non-function"),
            std::string::npos);
}

TEST(Machine, StepLimitTraps) {
  Runner R("fun spin(x) { spin(x) } fun main(n) { spin(n) }",
           PassConfig::perceusFull());
  RunLimits L;
  L.Fuel = 10000;
  R.setLimits(L);
  RunResult Res = R.callInt("main", {1});
  EXPECT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Trap, TrapKind::OutOfFuel);
  EXPECT_NE(Res.Error.find("step limit"), std::string::npos);
  EXPECT_TRUE(R.heapIsEmpty());
}

TEST(Machine, CallDepthLimitTraps) {
  Runner R("fun sum(n) { if n == 0 then 0 else n + sum(n - 1) } "
           "fun main(n) { sum(n) }",
           PassConfig::perceusFull());
  RunLimits L;
  L.MaxCallDepth = 100;
  R.setLimits(L);
  RunResult Res = R.callInt("main", {1000});
  EXPECT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Trap, TrapKind::StackOverflow);
  EXPECT_TRUE(R.heapIsEmpty());
  // Shallow recursion stays under the limit on the same machine.
  RunResult Ok = R.callInt("main", {50});
  ASSERT_TRUE(Ok.Ok) << Ok.Error;
  EXPECT_EQ(Ok.Result.Int, 1275);
}

TEST(Machine, TrapUnwindReportsReclaimedCells) {
  // The half-built list is reclaimed by the unwind, and the run result
  // reports how many cells that was.
  const char *Src = R"(
    type list { Cons(h, t)  Nil }
    fun build(i) { if i == 0 then abort() else Cons(i, build(i - 1)) }
    fun main(n) { match build(n) { Cons(h, t) -> h  Nil -> 0 } }
  )";
  Runner R(Src, PassConfig::perceusFull());
  ASSERT_TRUE(R.ok()) << R.diagnostics().str();
  RunResult Res = R.callInt("main", {10});
  ASSERT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Trap, TrapKind::RuntimeError);
  EXPECT_TRUE(R.heapIsEmpty());
  EXPECT_EQ(Res.UnwoundCells, 0u) << "nothing was live yet at the abort";
  // Now trap while structure is genuinely live: the list is consumed
  // *after* the faulting division, so Perceus cannot drop it early.
  const char *Src2 = R"(
    type list { Cons(h, t)  Nil }
    fun build(i) { if i == 0 then Nil else Cons(i, build(i - 1)) }
    fun len(xs, acc) {
      match xs { Cons(h, t) -> len(t, acc + 1)  Nil -> acc }
    }
    fun main(n) {
      val xs = build(n)
      val bad = n / (n - n)
      len(xs, bad)
    }
  )";
  Runner R2(Src2, PassConfig::perceusFull());
  ASSERT_TRUE(R2.ok()) << R2.diagnostics().str();
  RunResult Res2 = R2.callInt("main", {10});
  ASSERT_FALSE(Res2.Ok);
  EXPECT_EQ(Res2.Trap, TrapKind::RuntimeError);
  EXPECT_TRUE(R2.heapIsEmpty());
  EXPECT_GT(Res2.UnwoundCells, 0u) << "the list must ride the unwind";
}

TEST(Machine, EntryArityChecked) {
  Runner R("fun main(a, b) { a + b }", PassConfig::perceusFull());
  RunResult Res = R.callInt("main", {1});
  EXPECT_FALSE(Res.Ok);
}

TEST(Machine, UnknownEntryReported) {
  Runner R("fun main() { 1 }", PassConfig::perceusFull());
  RunResult Res = R.callInt("nope", {});
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("no such function"), std::string::npos);
}

TEST(Machine, HeapResultIsReleased) {
  // A heap-valued result must be dropped so the run stays garbage free.
  Runner R("type b { Box(v) } fun main(n) { Box(n) }",
           PassConfig::perceusFull());
  RunResult Res = R.callInt("main", {1});
  ASSERT_TRUE(Res.Ok);
  EXPECT_EQ(Res.Result.Kind, ValueKind::HeapRef);
  EXPECT_TRUE(R.heapIsEmpty());
}

TEST(Machine, MarkSharedPrimStillComputes) {
  const char *Src = R"(
    type list { Cons(h, t)  Nil }
    fun len(xs, acc) {
      match xs { Cons(h, t) -> len(t, acc + 1)  Nil -> acc }
    }
    fun main(n) {
      val xs = Cons(1, Cons(2, Cons(3, Nil)))
      tshare(xs)
      n
    }
  )";
  for (const PassConfig &C :
       {PassConfig::perceusFull(), PassConfig::perceusNoOpt()}) {
    Runner R(Src, C);
    RunResult Res = R.callInt("main", {9});
    ASSERT_TRUE(Res.Ok) << Res.Error;
    EXPECT_EQ(Res.Result.Int, 9);
    EXPECT_TRUE(R.heapIsEmpty()) << "tshare consumed its argument";
    EXPECT_GT(R.heap().stats().AtomicRcOps, 0u);
  }
}

TEST(Machine, UnusedParametersAreDropped) {
  const char *Src = R"(
    type b { Box(v) }
    fun ignore(x, y) { y }
    fun main(n) { ignore(Box(n), n) }
  )";
  EXPECT_EQ(evalAll(Src, {3}), 3);
}

TEST(Machine, GcCollectsUnderPressure) {
  const char *Src = R"(
    type list { Cons(h, t)  Nil }
    fun churn(i, acc) {
      if i == 0 then acc
      else churn(i - 1, acc + len(Cons(i, Cons(i, Nil)), 0))
    }
    fun len(xs, acc) {
      match xs { Cons(h, t) -> len(t, acc + 1)  Nil -> acc }
    }
    fun main(n) { churn(n, 0) }
  )";
  // A tiny threshold forces many collections.
  Runner R(Src, PassConfig::gc(), EngineConfig{}.withGcThreshold(4096));
  RunResult Res = R.callInt("main", {20000});
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Result.Int, 40000);
  EXPECT_GT(R.heap().stats().Collections, 10u);
  // Live data stays bounded even though 40k cells were churned.
  EXPECT_LT(R.heap().stats().PeakBytes, 64u * 1024);
}

TEST(Machine, GcPreservesLiveDataAcrossCollections) {
  const char *Src = R"(
    type list { Cons(h, t)  Nil }
    fun build(i) { if i == 0 then Nil else Cons(i, build(i - 1)) }
    fun sum(xs, acc) {
      match xs { Cons(h, t) -> sum(t, acc + h)  Nil -> acc }
    }
    fun churn(i) { if i == 0 then 0 else { build(50); churn(i - 1) } }
    fun main(n) {
      val keep = build(n)
      churn(500)
      sum(keep, 0)
    }
  )";
  Runner R(Src, PassConfig::gc(), EngineConfig{}.withGcThreshold(8192));
  RunResult Res = R.callInt("main", {100});
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Result.Int, 5050);
  EXPECT_GT(R.heap().stats().Collections, 0u);
}

} // namespace

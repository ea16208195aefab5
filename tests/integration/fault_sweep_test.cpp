//===- tests/integration/fault_sweep_test.cpp - Exhaustive fault injection ----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SQLite-style exhaustive fault sweep: for every benchmark program
/// and every pass configuration, run once to count the allocations, then
/// re-run with the k-th allocation failing, for *every* k. Each injected
/// failure must surface as a structured TrapKind::OutOfMemory — never a
/// crash — and the machine's clean-unwind path must leave the heap empty,
/// extending the paper's garbage-free guarantee (Theorems 2/4) to the
/// error path. The same discipline is swept over step fuel (OutOfFuel)
/// and checked for the call-depth limit (StackOverflow) and the heap
/// governor's live-data limits, on the VM's peephole tier (the raw tier
/// is swept against it in tests/bytecode/engine_diff_test.cpp).
///
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"
#include "programs/Programs.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

struct Case {
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t N; // kept small: the sweep is quadratic in the allocation count
};

std::vector<Case> cases() {
  return {
      {"rbtree", rbtreeSource(), "bench_rbtree", 20},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", 12},
      {"deriv", derivSource(), "bench_deriv", 3},
      {"nqueens", nqueensSource(), "bench_nqueens", 4},
      {"cfold", cfoldSource(), "bench_cfold", 3},
      {"tmap-fbip", tmapSource(), "bench_tmap_fbip", 3},
      {"tmap-naive", tmapSource(), "bench_tmap_naive", 3},
      {"mapsum", mapSumSource(), "bench_mapsum", 24},
      {"msort", msortSource(), "bench_msort", 16},
      {"queue", queueSource(), "bench_queue", 16},
  };
}

/// The five stock configurations, plus full Perceus without drop-reuse
/// specialization, whose unspecialized DropReuse instructions must
/// unwind cleanly too.
std::vector<PassConfig> allConfigs() {
  PassConfig NoDropSpec = PassConfig::perceusFull();
  NoDropSpec.EnableDropSpec = false;
  return {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
          PassConfig::perceusBorrow(), PassConfig::scoped(),
          PassConfig::gc(), NoDropSpec};
}

class FaultSweep : public ::testing::TestWithParam<size_t> {};

/// The tentpole sweep: fail allocation k for every k, under every config.
TEST_P(FaultSweep, EveryFailingAllocationUnwindsCleanly) {
  Case C = cases()[GetParam()];
  for (const PassConfig &Config : allConfigs()) {
    Runner R(C.Source, Config);
    ASSERT_TRUE(R.ok()) << Config.name() << ": " << R.diagnostics().str();

    // Calibration run: how many allocation attempts does one run make?
    RunResult Clean = R.callInt(C.Entry, {C.N});
    ASSERT_TRUE(Clean.Ok) << C.Name << "/" << Config.name() << ": "
                          << Clean.Error;
    uint64_t Before = R.heap().stats().Allocs;
    RunResult Clean2 = R.callInt(C.Entry, {C.N});
    ASSERT_TRUE(Clean2.Ok);
    uint64_t PerRun = R.heap().stats().Allocs - Before;
    ASSERT_GT(PerRun, 0u) << C.Name << " allocates nothing to sweep";
    ASSERT_LT(PerRun, 4000u) << C.Name << " too large for the sweep";

    for (uint64_t K = 1; K <= PerRun; ++K) {
      FaultInjector FI = FaultInjector::failNth(K);
      R.setFaultInjector(&FI);
      RunResult Res = R.callInt(C.Entry, {C.N});
      ASSERT_FALSE(Res.Ok)
          << C.Name << "/" << Config.name() << " k=" << K
          << ": run succeeded past an injected allocation failure";
      ASSERT_EQ(Res.Trap, TrapKind::OutOfMemory)
          << C.Name << "/" << Config.name() << " k=" << K << ": "
          << Res.Error;
      ASSERT_EQ(FI.injected(), 1u);
      ASSERT_TRUE(R.heapIsEmpty())
          << C.Name << "/" << Config.name() << " k=" << K << " leaked "
          << R.heap().stats().LiveCells << " cells on the OOM path";
    }
    R.setFaultInjector(nullptr);

    // The heap (free lists, slabs) must still be fully serviceable.
    RunResult After = R.callInt(C.Entry, {C.N});
    ASSERT_TRUE(After.Ok) << C.Name << "/" << Config.name()
                          << " broken after the sweep: " << After.Error;
    EXPECT_EQ(After.Result.Int, Clean.Result.Int)
        << C.Name << "/" << Config.name() << " computes differently "
        << "after the sweep";
  }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, FaultSweep,
                         ::testing::Range(size_t(0), cases().size()),
                         [](const ::testing::TestParamInfo<size_t> &I) {
                           std::string Name = cases()[I.param].Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

/// Fuel exhaustion at every step count: trap is OutOfFuel, heap empty.
TEST(FuelSweep, EveryFuelLevelUnwindsCleanly) {
  Case C{"msort", msortSource(), "bench_msort", 12};
  for (const PassConfig &Config : allConfigs()) {
    Runner R(C.Source, Config);
    ASSERT_TRUE(R.ok());
    RunResult Clean = R.callInt(C.Entry, {C.N});
    ASSERT_TRUE(Clean.Ok) << Clean.Error;
    uint64_t Steps = Clean.Steps;
    // Full sweep for the flagship config, sampled for the rest.
    uint64_t Stride = Config.Mode == RcMode::Perceus && Config.EnableReuse
                          ? 1
                          : 13;
    for (uint64_t Fuel = 1; Fuel < Steps; Fuel += Stride) {
      RunLimits L;
      L.Fuel = Fuel;
      R.setLimits(L);
      RunResult Res = R.callInt(C.Entry, {C.N});
      ASSERT_FALSE(Res.Ok) << Config.name() << " fuel=" << Fuel;
      ASSERT_EQ(Res.Trap, TrapKind::OutOfFuel)
          << Config.name() << " fuel=" << Fuel << ": " << Res.Error;
      ASSERT_TRUE(R.heapIsEmpty())
          << Config.name() << " fuel=" << Fuel << " leaked "
          << R.heap().stats().LiveCells << " cells";
    }
    // Exactly enough fuel succeeds again.
    RunLimits L;
    L.Fuel = Steps;
    R.setLimits(L);
    RunResult Res = R.callInt(C.Entry, {C.N});
    ASSERT_TRUE(Res.Ok) << Res.Error;
    EXPECT_EQ(Res.Result.Int, Clean.Result.Int);
  }
}

/// The VM folds fuel and the safepoint cadence into one budget compare
/// per dispatch. With a far deadline armed, safepoints run every
/// DeadlineCheckInterval dispatches; fuel just below, at and above a
/// safepoint, a shared-flush stride and beyond must still trap on
/// exactly the step past the limit, on the raw and the peephole VM.
TEST(FuelSweep, BudgetTrapsOnTheExactStepWithSafepointsArmed) {
  for (bool Peephole : {false, true}) {
    SCOPED_TRACE(Peephole ? "peephole vm" : "raw vm");
    Runner R(msortSource(), PassConfig::perceusFull(),
             EngineConfig{}.withPeephole(Peephole));
    ASSERT_TRUE(R.ok());
    RunLimits L;
    L.DeadlineMs = 600000; // arms the safepoints; never expires here
    R.setLimits(L);
    RunResult Clean = R.callInt("bench_msort", {1000});
    ASSERT_TRUE(Clean.Ok) << Clean.Error;
    ASSERT_GT(Clean.Steps, 70000u);
    for (uint64_t Fuel : {1023, 1024, 1025, 32767, 32768, 32769, 65537}) {
      SCOPED_TRACE("fuel=" + std::to_string(Fuel));
      L.Fuel = Fuel;
      R.setLimits(L);
      RunResult Res = R.callInt("bench_msort", {1000});
      ASSERT_FALSE(Res.Ok);
      EXPECT_EQ(Res.Trap, TrapKind::OutOfFuel) << Res.Error;
      EXPECT_EQ(Res.Steps, Fuel + 1);
      EXPECT_TRUE(R.heapIsEmpty())
          << "leaked " << R.heap().stats().LiveCells << " cells";
    }
    L.Fuel = Clean.Steps;
    R.setLimits(L);
    RunResult Res = R.callInt("bench_msort", {1000});
    ASSERT_TRUE(Res.Ok) << Res.Error;
    EXPECT_EQ(Res.Steps, Clean.Steps);
    EXPECT_EQ(Res.Result.Int, Clean.Result.Int);
  }
}

const char *DeepSource = R"(
type list {
  Cons(head, tail)
  Nil
}
// Non-tail recursion: every level holds a live Cons while recursing.
fun build(i) {
  if i == 0 then Nil else Cons(i, build(i - 1))
}
fun len(xs, acc) {
  match xs { Cons(x, t) -> len(t, acc + 1)  Nil -> acc }
}
fun main(n) { len(build(n), 0) }
)";

TEST(DepthLimit, NonTailRecursionTrapsAndUnwinds) {
  for (const PassConfig &Config : allConfigs()) {
    Runner R(DeepSource, Config);
    ASSERT_TRUE(R.ok());
    RunLimits L;
    L.MaxCallDepth = 10;
    R.setLimits(L);
    RunResult Res = R.callInt("main", {1000});
    ASSERT_FALSE(Res.Ok) << Config.name();
    EXPECT_EQ(Res.Trap, TrapKind::StackOverflow) << Config.name();
    EXPECT_TRUE(R.heapIsEmpty())
        << Config.name() << " leaked " << R.heap().stats().LiveCells
        << " cells on the stack-overflow path";
    // A generous limit lets the same runner complete.
    L.MaxCallDepth = 100000;
    R.setLimits(L);
    RunResult Ok = R.callInt("main", {1000});
    ASSERT_TRUE(Ok.Ok) << Config.name() << ": " << Ok.Error;
    EXPECT_EQ(Ok.Result.Int, 1000);
  }
}

TEST(DepthLimit, TailCallsDoNotConsumeDepth) {
  const char *Src = R"(
    fun loop(i, acc) { if i == 0 then acc else loop(i - 1, acc + i) }
    fun main(n) { loop(n, 0) }
  )";
  Runner R(Src, PassConfig::perceusFull());
  ASSERT_TRUE(R.ok());
  RunLimits L;
  L.MaxCallDepth = 4; // far fewer than the 100k iterations below
  R.setLimits(L);
  RunResult Res = R.callInt("main", {100000});
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Result.Int, 5000050000ll);
}

TEST(HeapGovernor, LiveBytesLimitTrapsRcConfigs) {
  // Building an n-element list under a tiny live-bytes cap must OOM with
  // a clean unwind, and succeed untouched once the cap is lifted.
  for (const PassConfig &Config :
       {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
        PassConfig::scoped()}) {
    Runner R(DeepSource, Config);
    ASSERT_TRUE(R.ok());
    RunLimits L;
    L.Heap.MaxLiveBytes = 1024;
    R.setLimits(L);
    RunResult Res = R.callInt("main", {5000});
    ASSERT_FALSE(Res.Ok) << Config.name();
    EXPECT_EQ(Res.Trap, TrapKind::OutOfMemory) << Config.name();
    EXPECT_TRUE(R.heapIsEmpty()) << Config.name();
    EXPECT_GT(R.heap().stats().FailedAllocs, 0u);
    R.setLimits(RunLimits::unlimited());
    RunResult Ok = R.callInt("main", {5000});
    ASSERT_TRUE(Ok.Ok) << Config.name() << ": " << Ok.Error;
    EXPECT_EQ(Ok.Result.Int, 5000);
  }
}

TEST(HeapGovernor, EmergencyCollectionRescuesGcMode) {
  // A churny program whose live set is tiny: under a live-bytes cap the
  // GC configuration must rescue itself with emergency collections
  // instead of trapping (the cap is far above the true live set but far
  // below the garbage a lazy collector would retain).
  const char *Churn = R"(
    type list { Cons(h, t)  Nil }
    fun len(xs, acc) {
      match xs { Cons(h, t) -> len(t, acc + 1)  Nil -> acc }
    }
    fun churn(i, acc) {
      if i == 0 then acc
      else churn(i - 1, acc + len(Cons(i, Cons(i, Nil)), 0))
    }
    fun main(n) { churn(n, 0) }
  )";
  // A huge threshold disables routine collections; only the governor's
  // emergency collections can keep the run under the cap.
  Runner R(Churn, PassConfig::gc(), EngineConfig{}.withGcThreshold(64u << 20));
  ASSERT_TRUE(R.ok());
  RunLimits L;
  L.Heap.MaxLiveBytes = 16 * 1024;
  R.setLimits(L);
  RunResult Res = R.callInt("main", {5000});
  ASSERT_TRUE(Res.Ok) << Res.Error;
  EXPECT_EQ(Res.Result.Int, 10000);
  EXPECT_GT(R.heap().stats().EmergencyCollections, 0u);
  EXPECT_EQ(R.heap().stats().FailedAllocs, 0u);
}

TEST(HeapGovernor, AllocBudgetIsAHardCeiling) {
  // The budget counts heap-lifetime allocations; no collection or reuse
  // can win them back.
  Runner Probe(DeepSource, PassConfig::perceusFull());
  ASSERT_TRUE(Probe.ok());
  RunResult Clean = Probe.callInt("main", {100});
  ASSERT_TRUE(Clean.Ok);
  uint64_t Needed = Probe.heap().stats().Allocs;

  for (uint64_t Budget : {Needed - 1, Needed / 2, uint64_t(1)}) {
    Runner R(DeepSource, PassConfig::perceusFull());
    ASSERT_TRUE(R.ok());
    RunLimits L;
    L.Heap.AllocBudget = Budget;
    R.setLimits(L);
    RunResult Res = R.callInt("main", {100});
    ASSERT_FALSE(Res.Ok) << "budget=" << Budget;
    EXPECT_EQ(Res.Trap, TrapKind::OutOfMemory);
    EXPECT_TRUE(R.heapIsEmpty());
  }
  Runner R(DeepSource, PassConfig::perceusFull());
  RunLimits L;
  L.Heap.AllocBudget = Needed;
  R.setLimits(L);
  RunResult Res = R.callInt("main", {100});
  ASSERT_TRUE(Res.Ok) << Res.Error;
}

TEST(HeapGovernor, MaxLiveCellsLimit) {
  Runner R(DeepSource, PassConfig::perceusFull());
  ASSERT_TRUE(R.ok());
  RunLimits L;
  L.Heap.MaxLiveCells = 50;
  R.setLimits(L);
  RunResult Res = R.callInt("main", {1000});
  ASSERT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Trap, TrapKind::OutOfMemory);
  EXPECT_TRUE(R.heapIsEmpty());
  // 40 cells fit comfortably under a 50-cell cap.
  RunResult Ok = R.callInt("main", {40});
  ASSERT_TRUE(Ok.Ok) << Ok.Error;
  EXPECT_EQ(Ok.Result.Int, 40);
}

TEST(ProbabilisticFaults, RandomOutagesNeverLeak) {
  Case C{"rbtree", rbtreeSource(), "bench_rbtree", 20};
  for (const PassConfig &Config : allConfigs()) {
    Runner R(C.Source, Config);
    ASSERT_TRUE(R.ok());
    for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
      FaultInjector FI = FaultInjector::probabilistic(Seed, 1, 32);
      R.setFaultInjector(&FI);
      RunResult Res = R.callInt(C.Entry, {C.N});
      if (Res.Ok) {
        EXPECT_EQ(FI.injected(), 0u);
      } else {
        EXPECT_EQ(Res.Trap, TrapKind::OutOfMemory)
            << Config.name() << " seed=" << Seed << ": " << Res.Error;
      }
      R.setFaultInjector(nullptr);
      EXPECT_TRUE(R.heapIsEmpty())
          << Config.name() << " seed=" << Seed << " leaked "
          << R.heap().stats().LiveCells << " cells";
    }
  }
}

/// Runtime errors (the errorflow family: arity mismatches, bad match
/// subjects, division by zero) ride the same unwind: no leaks either.
TEST(RuntimeErrorUnwind, TrapsLeaveTheHeapEmpty) {
  struct Bad {
    const char *Name;
    const char *Source;
  };
  // Each program builds live heap structure before trapping mid-flight.
  const Bad Bads[] = {
      {"div-by-zero", R"(
        type list { Cons(h, t)  Nil }
        fun main(n) {
          val xs = Cons(1, Cons(2, Cons(3, Nil)))
          match xs { Cons(h, t) -> h / (n - n)  Nil -> 0 }
        }
      )"},
      {"closure-arity", R"(
        type b { Box(v) }
        fun main(n) {
          val x = Box(Box(n))
          val f = fn(a) { a }
          f(x, x)
        }
      )"},
      {"call-non-function", R"(
        type b { Box(v) }
        fun main(n) { val x = Box(n)  n(1) }
      )"},
      {"explicit-abort", R"(
        type list { Cons(h, t)  Nil }
        fun main(n) { val xs = Cons(n, Nil)  abort() }
      )"},
  };
  for (const Bad &B : Bads) {
    for (const PassConfig &Config : allConfigs()) {
        Runner R(B.Source, Config);
      ASSERT_TRUE(R.ok()) << B.Name << "/" << Config.name() << ": "
                          << R.diagnostics().str();
      RunResult Res = R.callInt("main", {5});
      ASSERT_FALSE(Res.Ok) << B.Name << "/" << Config.name();
      EXPECT_EQ(Res.Trap, TrapKind::RuntimeError)
          << B.Name << "/" << Config.name();
      EXPECT_TRUE(R.heapIsEmpty())
          << B.Name << "/" << Config.name() << " leaked "
          << R.heap().stats().LiveCells << " cells on a runtime error";
    }
  }
}

TEST(TrapNames, AreStable) {
  EXPECT_STREQ(trapKindName(TrapKind::Ok), "ok");
  EXPECT_STREQ(trapKindName(TrapKind::OutOfMemory), "out-of-memory");
  EXPECT_STREQ(trapKindName(TrapKind::OutOfFuel), "out-of-fuel");
  EXPECT_STREQ(trapKindName(TrapKind::StackOverflow), "stack-overflow");
  EXPECT_STREQ(trapKindName(TrapKind::RuntimeError), "runtime-error");
}

} // namespace

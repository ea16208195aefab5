//===- tests/bytecode/engine_diff_test.cpp - CEK vs VM, differentially ---===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing of the two execution engines: every benchmark
/// program under every pass configuration runs on both the CEK machine
/// and the bytecode VM, and everything observable must agree — results
/// (structural checksums for heap values), println output, the
/// engine-side RC instruction counts, the heap's own statistics, reuse
/// hits/misses, and the garbage-free guarantee (Heap::empty() after the
/// run). Random closed lambda-1 programs from the calculus generator
/// widen the input space beyond the hand-written set, and an exhaustive
/// failing-allocation sweep pins the engines to the same trap point,
/// the same unwind size, and the same (empty) final heap on every error
/// path.
///
/// Engine-specific dispatch metrics (Steps, TailCalls, MaxCallDepth,
/// MaxLocalsSlots) are exempt by design — see eval/Engine.h. Heap
/// statistics in the tracing-GC configuration are compared only where
/// collection timing cannot perturb them (allocation count, results):
/// the engines' root sets have different shapes, so collections land at
/// different allocation indices.
///
//===----------------------------------------------------------------------===//

#include "calculus/Generator.h"
#include "eval/Runner.h"
#include "programs/Programs.h"
#include "support/Casting.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

struct DiffCase {
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t N;
};

std::vector<DiffCase> diffCases() {
  return {
      {"rbtree", rbtreeSource(), "bench_rbtree", 120},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", 60},
      {"deriv", derivSource(), "bench_deriv", 4},
      {"nqueens", nqueensSource(), "bench_nqueens", 6},
      {"cfold", cfoldSource(), "bench_cfold", 6},
      {"tmap-fbip", tmapSource(), "bench_tmap_fbip", 6},
      {"tmap-naive", tmapSource(), "bench_tmap_naive", 6},
      {"mapsum", mapSumSource(), "bench_mapsum", 500},
      {"msort", msortSource(), "bench_msort", 300},
      {"queue", queueSource(), "bench_queue", 300},
      {"shared-tree-build", sharedTreeSource(), "build_tree", 6},
  };
}

std::vector<std::pair<const char *, PassConfig>> allConfigs() {
  return {{"perceus", PassConfig::perceusFull()},
          {"perceus-noopt", PassConfig::perceusNoOpt()},
          {"perceus-borrow", PassConfig::perceusBorrow()},
          {"scoped-rc", PassConfig::scoped()},
          {"gc", PassConfig::gc()}};
}

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

/// Structural checksum of a result value (closures compare shallowly —
/// both engines represent them as the same capture cell layout, but the
/// code pointer differs in kind, not meaning).
uint64_t checksumValue(Value V) {
  switch (V.Kind) {
  case ValueKind::Int:
    return mix(2, uint64_t(V.Int));
  case ValueKind::Bool:
    return mix(3, V.asBool());
  case ValueKind::Enum:
    return mix(1, V.enumTag());
  case ValueKind::HeapRef: {
    Cell *C = V.Ref;
    if (C->H.Kind == CellKind::Closure)
      return 0xC105;
    uint64_t H = mix(1, C->H.Tag);
    for (uint32_t I = 0; I != C->H.Arity; ++I)
      H = mix(H, checksumValue(C->field(I)));
    return H;
  }
  default:
    return 0;
  }
}

/// Everything one run observably produced.
struct Observed {
  RunResult Run;
  HeapStats Heap;
  uint64_t Checksum = 0;
  bool HeapEmpty = false;
};

Observed runOn(const DiffCase &C, const PassConfig &Config,
               EngineKind Engine, FaultInjector *FI = nullptr,
               bool Peephole = false) {
  EngineConfig EC = EngineConfig{}.withEngine(Engine).withPeephole(Peephole);
  EC.Injector = FI;
  Runner R(C.Source, Config, EC);
  EXPECT_TRUE(R.ok()) << R.diagnostics().str();
  Observed O;
  R.engine().setResultInspector(
      [&](Value V) { O.Checksum = checksumValue(V); });
  O.Run = R.callInt(C.Entry, {C.N});
  O.Heap = R.heap().stats();
  O.HeapEmpty = R.heapIsEmpty();
  return O;
}

/// The full equality contract between two runs of the same program.
/// \p GcMode relaxes the heap comparison to collection-timing-immune
/// counters. \p Semantic relaxes the RC-instruction comparison to the
/// peephole elision relation: the rewritten VM may execute fewer
/// dup/drop/decref *instructions*, but only ones the immediacy analysis
/// proved operate on immediates — so every elided instruction is
/// accounted for, one-for-one, by the drop in the heap's NonHeapRcOps
/// classification, and every heap-semantic counter stays bit-identical.
void expectEqualObservations(const Observed &Cek, const Observed &Vm,
                             bool GcMode, bool Semantic = false) {
  EXPECT_EQ(Cek.Run.Ok, Vm.Run.Ok) << Vm.Run.Error;
  EXPECT_EQ(Cek.Run.Trap, Vm.Run.Trap);
  EXPECT_EQ(Cek.Run.Error, Vm.Run.Error);
  EXPECT_EQ(Cek.Run.Output, Vm.Run.Output);
  EXPECT_EQ(Cek.Checksum, Vm.Checksum);
  EXPECT_EQ(Cek.Run.Result.Kind, Vm.Run.Result.Kind);

  const RcInstrCounts &A = Cek.Run.Rc, &B = Vm.Run.Rc;
  const HeapStats &H = Cek.Heap, &G = Vm.Heap;
  if (!Semantic) {
    EXPECT_EQ(A.Dups, B.Dups);
    EXPECT_EQ(A.Drops, B.Drops);
    EXPECT_EQ(A.DecRefs, B.DecRefs);
    EXPECT_EQ(B.FusedOps, 0u);
    EXPECT_EQ(B.FusedRcOps, 0u);
  } else {
    // Elision only ever removes instructions, never adds them.
    EXPECT_GE(A.Dups, B.Dups);
    EXPECT_GE(A.Drops, B.Drops);
    EXPECT_GE(A.DecRefs, B.DecRefs);
    if (!GcMode) {
      // The conservation law: every elided engine-side RC instruction
      // is one the heap would have classified as a non-heap no-op.
      uint64_t ElidedInstrs = (A.Dups - B.Dups) + (A.Drops - B.Drops) +
                              (A.DecRefs - B.DecRefs);
      EXPECT_EQ(ElidedInstrs, H.NonHeapRcOps - G.NonHeapRcOps);
    }
    // The RC operations executed inside superinstructions were already
    // tallied in the per-kind counters; FusedRcOps only audits them.
    EXPECT_LE(B.FusedRcOps, B.Dups + B.Drops + B.DecRefs + B.IsUniques);
  }
  EXPECT_EQ(A.Frees, B.Frees);
  EXPECT_EQ(A.IsUniques, B.IsUniques);
  EXPECT_EQ(A.DropReuses, B.DropReuses);
  EXPECT_EQ(A.ImplicitDups, B.ImplicitDups);
  EXPECT_EQ(A.ImplicitDrops, B.ImplicitDrops);
  EXPECT_EQ(A.ImplicitDecRefs, B.ImplicitDecRefs);
  EXPECT_EQ(Cek.Run.ReuseHits, Vm.Run.ReuseHits);
  EXPECT_EQ(Cek.Run.ReuseMisses, Vm.Run.ReuseMisses);

  EXPECT_EQ(H.Allocs, G.Allocs);
  if (!GcMode) {
    EXPECT_EQ(H.Frees, G.Frees);
    EXPECT_EQ(H.DupOps, G.DupOps);
    EXPECT_EQ(H.DropOps, G.DropOps);
    EXPECT_EQ(H.DecRefOps, G.DecRefOps);
    if (!Semantic)
      EXPECT_EQ(H.NonHeapRcOps, G.NonHeapRcOps);
    else
      EXPECT_GE(H.NonHeapRcOps, G.NonHeapRcOps);
    EXPECT_EQ(H.AtomicRcOps, G.AtomicRcOps);
    EXPECT_EQ(H.IsUniqueTests, G.IsUniqueTests);
    EXPECT_EQ(H.FailedAllocs, G.FailedAllocs);
    EXPECT_EQ(H.UnwindFrees, G.UnwindFrees);
    EXPECT_EQ(H.LiveBytes, G.LiveBytes);
    EXPECT_EQ(H.PeakBytes, G.PeakBytes);
    EXPECT_EQ(H.LiveCells, G.LiveCells);
    EXPECT_EQ(Cek.Run.UnwoundCells, Vm.Run.UnwoundCells);
    EXPECT_EQ(Cek.HeapEmpty, Vm.HeapEmpty);
  }
}

/// The three-way diff: the CEK machine vs the plain VM (exact equality,
/// the historical contract) vs the peepholed VM (exact on everything
/// heap-semantic, the elision conservation law on the RC instruction
/// counts).
TEST(EngineDiff, EveryProgramEveryConfigAgrees) {
  for (const DiffCase &C : diffCases()) {
    for (const auto &[Name, Config] : allConfigs()) {
      SCOPED_TRACE(std::string(C.Name) + " / " + Name);
      bool GcMode = Config.Mode == RcMode::None;
      Observed Cek = runOn(C, Config, EngineKind::Cek);
      Observed Vm = runOn(C, Config, EngineKind::Vm);
      Observed VmPeep = runOn(C, Config, EngineKind::Vm, nullptr,
                              /*Peephole=*/true);
      ASSERT_TRUE(Cek.Run.Ok) << Cek.Run.Error;
      expectEqualObservations(Cek, Vm, GcMode);
      expectEqualObservations(Cek, VmPeep, GcMode, /*Semantic=*/true);
      if (Config.Mode != RcMode::None) {
        EXPECT_TRUE(Cek.HeapEmpty);
        EXPECT_TRUE(Vm.HeapEmpty);
        EXPECT_TRUE(VmPeep.HeapEmpty);
      }
    }
  }
}

/// The peephole tier must actually bite on the benchmark programs in the
/// full configuration — a silent no-op pass would keep every test above
/// green while delivering nothing.
TEST(EngineDiff, PeepholeFusesAndElidesOnTheBenchmarks) {
  for (const DiffCase &C : diffCases()) {
    SCOPED_TRACE(C.Name);
    Observed Plain = runOn(C, PassConfig::perceusFull(), EngineKind::Vm);
    Observed Peep = runOn(C, PassConfig::perceusFull(), EngineKind::Vm,
                          nullptr, /*Peephole=*/true);
    EXPECT_GT(Peep.Run.Rc.FusedOps, 0u);
    EXPECT_LT(Peep.Run.Steps, Plain.Run.Steps);
  }
}

/// The exhaustive failing-allocation sweep, differentially: for every k,
/// both engines must hit the injected failure at the same allocation,
/// trap with OutOfMemory, unwind the same number of cells, and leave
/// their heaps empty. The alloc sequence is part of the equivalence
/// contract, so the k-th attempt is the same attempt on both engines.
TEST(EngineDiff, FaultSweepTrapsAtTheSamePointOnBothEngines) {
  std::vector<DiffCase> Cases = {
      {"rbtree", rbtreeSource(), "bench_rbtree", 16},
      {"msort", msortSource(), "bench_msort", 12},
  };
  for (const DiffCase &C : Cases) {
    for (const auto &[Name, Config] : allConfigs()) {
      if (Config.Mode == RcMode::None)
        continue; // GC collection timing makes the k-th attempt differ
      SCOPED_TRACE(std::string(C.Name) + " / " + Name);
      Observed Clean = runOn(C, Config, EngineKind::Cek);
      ASSERT_TRUE(Clean.Run.Ok) << Clean.Run.Error;
      uint64_t PerRun = Clean.Heap.Allocs;
      ASSERT_GT(PerRun, 0u);
      ASSERT_LT(PerRun, 1500u) << "too large for the differential sweep";

      for (uint64_t K = 1; K <= PerRun; ++K) {
        SCOPED_TRACE("k=" + std::to_string(K));
        FaultInjector FiCek = FaultInjector::failNth(K);
        FaultInjector FiVm = FaultInjector::failNth(K);
        FaultInjector FiPeep = FaultInjector::failNth(K);
        Observed Cek = runOn(C, Config, EngineKind::Cek, &FiCek);
        Observed Vm = runOn(C, Config, EngineKind::Vm, &FiVm);
        // The peepholed VM allocates at the same indices (elision never
        // touches an allocating instruction), so the k-th attempt is the
        // same attempt — and the unwind must reclaim the same cells even
        // from rewritten code with skipped dead-temp writes.
        Observed Peep = runOn(C, Config, EngineKind::Vm, &FiPeep,
                              /*Peephole=*/true);
        ASSERT_FALSE(Cek.Run.Ok);
        ASSERT_FALSE(Vm.Run.Ok);
        ASSERT_FALSE(Peep.Run.Ok);
        ASSERT_EQ(Cek.Run.Trap, TrapKind::OutOfMemory);
        ASSERT_EQ(Vm.Run.Trap, TrapKind::OutOfMemory);
        ASSERT_EQ(Peep.Run.Trap, TrapKind::OutOfMemory);
        ASSERT_EQ(FiCek.injected(), 1u);
        ASSERT_EQ(FiVm.injected(), 1u);
        ASSERT_EQ(FiPeep.injected(), 1u);
        expectEqualObservations(Cek, Vm, false);
        expectEqualObservations(Cek, Peep, false, /*Semantic=*/true);
        ASSERT_TRUE(Cek.HeapEmpty);
        ASSERT_TRUE(Vm.HeapEmpty);
        ASSERT_TRUE(Peep.HeapEmpty);
      }
    }
  }
}

/// The INT64_MIN boundary and mixed-kind equality, differentially: all
/// three engine variants must trap (not wrap, and not execute the UB
/// hardware instruction) with the same message, the same trap kind, and
/// a clean unwind. The overflow expressions are undefined behaviour in
/// C++ when evaluated natively — INT64_MIN / -1 and INT64_MIN % -1
/// fault with SIGFPE on x86 — so the engines must intercept them before
/// the division unit sees the operands.
TEST(EngineDiff, OverflowAndMixedEqualityTrapIdenticallyOnEveryEngine) {
  struct TrapCase {
    const char *Name;
    const char *Source;
    const char *Msg;
    int64_t N;
  };
  const int64_t IntMin = INT64_MIN;
  std::vector<TrapCase> Cases = {
      {"div-intmin", "fun main(n) { n / (0 - 1) }",
       "integer overflow in division", IntMin},
      {"mod-intmin", "fun main(n) { n % (0 - 1) }",
       "integer overflow in modulo", IntMin},
      {"neg-intmin", "fun main(n) { -n }", "integer overflow in negation",
       IntMin},
      {"div-zero", "fun main(n) { n / (n - n) }", "division by zero", 7},
      {"mod-zero", "fun main(n) { n % (n - n) }", "modulo by zero", 7},
      // + - * at the int64 edges; on the peephole VM the constant forms
      // run as ArithConst (x+K, x-K, K-x, x*K) and must trap the same.
      {"add-max", "fun main(n) { n + 1 }", "integer overflow in addition",
       INT64_MAX},
      {"add-min", "fun main(n) { n + n }", "integer overflow in addition",
       IntMin},
      {"sub-min", "fun main(n) { n - 1 }", "integer overflow in subtraction",
       IntMin},
      {"rsub-min", "fun main(n) { 0 - n }", "integer overflow in subtraction",
       IntMin},
      {"mul-max", "fun main(n) { 2 * n }",
       "integer overflow in multiplication", INT64_MAX},
      {"mul-min", "fun main(n) { n * (0 - 1) }",
       "integer overflow in multiplication", IntMin},
      {"eq-int-bool", "fun main(n) { if n == True then 1 else 0 }",
       "equality on incompatible or heap values", 1},
      {"ne-int-bool", "fun main(n) { if n != False then 1 else 0 }",
       "equality on incompatible or heap values", 1},
  };
  struct Variant {
    const char *Name;
    EngineKind Engine;
    bool Peephole;
  };
  std::vector<Variant> Variants = {{"cek", EngineKind::Cek, false},
                                   {"vm", EngineKind::Vm, false},
                                   {"vm-peep", EngineKind::Vm, true}};
  for (const TrapCase &C : Cases) {
    for (const auto &[CfgName, Config] : allConfigs()) {
      for (const Variant &V : Variants) {
        SCOPED_TRACE(std::string(C.Name) + " / " + CfgName + " / " + V.Name);
        EngineConfig EC = EngineConfig{}
                              .withEngine(V.Engine)
                              .withPeephole(V.Peephole);
        Runner R(C.Source, Config, EC);
        ASSERT_TRUE(R.ok()) << R.diagnostics().str();
        RunResult Res = R.callInt("main", {C.N});
        EXPECT_FALSE(Res.Ok);
        EXPECT_EQ(Res.Trap, TrapKind::RuntimeError);
        EXPECT_EQ(Res.Error, C.Msg);
        EXPECT_TRUE(R.heapIsEmpty());
      }
    }
  }
}

/// The same boundary operands on results that do NOT overflow must keep
/// producing wrapped-free exact answers on every engine — the traps must
/// not over-fire.
TEST(EngineDiff, OverflowBoundaryNeighborsStillSucceed) {
  struct OkCase {
    const char *Source;
    int64_t N;
    int64_t Expect;
  };
  const int64_t IntMin = INT64_MIN;
  std::vector<OkCase> Cases = {
      {"fun main(n) { n / 1 }", IntMin, IntMin},
      {"fun main(n) { (n + 1) / (0 - 1) }", IntMin, INT64_MAX},
      {"fun main(n) { n % 1 }", IntMin, 0},
      {"fun main(n) { -(n + 1) }", IntMin, INT64_MAX},
      {"fun main(n) { n - 1 }", INT64_MAX, INT64_MAX - 1},
      {"fun main(n) { n + 1 }", IntMin, IntMin + 1},
      {"fun main(n) { (0 - 1) - n }", INT64_MAX, IntMin},
      {"fun main(n) { 2 * n }", IntMin / 2, IntMin},
      {"fun main(n) { n * (0 - 1) }", INT64_MAX, -INT64_MAX},
  };
  for (const OkCase &C : Cases) {
    for (bool Peephole : {false, true}) {
      for (EngineKind Engine : {EngineKind::Cek, EngineKind::Vm}) {
        EngineConfig EC =
            EngineConfig{}.withEngine(Engine).withPeephole(Peephole);
        Runner R(C.Source, PassConfig::perceusFull(), EC);
        ASSERT_TRUE(R.ok()) << R.diagnostics().str();
        RunResult Res = R.callInt("main", {C.N});
        ASSERT_TRUE(Res.Ok) << Res.Error;
        EXPECT_EQ(Res.Result.Int, C.Expect);
      }
    }
  }
}

/// A constructor arm matches only a value it can bind. A value of another
/// type with the same tag — an enum immediate, or a cell of another
/// arity — falls through to the default arm or the non-exhaustive-match
/// trap, identically on all three engine variants; no field it lacks is
/// ever read.
TEST(EngineDiff, SameTagValueOfAnotherTypeFallsThrough) {
  const char *Enums = "type a { A0  A1 }\ntype b { B0  B1(x) }\n";
  const char *Cells = "type a { A0  A1(x, y) }\ntype b { B0  B1(x, y, z) }\n";
  struct MatchCase {
    const char *Name;
    std::string Source;
    bool Ok;
  };
  std::vector<MatchCase> Cases = {
      {"enum-default",
       std::string(Enums) + "fun main(n) { match A1 { B1(x) -> x  _ -> 0 } }",
       true},
      {"enum-no-default",
       std::string(Enums) + "fun main(n) { match A1 { B1(x) -> x  B0 -> 1 } }",
       false},
      {"cell-default",
       std::string(Cells) +
           "fun main(n) { match A1(n, n) { B1(x, y, z) -> x + y + z  "
           "_ -> 0 } }",
       true},
      {"cell-no-default",
       std::string(Cells) +
           "fun main(n) { match A1(n, n) { B1(x, y, z) -> x + y + z  "
           "B0 -> 1 } }",
       false},
  };
  for (const MatchCase &M : Cases) {
    for (const auto &[CfgName, Config] : allConfigs()) {
      SCOPED_TRACE(std::string(M.Name) + " / " + CfgName);
      DiffCase C{M.Name, M.Source.c_str(), "main", 5};
      bool GcMode = Config.Mode == RcMode::None;
      Observed Cek = runOn(C, Config, EngineKind::Cek);
      Observed Vm = runOn(C, Config, EngineKind::Vm);
      Observed VmPeep = runOn(C, Config, EngineKind::Vm, nullptr,
                              /*Peephole=*/true);
      ASSERT_EQ(Cek.Run.Ok, M.Ok) << Cek.Run.Error;
      if (M.Ok) {
        EXPECT_EQ(Cek.Run.Result.Int, 0);
      } else {
        EXPECT_EQ(Cek.Run.Trap, TrapKind::RuntimeError);
        EXPECT_EQ(Cek.Run.Error, "non-exhaustive match");
      }
      expectEqualObservations(Cek, Vm, GcMode);
      expectEqualObservations(Cek, VmPeep, GcMode, /*Semantic=*/true);
      EXPECT_EQ(Vm.Run.Result.Int, Cek.Run.Result.Int);
      EXPECT_EQ(VmPeep.Run.Result.Int, Cek.Run.Result.Int);
      if (!GcMode) {
        EXPECT_TRUE(Cek.HeapEmpty);
        EXPECT_TRUE(Vm.HeapEmpty);
        EXPECT_TRUE(VmPeep.HeapEmpty);
      }
    }
  }
}

/// Random closed lambda-1 programs widen the diff beyond the benchmark
/// set: higher-order closures, deep match trees, reuse-token shapes the
/// hand-written programs never produce.
struct EngineDiffSeed : ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineDiffSeed, RandomProgramsAgreeUnderEveryConfig) {
  for (const auto &[Name, Config] : allConfigs()) {
    SCOPED_TRACE(Name);
    // The pipeline mutates the program, so each engine variant gets its
    // own regeneration from the same seed. Index 0 = CEK, 1 = plain VM,
    // 2 = peepholed VM (random closures and match trees exercise fusion
    // shapes the benchmark set never produces).
    uint64_t Sums[3];
    HeapStats Heaps[3];
    RunResult Runs[3];
    bool Skip = false;
    for (size_t I = 0; I != 3; ++I) {
      auto P = std::make_unique<Program>();
      Rng R(GetParam());
      GeneratedTerm G = generateTerm(*P, R, 6);
      EngineConfig EC =
          EngineConfig{}
              .withEngine(I == 0 ? EngineKind::Cek : EngineKind::Vm)
              .withPeephole(I == 2);
      Runner Run(*P, Config, EC);
      ASSERT_TRUE(Run.ok());
      Sums[I] = ~0ull;
      Run.engine().setResultInspector(
          [&, I](Value V) { Sums[I] = checksumValue(V); });
      Run.engine().setStepLimit(2000000);
      Runs[I] = Run.engine().run(G.Func, {});
      if (!Runs[I].Ok && Runs[I].Trap == TrapKind::OutOfFuel) {
        Skip = true; // fuel is engine-granular; a near-limit seed can
        break;       // exhaust one engine and not the other
      }
      ASSERT_TRUE(Runs[I].Ok) << Name << ": " << Runs[I].Error;
      Heaps[I] = Run.heap().stats();
      if (Config.Mode != RcMode::None) {
        EXPECT_TRUE(Run.heapIsEmpty())
            << Name << " leaked " << Run.heap().stats().LiveCells;
      }
    }
    if (Skip)
      continue;
    for (size_t I = 1; I != 3; ++I) {
      EXPECT_EQ(Sums[0], Sums[I]) << Name;
      EXPECT_EQ(Heaps[0].Allocs, Heaps[I].Allocs) << Name;
      if (Config.Mode != RcMode::None) {
        EXPECT_EQ(Heaps[0].Frees, Heaps[I].Frees) << Name;
        EXPECT_EQ(Heaps[0].DupOps, Heaps[I].DupOps) << Name;
        EXPECT_EQ(Heaps[0].DropOps, Heaps[I].DropOps) << Name;
        EXPECT_EQ(Heaps[0].PeakBytes, Heaps[I].PeakBytes) << Name;
      }
      EXPECT_EQ(Runs[0].Rc.DropReuses, Runs[I].Rc.DropReuses) << Name;
      EXPECT_EQ(Runs[0].ReuseHits, Runs[I].ReuseHits) << Name;
    }
    // Exact RC-instruction parity with the plain VM; the conservation
    // law for the peepholed one.
    const RcInstrCounts &A = Runs[0].Rc, &B = Runs[1].Rc, &P = Runs[2].Rc;
    EXPECT_EQ(A.Dups, B.Dups) << Name;
    EXPECT_EQ(A.Drops, B.Drops) << Name;
    EXPECT_GE(A.Dups, P.Dups) << Name;
    EXPECT_GE(A.Drops, P.Drops) << Name;
    EXPECT_GE(A.DecRefs, P.DecRefs) << Name;
    if (Config.Mode != RcMode::None) {
      uint64_t Elided = (A.Dups - P.Dups) + (A.Drops - P.Drops) +
                        (A.DecRefs - P.DecRefs);
      EXPECT_EQ(Elided, Heaps[0].NonHeapRcOps - Heaps[2].NonHeapRcOps)
          << Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, EngineDiffSeed,
                         ::testing::Range(uint64_t(2000), uint64_t(2080)));

} // namespace

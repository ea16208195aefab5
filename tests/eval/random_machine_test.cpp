//===- tests/eval/random_machine_test.cpp - The VM vs Figure 6, randomly -----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sweeps random closed lambda-1 programs through the bytecode VM, raw
/// and peephole tiers, under every configuration (full Perceus, no-opt,
/// borrow, scoped, GC). Every run must compute a value structurally
/// equal to the Figure 6 standard semantics (calculus/SubstEval.h, which
/// shares no code with the compiler or the VM), leave an empty heap in
/// the RC configurations, and relate the two tiers as the peephole
/// contract demands: identical heap-semantic counters, and every elided
/// RC instruction accounted for by a non-heap RC op. This is end-to-end
/// coverage the term-machine meta-theory tests cannot give (frame
/// layout, closures, tail calls, reuse tokens in bytecode).
///
/// A seed whose reference run gets stuck fails: it is a bug in the
/// generator or the evaluator. Only a reference run out of fuel skips.
///
/// A frozen per-configuration digest of the raw VM's RC and heap counts
/// over a fixed seed range pins what the semantics cannot see: how many
/// RC operations a correct run performs. It was captured where the
/// retired CEK tree-walker and the raw VM agreed on every count.
///
//===----------------------------------------------------------------------===//

#include "calculus/Generator.h"
#include "calculus/SubstEval.h"
#include "eval/Runner.h"
#include "ir/Printer.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

/// Structural checksum of a value term (closures compare shallowly).
uint64_t checksumTerm(const Program &P, const Expr *V) {
  if (const auto *C = dyn_cast<ConExpr>(V)) {
    uint64_t H = mix(1, P.ctor(C->ctor()).Tag);
    for (const Expr *Arg : C->args())
      H = mix(H, checksumTerm(P, Arg));
    return H;
  }
  if (isa<LamExpr>(V))
    return 0xC105;
  return 0;
}

/// The same checksum of a runtime value.
uint64_t checksumValue(Value V) {
  switch (V.Kind) {
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

std::vector<std::pair<const char *, PassConfig>> allConfigs() {
  return {{"perceus", PassConfig::perceusFull()},
          {"perceus-noopt", PassConfig::perceusNoOpt()},
          {"perceus-borrow", PassConfig::perceusBorrow()},
          {"scoped-rc", PassConfig::scoped()},
          {"gc", PassConfig::gc()}};
}

/// One VM run of the seed's program.
struct SeedRun {
  RunResult Run;
  HeapStats Heap;
  uint64_t Checksum = ~0ull;
  bool HeapEmpty = false;
};

/// Regenerates the seed's program (the pipeline mutates it, so every run
/// gets its own) and runs it on one tier.
SeedRun runSeed(uint64_t Seed, const PassConfig &Config, bool Peephole) {
  auto P = std::make_unique<Program>();
  Rng R(Seed);
  GeneratedTerm G = generateTerm(*P, R, 6);
  RunLimits L;
  L.Fuel = 2000000;
  Runner Run(std::move(P), Config,
             EngineConfig{}.withPeephole(Peephole).withLimits(L));
  SeedRun S;
  EXPECT_TRUE(Run.ok());
  Run.engine().setResultInspector(
      [&](Value V) { S.Checksum = checksumValue(V); });
  S.Run = Run.engine().run(G.Func, {});
  S.Heap = Run.heap().stats();
  S.HeapEmpty = Run.heapIsEmpty();
  return S;
}

struct MachineSeed : ::testing::TestWithParam<uint64_t> {};

TEST_P(MachineSeed, BothTiersMatchTheStandardSemanticsUnderEveryConfig) {
  // Reference value under Figure 6.
  uint64_t Expected;
  {
    Program P;
    Rng R(GetParam());
    GeneratedTerm G = generateTerm(P, R, 6);
    SubstResult Ref = substEval(P, G.Body, 200000);
    ASSERT_FALSE(Ref.Stuck) << "standard semantics stuck on\n"
                            << printExpr(P, G.Body);
    if (!Ref.ok())
      GTEST_SKIP() << "seed exhausted fuel";
    Expected = checksumTerm(P, Ref.Value);
  }

  for (const auto &[Name, Config] : allConfigs()) {
    SCOPED_TRACE(Name);
    bool Rc = Config.Mode != RcMode::None;
    SeedRun Raw = runSeed(GetParam(), Config, /*Peephole=*/false);
    SeedRun Peep = runSeed(GetParam(), Config, /*Peephole=*/true);
    for (const SeedRun *S : {&Raw, &Peep}) {
      ASSERT_TRUE(S->Run.Ok) << S->Run.Error;
      EXPECT_EQ(S->Checksum, Expected);
      if (Rc) {
        EXPECT_TRUE(S->HeapEmpty) << "leaked " << S->Heap.LiveCells;
      }
    }

    // The peephole contract: heap-semantic counters identical...
    EXPECT_EQ(Raw.Heap.Allocs, Peep.Heap.Allocs);
    if (Rc) {
      EXPECT_EQ(Raw.Heap.Frees, Peep.Heap.Frees);
      EXPECT_EQ(Raw.Heap.DupOps, Peep.Heap.DupOps);
      EXPECT_EQ(Raw.Heap.DropOps, Peep.Heap.DropOps);
      EXPECT_EQ(Raw.Heap.PeakBytes, Peep.Heap.PeakBytes);
    }
    EXPECT_EQ(Raw.Run.Rc.DropReuses, Peep.Run.Rc.DropReuses);
    EXPECT_EQ(Raw.Run.ReuseHits, Peep.Run.ReuseHits);
    // ...and every elided RC instruction one the heap would have
    // classified as a non-heap no-op.
    const RcInstrCounts &A = Raw.Run.Rc, &B = Peep.Run.Rc;
    EXPECT_GE(A.Dups, B.Dups);
    EXPECT_GE(A.Drops, B.Drops);
    EXPECT_GE(A.DecRefs, B.DecRefs);
    if (Rc) {
      uint64_t Elided =
          (A.Dups - B.Dups) + (A.Drops - B.Drops) + (A.DecRefs - B.DecRefs);
      EXPECT_EQ(Elided, Raw.Heap.NonHeapRcOps - Peep.Heap.NonHeapRcOps);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, MachineSeed,
                         ::testing::Range(uint64_t(1000), uint64_t(3000)));

/// The raw VM's counts over seeds [1000, 1200), folded per configuration.
/// A mismatch means some random program now performs a different number
/// of RC operations, allocations or reuses than the frozen reference.
TEST(MachineDigest, RawCountsMatchTheFrozenDigest) {
  const std::pair<const char *, uint64_t> Digests[] = {
      {"perceus", 0x4be60dd8b92b5e20ull},
      {"perceus-noopt", 0xbdf2442f775ef42full},
      {"perceus-borrow", 0x4be60dd8b92b5e20ull},
      {"scoped-rc", 0x6c87ae39c3b63c29ull},
      {"gc", 0x4ce13c2e4e8d277cull},
  };
  auto Configs = allConfigs();
  ASSERT_EQ(std::size(Digests), Configs.size());
  for (size_t C = 0; C != Configs.size(); ++C) {
    const auto &[Name, Config] = Configs[C];
    ASSERT_STREQ(Digests[C].first, Name);
    bool Gc = Config.Mode == RcMode::None;
    uint64_t D = 0;
    for (uint64_t Seed = 1000; Seed != 1200; ++Seed) {
      SeedRun S = runSeed(Seed, Config, /*Peephole=*/false);
      ASSERT_TRUE(S.Run.Ok) << Name << " seed " << Seed << ": "
                            << S.Run.Error;
      const RcInstrCounts &A = S.Run.Rc;
      const HeapStats &H = S.Heap;
      // The gc configuration folds only what collection timing cannot
      // perturb.
      uint64_t Fields[] = {Seed,
                           S.Checksum,
                           A.Dups,
                           A.Drops,
                           A.Frees,
                           A.DecRefs,
                           A.IsUniques,
                           A.DropReuses,
                           A.ImplicitDups,
                           A.ImplicitDrops,
                           A.ImplicitDecRefs,
                           S.Run.ReuseHits,
                           S.Run.ReuseMisses,
                           H.Allocs,
                           Gc ? 0 : H.Frees,
                           Gc ? 0 : H.DupOps,
                           Gc ? 0 : H.DropOps,
                           Gc ? 0 : H.DecRefOps,
                           Gc ? 0 : H.NonHeapRcOps,
                           Gc ? 0 : H.IsUniqueTests,
                           Gc ? 0 : H.PeakBytes};
      for (uint64_t X : Fields)
        D = mix(D, X);
    }
    EXPECT_EQ(D, Digests[C].second) << Name;
  }
}

} // namespace

//===- tests/integration/paper_claims_test.cpp - The paper's count claims ----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One test per claim of the paper that rests on exact counts rather
/// than times, named after its EXPERIMENTS.md entry. Each test asserts the
/// claim's shape (zero, constant, linear, a ratio bound or an exact
/// equality) under full Perceus, and asserts that the claim fails under
/// the PassConfig ablation that switches its mechanism off, so a run that
/// passes also shows that the check can fail.
///
/// Every measured run prints one table row, so
/// `ctest -R paper_claims -V` regenerates the EXPERIMENTS.md rows.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <gtest/gtest.h>

#include <array>
#include <span>

using namespace perceus;
using bench::BenchProgram;
using bench::Measurement;

namespace {

/// The test-scale programs of `integration_programs_test`; the first
/// five are Figure 9's.
std::vector<BenchProgram> programs() {
  return {
      {"rbtree", rbtreeSource(), "bench_rbtree", 2000, nullptr},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", 1000, nullptr},
      {"deriv", derivSource(), "bench_deriv", 6, nullptr},
      {"nqueens", nqueensSource(), "bench_nqueens", 6, nullptr},
      {"cfold", cfoldSource(), "bench_cfold", 8, nullptr},
      {"tmap-fbip", tmapSource(), "bench_tmap_fbip", 8, nullptr},
      {"tmap-naive", tmapSource(), "bench_tmap_naive", 8, nullptr},
      {"mapsum", mapSumSource(), "bench_mapsum", 2000, nullptr},
      {"msort", msortSource(), "bench_msort", 500, nullptr},
      {"queue", queueSource(), "bench_queue", 1000, nullptr},
  };
}
constexpr size_t NumFigure9 = 5;

BenchProgram program(const char *Name) {
  for (const BenchProgram &P : programs())
    if (std::string_view(P.Name) == Name)
      return P;
  ADD_FAILURE() << "no program " << Name;
  return {};
}

PassConfig without(bool PassConfig::*Mechanism) {
  PassConfig C = PassConfig::perceusFull();
  C.*Mechanism = false;
  return C;
}

uint64_t rcOps(const Measurement &M) {
  return M.Heap.DupOps + M.Heap.DropOps + M.Heap.DecRefOps;
}

/// Runs \p P at size \p N under \p C and prints the row: the claim, the
/// program, its size, the configuration's label, and the counters.
Measurement run(const char *Claim, BenchProgram P, int64_t N,
                const char *Label, const PassConfig &C) {
  P.BaseScale = N;
  Measurement M = bench::measure(P, C);
  EXPECT_TRUE(M.Ran) << P.Name << " " << N << " " << Label;
  std::printf("%-3s %-11s %6lld %-17s dup=%-7llu drop=%-7llu decref=%-6llu "
              "rc-ops=%-7llu allocs=%-6llu hits=%-6llu misses=%-5llu "
              "peak=%-7zu depth=%-5llu slots=%llu\n",
              Claim, P.Name, (long long)N, Label,
              (unsigned long long)M.Heap.DupOps,
              (unsigned long long)M.Heap.DropOps,
              (unsigned long long)M.Heap.DecRefOps,
              (unsigned long long)rcOps(M), (unsigned long long)M.Heap.Allocs,
              (unsigned long long)M.Run.ReuseHits,
              (unsigned long long)M.Run.ReuseMisses, M.PeakBytes,
              (unsigned long long)M.Run.MaxCallDepth,
              (unsigned long long)M.Run.MaxLocalsSlots);
  return M;
}

const PassConfig Full = PassConfig::perceusFull();

// Figure 1: after drop specialization, fusion and reuse, map's unique
// fast path executes no dup and no drop, and every Cons is reused.
TEST(PaperClaims, E1_MapFastPathRunsNoRcOpsAndReusesEveryCell) {
  const BenchProgram MapSum = program("mapsum");
  const uint64_t N = MapSum.BaseScale;
  auto mapsum = [&](const char *Label, const PassConfig &C) {
    return run("E1", MapSum, N, Label, C);
  };
  Measurement Inserted = mapsum("insertion-only", PassConfig::perceusNoOpt());
  Measurement Perceus = mapsum("perceus", Full);
  EXPECT_EQ(Inserted.Heap.DupOps, 2 * N - 2);
  EXPECT_EQ(Inserted.Heap.DropOps, 2 * N);
  EXPECT_EQ(Perceus.Heap.DupOps, 0u);
  EXPECT_EQ(Perceus.Heap.DropOps, 0u);
  EXPECT_EQ(Perceus.Heap.Allocs, N);
  EXPECT_EQ(Perceus.Run.ReuseHits, N);

  Measurement NoFusion = mapsum("no-fusion", without(&PassConfig::EnableFusion));
  EXPECT_EQ(NoFusion.Heap.DupOps, 2 * N - 2);
  EXPECT_EQ(NoFusion.Heap.DropOps, 2 * N - 2);
  Measurement NoDropSpec =
      mapsum("no-drop-spec", without(&PassConfig::EnableDropSpec));
  EXPECT_EQ(NoDropSpec.Heap.DupOps, 2 * N - 2);
  EXPECT_EQ(NoDropSpec.Heap.DropOps, 2 * N - 1);
  Measurement NoReuse = mapsum("no-reuse", without(&PassConfig::EnableReuse));
  EXPECT_EQ(NoReuse.Heap.Allocs, 2 * N);
  EXPECT_EQ(NoReuse.Run.ReuseHits, 0u);
}

// Section 2.6: the FBIP visitor of Figure 3 traverses a unique tree in
// place (no allocation past the input's) and in constant stack, where
// the naive map recurses as deep as the tree.
TEST(PaperClaims, E2_FbipTraversalIsInPlaceInConstantStack) {
  BenchProgram Spine{"spine-fbip", tmapSource(), "bench_spine_fbip", 0, {}};
  BenchProgram Naive{"spine-naive", tmapSource(), "bench_spine_naive", 0, {}};
  std::vector<uint64_t> Slots;
  for (uint64_t N : {1000, 10000}) {
    Measurement Fbip = run("E2", Spine, N, "perceus", Full);
    EXPECT_EQ(Fbip.Run.MaxCallDepth, 1u) << N;
    EXPECT_EQ(Fbip.Heap.Allocs, N) << N;
    EXPECT_EQ(Fbip.Run.ReuseHits, 3 * N) << N;
    Slots.push_back(Fbip.Run.MaxLocalsSlots);
    EXPECT_EQ(run("E2", Naive, N, "perceus", Full).Run.MaxCallDepth, N + 1);
    Measurement NoReuse =
        run("E2", Spine, N, "no-reuse", without(&PassConfig::EnableReuse));
    EXPECT_EQ(NoReuse.Heap.Allocs, 4 * N) << N;
  }
  EXPECT_EQ(Slots[0], Slots[1]);
  // A perfect tree of depth 8: 255 nodes, each overlaid three times.
  Measurement Tree = run("E2", program("tmap-fbip"), 8, "perceus", Full);
  EXPECT_EQ(Tree.Heap.Allocs, 255u);
  EXPECT_EQ(Tree.Run.ReuseHits, 3 * 255u);
}

// Section 2.2: precise RC frees map's input as it goes, so its peak is
// exactly half of scoped RC's, which holds the input until map returns;
// and no program peaks above the scoped or the tracing configuration.
TEST(PaperClaims, E4_PreciseRcHalvesMapsPeakAndNeverPeaksHigher) {
  const BenchProgram MapSum = program("mapsum");
  for (int64_t N : {1000, 10000}) {
    size_t Perceus = run("E4", MapSum, N, "perceus", Full).PeakBytes;
    size_t Scoped =
        run("E4", MapSum, N, "scoped-rc", PassConfig::scoped()).PeakBytes;
    EXPECT_EQ(2 * Perceus, Scoped) << N;
  }
  for (const BenchProgram &P : programs()) {
    auto peak = [&](const char *Label, const PassConfig &C) {
      return run("E4", P, P.BaseScale, Label, C).PeakBytes;
    };
    size_t Perceus = peak("perceus", Full);
    EXPECT_LE(Perceus, peak("scoped-rc", PassConfig::scoped())) << P.Name;
    EXPECT_LE(Perceus, peak("gc", PassConfig::gc())) << P.Name;
  }
}

// Figure 11: the peak ordering does not depend on the workload size.
// Each Figure 9 program runs at three sizes of its own parameter.
TEST(PaperClaims, E5_PeakOrderingHoldsAtEverySize) {
  std::vector<BenchProgram> Ps = programs();
  for (const BenchProgram &P : std::span(Ps).first(NumFigure9)) {
    int64_t N = P.BaseScale;
    for (int64_t Size : N >= 100 ? std::array<int64_t, 3>{N / 4, N / 2, N}
                                 : std::array<int64_t, 3>{N - 2, N - 1, N}) {
      size_t Perceus = run("E5", P, Size, "perceus", Full).PeakBytes;
      size_t Scoped =
          run("E5", P, Size, "scoped-rc", PassConfig::scoped()).PeakBytes;
      size_t Gc = run("E5", P, Size, "gc", PassConfig::gc()).PeakBytes;
      EXPECT_LE(Perceus, Scoped) << P.Name << " " << Size;
      EXPECT_LE(Perceus, Gc) << P.Name << " " << Size;
    }
  }
}

// Sections 2.3-2.5: the optimized pipeline executes fewer RC operations
// than plain precise RC, which executes fewer than scoped RC; on cfold
// drop specialization and fusion remove every dup.
TEST(PaperClaims, E6_OptimizedPerceusExecutesFewestRcOps) {
  std::vector<BenchProgram> Ps = programs();
  for (const BenchProgram &P : std::span(Ps).first(NumFigure9)) {
    uint64_t Perceus = rcOps(run("E6", P, P.BaseScale, "perceus", Full));
    uint64_t NoOpt = rcOps(run("E6", P, P.BaseScale, "perceus-noopt",
                               PassConfig::perceusNoOpt()));
    uint64_t Scoped =
        rcOps(run("E6", P, P.BaseScale, "scoped-rc", PassConfig::scoped()));
    EXPECT_LT(Perceus, NoOpt) << P.Name;
    EXPECT_LT(NoOpt, Scoped) << P.Name;
  }
  const BenchProgram Cfold = program("cfold");
  auto cfoldDups = [&](const char *Label, const PassConfig &C) {
    return run("E6", Cfold, Cfold.BaseScale, Label, C).Heap.DupOps;
  };
  EXPECT_EQ(cfoldDups("perceus", Full), 0u);
  EXPECT_GT(cfoldDups("no-fusion", without(&PassConfig::EnableFusion)), 0u);
  EXPECT_GT(cfoldDups("no-drop-spec", without(&PassConfig::EnableDropSpec)),
            0u);
}

// Sections 2.4-2.5: on unique data every reuse attempt hits and each hit
// replaces an allocation; when rbtree-ck keeps every fifth tree, only the
// shared spine is copied, so most attempts still hit.
TEST(PaperClaims, E7_ReuseHitsOnUniqueDataAndDegradesUnderSharing) {
  const PassConfig NoReuse = without(&PassConfig::EnableReuse);
  for (const char *Name : {"rbtree", "mapsum", "msort", "queue"}) {
    BenchProgram P = program(Name);
    Measurement Perceus = run("E7", P, P.BaseScale, "perceus", Full);
    Measurement Fresh = run("E7", P, P.BaseScale, "no-reuse", NoReuse);
    EXPECT_GT(Perceus.Run.ReuseHits, 0u) << Name;
    EXPECT_EQ(Perceus.Run.ReuseMisses, 0u) << Name;
    EXPECT_EQ(Fresh.Run.ReuseHits, 0u) << Name;
    EXPECT_EQ(Fresh.Heap.Allocs, Perceus.Heap.Allocs + Perceus.Run.ReuseHits)
        << Name;
  }
  BenchProgram Ck = program("rbtree-ck");
  Measurement Shared = run("E7", Ck, Ck.BaseScale, "perceus", Full);
  EXPECT_GT(Shared.Run.ReuseMisses, 0u);
  EXPECT_GE(Shared.Run.ReuseHits,
            4 * (Shared.Run.ReuseHits + Shared.Run.ReuseMisses) / 5);
  EXPECT_EQ(run("E7", Ck, Ck.BaseScale, "no-reuse", NoReuse).Run.ReuseHits,
            0u);
}

// Section 6, implemented: inferred borrowing computes the same results,
// leaves the heap empty, keeps every reuse hit, and executes fewer RC
// operations on every Figure 9 program. Elsewhere it may add one drop:
// the top level hoists a borrowed argument, so `sum(map(..))` becomes
// `val t = map(..); sum(t); drop t`.
TEST(PaperClaims, E11_BorrowingCutsRcOpsAndKeepsEveryReuse) {
  std::vector<BenchProgram> Ps = programs();
  for (const PassConfig &C : {PassConfig::perceusBorrow(), Full}) {
    const char *Label = C.EnableBorrow ? "perceus-borrow" : "perceus";
    for (size_t I = 0; I != Ps.size(); ++I) {
      const BenchProgram &P = Ps[I];
      Measurement Ref = bench::measure(P, Full);
      Measurement M = run("E11", P, P.BaseScale, Label, C);
      EXPECT_EQ(M.Checksum, Ref.Checksum) << P.Name;
      EXPECT_EQ(M.Heap.LiveCells, 0u) << P.Name;
      EXPECT_EQ(M.Run.ReuseHits, Ref.Run.ReuseHits) << P.Name;
      EXPECT_LE(rcOps(M), rcOps(Ref) + 1) << P.Name;
      if (I < NumFigure9) {
        EXPECT_EQ(rcOps(M) < rcOps(Ref), C.EnableBorrow) << P.Name;
      }
    }
  }
}

} // namespace

//===- tests/integration/programs_test.cpp - Benchmark program validation ------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-validates the paper's benchmark programs at test scale:
///
///   * every configuration computes the same result,
///   * the result matches the hand-written native C++ implementation,
///   * every RC configuration ends with an empty heap (garbage free at
///     exit; no leaks even through reuse tokens, shared spines, closures),
///   * every instrumented program is well formed and linear.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "analysis/LinearCheck.h"
#include "analysis/Verifier.h"
#include "lang/Resolver.h"
#include "native/Native.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace perceus;

namespace {

struct Case {
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t N;
  int64_t (*Native)(int64_t); // may be null
};

std::vector<Case> cases() {
  return {
      {"rbtree", rbtreeSource(), "bench_rbtree", 2000, native::rbtree},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", 1000, nullptr},
      {"deriv", derivSource(), "bench_deriv", 6, native::deriv},
      {"nqueens", nqueensSource(), "bench_nqueens", 6, native::nqueens},
      {"cfold", cfoldSource(), "bench_cfold", 8, native::cfold},
      {"tmap-fbip", tmapSource(), "bench_tmap_fbip", 8,
       native::tmapMorris},
      {"tmap-naive", tmapSource(), "bench_tmap_naive", 8,
       native::tmapRecursive},
      {"mapsum", mapSumSource(), "bench_mapsum", 2000, nullptr},
      {"msort", msortSource(), "bench_msort", 500, native::msort},
      {"queue", queueSource(), "bench_queue", 1000, native::queue},
  };
}

class ProgramCase : public ::testing::TestWithParam<size_t> {};

TEST_P(ProgramCase, AllConfigsAgreeAndStayGarbageFree) {
  Case C = cases()[GetParam()];
  std::optional<int64_t> Expected;
  if (C.Native)
    Expected = C.Native(C.N);

  for (const PassConfig &Config :
       {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
        PassConfig::scoped(), PassConfig::gc()}) {
    Runner R(C.Source, Config);
    ASSERT_TRUE(R.ok()) << Config.name() << ": " << R.diagnostics().str();
    RunResult Res = R.callInt(C.Entry, {C.N});
    ASSERT_TRUE(Res.Ok) << C.Name << "/" << Config.name() << ": "
                        << Res.Error;
    if (!Expected)
      Expected = Res.Result.Int;
    EXPECT_EQ(Res.Result.Int, *Expected)
        << C.Name << "/" << Config.name();
    if (Config.Mode != RcMode::None) {
      EXPECT_TRUE(R.heapIsEmpty())
          << C.Name << "/" << Config.name() << " leaked "
          << R.heap().stats().LiveCells << " cells";
    }
  }
}

TEST_P(ProgramCase, InstrumentedCodeIsWellFormedAndLinear) {
  Case C = cases()[GetParam()];
  for (const PassConfig &Config :
       {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
        PassConfig::scoped()}) {
    Program P;
    DiagnosticEngine D;
    ASSERT_TRUE(compileSource(C.Source, P, D)) << D.str();
    runPipeline(P, Config);
    auto V = verifyProgram(P);
    EXPECT_TRUE(V.empty()) << C.Name << "/" << Config.name() << ": "
                           << (V.empty() ? "" : V.front());
    auto L = checkLinearity(P);
    EXPECT_TRUE(L.empty()) << C.Name << "/" << Config.name() << ": "
                           << (L.empty() ? "" : L.front());
  }
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, ProgramCase,
                         ::testing::Range(size_t(0), cases().size()),
                         [](const ::testing::TestParamInfo<size_t> &I) {
                           std::string Name = cases()[I.param].Name;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST(ExamplePrograms, AllPercFilesStayGarbageFreeUnderEveryConfig) {
  // Leak-at-exit assertion over *every* shipped example program, not
  // just the spot-checked embedded sources: each examples/programs/*.perc
  // runs under each stock PassConfig, must compute the same result, and
  // must leave the heap empty in every RC configuration.
  namespace fs = std::filesystem;
  fs::path Dir(PERCEUS_EXAMPLE_PROGRAMS_DIR);
  ASSERT_TRUE(fs::is_directory(Dir)) << Dir;
  size_t Found = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (E.path().extension() != ".perc")
      continue;
    ++Found;
    std::ifstream In(E.path());
    ASSERT_TRUE(In.good()) << E.path();
    std::stringstream Buf;
    Buf << In.rdbuf();
    std::string Source = Buf.str();
    std::string Name = E.path().filename().string();
    // Every example's entry is `main(n)`; nqueens needs a small board.
    int64_t N = Name == "nqueens.perc" ? 5 : 24;

    std::optional<int64_t> Expected;
    for (const PassConfig &Config :
         {PassConfig::perceusFull(), PassConfig::perceusNoOpt(),
          PassConfig::perceusBorrow(), PassConfig::scoped(),
          PassConfig::gc()}) {
      Runner R(Source, Config);
      ASSERT_TRUE(R.ok()) << Name << "/" << Config.name() << ": "
                          << R.diagnostics().str();
      RunResult Res = R.callInt("main", {N});
      ASSERT_TRUE(Res.Ok) << Name << "/" << Config.name() << ": "
                          << Res.Error;
      if (!Expected)
        Expected = Res.Result.Int;
      EXPECT_EQ(Res.Result.Int, *Expected) << Name << "/" << Config.name();
      if (Config.Mode != RcMode::None) {
        EXPECT_TRUE(R.heapIsEmpty())
            << Name << "/" << Config.name() << " leaked "
            << R.heap().stats().LiveCells << " cells at exit";
      }
    }
  }
  EXPECT_GE(Found, 4u) << "example programs went missing from " << Dir;
}

TEST(NativeBaselines, MatchKnownValues) {
  // Small, independently computable checks of the native code itself.
  EXPECT_EQ(native::rbtree(10), 1);   // keys 0..9: only 0 is %10==0
  EXPECT_EQ(native::rbtree(100), 10);
  EXPECT_EQ(native::nqueens(1), 1);
  EXPECT_EQ(native::nqueens(2), 0);
  EXPECT_EQ(native::nqueens(3), 0);
  EXPECT_EQ(native::nqueens(4), 2);
  EXPECT_EQ(native::nqueens(5), 10);
  EXPECT_EQ(native::nqueens(6), 4);
  EXPECT_EQ(native::nqueens(8), 92); // the classic answer
  // A perfect depth-3 tree built with our labeling, mapped +1, summed.
  EXPECT_EQ(native::tmapMorris(3), native::tmapRecursive(3));
  EXPECT_GT(native::deriv(4), 0);
  EXPECT_NE(native::cfold(6), 0);
}

} // namespace

//===- tests/eval/compile_alloc_test.cpp - Heap allocations of a compile --===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the heap allocations a cold compile makes, stage by stage, over
/// the fifteen built-in programs under perceus. The binary replaces the
/// global `operator new` with a counting one, so it stands alone. The
/// counts repeat exactly from run to run, so the budget is a plain bound:
/// insertion, the three rewrites and the peephole together must stay
/// within 25% above the mean this tree measured. The test prints one row
/// per program and the mean row.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Compiler.h"
#include "bytecode/Peephole.h"
#include "eval/Layout.h"
#include "lang/Resolver.h"
#include "perceus/Perceus.h"
#include "perceus/Pipeline.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

namespace {
uint64_t Allocations = 0;
} // namespace

void *operator new(std::size_t N) {
  ++Allocations;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return operator new(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace perceus;

namespace {

std::string readExample(const char *File) {
  std::ifstream In(std::string(PERCEUS_EXAMPLE_PROGRAMS_DIR) + "/" + File);
  EXPECT_TRUE(In.good()) << File;
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

enum Stage { Front, Insert, Rewrite, Layout, Bytecode, Peep, NumStages };
const char *const StageNames[NumStages] = {"parse+resolve", "insertion",
                                           "rewrites",      "layout",
                                           "bytecode",      "peephole"};

/// The allocations of insertion, the rewrites and the peephole together,
/// mean per compile over the fifteen programs, as this tree measures
/// them; the budget is 25% above.
constexpr double MeasuredPassAllocs = 302.5;

TEST(CompileAlloc, PassesAndPeepholeStayWithinTheirBudget) {
  const std::pair<const char *, std::string> Programs[] = {
      {"rbtree", rbtreeSource()},
      {"rbtree-ck", rbtreeCkSource()},
      {"deriv", derivSource()},
      {"nqueens", nqueensSource()},
      {"cfold", cfoldSource()},
      {"tmap", tmapSource()},
      {"mapsum", mapSumSource()},
      {"msort", msortSource()},
      {"queue", queueSource()},
      {"shared-tree", sharedTreeSource()},
      {"hello.perc", readExample("hello.perc")},
      {"msort.perc", readExample("msort.perc")},
      {"nqueens.perc", readExample("nqueens.perc")},
      {"rbtree.perc", readExample("rbtree.perc")},
      {"shared_tree.perc", readExample("shared_tree.perc")}};

  double Sum[NumStages] = {};
  std::printf("%-18s", "program");
  for (const char *S : StageNames)
    std::printf(" %14s", S);
  std::printf("\n");
  for (const auto &[Name, Source] : Programs) {
    uint64_t Count[NumStages] = {};
    uint64_t Mark = Allocations;
    auto stageEnd = [&](Stage S) {
      Count[S] = Allocations - Mark;
      Mark = Allocations;
    };
    {
      Program P;
      DiagnosticEngine D;
      ASSERT_TRUE(compileSource(Source, P, D)) << Name << ": " << D.str();
      stageEnd(Front);
      insertPerceus(P);
      stageEnd(Insert);
      runRewrites(P, PassConfig::perceusFull());
      stageEnd(Rewrite);
      ProgramLayout L = layoutProgram(P);
      stageEnd(Layout);
      CompiledProgram CP = compileProgram(P, L);
      stageEnd(Bytecode);
      runPeephole(CP);
      stageEnd(Peep);
    }
    std::printf("%-18s", Name);
    for (int S = 0; S != NumStages; ++S) {
      std::printf(" %14llu", static_cast<unsigned long long>(Count[S]));
      Sum[S] += double(Count[S]);
    }
    std::printf("\n");
  }
  const double N = double(std::size(Programs));
  std::printf("%-18s", "mean");
  for (int S = 0; S != NumStages; ++S)
    std::printf(" %14.1f", Sum[S] / N);
  std::printf("\n");
  const double Passes = (Sum[Insert] + Sum[Rewrite] + Sum[Peep]) / N;
  std::printf("insertion + rewrites + peephole: %.1f per compile "
              "(budget %.1f)\n",
              Passes, 1.25 * MeasuredPassAllocs);
  EXPECT_LE(Passes, 1.25 * MeasuredPassAllocs);
}

} // namespace

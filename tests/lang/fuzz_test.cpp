//===- tests/lang/fuzz_test.cpp - Front-end robustness --------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Robustness sweeps: the lexer, parser and resolver must terminate
/// without crashing on arbitrary byte soup, on randomly truncated valid
/// programs, and on randomly mutated valid programs — reporting
/// diagnostics instead. (Deterministic pseudo-random inputs so failures
/// reproduce.)
///
//===----------------------------------------------------------------------===//

#include "DeepPrograms.h"
#include "lang/Resolver.h"
#include "programs/Programs.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

/// Compiling must never crash; the result (ok or diagnostics) is free.
void mustNotCrash(const std::string &Src) {
  Program P;
  DiagnosticEngine D;
  bool Ok = compileSource(Src, P, D);
  // A successful compile of garbage is fine too, but then it must
  // verify: exercised implicitly by other tests; here we only require
  // termination and a consistent diagnostic state.
  if (!Ok) {
    EXPECT_TRUE(D.hasErrors());
  }
}

TEST(FrontEndFuzz, RandomBytes) {
  const char Alphabet[] =
      "abcXYZ0129_-+*/%%(){},;=<>!&|'\"\n\t ->funtypevalmatchifthen";
  Rng R(2024);
  for (int Case = 0; Case != 300; ++Case) {
    std::string Src;
    size_t Len = R.below(200);
    for (size_t I = 0; I != Len; ++I)
      Src += Alphabet[R.below(sizeof(Alphabet) - 1)];
    mustNotCrash(Src);
  }
}

TEST(FrontEndFuzz, TruncatedValidPrograms) {
  std::string Valid = rbtreeSource();
  Rng R(7);
  for (int Case = 0; Case != 120; ++Case) {
    size_t Cut = R.below(Valid.size());
    mustNotCrash(Valid.substr(0, Cut));
  }
}

TEST(FrontEndFuzz, MutatedValidPrograms) {
  std::string Valid = nqueensSource();
  Rng R(99);
  for (int Case = 0; Case != 200; ++Case) {
    std::string Src = Valid;
    // Flip a handful of characters.
    for (int K = 0; K != 4; ++K) {
      size_t Pos = R.below(Src.size());
      Src[Pos] = static_cast<char>('!' + R.below(90));
    }
    mustNotCrash(Src);
  }
}

TEST(FrontEndFuzz, DeeplyNestedInputTerminates) {
  // Nesting past the parser's depth budget is an ordinary diagnostic,
  // never a stack overflow in the parser or in any later stage.
  std::string Src = "fun f(x) { ";
  for (int I = 0; I != 2000; ++I)
    Src += "(";
  Src += "x";
  for (int I = 0; I != 2000; ++I)
    Src += ")";
  Src += " }";
  mustNotCrash(Src);
}

TEST(FrontEndFuzz, EveryNestingShapeAtDepth100000IsACompileError) {
  for (const DeepProgram &D : deepPrograms(100000)) {
    Program P;
    DiagnosticEngine Diags;
    EXPECT_FALSE(compileSource(D.Source, P, Diags)) << D.Shape;
    EXPECT_NE(Diags.str().find("at most " + std::to_string(MaxExprDepth) +
                               " are supported"),
              std::string::npos)
        << D.Shape << ": " << Diags.str();
  }
}

TEST(FrontEndFuzz, RandomlyNestedInputAt100000LevelsTerminates) {
  // Seeded mixes of every opener, 10^5 deep, closed in reverse: the
  // budget holds whichever constructs make up the depth.
  const char *Open[] = {"(", "{ ", "if x then ", "match x { _ -> ",
                        "fn(a) ", "- ", "x + ", "Box("};
  const char *Close[] = {")", " }", " else x", " }", "", "", "", ")"};
  Rng R(31337);
  for (int Case = 0; Case != 4; ++Case) {
    std::string Src = "type box { Box(v) }\nfun f(x) { ";
    std::vector<size_t> Opened;
    for (int I = 0; I != 100000; ++I) {
      Opened.push_back(R.below(8));
      Src += Open[Opened.back()];
    }
    Src += "x";
    for (size_t I = Opened.size(); I-- > 0;)
      Src += Close[Opened[I]];
    mustNotCrash(Src + " }");
  }
}

TEST(FrontEndFuzz, LongFlatProgramCompiles) {
  // 2000 tiny functions: symbol tables, maps and the pipeline must
  // stay linear-ish.
  std::string Src;
  for (int I = 0; I != 2000; ++I) {
    Src += "fun f" + std::to_string(I) + "(x) { x + " +
           std::to_string(I) + " }\n";
  }
  Program P;
  DiagnosticEngine D;
  EXPECT_TRUE(compileSource(Src, P, D)) << D.str();
  EXPECT_EQ(P.numFunctions(), 2000u);
}

} // namespace

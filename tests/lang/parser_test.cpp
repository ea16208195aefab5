//===- tests/lang/parser_test.cpp - Parser unit tests --------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "DeepPrograms.h"
#include "ir/Program.h"
#include "lang/Resolver.h"
#include "runtime/Value.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

SModule parseOk(std::string_view Src) {
  DiagnosticEngine D;
  SModule M = parseModule(Src, D);
  EXPECT_FALSE(D.hasErrors()) << D.str();
  return M;
}

bool parseFails(std::string_view Src) {
  DiagnosticEngine D;
  parseModule(Src, D);
  return D.hasErrors();
}

TEST(Parser, TypeDeclaration) {
  SModule M = parseOk("type list { Cons(head, tail) Nil }");
  ASSERT_EQ(M.Types.size(), 1u);
  EXPECT_EQ(M.Types[0].Name, "list");
  ASSERT_EQ(M.Types[0].Ctors.size(), 2u);
  EXPECT_EQ(M.Types[0].Ctors[0].Name, "Cons");
  EXPECT_EQ(M.Types[0].Ctors[0].Fields.size(), 2u);
  EXPECT_EQ(M.Types[0].Ctors[1].Name, "Nil");
  EXPECT_TRUE(M.Types[0].Ctors[1].Fields.empty());
}

TEST(Parser, UppercaseTypeNameAccepted) {
  SModule M = parseOk("type Color { Red Black }");
  EXPECT_EQ(M.Types[0].Name, "Color");
}

TEST(Parser, FunctionDeclaration) {
  SModule M = parseOk("fun add(a, b) { a + b }");
  ASSERT_EQ(M.Funs.size(), 1u);
  EXPECT_EQ(M.Funs[0].Name, "add");
  EXPECT_EQ(M.Funs[0].Params, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(M.Funs[0].Body->Kind, SExpr::K::Block);
}

TEST(Parser, OperatorPrecedence) {
  SModule M = parseOk("fun f(a, b, c) { a + b * c }");
  const SExpr &Body = *M.Funs[0].Body->Stmts[0].E;
  ASSERT_EQ(Body.Kind, SExpr::K::Binop);
  EXPECT_EQ(Body.Op, TokKind::Plus);
  EXPECT_EQ(Body.B->Kind, SExpr::K::Binop);
  EXPECT_EQ(Body.B->Op, TokKind::Star);
}

TEST(Parser, ComparisonBindsLooserThanArithmetic) {
  SModule M = parseOk("fun f(a, b) { a + 1 < b * 2 }");
  const SExpr &Body = *M.Funs[0].Body->Stmts[0].E;
  EXPECT_EQ(Body.Op, TokKind::Lt);
}

TEST(Parser, BooleanOperatorsBindLoosest) {
  SModule M = parseOk("fun f(a, b) { a < 1 && b > 2 || a == b }");
  const SExpr &Body = *M.Funs[0].Body->Stmts[0].E;
  EXPECT_EQ(Body.Op, TokKind::OrOr);
  EXPECT_EQ(Body.A->Op, TokKind::AndAnd);
}

TEST(Parser, IfElifElseChains) {
  SModule M = parseOk("fun f(a) { if a < 0 then 1 elif a == 0 then 2 else 3 }");
  const SExpr &If1 = *M.Funs[0].Body->Stmts[0].E;
  ASSERT_EQ(If1.Kind, SExpr::K::If);
  ASSERT_EQ(If1.C->Kind, SExpr::K::If); // the elif
  EXPECT_EQ(If1.C->C->Kind, SExpr::K::IntLit);
}

TEST(Parser, IfWithBlockBranches) {
  SModule M = parseOk("fun f(a) { if a < 0 { 1 } else { 2 } }");
  EXPECT_EQ(M.Funs[0].Body->Stmts[0].E->Kind, SExpr::K::If);
}

TEST(Parser, MatchWithNestedPatterns) {
  SModule M = parseOk(R"(
    fun f(t) {
      match t {
        Node(Red, Node(_, a, b), k) -> a
        Node(c, l, k) -> k
        Leaf -> 0
      }
    }
  )");
  const SExpr &Match = *M.Funs[0].Body->Stmts[0].E;
  ASSERT_EQ(Match.Kind, SExpr::K::Match);
  ASSERT_EQ(Match.Arms.size(), 3u);
  const SPat &P0 = *Match.Arms[0].Pat;
  EXPECT_EQ(P0.Kind, SPat::K::Ctor);
  ASSERT_EQ(P0.Sub.size(), 3u);
  EXPECT_EQ(P0.Sub[0]->Kind, SPat::K::Ctor); // Red
  EXPECT_EQ(P0.Sub[1]->Kind, SPat::K::Ctor); // Node(...)
  EXPECT_EQ(P0.Sub[1]->Sub.size(), 3u);
  EXPECT_EQ(P0.Sub[1]->Sub[0]->Kind, SPat::K::Wild);
}

TEST(Parser, LiteralAndNegativePatterns) {
  SModule M = parseOk("fun f(x) { match x { 0 -> 1; -3 -> 2; True -> 3; _ -> 4 } }");
  const SExpr &Match = *M.Funs[0].Body->Stmts[0].E;
  EXPECT_EQ(Match.Arms[0].Pat->Int, 0);
  EXPECT_EQ(Match.Arms[1].Pat->Int, -3);
  EXPECT_EQ(Match.Arms[2].Pat->Kind, SPat::K::Bool);
  EXPECT_EQ(Match.Arms[3].Pat->Kind, SPat::K::Wild);
}

TEST(Parser, ValBindingsAndSequencing) {
  SModule M = parseOk("fun f() { val x = 1; val y = 2; x + y }");
  const auto &Stmts = M.Funs[0].Body->Stmts;
  ASSERT_EQ(Stmts.size(), 3u);
  EXPECT_TRUE(Stmts[0].IsVal);
  EXPECT_EQ(Stmts[0].Name, "x");
  EXPECT_FALSE(Stmts[2].IsVal);
}

TEST(Parser, LambdasAndCalls) {
  SModule M = parseOk("fun f(g) { g(fn(x) { x + 1 }, 2)(3) }");
  const SExpr &Call = *M.Funs[0].Body->Stmts[0].E;
  ASSERT_EQ(Call.Kind, SExpr::K::Call); // the (3) call
  ASSERT_EQ(Call.A->Kind, SExpr::K::Call);
  EXPECT_EQ(Call.A->Args[0]->Kind, SExpr::K::Lambda);
}

TEST(Parser, CtorApplication) {
  SModule M = parseOk("fun f(a) { Cons(a, Nil) }");
  const SExpr &E = *M.Funs[0].Body->Stmts[0].E;
  ASSERT_EQ(E.Kind, SExpr::K::Ctor);
  EXPECT_EQ(E.Name, "Cons");
  ASSERT_EQ(E.Args.size(), 2u);
  EXPECT_EQ(E.Args[1]->Kind, SExpr::K::Ctor);
  EXPECT_TRUE(E.Args[1]->Args.empty());
}

TEST(Parser, UnitAndParens) {
  SModule M = parseOk("fun f() { ((1 + 2)) }  fun g() { () }");
  EXPECT_EQ(M.Funs[0].Body->Stmts[0].E->Kind, SExpr::K::Binop);
  EXPECT_EQ(M.Funs[1].Body->Stmts[0].E->Kind, SExpr::K::Unit);
}

TEST(Parser, EmptyBlockIsUnit) {
  SModule M = parseOk("fun f() { }");
  EXPECT_EQ(M.Funs[0].Body->Stmts[0].E->Kind, SExpr::K::Unit);
}

TEST(Parser, ErrorRecovery) {
  EXPECT_TRUE(parseFails("fun f( { }"));
  EXPECT_TRUE(parseFails("fun f() { match x { } }"));
  EXPECT_TRUE(parseFails("type { }"));
  EXPECT_TRUE(parseFails("fun f() { 1 + }"));
  // Recovery continues to the next declaration.
  DiagnosticEngine D;
  SModule M = parseModule("garbage fun ok() { 1 }", D);
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(M.Funs.size(), 1u);
}

TEST(Parser, MatchArmsWithoutSeparators) {
  SModule M = parseOk(R"(
    fun f(xs) {
      match xs {
        Cons(x, xx) -> x
        Nil -> 0
      }
    }
  )");
  EXPECT_EQ(M.Funs[0].Body->Stmts[0].E->Arms.size(), 2u);
}

TEST(Parser, EveryShapeCompilesAtTheDepthBudget) {
  for (const DeepProgram &D : deepPrograms(MaxExprDepth)) {
    Program P;
    DiagnosticEngine Diags;
    EXPECT_TRUE(compileSource(D.Source, P, Diags)) << D.Shape << ": "
                                                   << Diags.str();
  }
}

TEST(Parser, OverDeepProgramsAreOneDiagnostic) {
  // One level past the budget, and far past it: a single ordinary
  // diagnostic that names the budget, and no cascade of follow-on errors
  // from the input the parser skipped. (A two-level step can overshoot
  // the budget by two, so only the first case pins the depth.)
  const std::string Budget =
      " levels; at most " + std::to_string(MaxExprDepth) + " are supported";
  for (uint32_t Levels : {MaxExprDepth + 1, uint32_t(100000)}) {
    for (const DeepProgram &D : deepPrograms(Levels)) {
      DiagnosticEngine Diags;
      parseModule(D.Source, Diags);
      EXPECT_EQ(Diags.errorCount(), 1u) << D.Shape << " at " << Levels << ": "
                                        << Diags.str();
      std::string Msg = Levels == MaxExprDepth + 1
                            ? "expression nests " +
                                  std::to_string(MaxExprDepth + 1) + Budget
                            : Budget;
      EXPECT_NE(Diags.str().find(Msg), std::string::npos)
          << D.Shape << " at " << Levels << ": " << Diags.str();
    }
  }
}

TEST(Parser, DepthIsCountedPerFunction) {
  // Levels close with the construct that opened them: many functions,
  // each just under the budget, parse.
  std::string Src;
  for (int I = 0; I != 8; ++I)
    Src += "fun f" + std::to_string(I) + "(n) { n" +
           repeatText(" + n", MaxExprDepth - 1) + " }\n";
  parseOk(Src);
}

TEST(Parser, IntegerLiteralsReachIntMax) {
  // IntMax, 2^62 - 1, the VM's largest integer (runtime/Value.h).
  SModule M = parseOk("fun f(x) { match x { 4611686018427387903 -> 1; "
                      "-4611686018427387903 -> 2; "
                      "_ -> 4611686018427387903 } }");
  const SExpr &Match = *M.Funs[0].Body->Stmts[0].E;
  ASSERT_EQ(Match.Arms.size(), 3u);
  EXPECT_EQ(Match.Arms[0].Pat->Int, IntMax);
  EXPECT_EQ(Match.Arms[1].Pat->Int, -IntMax);
  EXPECT_EQ(Match.Arms[2].Body->Int, IntMax);
}

TEST(Parser, OutOfRangeIntegerLiteralsAreOneDiagnostic) {
  // Past IntMax a literal is one error at the literal, in expression and
  // in pattern position, whether or not its digits overflow int64.
  const std::string Msg =
      "integer literal is out of range (at most 4611686018427387903)";
  for (const char *Literal :
       {"4611686018427387904", "9223372036854775808",
        "123456789012345678901234567890"}) {
    for (std::string Src :
         {"fun f() { " + std::string(Literal) + " }",
          "fun f(x) { match x { -" + std::string(Literal) + " -> 1; _ -> 0 } }"}) {
      DiagnosticEngine D;
      parseModule(Src, D);
      EXPECT_EQ(D.errorCount(), 1u) << Src << ": " << D.str();
      EXPECT_NE(D.str().find(Msg), std::string::npos) << Src << ": " << D.str();
    }
  }
}

} // namespace

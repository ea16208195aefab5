//===- tests/perceus/borrow_test.cpp - Borrow inference (Section 6) ------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "analysis/LinearCheck.h"
#include "analysis/Verifier.h"
#include "lang/Resolver.h"
#include "perceus/Borrow.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

BorrowSignatures sigsOf(Program &P, std::string_view Src) {
  DiagnosticEngine D;
  EXPECT_TRUE(compileSource(Src, P, D)) << D.str();
  return inferBorrowSignatures(P);
}

std::vector<bool> sigOf(Program &P, const BorrowSignatures &S,
                        std::string_view Fn) {
  FuncId F = P.findFunction(P.symbols().intern(Fn));
  EXPECT_NE(F, InvalidId);
  return S[F];
}

TEST(BorrowInference, PredicatesAreBorrowed) {
  Program P;
  auto S = sigsOf(P, R"(
    type list { Cons(h, t)  Nil }
    fun is-empty(xs) { match xs { Nil -> True  Cons(h, t) -> False } }
  )");
  EXPECT_EQ(sigOf(P, S, "is-empty"), std::vector<bool>{true});
}

TEST(BorrowInference, FoldsAreBorrowed) {
  Program P;
  auto S = sigsOf(P, R"(
    type list { Cons(h, t)  Nil }
    fun len(xs, acc) { match xs { Cons(h, t) -> len(t, acc + 1)  Nil -> acc } }
  )");
  // xs only matched / passed borrowed recursively; acc is an int result.
  auto Sig = sigOf(P, S, "len");
  EXPECT_TRUE(Sig[0]);
  EXPECT_FALSE(Sig[1]); // acc is returned: owned
}

TEST(BorrowInference, ReturnedParamsStayOwned) {
  Program P;
  auto S = sigsOf(P, "fun id(x) { x }");
  EXPECT_EQ(sigOf(P, S, "id"), std::vector<bool>{false});
}

TEST(BorrowInference, StoredParamsStayOwned) {
  Program P;
  auto S = sigsOf(P, R"(
    type b { Box(v)  Empty }
    fun tagof(x) { match x { Box(v) -> 1  Empty -> 0 } }
    fun boxit(x) { Box(x) }
  )");
  EXPECT_EQ(sigOf(P, S, "tagof"), std::vector<bool>{true});
  EXPECT_EQ(sigOf(P, S, "boxit"), std::vector<bool>{false});
}

TEST(BorrowInference, CapturedParamsStayOwned) {
  Program P;
  auto S = sigsOf(P, "fun close-over(x) { fn(y) { y }; 1 }");
  // x is not captured here; but a capturing one must be owned:
  Program P2;
  auto S2 = sigsOf(P2, R"(
    type b { Wrap(f) }
    fun capture(x) { match Wrap(fn(y) { x }) { Wrap(f) -> 1 } }
  )");
  EXPECT_FALSE(sigOf(P2, S2, "capture")[0]);
  (void)S;
}

TEST(BorrowInference, AllocatingFunctionsKeepOwnership) {
  // The judicious-application heuristic: `map1` allocates, so its
  // parameter stays owned and reuse analysis keeps working.
  Program P;
  auto S = sigsOf(P, R"(
    type list { Cons(h, t)  Nil }
    fun map1(xs) { match xs { Cons(h, t) -> Cons(h + 1, map1(t))  Nil -> Nil } }
  )");
  EXPECT_EQ(sigOf(P, S, "map1"), std::vector<bool>{false});
}

TEST(BorrowInference, FixpointPropagatesThroughCalls) {
  // g passes its parameter to f at a borrowed position; h passes its
  // parameter to an OWNED position, so it cannot borrow.
  Program P;
  auto S = sigsOf(P, R"(
    type b { Box(v)  Empty }
    fun f(x) { match x { Box(v) -> 1  Empty -> 0 } }
    fun g(y) { f(y) }
    fun consume(x) { match x { Box(v) -> v  Empty -> 0 } }
    fun alloc-user(y) { Box(consume(y)) }
  )");
  EXPECT_TRUE(sigOf(P, S, "f")[0]);
  EXPECT_TRUE(sigOf(P, S, "g")[0]);
  EXPECT_FALSE(sigOf(P, S, "alloc-user")[0]); // allocates
}

TEST(BorrowInference, RbtreeSignatures) {
  Program P;
  DiagnosticEngine D;
  ASSERT_TRUE(compileSource(rbtreeSource(), P, D));
  auto S = inferBorrowSignatures(P);
  // Predicates and folds borrow; the allocating insertion does not.
  EXPECT_TRUE(sigOf(P, S, "is-red")[0]);
  EXPECT_TRUE(sigOf(P, S, "count-true")[0]);
  EXPECT_FALSE(sigOf(P, S, "ins")[0]);
  EXPECT_FALSE(sigOf(P, S, "bal-left")[0]);
}

class BorrowedProgram : public ::testing::TestWithParam<size_t> {};

struct BCase {
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t N;
};

std::vector<BCase> bcases() {
  return {
      {"rbtree", rbtreeSource(), "bench_rbtree", 2000},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", 1000},
      {"deriv", derivSource(), "bench_deriv", 6},
      {"nqueens", nqueensSource(), "bench_nqueens", 6},
      {"cfold", cfoldSource(), "bench_cfold", 8},
      {"tmap", tmapSource(), "bench_tmap_fbip", 8},
      {"mapsum", mapSumSource(), "bench_mapsum", 2000},
  };
}

TEST_P(BorrowedProgram, BorrowedCodeIsLinearUnderSignatures) {
  BCase C = bcases()[GetParam()];
  Program P;
  DiagnosticEngine D;
  ASSERT_TRUE(compileSource(C.Source, P, D)) << D.str();
  BorrowSignatures Sigs = inferBorrowSignatures(P);
  runPipeline(P, PassConfig::perceusBorrow());
  auto V = verifyProgram(P);
  EXPECT_TRUE(V.empty()) << (V.empty() ? "" : V.front());
  auto L = checkLinearity(P, &Sigs);
  EXPECT_TRUE(L.empty()) << (L.empty() ? "" : L.front());
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, BorrowedProgram,
                         ::testing::Range(size_t(0), bcases().size()));

} // namespace

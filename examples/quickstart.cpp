//===- examples/quickstart.cpp - Five-minute tour of the API ------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The quickstart from the README: compile a small functional program,
/// run it under the full Perceus pipeline, and inspect what the
/// reference-counting optimizations did — including the "garbage free"
/// guarantee (an empty heap at exit) and in-place reuse.
///
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"
#include "ir/Printer.h"

#include <cstdio>

using namespace perceus;

int main() {
  // 1. A program in the surface language: reverse a list in place.
  const char *Source = R"(
    type list {
      Cons(head, tail)
      Nil
    }

    fun iota(n) {
      if n <= 0 then Nil else Cons(n, iota(n - 1))
    }

    // Tail-recursive reverse: each matched Cons pairs with the new Cons,
    // so a unique list is reversed with zero allocations (FBIP).
    fun reverse-onto(xs, acc) {
      match xs {
        Cons(x, xx) -> reverse-onto(xx, Cons(x, acc))
        Nil -> acc
      }
    }

    fun sum(xs, acc) {
      match xs {
        Cons(x, xx) -> sum(xx, acc + x)
        Nil -> acc
      }
    }

    fun main(n) {
      sum(reverse-onto(iota(n), Nil), 0)
    }
  )";

  // 2. Compile under the full Perceus pipeline (precise dup/drop
  //    insertion + reuse analysis + drop specialization + fusion).
  Runner R(Source, PassConfig::perceusFull());
  if (!R.ok()) {
    std::printf("compile error:\n%s", R.diagnostics().str().c_str());
    return 1;
  }

  // 3. Inspect the instrumented code the pipeline produced.
  FuncId Rev = R.artifact().function("reverse-onto");
  std::printf("reverse-onto after the Perceus pipeline:\n%s\n",
              printFunction(R.program(), Rev).c_str());

  // 4. Run it.
  RunResult Res = R.callInt("main", {100000});
  if (!Res.Ok) {
    std::printf("runtime error: %s\n", Res.Error.c_str());
    return 1;
  }

  const HeapStats &S = R.heap().stats();
  std::printf("result              : %lld\n", (long long)Res.Result.Int);
  std::printf("cells allocated     : %llu (the iota list)\n",
              (unsigned long long)S.Allocs);
  std::printf("in-place reuses     : %llu (reverse allocated nothing)\n",
              (unsigned long long)Res.ReuseHits);
  std::printf("rc ops executed     : %llu dup / %llu drop\n",
              (unsigned long long)S.DupOps, (unsigned long long)S.DropOps);
  std::printf("peak live heap      : %zu bytes\n", S.PeakBytes);
  std::printf("heap empty at exit  : %s  <- the garbage-free guarantee\n",
              R.heapIsEmpty() ? "yes" : "NO (bug!)");
  return R.heapIsEmpty() ? 0 : 1;
}

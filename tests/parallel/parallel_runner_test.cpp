//===- tests/parallel/parallel_runner_test.cpp - Worker-pool runner ------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// End-to-end coverage of the parallel execution layer: compile once, run
// N VMs concurrently; the shared segment is built once, tshare'd,
// traversed by every worker, and freed exactly once; and the garbage-
// free guarantee holds for every per-worker heap and the shared owner
// heap after every run — including runs where workers trap.
//
//===----------------------------------------------------------------------===//

#include "parallel/ParallelRunner.h"

#include "eval/Runner.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

std::vector<Value> ints(std::vector<int64_t> Args) {
  std::vector<Value> Vals;
  for (int64_t A : Args)
    Vals.push_back(Value::makeInt(A));
  return Vals;
}

class ParallelRunnerTest : public ::testing::Test {
protected:
  EngineConfig cfg(unsigned Workers) const {
    EngineConfig EC;
    EC.Workers = Workers;
    return EC;
  }
};

TEST_F(ParallelRunnerTest, WorkersMatchSingleThreadedResult) {
  ParallelRunner PR(rbtreeSource(), PassConfig::perceusFull());
  ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();
  ParallelOutcome Out = PR.run(cfg(4), "bench_rbtree", ints({400}));
  ASSERT_TRUE(Out.Ok) << Out.Error;
  ASSERT_EQ(Out.Workers.size(), 4u);

  Runner Single(rbtreeSource(), PassConfig::perceusFull());
  ASSERT_TRUE(Single.ok());
  RunResult Ref = Single.callInt("bench_rbtree", {400});
  ASSERT_TRUE(Ref.Ok);

  for (const WorkerOutcome &W : Out.Workers) {
    EXPECT_TRUE(W.Run.Ok) << W.Run.Error;
    EXPECT_EQ(W.Run.Result.Int, Ref.Result.Int);
    EXPECT_TRUE(W.HeapEmpty) << "garbage-free per worker";
    EXPECT_EQ(W.Heap.Allocs, Single.heap().stats().Allocs);
  }
  EXPECT_TRUE(Out.AllHeapsEmpty);
  EXPECT_EQ(Out.Combined.Allocs, 4 * Single.heap().stats().Allocs);
  EXPECT_EQ(Out.Combined.Frees, Out.Combined.Allocs);
  EXPECT_EQ(Out.Combined.LiveCells, 0u);
}

TEST_F(ParallelRunnerTest, SharedSegmentIsBuiltOnceAndFreedExactlyOnce) {
  ParallelRunner PR(sharedTreeSource(), PassConfig::perceusFull());
  ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();

  EngineConfig EC = cfg(8);
  EC.SharedBuilder = "build_tree";
  EC.SharedArgs = {Value::makeInt(8)};
  ParallelOutcome Out = PR.run(EC, "bench_shared_sum", ints({50}));
  ASSERT_TRUE(Out.Ok) << Out.Error;

  // Reference: the same traversal single-threaded, tree built locally.
  Runner Single(sharedTreeSource(), PassConfig::perceusFull());
  ASSERT_TRUE(Single.ok());
  Value Tree;
  Single.engine().setResultInspector([&](Value V) {
    Tree = V;
    Single.heap().dup(V);
  });
  ASSERT_TRUE(Single.callInt("build_tree", {8}).Ok);
  Single.engine().setResultInspector(nullptr);
  RunResult Ref =
      Single.call("bench_shared_sum", {Value::makeInt(50), Tree});
  ASSERT_TRUE(Ref.Ok);

  for (const WorkerOutcome &W : Out.Workers) {
    EXPECT_EQ(W.Run.Result.Int, Ref.Result.Int);
    EXPECT_TRUE(W.HeapEmpty);
    EXPECT_GT(W.Heap.AtomicRcOps, 0u)
        << "traversing a shared tree must take the atomic path";
    EXPECT_GT(W.Heap.CoalescedRcOps, W.Heap.AtomicRcOps)
        << "most shared-count traffic must be absorbed by the "
           "coalescing buffer, not issued as RMWs";
  }
  EXPECT_TRUE(Out.AllHeapsEmpty) << "shared heap empty after join";
  EXPECT_EQ(Out.SharedLeaked, 0u) << "clean runs sweep nothing";
  EXPECT_EQ(Out.Shared.Frees, Out.Shared.Allocs)
      << "every shared cell freed exactly once";
}

TEST_F(ParallelRunnerTest, TrappedWorkersLeakNothingAnywhere) {
  ParallelRunner PR(sharedTreeSource(), PassConfig::perceusFull());
  ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();

  EngineConfig EC = cfg(4);
  EC.SharedBuilder = "build_tree";
  EC.SharedArgs = {Value::makeInt(6)};
  EC.Limits.Fuel = 20000; // trap every worker mid-traversal
  ParallelOutcome Out = PR.run(EC, "bench_shared_sum", ints({100000}));

  EXPECT_FALSE(Out.Ok);
  for (const WorkerOutcome &W : Out.Workers) {
    EXPECT_FALSE(W.Run.Ok);
    EXPECT_EQ(W.Run.Trap, TrapKind::OutOfFuel);
    EXPECT_TRUE(W.HeapEmpty) << "worker unwind skips the shared segment "
                                "but frees all of its own cells";
  }
  // The workers' leaked references into the shared segment are
  // unrecoverable by counting; the owner's registry sweep must finish
  // the job so the garbage-free guarantee survives the traps.
  EXPECT_TRUE(Out.AllHeapsEmpty);
}

TEST_F(ParallelRunnerTest, FaultSweepFlushesBuffersOnEveryTrapUnwind) {
  // Per-k fuel sweep over the contended shared workload: whatever
  // dispatch the trap lands on, the unwind must flush every buffered
  // shared-count delta (a worker may not carry unflushed counts out of
  // a trapped run) and every heap — workers and owner — must end empty.
  // Sweeping k walks the trap point across dup/drop/flush boundaries.
  ParallelRunner PR(sharedTreeSource(), PassConfig::perceusFull());
  ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();

  for (uint64_t Fuel = 1; Fuel <= 2000; Fuel += 83) {
    EngineConfig EC = cfg(2);
    EC.SharedBuilder = "build_tree";
    EC.SharedArgs = {Value::makeInt(5)};
    EC.Limits.Fuel = Fuel;
    ParallelOutcome Out = PR.run(EC, "bench_shared_sum", ints({100000}));
    ASSERT_FALSE(Out.Ok) << "fuel=" << Fuel << " must trap";
    for (const WorkerOutcome &W : Out.Workers) {
      EXPECT_EQ(W.Run.Trap, TrapKind::OutOfFuel) << "fuel=" << Fuel;
      EXPECT_TRUE(W.HeapEmpty)
          << "fuel=" << Fuel << ": trap unwind left worker cells live";
    }
    EXPECT_TRUE(Out.AllHeapsEmpty)
        << "fuel=" << Fuel << ": shared segment leaked after trap";
  }
}

TEST_F(ParallelRunnerTest, CombinedStatsAreTheFieldwiseSum) {
  ParallelRunner PR(derivSource(), PassConfig::perceusFull());
  ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();
  ParallelOutcome Out = PR.run(cfg(3), "bench_deriv", ints({4}));
  ASSERT_TRUE(Out.Ok) << Out.Error;

  HeapStats Sum;
  for (const WorkerOutcome &W : Out.Workers)
    accumulate(Sum, W.Heap);
  EXPECT_EQ(Out.Combined.Allocs, Sum.Allocs);
  EXPECT_EQ(Out.Combined.DupOps, Sum.DupOps);
  EXPECT_EQ(Out.Combined.DropOps, Sum.DropOps);
  EXPECT_EQ(Out.Combined.PeakBytes, Sum.PeakBytes);
}

TEST_F(ParallelRunnerTest, GcConfigRunsWithoutSharedInput) {
  ParallelRunner PR(nqueensSource(), PassConfig::gc());
  ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();
  ParallelOutcome Out = PR.run(cfg(2), "bench_nqueens", ints({6}));
  ASSERT_TRUE(Out.Ok) << Out.Error;
  for (const WorkerOutcome &W : Out.Workers)
    EXPECT_EQ(W.Run.Result.Int, 4); // 6-queens has 4 solutions
}

TEST_F(ParallelRunnerTest, GcConfigRejectsSharedInput) {
  ParallelRunner PR(sharedTreeSource(), PassConfig::gc());
  ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();
  EngineConfig EC = cfg(2);
  EC.SharedBuilder = "build_tree";
  EC.SharedArgs = {Value::makeInt(4)};
  ParallelOutcome Out = PR.run(EC, "bench_shared_sum", ints({5}));
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("reference-counting"), std::string::npos);
}

TEST_F(ParallelRunnerTest, UnknownEntryAndBuilderAreReportedNotRun) {
  ParallelRunner PR(rbtreeSource(), PassConfig::perceusFull());
  ASSERT_TRUE(PR.ok());
  ParallelOutcome Out = PR.run(cfg(2), "no_such_fn", {});
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("no such entry"), std::string::npos);

  EngineConfig EC = cfg(2);
  EC.SharedBuilder = "no_such_builder";
  Out = PR.run(EC, "bench_rbtree", ints({10}));
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("no such shared-input builder"),
            std::string::npos);
}

// Repeated run() calls on one ParallelRunner share the artifact its
// constructor compiled; every run must agree with the first.
TEST(ParallelRunner, RepeatedRunsOfOneRunnerAgree) {
  ParallelRunner PR(nqueensSource(), PassConfig::perceusFull());
  ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();
  EngineConfig EC;
  EC.Workers = 2;
  ParallelOutcome A = PR.run(EC, "bench_nqueens", ints({6}));
  ParallelOutcome B = PR.run(EC, "bench_nqueens", ints({6}));
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(A.Workers[0].Run.Result.Int, B.Workers[0].Run.Result.Int);
  EXPECT_EQ(A.Combined.Allocs, B.Combined.Allocs);
  EXPECT_EQ(A.Combined.DupOps, B.Combined.DupOps);
  EXPECT_EQ(A.Combined.DropOps, B.Combined.DropOps);
  EXPECT_TRUE(A.AllHeapsEmpty);
  EXPECT_TRUE(B.AllHeapsEmpty);
}

// The tier is a per-run choice over that one artifact: whichever tier
// runs first, each run dispatches exactly its own tier's step count.
TEST(ParallelRunner, EachRunGetsItsOwnTier) {
  constexpr uint64_t RawSteps = 57215, PeepholeSteps = 28016;
  for (bool RawFirst : {true, false}) {
    SCOPED_TRACE(RawFirst ? "raw, then peephole" : "peephole, then raw");
    ParallelRunner PR(nqueensSource(), PassConfig::perceusFull());
    ASSERT_TRUE(PR.ok()) << PR.diagnostics().str();
    for (bool Peephole : {!RawFirst, RawFirst}) {
      EngineConfig EC;
      EC.Peephole = Peephole;
      ParallelOutcome Out = PR.run(EC, "bench_nqueens", ints({6}));
      ASSERT_TRUE(Out.Ok) << Out.Error;
      EXPECT_EQ(Out.Workers[0].Run.Result.Int, 4);
      EXPECT_EQ(Out.Workers[0].Run.Steps, Peephole ? PeepholeSteps : RawSteps)
          << (Peephole ? "peephole" : "raw") << " run";
    }
  }
}

} // namespace

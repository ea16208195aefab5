//===- tests/service/service_soak_test.cpp - Mixed-traffic soak -----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service under sustained mixed traffic: thousands of requests —
/// clean runs, fuel exhaustion, injected OOM, and deadline traps — over
/// 1..4 workers. After *every* request the worker heap must be empty
/// (the Perceus garbage-free guarantee is what makes heap pooling
/// correct, so one leaked cell here is a real bug), request pairs with
/// the same deterministic limits must trap at the same point, and the
/// artifact cache must have absorbed all but the first compile of each
/// key.
///
/// Every request is submitted twice with identical parameters, so the
/// second run — on whichever worker and warm heap it lands — is compared
/// per pair with the first: pooling must not change what a run does.
/// Deadline requests are excluded from the equality check (wall-clock
/// traps are not deterministic) but still must unwind cleanly.
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <vector>

using namespace perceus;

namespace {

/// One generated unit of traffic, submitted twice.
struct SoakCase {
  enum Kind { Clean, Fuel, Oom, Deadline } What = Clean;
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t Arg;
  RunLimits Limits;
  uint64_t FailAlloc = 0;
};

/// A deterministic mixed-traffic schedule. Seeded arithmetic, not
/// rand(): the soak must fail reproducibly.
std::vector<SoakCase> makeSchedule(size_t Count) {
  struct Prog {
    const char *Name;
    const char *Source;
    const char *Entry;
    int64_t Arg;
  };
  const Prog Progs[] = {
      {"mapsum", mapSumSource(), "bench_mapsum", 120},
      {"rbtree", rbtreeSource(), "bench_rbtree", 40},
      {"deriv", derivSource(), "bench_deriv", 3},
      {"nqueens", nqueensSource(), "bench_nqueens", 5},
      {"cfold", cfoldSource(), "bench_cfold", 5},
  };
  std::vector<SoakCase> Sched;
  Sched.reserve(Count);
  for (size_t I = 0; I != Count; ++I) {
    const Prog &P = Progs[I % (sizeof(Progs) / sizeof(Progs[0]))];
    SoakCase C;
    C.Name = P.Name;
    C.Source = P.Source;
    C.Entry = P.Entry;
    C.Arg = P.Arg;
    switch (I % 7) {
    case 0:
    case 1:
    case 2:
    case 3:
      C.What = SoakCase::Clean;
      break;
    case 4:
      C.What = SoakCase::Fuel;
      C.Limits.Fuel = 50 + (I % 11) * 25; // traps mid-run, varied points
      break;
    case 5:
      C.What = SoakCase::Oom;
      C.FailAlloc = 5 + I % 17; // injected allocation failure
      break;
    case 6:
      C.What = SoakCase::Deadline;
      C.Limits.DeadlineMs = 1; // expires mid-run or not at all
      C.Arg = 9;               // long enough that 1ms usually fires
      C.Source = nqueensSource();
      C.Entry = "bench_nqueens";
      C.Name = "nqueens";
      break;
    }
    Sched.push_back(C);
  }
  return Sched;
}

/// Runs the whole schedule through one Service with \p Workers threads,
/// each case twice, and checks the invariants.
void soak(unsigned Workers, size_t Count) {
  SCOPED_TRACE(testing::Message() << "workers=" << Workers);
  ServiceConfig SC;
  SC.Workers = Workers;
  SC.QueueCapacity = 2 * Count + 16; // admission is tested elsewhere
  Service S(SC);

  std::vector<SoakCase> Sched = makeSchedule(Count);
  struct Pair {
    SoakCase C;
    std::future<ServiceResponse> First, Second;
  };
  std::vector<Pair> Pairs;
  Pairs.reserve(Sched.size());
  for (const SoakCase &C : Sched) {
    ServiceRequest R;
    R.Source = C.Source;
    R.Entry = C.Entry;
    R.Args = {Value::makeInt(C.Arg)};
    R.Limits = C.Limits;
    R.FailAlloc = C.FailAlloc;
    Pair P;
    P.C = C;
    P.First = S.submit(R);
    P.Second = S.submit(ServiceRequest(R));
    Pairs.push_back(std::move(P));
  }

  size_t DeadlineExercised = 0, Shed = 0;
  for (Pair &P : Pairs) {
    ServiceResponse A = P.First.get();
    ServiceResponse B = P.Second.get();
    SCOPED_TRACE(testing::Message()
                 << P.C.Name << " kind=" << int(P.C.What) << " id=" << A.Id);
    if (P.C.What == SoakCase::Deadline) {
      // A 1ms budget may expire while the request is still queued behind
      // the batch: the service sheds it without touching the VM. That
      // is admission control working, not a failure — but a shed request
      // must never have run.
      for (const ServiceResponse *R : {&A, &B}) {
        if (R->Reject == RejectKind::Shedding) {
          EXPECT_FALSE(R->Executed);
          ++Shed;
          ++DeadlineExercised;
          continue;
        }
        ASSERT_TRUE(R->Executed) << R->Error;
        EXPECT_TRUE(R->HeapEmpty);
        if (R->Run.Ok)
          continue; // finished under the wire
        EXPECT_EQ(R->Run.Trap, TrapKind::Deadline) << R->Run.Error;
        ++DeadlineExercised;
      }
      continue;
    }
    ASSERT_TRUE(A.Executed) << A.Error;
    ASSERT_TRUE(B.Executed) << B.Error;

    // The load-bearing invariant: the worker heap is empty after every
    // request, clean or trapped — pooling never carries garbage over.
    EXPECT_TRUE(A.HeapEmpty);
    EXPECT_TRUE(B.HeapEmpty);
    EXPECT_EQ(A.Heap.LiveCells, 0u);
    EXPECT_EQ(B.Heap.LiveCells, 0u);

    switch (P.C.What) {
    case SoakCase::Clean:
      ASSERT_TRUE(A.Run.Ok) << A.Run.Error;
      ASSERT_TRUE(B.Run.Ok) << B.Run.Error;
      // A warm pooled heap runs the request exactly like the first.
      EXPECT_EQ(A.Run.Result.Int, B.Run.Result.Int);
      EXPECT_EQ(A.Heap.Allocs, B.Heap.Allocs);
      EXPECT_EQ(A.Heap.Frees, B.Heap.Frees);
      break;
    case SoakCase::Fuel:
      EXPECT_EQ(A.Run.Trap, TrapKind::OutOfFuel);
      EXPECT_EQ(B.Run.Trap, TrapKind::OutOfFuel);
      break;
    case SoakCase::Oom:
      EXPECT_EQ(A.Run.Trap, TrapKind::OutOfMemory);
      EXPECT_EQ(B.Run.Trap, TrapKind::OutOfMemory);
      // Same injected failure point → same allocation count at trap.
      EXPECT_EQ(A.Heap.Allocs, B.Heap.Allocs);
      EXPECT_EQ(A.Heap.FailedAllocs, 1u);
      EXPECT_EQ(B.Heap.FailedAllocs, 1u);
      break;
    case SoakCase::Deadline:
      break; // handled above
    }
  }

  ServiceStats ST = S.stats();
  EXPECT_EQ(ST.Executed, 2 * Sched.size() - Shed);
  EXPECT_EQ(ST.RejectedShedding, Shed);
  EXPECT_EQ(ST.RejectedQueueFull, 0u);
  // Compile-once: at most one compile per distinct (source, config)
  // key; everything else must be a cache hit.
  EXPECT_GE(ST.CacheHits, ST.Executed - ST.CacheCompiles);
  EXPECT_LE(ST.CacheCompiles, 5u); // ≤ five programs
  if (Count >= 256) {
    EXPECT_GT(DeadlineExercised, 0u) << "no deadline ever bit — dead test";
  }
}

TEST(ServiceSoak, SingleWorker) { soak(1, 384); }
TEST(ServiceSoak, TwoWorkers) { soak(2, 384); }
TEST(ServiceSoak, FourWorkers) { soak(4, 640); }

/// Sequential long-haul on one worker: thousands of requests through one
/// Session, retained memory bounded the whole way (ISSUE acceptance:
/// heap empty and retained slabs bounded after every request).
TEST(ServiceSoak, SequentialLongHaulRetainedBounded) {
  ServiceConfig SC;
  SC.Workers = 1;
  SC.MaxRetainedBytes = 1u << 20;
  Service S(SC);
  Session Small(S, mapSumSource());
  Session Peaky(S, mapSumSource(), PassConfig::perceusNoOpt());
  for (int I = 0; I != 2500; ++I) {
    // Every 100th request is peaky (~6MB of slabs); the rest are small.
    bool Peak = I % 100 == 99;
    Session &Sess = Peak ? Peaky : Small;
    ServiceResponse R =
        Sess.call("bench_mapsum", {Value::makeInt(Peak ? 100000 : 60)});
    ASSERT_TRUE(R.Run.Ok) << "request " << I << ": " << R.Run.Error;
    ASSERT_TRUE(R.HeapEmpty) << "request " << I;
    // Trimmed back under the policy bound before the response reports.
    ASSERT_LE(R.RetainedBytes, SC.MaxRetainedBytes) << "request " << I;
  }
  ServiceStats ST = S.stats();
  EXPECT_EQ(ST.Executed, 2500u);
  EXPECT_EQ(ST.CacheCompiles, 2u);
  EXPECT_GT(ST.TrimmedBytes, 0u);
}

} // namespace

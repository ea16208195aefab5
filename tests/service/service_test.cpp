//===- tests/service/service_test.cpp - Session engine unit tests ---------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the long-lived request service (src/service): the
/// compile-once artifact cache, admission control (queue-full and
/// shedding as structured outcomes), per-request deadlines, the
/// retained-memory trim policy, and heap pooling across
/// mixed configurations on one worker.
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "service/ServiceJson.h"

#include "Common.h"
#include "eval/Runner.h"
#include "programs/Programs.h"
#include "support/FaultInjector.h"
#include "support/JsonWriter.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <map>

using namespace perceus;

namespace {

int64_t referenceResult(const char *Source, const char *Entry, int64_t Arg,
                        const PassConfig &Config = PassConfig::perceusFull()) {
  Runner R(Source, Config);
  EXPECT_TRUE(R.ok());
  RunResult Res = R.callInt(Entry, {Arg});
  EXPECT_TRUE(Res.Ok);
  return Res.Result.Int;
}

TEST(Service, CompileOncePerKeyAndCorrectResults) {
  Service S;
  Session Sess(S, mapSumSource());
  int64_t Want = referenceResult(mapSumSource(), "bench_mapsum", 100);
  for (int I = 0; I != 10; ++I) {
    ServiceResponse R = Sess.call("bench_mapsum", {Value::makeInt(100)});
    ASSERT_TRUE(R.Executed);
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    EXPECT_EQ(R.Run.Result.Int, Want);
    EXPECT_TRUE(R.HeapEmpty);
    EXPECT_EQ(R.CacheHit, I != 0);
  }
  ServiceStats ST = S.stats();
  EXPECT_EQ(ST.Executed, 10u);
  EXPECT_EQ(ST.CacheCompiles, 1u);
  EXPECT_GE(ST.CacheHits, 9u);
}

TEST(Service, CompileErrorIsCachedAndStructured) {
  Service S;
  Session Sess(S, "fun main( { syntax error");
  for (int I = 0; I != 3; ++I) {
    ServiceResponse R = Sess.call("main");
    EXPECT_FALSE(R.Executed);
    EXPECT_EQ(R.Reject, RejectKind::CompileError);
    EXPECT_FALSE(R.Error.empty());
  }
  // The failure is negatively cached: one compile, never repeated.
  EXPECT_EQ(S.stats().CacheCompiles, 1u);
  EXPECT_EQ(S.stats().RejectedCompileError, 3u);
}

TEST(Service, CacheBytesCountEveryChunkOfBothTiers) {
  // The cache budget must see everything an artifact keeps: the IR arena
  // and every chunk vector, as allocated, of the peephole tier (code, the
  // three site columns, capture slots) and of the raw tier it retains.
  std::shared_ptr<const CompiledArtifact> A =
      compileArtifact(rbtreeSource(), PassConfig::perceusFull());
  ASSERT_TRUE(A->Ok) << A->Error;
  const CompiledProgram &C = *A->Code;
  ASSERT_FALSE(C.RawFuncs.empty());
  size_t Floor = A->Prog->arena().bytesAllocated();
  for (const std::vector<Chunk> *Tab :
       {&C.Funcs, &C.Lams, &C.RawFuncs, &C.RawLams})
    for (const Chunk &Ch : *Tab)
      Floor += Ch.Code.capacity() * sizeof(Instr) +
               (Ch.Sites.capacity() + Ch.Sites2.capacity() +
                Ch.Sites3.capacity()) *
                   sizeof(const Expr *) +
               (Ch.CaptureSrc.capacity() + Ch.CaptureDst.capacity()) *
                   sizeof(uint16_t);
  Service S;
  ASSERT_TRUE(S.precompile(rbtreeSource(), PassConfig::perceusFull()));
  EXPECT_GE(S.stats().CacheBytes, Floor);
}

TEST(Service, MissingEntryIsARuntimeErrorNotACrash) {
  Service S;
  Session Sess(S, mapSumSource());
  ServiceResponse R = Sess.call("no_such_function");
  ASSERT_TRUE(R.Executed);
  EXPECT_FALSE(R.Run.Ok);
  EXPECT_EQ(R.Run.Trap, TrapKind::RuntimeError);
  EXPECT_TRUE(R.HeapEmpty);
}

TEST(Service, SessionWarmMakesFirstCallACacheHit) {
  Service S;
  Session Sess(S, mapSumSource(), PassConfig::perceusFull());
  std::string Err;
  ASSERT_TRUE(Sess.warm(&Err)) << Err;
  ServiceResponse R = Sess.call("bench_mapsum", {Value::makeInt(10)});
  ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
  EXPECT_TRUE(R.CacheHit);
}

TEST(Service, QueueFullIsAStructuredRejection) {
  ServiceConfig C;
  C.Workers = 1;
  C.QueueCapacity = 1;
  Service S(C);
  Session Sess(S, nqueensSource());
  // One slow request occupies the worker; capacity one means at most one
  // more waits — the rest must be rejected at submit, resolved
  // immediately, and never abort the process.
  std::vector<std::future<ServiceResponse>> Futs;
  for (int I = 0; I != 8; ++I)
    Futs.push_back(Sess.submit("bench_nqueens", {Value::makeInt(8)}));
  unsigned Rejected = 0, Served = 0;
  for (auto &F : Futs) {
    ServiceResponse R = F.get();
    if (R.Reject == RejectKind::QueueFull) {
      ++Rejected;
      EXPECT_FALSE(R.Executed);
    } else {
      ++Served;
      EXPECT_TRUE(R.Run.Ok) << R.Run.Error;
    }
  }
  EXPECT_GE(Rejected, 1u);
  EXPECT_GE(Served, 1u);
  EXPECT_EQ(S.stats().RejectedQueueFull, Rejected);
}

TEST(Service, StopShedsQueuedRequests) {
  ServiceConfig C;
  C.Workers = 1;
  C.QueueCapacity = 16;
  Service S(C);
  Session Sess(S, nqueensSource());
  std::vector<std::future<ServiceResponse>> Futs;
  Futs.push_back(Sess.submit("bench_nqueens", {Value::makeInt(8)}));
  for (int I = 0; I != 6; ++I)
    Futs.push_back(Sess.submit("bench_nqueens", {Value::makeInt(4)}));
  S.stop();
  unsigned Shed = 0;
  for (auto &F : Futs) {
    ServiceResponse R = F.get(); // every future resolves — no abort
    if (R.Reject == RejectKind::Shedding)
      ++Shed;
  }
  EXPECT_GE(Shed, 1u);
  // Post-stop submissions are rejected, not lost.
  ServiceResponse After = Sess.call("bench_nqueens", {Value::makeInt(4)});
  EXPECT_EQ(After.Reject, RejectKind::Shedding);
}

TEST(Service, DeadlineTrapsCleanly) {
  Service S;
  Session Sess(S, nqueensSource(), PassConfig::perceusFull());
  RunLimits L;
  L.DeadlineMs = 5;
  // On a loaded box the budget can burn in the queue before a worker
  // picks the request up; that shed is the documented outcome, so
  // retry until the run actually starts.
  ServiceResponse R;
  for (int Attempt = 0; Attempt != 50; ++Attempt) {
    R = Sess.call("bench_nqueens", {Value::makeInt(10)}, L);
    if (R.Executed)
      break;
    ASSERT_EQ(R.Reject, RejectKind::Shedding);
  }
  ASSERT_TRUE(R.Executed);
  EXPECT_FALSE(R.Run.Ok);
  EXPECT_EQ(R.Run.Trap, TrapKind::Deadline);
  // Clean unwind: nothing leaked mid-flight on the pooled heap.
  EXPECT_TRUE(R.HeapEmpty);
  EXPECT_EQ(R.Heap.LiveCells, 0u);
}

TEST(Service, DeadlineBurnedInQueueShedsWithoutRunning) {
  ServiceConfig C;
  C.Workers = 1;
  Service S(C);
  Session Sess(S, nqueensSource());
  // Occupy the single worker long enough that the follow-up's 1ms
  // deadline expires while it waits in the queue.
  auto Slow = Sess.submit("bench_nqueens", {Value::makeInt(9)});
  RunLimits L;
  L.DeadlineMs = 1;
  ServiceResponse R = Sess.call("bench_nqueens", {Value::makeInt(8)}, L);
  EXPECT_EQ(R.Reject, RejectKind::Shedding);
  EXPECT_FALSE(R.Executed);
  EXPECT_TRUE(Slow.get().Run.Ok);
}

TEST(Service, PeakyRequestDoesNotPinRetainedMemory) {
  ServiceConfig C;
  C.Workers = 1;
  C.MaxRetainedBytes = 512 * 1024;
  Service S(C);
  Session Sess(S, mapSumSource());
  // ~100k live cells at peak: several MB of slabs.
  ServiceResponse Peaky =
      Sess.call("bench_mapsum", {Value::makeInt(100000)});
  ASSERT_TRUE(Peaky.Run.Ok) << Peaky.Run.Error;
  EXPECT_GT(Peaky.Heap.PeakBytes, 2u << 20);
  // The trim ran between requests: retained slab bytes are back under
  // the policy bound (one warm slab), not the request's peak.
  EXPECT_LE(Peaky.RetainedBytes, C.MaxRetainedBytes);
  EXPECT_GT(S.stats().TrimmedBytes, 0u);
  // The trimmed heap is fully reusable.
  ServiceResponse Small = Sess.call("bench_mapsum", {Value::makeInt(50)});
  ASSERT_TRUE(Small.Run.Ok);
  EXPECT_EQ(Small.Run.Result.Int,
            referenceResult(mapSumSource(), "bench_mapsum", 50));
  EXPECT_LE(Small.RetainedBytes, C.MaxRetainedBytes);
}

TEST(Service, GcModeRequestsLeaveThePooledHeapEmpty) {
  Service S;
  Session Sess(S, mapSumSource(), PassConfig::gc());
  int64_t Want =
      referenceResult(mapSumSource(), "bench_mapsum", 200, PassConfig::gc());
  for (int I = 0; I != 5; ++I) {
    ServiceResponse R = Sess.call("bench_mapsum", {Value::makeInt(200)});
    ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
    EXPECT_EQ(R.Run.Result.Int, Want);
    // reclaimAll between requests: GC mode pools heaps too.
    EXPECT_TRUE(R.HeapEmpty);
  }
}

TEST(Service, MixedKeysAlternateOnOneWorker) {
  ServiceConfig C;
  C.Workers = 1;
  Service S(C);
  Session Full(S, mapSumSource(), PassConfig::perceusFull());
  Session NoOpt(S, mapSumSource(), PassConfig::perceusNoOpt());
  Session Gc(S, mapSumSource(), PassConfig::gc());
  int64_t Want = referenceResult(mapSumSource(), "bench_mapsum", 64);
  for (int I = 0; I != 4; ++I) {
    for (Session *Sess : {&Full, &NoOpt, &Gc}) {
      ServiceResponse R = Sess->call("bench_mapsum", {Value::makeInt(64)});
      ASSERT_TRUE(R.Run.Ok) << R.Run.Error;
      EXPECT_EQ(R.Run.Result.Int, Want);
      EXPECT_TRUE(R.HeapEmpty);
    }
  }
  // Three keys, twelve requests, one compile each.
  EXPECT_EQ(S.stats().CacheCompiles, 3u);
  EXPECT_GE(S.stats().CacheHits, 9u);
}

TEST(Service, FaultInjectedOomIsCleanlyUnwound) {
  Service S;
  Session Sess(S, mapSumSource(), PassConfig::perceusFull());
  ServiceResponse R =
      Sess.call("bench_mapsum", {Value::makeInt(100)}, RunLimits{}, 7);
  ASSERT_TRUE(R.Executed);
  EXPECT_FALSE(R.Run.Ok);
  EXPECT_EQ(R.Run.Trap, TrapKind::OutOfMemory);
  EXPECT_TRUE(R.HeapEmpty);
  EXPECT_EQ(R.Heap.FailedAllocs, 1u);
}

/// service.rc_calls of \p R's wire document.
uint64_t wireRcCalls(const ServiceResponse &R) {
  std::optional<JsonValue> Doc = parseJson(wireResponseJson(R));
  const JsonValue *Svc =
      Doc ? Doc->find("service", JsonValue::Kind::Object) : nullptr;
  const JsonValue *N =
      Svc ? Svc->find("rc_calls", JsonValue::Kind::Number) : nullptr;
  EXPECT_NE(N, nullptr);
  return N ? static_cast<uint64_t>(N->Num) : ~uint64_t(0);
}

TEST(ServiceRcCalls, WireCountEqualsAnInProcessSinkCleanAndTrapped) {
  // The wire's rc_calls must be the number a CountingSink counts when
  // the same entry and arguments run in process through Runner, and the
  // VM's own count of RC calls, whether or not the service installs a
  // sink itself: every Figure 9 program, four configurations, clean and
  // trapped on fuel, an injected allocation failure and the wall-clock
  // deadline.
  Service S;
  const std::pair<const char *, PassConfig> Configs[] = {
      {"perceus", PassConfig::perceusFull()},
      {"perceus-noopt", PassConfig::perceusNoOpt()},
      {"scoped-rc", PassConfig::scoped()},
      {"gc", PassConfig::gc()}};
  // Small n for the clean, fuel and alloc runs; for the deadline runs,
  // sizes that take 50 ms or more on the VM.
  const std::map<std::string, int64_t> LateN = {{"rbtree", 400000},
                                                {"rbtree-ck", 80000},
                                                {"deriv", 40},
                                                {"nqueens", 10},
                                                {"cfold", 18}};
  for (const bench::BenchProgram &Prog : bench::figure9Programs(0.01))
    for (const auto &[Name, Config] : Configs) {
      SCOPED_TRACE(std::string(Prog.Name) + " / " + Name);
      Session Sess(S, Prog.Source, Config);
      // One request and its in-process twin under the same limits
      // and injected fault; returns the twin's run.
      auto Compare = [&](int64_t N, const RunLimits &L, uint64_t FailAlloc,
                         const ServiceResponse &Resp) {
        CountingSink Sink;
        FaultInjector FI = FaultInjector::failNth(FailAlloc);
        EngineConfig EC = EngineConfig{}.withLimits(L).withSink(&Sink);
        if (FailAlloc)
          EC.Injector = &FI;
        Runner R(Prog.Source, Config, EC);
        EXPECT_TRUE(R.ok());
        RunResult Twin = R.callInt(Prog.Entry, {N});
        EXPECT_TRUE(Resp.Executed);
        EXPECT_EQ(Resp.Run.Steps, Twin.Steps);
        EXPECT_EQ(wireRcCalls(Resp), Sink.totalRcCalls());
        EXPECT_EQ(wireRcCalls(Resp), Resp.Run.Rc.totalCalls());
        EXPECT_TRUE(Resp.HeapEmpty);
        return Twin;
      };
      int64_t N = Prog.BaseScale;

      ServiceResponse Clean = Sess.call(Prog.Entry, {Value::makeInt(N)});
      ASSERT_TRUE(Clean.Run.Ok) << Clean.Run.Error;
      EXPECT_TRUE(Compare(N, RunLimits{}, 0, Clean).Ok);
      if (Config.Mode != RcMode::None) {
        EXPECT_GT(wireRcCalls(Clean), 0u);
      }

      RunLimits Fuel;
      Fuel.Fuel = Clean.Run.Steps / 2;
      ServiceResponse Starved =
          Sess.call(Prog.Entry, {Value::makeInt(N)}, Fuel);
      EXPECT_EQ(Starved.Run.Trap, TrapKind::OutOfFuel);
      EXPECT_EQ(Compare(N, Fuel, 0, Starved).Trap, TrapKind::OutOfFuel);

      uint64_t FailAt = Clean.Heap.Allocs / 2 + 1;
      ServiceResponse Oom =
          Sess.call(Prog.Entry, {Value::makeInt(N)}, RunLimits{}, FailAt);
      EXPECT_EQ(Oom.Run.Trap, TrapKind::OutOfMemory);
      EXPECT_EQ(Compare(N, RunLimits{}, FailAt, Oom).Trap,
                TrapKind::OutOfMemory);

      // The deadline trap lands on a timing-dependent step. The VM
      // takes it where a fuel trap one step earlier would land, so the
      // twin replays it as exactly that fuel trap.
      int64_t Big = LateN.at(Prog.Name);
      RunLimits Deadline;
      Deadline.DeadlineMs = 20;
      ServiceResponse Late;
      for (int Attempt = 0; Attempt != 50; ++Attempt) {
        Late = Sess.call(Prog.Entry, {Value::makeInt(Big)}, Deadline);
        if (Late.Executed)
          break; // else shed: the budget burned in the queue
      }
      ASSERT_EQ(Late.Run.Trap, TrapKind::Deadline);
      RunLimits Replay;
      Replay.Fuel = Late.Run.Steps - 1;
      EXPECT_EQ(Compare(Big, Replay, 0, Late).Trap, TrapKind::OutOfFuel);
    }
}

TEST(ServiceJson, ResponsesSerializeToTheWireSchema) {
  Service S;
  Session Sess(S, nqueensSource());
  RunLimits L;
  L.DeadlineMs = 5;
  ServiceResponse R = Sess.call("bench_nqueens", {Value::makeInt(10)}, L);
  ASSERT_TRUE(R.Executed);
  ASSERT_EQ(R.Run.Trap, TrapKind::Deadline);

  std::string Text = wireResponseJson(R);
  std::string Err;
  auto Doc = parseJson(Text, &Err);
  ASSERT_TRUE(Doc) << Err;
  using K = JsonValue::Kind;
  const JsonValue *Schema = Doc->find("schema", K::String);
  ASSERT_NE(Schema, nullptr);
  EXPECT_EQ(Schema->Str, "perceus-wire-v1");
  const JsonValue *Svc = Doc->find("service", K::Object);
  ASSERT_NE(Svc, nullptr);
  for (const char *Key : {"queue_ms", "run_ms", "retained_bytes", "worker",
                          "id", "seq", "shard", "rc_calls"})
    EXPECT_NE(Svc->find(Key, K::Number), nullptr) << Key;
  for (const char *Key : {"executed", "cache_hit", "heap_empty"})
    EXPECT_NE(Svc->find(Key, K::Bool), nullptr) << Key;
  EXPECT_EQ(Svc->find("status", K::String)->Str, "ok");
  // The trapped run is schema-valid and names the new trap kind.
  const JsonValue *Run = Doc->find("run", K::Object);
  ASSERT_NE(Run, nullptr);
  EXPECT_EQ(Run->find("trap", K::String)->Str, "deadline");
  EXPECT_NE(Doc->find("heap", K::Object), nullptr);
}

TEST(ServiceJson, WireStatusVocabularyIsClosedAndRoundTrips) {
  // Every RejectKind serializes to one of the pinned wire statuses —
  // the same closed set the bench validator accepts — and rejections
  // always carry seq/shard/retry_after_ms so clients can back off
  // without parsing error text.
  using K = JsonValue::Kind;
  const char *Want[] = {"ok",           "queue-full",   "shedding",
                        "compile-error", "rate-limited", "tenant-quota",
                        "circuit-open",  "bad-request"};
  for (uint8_t I = 0; I != 8; ++I) {
    ServiceResponse R;
    R.Reject = static_cast<RejectKind>(I);
    R.Seq = 9;
    R.Shard = 1;
    R.RetryAfterMs = I >= 4 ? 25 : 0;
    EXPECT_STREQ(rejectKindName(R.Reject), Want[I]);
    auto Doc = parseJson(wireResponseJson(R));
    ASSERT_TRUE(Doc) << Want[I];
    const JsonValue *Svc = Doc->find("service", K::Object);
    ASSERT_NE(Svc, nullptr);
    EXPECT_EQ(Svc->find("status", K::String)->Str, Want[I]);
    EXPECT_EQ(Svc->find("seq", K::Number)->Num, 9);
    EXPECT_EQ(Svc->find("shard", K::Number)->Num, 1);
    EXPECT_EQ(Svc->find("retry_after_ms", K::Number)->Num,
              I >= 4 ? 25 : 0);
  }
}

} // namespace

//===- tests/service/overload_test.cpp - Admission-policy unit tests ------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The overload-hardening surface of src/service: the TenantGovernor
/// (token bucket, in-flight cap, fair-share shed, RunLimits clamps), the
/// per-source CircuitBreaker state machine, LRU artifact-cache eviction
/// under MaxCacheBytes (silent recompile, pinned-while-running, negative
/// entries first), deadline edge cases, and structural
/// validation of JSON request lines. Every failure here is a structured
/// response — nothing in this file may abort.
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"
#include "service/ServiceJson.h"

#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <thread>

using namespace perceus;

namespace {

using TimePoint = TenantGovernor::TimePoint;

TimePoint at(uint64_t Ms) {
  return TimePoint() + std::chrono::milliseconds(Ms);
}

//===--- TenantGovernor --------------------------------------------------===//

TEST(TenantGovernor, TokenBucketRejectsBeyondBurstWithRetryHint) {
  TenantGovernor G;
  TenantPolicy P;
  P.RatePerSec = 2;
  P.Burst = 2;
  G.setPolicy("t", P);
  EXPECT_EQ(G.admit("t", at(0), 0, 0, 64).Reject, RejectKind::None);
  EXPECT_EQ(G.admit("t", at(0), 0, 0, 64).Reject, RejectKind::None);
  TenantGovernor::Decision D = G.admit("t", at(0), 0, 0, 64);
  EXPECT_EQ(D.Reject, RejectKind::RateLimited);
  // Empty bucket at 2 tokens/s: one token is ~500ms away.
  EXPECT_GE(D.RetryAfterMs, 1u);
  EXPECT_LE(D.RetryAfterMs, 500u);
  EXPECT_EQ(G.counters("t").RejectedRateLimited, 1u);
}

TEST(TenantGovernor, TokenBucketRefillsFromElapsedTime) {
  TenantGovernor G;
  TenantPolicy P;
  P.RatePerSec = 10;
  P.Burst = 1;
  G.setPolicy("t", P);
  EXPECT_EQ(G.admit("t", at(0), 0, 0, 64).Reject, RejectKind::None);
  EXPECT_EQ(G.admit("t", at(0), 0, 0, 64).Reject, RejectKind::RateLimited);
  // 100ms at 10/s refills exactly the one token the bucket holds.
  EXPECT_EQ(G.admit("t", at(100), 0, 0, 64).Reject, RejectKind::None);
}

TEST(TenantGovernor, InFlightCapReleasesOnOutcome) {
  TenantGovernor G;
  TenantPolicy P;
  P.MaxInFlight = 1;
  G.setPolicy("t", P);
  EXPECT_EQ(G.admit("t", at(0), 0, 0, 64).Reject, RejectKind::None);
  TenantGovernor::Decision D = G.admit("t", at(0), 1, 1, 64);
  EXPECT_EQ(D.Reject, RejectKind::TenantQuota);
  EXPECT_GE(D.RetryAfterMs, 1u);
  ServiceResponse R;
  R.Executed = true;
  R.Run.Ok = true;
  G.onOutcome("t", R);
  EXPECT_EQ(G.admit("t", at(0), 0, 0, 64).Reject, RejectKind::None);
  EXPECT_EQ(G.counters("t").Executed, 1u);
}

TEST(TenantGovernor, FairShareShedsOnlyUnderQueuePressure) {
  TenantGovernor G;
  // Two active tenants: fair share of a 8-slot queue is 4 each.
  ASSERT_EQ(G.admit("a", at(0), 0, 0, 8).Reject, RejectKind::None);
  ASSERT_EQ(G.admit("b", at(0), 0, 0, 8).Reject, RejectKind::None);
  // Below 3/4 capacity nothing sheds, even for a hog.
  EXPECT_EQ(G.admit("a", at(0), 5, 5, 8).Reject, RejectKind::None);
  // At 3/4 capacity a tenant at or over its share is refused...
  EXPECT_EQ(G.admit("a", at(0), 4, 6, 8).Reject, RejectKind::TenantQuota);
  // ...while one under its share is still admitted.
  EXPECT_EQ(G.admit("b", at(0), 1, 6, 8).Reject, RejectKind::None);
}

TEST(TenantGovernor, ClampLowersAndImposesLimits) {
  TenantGovernor G;
  TenantPolicy P;
  P.Clamp.Fuel = 1000;
  P.Clamp.DeadlineMs = 50;
  G.setPolicy("t", P);
  RunLimits L;
  L.Fuel = 0;         // unlimited request: the clamp imposes itself
  L.DeadlineMs = 10;  // tighter than the clamp: stays
  G.clampLimits("t", L);
  EXPECT_EQ(L.Fuel, 1000u);
  EXPECT_EQ(L.DeadlineMs, 10u);
  L.Fuel = 5000; // looser than the clamp: lowered
  G.clampLimits("t", L);
  EXPECT_EQ(L.Fuel, 1000u);
  // Unclamped fields pass through untouched.
  EXPECT_EQ(L.MaxCallDepth, 0u);
}

TEST(TenantGovernor, DefaultPolicyGovernsUnknownTenants) {
  TenantPolicy Def;
  Def.MaxInFlight = 1;
  TenantGovernor G(Def);
  EXPECT_EQ(G.admit("anyone", at(0), 0, 0, 64).Reject, RejectKind::None);
  EXPECT_EQ(G.admit("anyone", at(0), 1, 1, 64).Reject,
            RejectKind::TenantQuota);
  // An explicit policy overrides the default.
  G.setPolicy("vip", TenantPolicy{});
  EXPECT_EQ(G.admit("vip", at(0), 0, 0, 64).Reject, RejectKind::None);
  EXPECT_EQ(G.admit("vip", at(0), 1, 1, 64).Reject, RejectKind::None);
}

//===--- CircuitBreaker --------------------------------------------------===//

TEST(CircuitBreaker, OpensAfterConsecutiveTrapsThenRecovers) {
  CircuitBreaker B(/*TrapThreshold=*/3, /*CooldownMs=*/50);
  for (int I = 0; I != 3; ++I)
    B.onOutcome("src", /*Executed=*/true, /*Trapped=*/true, at(0));
  EXPECT_EQ(B.state("src"), CircuitBreaker::State::Open);
  CircuitBreaker::Decision D = B.admit("src", at(10));
  EXPECT_FALSE(D.Allow);
  EXPECT_EQ(D.RetryAfterMs, 40u); // remaining cooldown, precise
  // Cooldown elapsed: exactly one probe runs, the rest keep waiting.
  EXPECT_TRUE(B.admit("src", at(60)).Allow);
  EXPECT_EQ(B.state("src"), CircuitBreaker::State::HalfOpen);
  EXPECT_FALSE(B.admit("src", at(60)).Allow);
  // The probe succeeds: closed, full service resumes.
  B.onOutcome("src", true, false, at(61));
  EXPECT_EQ(B.state("src"), CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.admit("src", at(62)).Allow);
}

TEST(CircuitBreaker, HalfOpenProbeTrapReopensForAFreshCooldown) {
  CircuitBreaker B(1, 50);
  B.onOutcome("src", true, true, at(0));
  ASSERT_EQ(B.state("src"), CircuitBreaker::State::Open);
  ASSERT_TRUE(B.admit("src", at(60)).Allow); // the probe
  B.onOutcome("src", true, true, at(61));    // probe trapped too
  EXPECT_EQ(B.state("src"), CircuitBreaker::State::Open);
  EXPECT_FALSE(B.admit("src", at(70)).Allow);
  // The fresh cooldown counts from the probe's trap, not the first open.
  EXPECT_TRUE(B.admit("src", at(115)).Allow);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  CircuitBreaker B(3, 50);
  B.onOutcome("src", true, true, at(0));
  B.onOutcome("src", true, true, at(1));
  B.onOutcome("src", true, false, at(2)); // success: streak broken
  B.onOutcome("src", true, true, at(3));
  B.onOutcome("src", true, true, at(4));
  EXPECT_EQ(B.state("src"), CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.admit("src", at(5)).Allow);
}

TEST(CircuitBreaker, ShedProbeReleasesTheSlotWithoutVerdict) {
  CircuitBreaker B(1, 50);
  B.onOutcome("src", true, true, at(0));
  ASSERT_TRUE(B.admit("src", at(60)).Allow); // probe admitted
  // The probe was shed before running (queue deadline, stop): no
  // evidence either way, but the slot frees for the next probe.
  B.onOutcome("src", /*Executed=*/false, false, at(61));
  EXPECT_EQ(B.state("src"), CircuitBreaker::State::HalfOpen);
  EXPECT_TRUE(B.admit("src", at(62)).Allow);
}

TEST(CircuitBreaker, KeepsOnlySourcesWithATrapOnRecord) {
  CircuitBreaker B(/*TrapThreshold=*/3, /*CooldownMs=*/50);
  auto Serve = [&B](int From, int To, int T) {
    for (int I = From; I != To; ++I) {
      std::string Src = "src" + std::to_string(I);
      ASSERT_TRUE(B.admit(Src, at(T)).Allow);
      B.onOutcome(Src, /*Executed=*/true, /*Trapped=*/false, at(T));
    }
  };
  // A stream of distinct healthy sources (service-cold's traffic) leaves
  // nothing behind, and neither does a shed request for an unseen one.
  Serve(0, 1000, 0);
  EXPECT_EQ(B.trackedSources(), 0u);
  ASSERT_TRUE(B.admit("shed", at(1)).Allow);
  B.onOutcome("shed", /*Executed=*/false, false, at(1));
  EXPECT_EQ(B.trackedSources(), 0u);

  // A trapping source stays on record through open and half-open, while
  // healthy sources around it still come and go, until a success.
  for (int I = 0; I != 3; ++I)
    B.onOutcome("bad", true, /*Trapped=*/true, at(2));
  EXPECT_EQ(B.state("bad"), CircuitBreaker::State::Open);
  Serve(1000, 2000, 3);
  EXPECT_EQ(B.trackedSources(), 1u);
  ASSERT_TRUE(B.admit("bad", at(60)).Allow); // the half-open probe
  B.onOutcome("bad", /*Executed=*/false, false, at(61)); // probe shed
  EXPECT_EQ(B.trackedSources(), 1u);
  ASSERT_TRUE(B.admit("bad", at(62)).Allow);
  B.onOutcome("bad", true, /*Trapped=*/false, at(63));
  EXPECT_EQ(B.state("bad"), CircuitBreaker::State::Closed);
  EXPECT_EQ(B.trackedSources(), 0u);

  // One trap below the threshold is on record too, until a success.
  B.onOutcome("flaky", true, true, at(70));
  EXPECT_EQ(B.trackedSources(), 1u);
  B.onOutcome("flaky", true, false, at(71));
  EXPECT_EQ(B.trackedSources(), 0u);
}

TEST(CircuitBreaker, DisabledBreakerKeepsNoState) {
  CircuitBreaker B(0, 50);
  for (int I = 0; I != 100; ++I)
    B.onOutcome("src", true, true, at(I));
  EXPECT_TRUE(B.admit("src", at(200)).Allow);
  EXPECT_EQ(B.state("src"), CircuitBreaker::State::Closed);
  EXPECT_EQ(B.trackedSources(), 0u);
}

//===--- Service integration: governor -----------------------------------===//

TEST(ServiceOverload, RateLimitedTenantGetsStructuredRejection) {
  Service S;
  TenantPolicy P;
  P.RatePerSec = 1;
  P.Burst = 1;
  S.setTenantPolicy("free", P);
  Session Sess(S, mapSumSource(), PassConfig::perceusFull(), "free");
  ServiceResponse First = Sess.call("bench_mapsum", {Value::makeInt(10)});
  ASSERT_TRUE(First.Run.Ok) << First.Run.Error;
  ServiceResponse Second = Sess.call("bench_mapsum", {Value::makeInt(10)});
  EXPECT_FALSE(Second.Executed);
  EXPECT_EQ(Second.Reject, RejectKind::RateLimited);
  EXPECT_GE(Second.RetryAfterMs, 1u);
  EXPECT_EQ(Second.Tenant, "free");
  EXPECT_EQ(S.stats().RejectedRateLimited, 1u);
  TenantCounters C = S.tenantStats("free");
  EXPECT_EQ(C.Submitted, 2u);
  EXPECT_EQ(C.Executed, 1u);
  EXPECT_EQ(C.RejectedRateLimited, 1u);
  // The other tenant is untouched by "free"'s bucket.
  ServiceResponse Other = S.call([] {
    ServiceRequest R;
    R.Tenant = "other";
    R.Source = mapSumSource();
    R.Entry = "bench_mapsum";
    R.Args = {Value::makeInt(10)};
    return R;
  }());
  EXPECT_TRUE(Other.Run.Ok);
}

TEST(ServiceOverload, TenantClampCapsRunLimits) {
  Service S;
  TenantPolicy P;
  P.Clamp.Fuel = 200; // far too little for the workload
  S.setTenantPolicy("batch", P);
  Session Sess(S, mapSumSource(), PassConfig::perceusFull(), "batch");
  ServiceResponse R = Sess.call("bench_mapsum", {Value::makeInt(10000)});
  ASSERT_TRUE(R.Executed);
  EXPECT_FALSE(R.Run.Ok);
  EXPECT_EQ(R.Run.Trap, TrapKind::OutOfFuel);
  EXPECT_TRUE(R.HeapEmpty);
  EXPECT_EQ(S.tenantStats("batch").Traps, 1u);
}

TEST(ServiceOverload, TenantLedgerBalancesAcrossRequests) {
  Service S;
  Session Sess(S, mapSumSource(), PassConfig::perceusFull(), "acct");
  for (int I = 0; I != 5; ++I)
    ASSERT_TRUE(Sess.call("bench_mapsum", {Value::makeInt(100)}).Run.Ok);
  TenantCounters C = S.tenantStats("acct");
  EXPECT_EQ(C.Executed, 5u);
  // Garbage-free per request means the accumulated per-tenant heap
  // ledger balances exactly: every allocated cell was freed.
  EXPECT_GT(C.Heap.Allocs, 0u);
  EXPECT_EQ(C.Heap.Allocs, C.Heap.Frees);
  EXPECT_GT(C.RunSecondsTotal, 0.0);
}

//===--- Service integration: circuit breaker ----------------------------===//

TEST(ServiceOverload, BreakerOpensOnTrapStormAndRejectsFast) {
  ServiceConfig C;
  C.BreakerTrapThreshold = 2;
  C.BreakerCooldownMs = 60 * 1000; // stays open for the whole test
  Service S(C);
  Session Sess(S, mapSumSource());
  // Two consecutive trapping runs of this source key trip its breaker.
  for (int I = 0; I != 2; ++I) {
    ServiceResponse R = Sess.call("no_such_entry");
    ASSERT_TRUE(R.Executed);
    ASSERT_FALSE(R.Run.Ok);
  }
  ServiceResponse Fast = Sess.call("bench_mapsum", {Value::makeInt(10)});
  EXPECT_FALSE(Fast.Executed);
  EXPECT_EQ(Fast.Reject, RejectKind::CircuitOpen);
  EXPECT_GE(Fast.RetryAfterMs, 1u);
  EXPECT_EQ(S.stats().RejectedCircuitOpen, 1u);
  // The breaker is per source key: other programs are unaffected.
  Session Healthy(S, nqueensSource());
  EXPECT_TRUE(Healthy.call("bench_nqueens", {Value::makeInt(5)}).Run.Ok);
}

TEST(ServiceOverload, BreakerHalfOpenProbeHealsTheSource) {
  ServiceConfig C;
  C.BreakerTrapThreshold = 1;
  C.BreakerCooldownMs = 5;
  Service S(C);
  Session Sess(S, mapSumSource());
  ASSERT_FALSE(Sess.call("no_such_entry").Run.Ok);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Cooldown elapsed: the next request is the probe; it succeeds and
  // closes the breaker for good.
  ServiceResponse Probe = Sess.call("bench_mapsum", {Value::makeInt(10)});
  ASSERT_TRUE(Probe.Executed);
  EXPECT_TRUE(Probe.Run.Ok);
  for (int I = 0; I != 3; ++I)
    EXPECT_TRUE(Sess.call("bench_mapsum", {Value::makeInt(10)}).Executed);
}

//===--- Artifact cache: LRU eviction under MaxCacheBytes ----------------===//

/// Distinct cache keys from one program: comments change the source
/// string (the key) without changing what compiles.
std::string variant(unsigned I) {
  return std::string(mapSumSource()) + "\n// variant " + std::to_string(I);
}

/// The footprint of one compiled mapsum artifact, measured on an
/// unbounded service — test budgets are sized in units of it.
size_t oneArtifactBytes() {
  Service S;
  EXPECT_TRUE(S.precompile(variant(0), PassConfig::perceusFull()));
  size_t Bytes = S.stats().CacheBytes;
  EXPECT_GT(Bytes, 0u);
  return Bytes;
}

TEST(ServiceCache, EvictsLruAndRecompilesSilently) {
  size_t One = oneArtifactBytes();
  ServiceConfig C;
  C.MaxCacheBytes = 2 * One + One / 2; // room for two artifacts, not three
  Service S(C);
  for (unsigned I = 0; I != 3; ++I)
    ASSERT_TRUE(S.precompile(variant(I), PassConfig::perceusFull()));
  ServiceStats ST = S.stats();
  EXPECT_GE(ST.CacheEvictions, 1u);
  EXPECT_LE(ST.CacheBytes, C.MaxCacheBytes);
  // The evicted key (variant 0, least recently used) is *not* a
  // rejection: it recompiles silently and answers correctly.
  ServiceRequest R;
  R.Source = variant(0);
  R.Entry = "bench_mapsum";
  R.Args = {Value::makeInt(50)};
  ServiceResponse Resp = S.call(std::move(R));
  ASSERT_TRUE(Resp.Executed);
  EXPECT_TRUE(Resp.Run.Ok) << Resp.Run.Error;
  EXPECT_FALSE(Resp.CacheHit);
  EXPECT_EQ(Resp.Reject, RejectKind::None);
  EXPECT_EQ(S.stats().CacheCompiles, 4u);
}

TEST(ServiceCache, LruOrderFollowsUse) {
  size_t One = oneArtifactBytes();
  ServiceConfig C;
  C.MaxCacheBytes = 2 * One + One / 2;
  Service S(C);
  ASSERT_TRUE(S.precompile(variant(0), PassConfig::perceusFull()));
  ASSERT_TRUE(S.precompile(variant(1), PassConfig::perceusFull()));
  // Touch variant 0: it becomes most recently used...
  ServiceRequest R;
  R.Source = variant(0);
  R.Entry = "bench_mapsum";
  R.Args = {Value::makeInt(10)};
  ASSERT_TRUE(S.call(std::move(R)).CacheHit);
  // ...so compiling a third evicts variant 1, not variant 0.
  ASSERT_TRUE(S.precompile(variant(2), PassConfig::perceusFull()));
  ServiceRequest Again;
  Again.Source = variant(0);
  Again.Entry = "bench_mapsum";
  Again.Args = {Value::makeInt(10)};
  EXPECT_TRUE(S.call(std::move(Again)).CacheHit);
}

TEST(ServiceCache, NegativeEntriesEvictBeforeArtifacts) {
  size_t One = oneArtifactBytes();
  std::string Bad = "fun main( { syntax error";
  // Measure the negative entry so the budget can be cut to admit two
  // artifacts but not the failure record alongside them: eviction then
  // has to fire, and cheapest-first means the negative entry goes.
  size_t Neg = 0;
  {
    Service Probe;
    EXPECT_FALSE(Probe.precompile(Bad, PassConfig::perceusFull()));
    Neg = Probe.stats().CacheBytes;
    ASSERT_GT(Neg, 0u);
  }
  ServiceConfig C;
  C.MaxCacheBytes = 2 * One + Neg / 2;
  Service S(C);
  // A cached compile failure (negative entry) plus two real artifacts.
  EXPECT_FALSE(S.precompile(Bad, PassConfig::perceusFull()));
  ASSERT_TRUE(S.precompile(variant(0), PassConfig::perceusFull()));
  uint64_t CompilesBefore = S.stats().CacheCompiles;
  ASSERT_TRUE(S.precompile(variant(1), PassConfig::perceusFull()));
  // Over budget the negative entry went first — both artifacts are
  // still cache hits...
  for (unsigned I = 0; I != 2; ++I) {
    ServiceRequest R;
    R.Source = variant(I);
    R.Entry = "bench_mapsum";
    R.Args = {Value::makeInt(10)};
    EXPECT_TRUE(S.call(std::move(R)).CacheHit) << I;
  }
  EXPECT_EQ(S.stats().CacheCompiles, CompilesBefore + 1);
  // ...and the bad source re-diagnoses via a fresh compile.
  std::string Err;
  EXPECT_FALSE(S.precompile(Bad, PassConfig::perceusFull(), &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_GT(S.stats().CacheCompiles, CompilesBefore + 1);
}

TEST(ServiceCache, PinnedArtifactSurvivesEvictionPressure) {
  ServiceConfig C;
  C.Workers = 2;
  C.MaxCacheBytes = 1; // everything is over budget
  Service S(C);
  Session Slow(S, nqueensSource());
  // A long run (~100 ms on the VM) pins its artifact; compiles racing it
  // must not evict the entry out from under the running VM.
  std::future<ServiceResponse> F =
      Slow.submit("bench_nqueens", {Value::makeInt(10)});
  for (unsigned I = 0; I != 3; ++I) {
    ServiceRequest R;
    R.Source = variant(I);
    R.Entry = "bench_mapsum";
    R.Args = {Value::makeInt(10)};
    ServiceResponse Resp = S.call(std::move(R));
    ASSERT_TRUE(Resp.Executed);
    EXPECT_TRUE(Resp.Run.Ok) << Resp.Run.Error;
  }
  ServiceResponse SlowResp = F.get();
  ASSERT_TRUE(SlowResp.Executed);
  EXPECT_TRUE(SlowResp.Run.Ok) << SlowResp.Run.Error;
  EXPECT_GE(S.stats().CacheEvictions, 1u);
}

TEST(ServiceCache, ZeroBudgetMeansUnbounded) {
  Service S; // MaxCacheBytes = 0
  for (unsigned I = 0; I != 4; ++I)
    ASSERT_TRUE(S.precompile(variant(I), PassConfig::perceusFull()));
  EXPECT_EQ(S.stats().CacheEvictions, 0u);
  EXPECT_EQ(S.stats().CacheCompiles, 4u);
}

//===--- Deadline edges -------------------------------------------------===//

TEST(ServiceDeadline, ZeroMeansNoDeadline) {
  Service S;
  Session Sess(S, mapSumSource(), PassConfig::perceusFull());
  RunLimits L;
  L.DeadlineMs = 0;
  ServiceResponse R = Sess.call("bench_mapsum", {Value::makeInt(5000)}, L);
  ASSERT_TRUE(R.Executed);
  EXPECT_TRUE(R.Run.Ok) << R.Run.Error;
}

TEST(ServiceDeadline, OneMsTrapsCleanly) {
  Service S;
  Session Sess(S, nqueensSource(), PassConfig::perceusFull());
  RunLimits L;
  L.DeadlineMs = 1;
  // A run that needs ~100 ms against a 1ms deadline: the VM traps
  // Deadline (never aborts) and unwinds to an empty heap. On a loaded
  // box the 1ms can burn in the queue before a worker picks the request
  // up; that shed is the documented outcome, so retry until the run
  // actually starts.
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
  EXPECT_TRUE(R.HeapEmpty);
  EXPECT_EQ(R.Heap.LiveCells, 0u);
}

TEST(ServiceDeadline, ExpiredInQueueShedsWithoutRunning) {
  ServiceConfig C;
  C.Workers = 1;
  Service S(C);
  Session Sess(S, nqueensSource(), PassConfig::perceusFull());
  // The worker is busy (~25 ms on the VM) long past the follow-up's 1ms
  // budget, so its deadline is already spent when a worker finally
  // picks it up.
  std::future<ServiceResponse> Busy =
      Sess.submit("bench_nqueens", {Value::makeInt(9)});
  RunLimits L;
  L.DeadlineMs = 1;
  ServiceResponse R = Sess.call("bench_nqueens", {Value::makeInt(8)}, L);
  EXPECT_FALSE(R.Executed);
  EXPECT_EQ(R.Reject, RejectKind::Shedding);
  EXPECT_TRUE(Busy.get().Run.Ok);
}

//===--- JSON request lines: structural validation ------------------------===//

TEST(ServiceRequestJson, MinimalAndFullRequestsParse) {
  ServiceRequest R;
  std::string Err;
  ASSERT_TRUE(parseServiceRequestJson(R"({"entry":"main"})", R, Err)) << Err;
  EXPECT_EQ(R.Entry, "main");
  EXPECT_EQ(R.Tenant, "default");

  ServiceRequest Full;
  ASSERT_TRUE(parseServiceRequestJson(
      R"({"entry":"go","tenant":"acme","engine":"vm","config":"perceus",)"
      R"("args":[1,2,3],"fuel":100,"deadline_ms":50,"max_depth":8,)"
      R"("fail_alloc":7,"max_heap":4096,"max_cells":10,"alloc_budget":99})",
      Full, Err))
      << Err;
  EXPECT_EQ(Full.Entry, "go");
  EXPECT_EQ(Full.Tenant, "acme");
  EXPECT_EQ(Full.Engine, EngineKind::Vm);
  ASSERT_EQ(Full.Args.size(), 3u);
  EXPECT_EQ(Full.Args[1].Int, 2);
  EXPECT_EQ(Full.Limits.Fuel, 100u);
  EXPECT_EQ(Full.Limits.DeadlineMs, 50u);
  EXPECT_EQ(Full.Limits.MaxCallDepth, 8u);
  EXPECT_EQ(Full.FailAlloc, 7u);
  EXPECT_EQ(Full.Limits.Heap.MaxLiveBytes, 4096u);
  EXPECT_EQ(Full.Limits.Heap.MaxLiveCells, 10u);
  EXPECT_EQ(Full.Limits.Heap.AllocBudget, 99u);
}

TEST(ServiceRequestJson, TruncatedDocumentsAreDiagnosedNotFatal) {
  for (const char *Text :
       {"", "{", R"({"entry")", R"({"entry":)", R"({"entry":"main")",
        R"({"entry":"ma)", R"({"args":[1,)"}) {
    ServiceRequest R;
    std::string Err;
    EXPECT_FALSE(parseServiceRequestJson(Text, R, Err)) << Text;
    EXPECT_FALSE(Err.empty()) << Text;
  }
}

TEST(ServiceRequestJson, WrongTypesNameTheKey) {
  struct Case {
    const char *Text;
    const char *Key;
  } Cases[] = {
      {R"({"entry":5})", "entry"},
      {R"({"entry":"m","fuel":"lots"})", "fuel"},
      {R"({"entry":"m","args":7})", "args"},
      {R"({"entry":"m","args":[1,"two"]})", "args"},
      {R"({"entry":"m","tenant":[]})", "tenant"},
      {R"({"entry":"m","deadline_ms":true})", "deadline_ms"},
      // Integers past int64_t are errors too, never clamped to a bound.
      {R"({"entry":"m","args":[99999999999999999999]})", "args"},
      {R"({"entry":"m","args":[1,-9223372036854775809]})", "args"},
      {R"({"entry":"m","fuel":99999999999999999999})", "fuel"},
      {R"({"entry":"m","max_heap":18446744073709551616})", "max_heap"},
  };
  for (const Case &C : Cases) {
    ServiceRequest R;
    std::string Err;
    EXPECT_FALSE(parseServiceRequestJson(C.Text, R, Err)) << C.Text;
    EXPECT_NE(Err.find(C.Key), std::string::npos)
        << C.Text << " -> " << Err;
  }
}

TEST(ServiceRequestJson, Int64BoundsAreInRange) {
  // The range check stops exactly past the int64_t bounds.
  ServiceRequest R;
  std::string Err;
  ASSERT_TRUE(parseServiceRequestJson(
      R"({"entry":"m","args":[9223372036854775807,-9223372036854775808],)"
      R"("fuel":9223372036854775807})",
      R, Err))
      << Err;
  ASSERT_EQ(R.Args.size(), 2u);
  EXPECT_EQ(R.Args[0].Int, INT64_MAX);
  EXPECT_EQ(R.Args[1].Int, INT64_MIN);
  EXPECT_EQ(R.Limits.Fuel, uint64_t(INT64_MAX));
}

TEST(ServiceRequestJson, UnknownKeysAndTrailingGarbageAreRejected) {
  ServiceRequest R;
  std::string Err;
  EXPECT_FALSE(
      parseServiceRequestJson(R"({"entry":"m","bogus":1})", R, Err));
  EXPECT_NE(Err.find("unknown key"), std::string::npos) << Err;
  EXPECT_FALSE(
      parseServiceRequestJson(R"({"entry":"m"} extra)", R, Err));
  EXPECT_FALSE(Err.empty());
  // Negative and fractional numbers are structural errors too.
  EXPECT_FALSE(
      parseServiceRequestJson(R"({"entry":"m","fuel":-1})", R, Err));
  EXPECT_FALSE(
      parseServiceRequestJson(R"({"entry":"m","fuel":1.5})", R, Err));
}

TEST(ServiceRequestJson, OversizedLinesAreRefusedUpFront) {
  std::string Huge = R"({"entry":")";
  Huge.append(MaxRequestJsonBytes, 'x');
  Huge += R"("})";
  ServiceRequest R;
  std::string Err;
  EXPECT_FALSE(parseServiceRequestJson(Huge, R, Err));
  EXPECT_FALSE(Err.empty());
  // The boundary itself is fine: exactly MaxRequestJsonBytes parses.
  std::string AtLimit = R"({"entry":")";
  AtLimit.append(MaxRequestJsonBytes - AtLimit.size() - 2, 'x');
  AtLimit += R"("})";
  ASSERT_EQ(AtLimit.size(), MaxRequestJsonBytes);
  EXPECT_TRUE(parseServiceRequestJson(AtLimit, R, Err)) << Err;
}

TEST(ServiceRequestJson, MissingEntryIsAnError) {
  ServiceRequest R;
  std::string Err;
  EXPECT_FALSE(parseServiceRequestJson(R"({"tenant":"t"})", R, Err));
  EXPECT_NE(Err.find("entry"), std::string::npos) << Err;
}

} // namespace

//===- tests/service/chaos_soak_test.cpp - Seeded chaos soak --------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service under seeded chaos: thousands of requests across four
/// tenants with every fault injector armed at once — transient compile
/// faults, probabilistic mid-run OOM, fuel and deadline squeezes, worker
/// stalls — plus the circuit breaker live and the artifact cache under a
/// byte budget that forces eviction. The point is not that requests
/// succeed (many are *supposed* to trap or be rejected); it is that
/// every single one resolves as a structured response, every executed
/// request leaves its worker heap empty, retained slabs stay bounded,
/// and the cache never exceeds its budget. Zero aborts, by construction
/// of the assertions: the process finishing the suite is the theorem.
///
/// The chaos plan is a pure function of (seed, request id), so a failure
/// here replays exactly.
///
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "net/ShardedService.h"
#include "programs/Programs.h"

#include <gtest/gtest.h>

#include <future>
#include <vector>

using namespace perceus;

namespace {

struct SourceCase {
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t Arg;
};

const SourceCase Sources[] = {
    {"mapsum", nullptr, "bench_mapsum", 60},
    {"rbtree", nullptr, "bench_rbtree", 16},
    {"deriv", nullptr, "bench_deriv", 2},
};

const char *Tenants[] = {"free", "pro", "batch", "enterprise"};

TEST(ChaosSoak, ThousandsOfChaoticRequestsAllResolveStructurally) {
  SourceCase Cases[3] = {Sources[0], Sources[1], Sources[2]};
  Cases[0].Source = mapSumSource();
  Cases[1].Source = rbtreeSource();
  Cases[2].Source = derivSource();

  // Size the cache budget in units of the real artifacts: all six keys
  // (three sources x two configs) measured unbounded, then 60% of that
  // — small enough that eviction must fire, large enough that the
  // pinned-while-running exception (at most one pinned artifact per
  // worker plus the one being compiled) cannot push past it.
  size_t AllKeysBytes = 0;
  {
    Service Probe;
    for (const SourceCase &C : Cases)
      for (const PassConfig &Config :
           {PassConfig::perceusFull(), PassConfig::perceusNoOpt()})
        ASSERT_TRUE(Probe.precompile(C.Source, Config));
    AllKeysBytes = Probe.stats().CacheBytes;
    ASSERT_GT(AllKeysBytes, 0u);
  }

  ServiceConfig SC;
  SC.Workers = 2;
  SC.QueueCapacity = 256;
  SC.MaxRetainedBytes = 1u << 20;
  SC.MaxCacheBytes = AllKeysBytes * 6 / 10;
  SC.BreakerTrapThreshold = 5;
  SC.BreakerCooldownMs = 10;
  SC.Chaos = ChaosConfig::defaults(20260808);
  Service S(SC);

  TenantPolicy Free;
  Free.RatePerSec = 100000; // effectively unlimited, but the bucket runs
  Free.Burst = 4096;
  S.setTenantPolicy("free", Free);
  TenantPolicy Pro;
  Pro.MaxInFlight = 48;
  S.setTenantPolicy("pro", Pro);
  TenantPolicy Batch;
  Batch.Clamp.Fuel = 1u << 20;
  Batch.Clamp.DeadlineMs = 2000;
  S.setTenantPolicy("batch", Batch);
  // "enterprise" runs on the (unlimited) default policy.

  constexpr size_t Total = 5120, BatchSize = 64;
  size_t PerTenantSubmitted[4] = {0, 0, 0, 0};
  uint64_t Executed = 0, Trapped = 0, Rejected = 0;

  for (size_t Base = 0; Base != Total; Base += BatchSize) {
    std::vector<std::future<ServiceResponse>> Futs;
    Futs.reserve(BatchSize);
    for (size_t I = Base; I != Base + BatchSize; ++I) {
      const SourceCase &C = Cases[I % 3];
      ServiceRequest R;
      R.Tenant = Tenants[I % 4];
      ++PerTenantSubmitted[I % 4];
      R.Source = C.Source;
      R.Entry = C.Entry;
      R.Config = I % 2 ? PassConfig::perceusFull() : PassConfig::perceusNoOpt();
      R.Args = {Value::makeInt(C.Arg)};
      Futs.push_back(S.submit(std::move(R)));
    }
    for (std::future<ServiceResponse> &F : Futs) {
      ServiceResponse R = F.get(); // resolves — or the suite hangs/aborts
      SCOPED_TRACE(testing::Message() << "id=" << R.Id << " tenant="
                                      << R.Tenant);
      if (R.Executed) {
        ++Executed;
        if (!R.Run.Ok)
          ++Trapped;
        // The load-bearing invariants, chaotic or not: empty heap after
        // every request and retained slabs trimmed back under policy.
        EXPECT_TRUE(R.HeapEmpty);
        EXPECT_EQ(R.Heap.LiveCells, 0u);
        EXPECT_LE(R.RetainedBytes, SC.MaxRetainedBytes);
      } else {
        ++Rejected;
        EXPECT_NE(R.Reject, RejectKind::None);
        // Backoff-worthy rejections always carry a hint.
        if (R.Reject == RejectKind::RateLimited ||
            R.Reject == RejectKind::TenantQuota ||
            R.Reject == RejectKind::CircuitOpen) {
          EXPECT_GE(R.RetryAfterMs, 1u);
        }
      }
    }
    // Between batches the cache must be back at or under budget — the
    // pinned exception is transient and two workers cannot hold it open
    // with the queue drained.
    EXPECT_LE(S.stats().CacheBytes, SC.MaxCacheBytes)
        << "after batch at " << Base;
  }

  ServiceStats ST = S.stats();
  EXPECT_EQ(ST.Submitted, Total);
  EXPECT_EQ(Executed + Rejected, Total);
  // The mix must actually have exercised chaos, traps, and eviction —
  // a soak where nothing went wrong tested nothing.
  EXPECT_GT(ST.ChaosInjected, Total / 10);
  EXPECT_GT(Trapped, 0u);
  EXPECT_GT(Executed, Total / 2);
  EXPECT_GE(ST.CacheEvictions, 1u);
  EXPECT_LE(ST.CacheBytes, SC.MaxCacheBytes);

  // Per-tenant accounting: the governor saw every submission, and each
  // tenant's accumulated heap ledger balances (garbage-free per request
  // implies allocs == frees in the sum, traps included).
  for (unsigned T = 0; T != 4; ++T) {
    TenantCounters C = S.tenantStats(Tenants[T]);
    EXPECT_EQ(C.Submitted, PerTenantSubmitted[T]) << Tenants[T];
    EXPECT_EQ(C.Heap.Allocs, C.Heap.Frees) << Tenants[T];
    EXPECT_GT(C.Executed, 0u) << Tenants[T];
  }
  EXPECT_EQ(S.tenants().size(), 4u);
}

/// The same soak pressure through the sharded dispatcher the socket
/// front end uses: four shards, chaos armed on every one, the
/// (tenant, source) hash spreading the mix. The invariants do not
/// weaken under sharding — every request resolves structurally, every
/// executed heap comes back empty — and the aggregated stats() view
/// must exactly equal the per-shard sum while routing stays stable.
TEST(ChaosSoak, ShardedDispatcherKeepsTheInvariantsAcrossShards) {
  SourceCase Cases[3] = {Sources[0], Sources[1], Sources[2]};
  Cases[0].Source = mapSumSource();
  Cases[1].Source = rbtreeSource();
  Cases[2].Source = derivSource();

  FrontEndConfig FC;
  FC.withShards(4).withShard(ServiceConfig{}
                                 .withWorkers(1)
                                 .withQueueCapacity(128)
                                 .withMaxRetainedBytes(1u << 20)
                                 .withBreaker(5, 10)
                                 .withChaos(ChaosConfig::defaults(97)));
  ShardedService SS(FC);
  ASSERT_EQ(SS.shardCount(), 4u);

  constexpr size_t Total = 1536, BatchSize = 64;
  uint64_t Executed = 0, Rejected = 0;
  for (size_t Base = 0; Base != Total; Base += BatchSize) {
    std::vector<std::pair<size_t, std::future<ServiceResponse>>> Futs;
    for (size_t I = Base; I != Base + BatchSize; ++I) {
      const SourceCase &C = Cases[I % 3];
      ServiceRequest R;
      R.Tenant = Tenants[I % 4];
      R.Source = C.Source;
      R.Entry = C.Entry;
      R.Config = I % 2 ? PassConfig::perceusFull() : PassConfig::perceusNoOpt();
      R.Args = {Value::makeInt(C.Arg)};
      size_t Want = SS.shardFor(R.Tenant, R.Source);
      Futs.emplace_back(Want, SS.submit(std::move(R)));
    }
    for (auto &[Want, Fut] : Futs) {
      ServiceResponse R = Fut.get();
      SCOPED_TRACE(testing::Message() << "tenant=" << R.Tenant);
      EXPECT_EQ(R.Shard, Want); // routing is stable and stamped
      if (R.Executed) {
        ++Executed;
        EXPECT_TRUE(R.HeapEmpty);
        EXPECT_EQ(R.Heap.LiveCells, 0u);
        EXPECT_LE(R.RetainedBytes, FC.Shard.MaxRetainedBytes);
      } else {
        ++Rejected;
        EXPECT_NE(R.Reject, RejectKind::None);
      }
    }
  }

  ServiceStats Agg = SS.stats();
  EXPECT_EQ(Agg.Submitted, Total);
  EXPECT_EQ(Executed + Rejected, Total);
  EXPECT_GT(Executed, Total / 2);
  EXPECT_GT(Agg.ChaosInjected, 0u);

  // Aggregation is exactly the per-shard sum, and the mix actually
  // spread: with 4 tenants x 3 sources, at least two shards saw work.
  ServiceStats Sum;
  unsigned Active = 0;
  for (size_t I = 0; I != SS.shardCount(); ++I) {
    ServiceStats ST = SS.shardStats(I);
    accumulate(Sum, ST);
    if (ST.Submitted)
      ++Active;
  }
  EXPECT_EQ(Sum.Submitted, Agg.Submitted);
  EXPECT_EQ(Sum.Executed, Agg.Executed);
  EXPECT_EQ(Sum.Traps, Agg.Traps);
  EXPECT_EQ(Sum.CacheCompiles, Agg.CacheCompiles);
  EXPECT_GE(Active, 2u);
  SS.stop();
}

/// The same chaos schedule twice produces the same per-request plans:
/// rejections aside (timing-dependent), the injected fault pattern is a
/// pure function of (seed, id).
TEST(ChaosSoak, ChaosPlansAreDeterministicInTheSeed) {
  ChaosConfig C = ChaosConfig::defaults(7);
  for (uint64_t Id = 1; Id != 2048; ++Id) {
    ChaosPlan A = planChaos(C, Id);
    ChaosPlan B = planChaos(C, Id);
    EXPECT_EQ(A.FailAllocNth, B.FailAllocNth);
    EXPECT_EQ(A.FuelLimit, B.FuelLimit);
    EXPECT_EQ(A.DeadlineMs, B.DeadlineMs);
    EXPECT_EQ(A.StallUs, B.StallUs);
    EXPECT_EQ(A.FailCompile, B.FailCompile);
  }
  // A different seed gives a different pattern (not a constant plan).
  ChaosConfig D = ChaosConfig::defaults(8);
  unsigned Differs = 0;
  for (uint64_t Id = 1; Id != 2048; ++Id)
    if (planChaos(C, Id).FailAllocNth != planChaos(D, Id).FailAllocNth)
      ++Differs;
  EXPECT_GT(Differs, 0u);
  // Seed 0 disables everything.
  ChaosConfig Off;
  EXPECT_FALSE(Off.enabled());
  EXPECT_FALSE(planChaos(Off, 123).any());
}

} // namespace

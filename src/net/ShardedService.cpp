//===- net/ShardedService.cpp - Hash-routed service shards ----------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "net/ShardedService.h"

#include <algorithm>
#include <functional>

using namespace perceus;

ShardedService::ShardedService(const FrontEndConfig &FC) : Config(FC) {
  Config.Shards = resolveAutoParallelism(Config.Shards, /*Max=*/8);
  Shards.reserve(Config.Shards);
  for (unsigned I = 0; I != Config.Shards; ++I)
    Shards.emplace_back(std::make_unique<Service>(Config.Shard));
}

ShardedService::~ShardedService() { stop(); }

void ShardedService::stop() {
  for (auto &S : Shards)
    S->stop();
}

size_t ShardedService::shardFor(std::string_view Tenant,
                                std::string_view Source) const {
  // Each part hashed whole by the word-at-a-time std::hash, then
  // combined (boost's hash_combine step), so ("ab", "c") and ("a", "bc")
  // hash apart. Runs on the event-loop thread over the full source.
  std::hash<std::string_view> Hash;
  size_t H = Hash(Tenant);
  H ^= Hash(Source) + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  return H % Shards.size();
}

void ShardedService::submitWith(ServiceRequest R, ResponseCallback Done) {
  size_t Idx = shardFor(R.Tenant, R.Source);
  Shards[Idx]->submitWith(
      std::move(R), [Idx, Done = std::move(Done)](ServiceResponse Resp) {
        Resp.Shard = static_cast<unsigned>(Idx);
        Done(std::move(Resp));
      });
}

std::future<ServiceResponse> ShardedService::submit(ServiceRequest R) {
  auto Prom = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> Fut = Prom->get_future();
  submitWith(std::move(R), [Prom](ServiceResponse Resp) {
    Prom->set_value(std::move(Resp));
  });
  return Fut;
}

ServiceResponse ShardedService::call(ServiceRequest R) {
  return submit(std::move(R)).get();
}

bool ShardedService::precompile(const std::string &Tenant,
                                const std::string &Source,
                                const PassConfig &Config, EngineKind Engine,
                                std::string *Error) {
  return Shards[shardFor(Tenant, Source)]->precompile(Source, Config, Engine,
                                                      Error);
}

void ShardedService::setTenantPolicy(const std::string &Tenant,
                                     const TenantPolicy &P) {
  for (auto &S : Shards)
    S->setTenantPolicy(Tenant, P);
}

TenantCounters ShardedService::tenantStats(const std::string &Tenant) const {
  TenantCounters Sum;
  for (const auto &S : Shards) {
    TenantCounters C = S->tenantStats(Tenant);
    Sum.Submitted += C.Submitted;
    Sum.Admitted += C.Admitted;
    Sum.Executed += C.Executed;
    Sum.Traps += C.Traps;
    Sum.RejectedRateLimited += C.RejectedRateLimited;
    Sum.RejectedTenantQuota += C.RejectedTenantQuota;
    Sum.Shed += C.Shed;
    Sum.QueueSecondsTotal += C.QueueSecondsTotal;
    Sum.RunSecondsTotal += C.RunSecondsTotal;
    Sum.Heap.Allocs += C.Heap.Allocs;
    Sum.Heap.Frees += C.Heap.Frees;
    Sum.Heap.DupOps += C.Heap.DupOps;
    Sum.Heap.DropOps += C.Heap.DropOps;
    Sum.RetainedPeakBytes = std::max(Sum.RetainedPeakBytes, C.RetainedPeakBytes);
  }
  return Sum;
}

ServiceStats ShardedService::stats() const {
  ServiceStats Sum;
  for (const auto &S : Shards)
    accumulate(Sum, S->stats());
  return Sum;
}

//===- service/Service.cpp - Long-lived request service -------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Service.h"

#include "bytecode/VM.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <chrono>

using namespace perceus;

const char *perceus::rejectKindName(RejectKind K) {
  switch (K) {
  case RejectKind::None:
    return "ok";
  case RejectKind::QueueFull:
    return "queue-full";
  case RejectKind::Shedding:
    return "shedding";
  case RejectKind::CompileError:
    return "compile-error";
  case RejectKind::RateLimited:
    return "rate-limited";
  case RejectKind::TenantQuota:
    return "tenant-quota";
  case RejectKind::CircuitOpen:
    return "circuit-open";
  case RejectKind::BadRequest:
    return "bad-request";
  }
  return "unknown";
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

uint64_t toMicros(double Seconds) {
  return Seconds <= 0 ? 0 : static_cast<uint64_t>(Seconds * 1e6);
}

/// The artifact cache key: every PassConfig axis, then the source
/// verbatim. Field-by-field (not PassConfig::name()) because
/// name() collapses hand-built configurations onto the nearest stock one.
/// Deliberately tenant-free: tenants over the same program share one
/// artifact (and one circuit breaker — a trap storm is a property of the
/// source, not of who submits it).
std::string cacheKey(const ServiceRequest &R) {
  std::string Key;
  Key.reserve(R.Source.size() + 8);
  Key += static_cast<char>('0' + static_cast<int>(R.Config.Mode));
  Key += static_cast<char>('0' + R.Config.EnableReuse);
  Key += static_cast<char>('0' + R.Config.EnableDropSpec);
  Key += static_cast<char>('0' + R.Config.EnableFusion);
  Key += static_cast<char>('0' + R.Config.EnableBorrow);
  Key += '\n';
  Key += R.Source;
  return Key;
}

/// Per-request view of the worker heap's cumulative counters. Counters
/// subtract; LiveBytes/LiveCells are the absolute post-request values
/// (zero when the run was garbage free) and PeakBytes is the per-request
/// peak (the caller rewinds the high-water mark before the run).
HeapStats diffStats(const HeapStats &After, const HeapStats &Before) {
  HeapStats D;
  D.Allocs = After.Allocs - Before.Allocs;
  D.Frees = After.Frees - Before.Frees;
  D.DupOps = After.DupOps - Before.DupOps;
  D.DropOps = After.DropOps - Before.DropOps;
  D.DecRefOps = After.DecRefOps - Before.DecRefOps;
  D.NonHeapRcOps = After.NonHeapRcOps - Before.NonHeapRcOps;
  D.AtomicRcOps = After.AtomicRcOps - Before.AtomicRcOps;
  D.IsUniqueTests = After.IsUniqueTests - Before.IsUniqueTests;
  D.Collections = After.Collections - Before.Collections;
  D.FailedAllocs = After.FailedAllocs - Before.FailedAllocs;
  D.EmergencyCollections =
      After.EmergencyCollections - Before.EmergencyCollections;
  D.UnwindFrees = After.UnwindFrees - Before.UnwindFrees;
  D.LiveBytes = After.LiveBytes;
  D.PeakBytes = After.PeakBytes;
  D.LiveCells = After.LiveCells;
  return D;
}

} // namespace

unsigned perceus::resolveAutoParallelism(unsigned Requested, unsigned Max) {
  if (Requested != 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency(); // may be 0 (unknown)
  return std::clamp(HW, 1u, Max);
}

Service::Service(const ServiceConfig &C)
    : Config(C), Governor(C.DefaultTenantPolicy),
      Breaker(C.BreakerTrapThreshold, C.BreakerCooldownMs) {
  Config.Workers = resolveAutoParallelism(Config.Workers, /*Max=*/16);
  if (Config.QueueCapacity == 0)
    Config.QueueCapacity = 1;
  Workers.reserve(Config.Workers);
  for (unsigned W = 0; W != Config.Workers; ++W)
    Workers.emplace_back([this, W] { workerLoop(W); });
}

Service::~Service() { stop(); }

void Service::stop() {
  std::deque<Pending> Shed;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (Stopping && TotalQueued == 0 && Workers.empty())
      return;
    Stopping = true;
    for (auto &KV : TenantQueues)
      for (Pending &P : KV.second)
        Shed.push_back(std::move(P));
    TenantQueues.clear();
    RoundRobin.clear();
    TotalQueued = 0;
  }
  QueueCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
  Workers.clear();
  for (Pending &P : Shed) {
    ServiceResponse Resp;
    Resp.Id = P.Id;
    Resp.Tenant = P.Req.Tenant;
    Resp.Reject = RejectKind::Shedding;
    Resp.Error = "service stopping";
    Resp.QueueSeconds = secondsSince(P.Enqueued);
    finishRequest(P, std::move(Resp));
  }
}

void Service::submitWith(ServiceRequest R, ResponseCallback Done) {
  Pending P;
  P.Req = std::move(R);
  P.Done = std::move(Done);
  P.Enqueued = std::chrono::steady_clock::now();
  Stats.Submitted.fetch_add(1, std::memory_order_relaxed);

  RejectKind Reject = RejectKind::None;
  uint64_t RetryAfterMs = 0;
  std::string Error;
  bool GovernorAdmitted = false;
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    P.Id = NextId++;
    if (Stopping) {
      Reject = RejectKind::Shedding;
      Error = "service stopping";
    } else if (P.Req.Source.empty() || P.Req.Entry.empty()) {
      // Structural validation first: a malformed request must not burn a
      // token or a queue slot.
      Reject = RejectKind::BadRequest;
      Error = P.Req.Source.empty() ? "request has empty source"
                                   : "request has empty entry point";
    } else if (TotalQueued >= Config.QueueCapacity) {
      Reject = RejectKind::QueueFull;
      Error = "request queue at capacity";
      RetryAfterMs = 5;
    } else {
      // Governor before breaker: a breaker rejection must release the
      // governor's in-flight slot (below), but the reverse — a breaker
      // probe granted and then thrown away by a governor rejection —
      // would wedge the breaker in half-open.
      auto Now = std::chrono::steady_clock::now();
      auto TQ = TenantQueues.find(P.Req.Tenant);
      size_t TenantQueued = TQ == TenantQueues.end() ? 0 : TQ->second.size();
      TenantGovernor::Decision GD = Governor.admit(
          P.Req.Tenant, Now, TenantQueued, TotalQueued, Config.QueueCapacity);
      if (GD.Reject != RejectKind::None) {
        Reject = GD.Reject;
        RetryAfterMs = GD.RetryAfterMs;
        Error = GD.Error;
      } else {
        GovernorAdmitted = true;
        P.Key = cacheKey(P.Req);
        CircuitBreaker::Decision BD = Breaker.admit(P.Key, Now);
        if (!BD.Allow) {
          Reject = RejectKind::CircuitOpen;
          RetryAfterMs = BD.RetryAfterMs;
          Error = "source circuit breaker open (recent trap storm)";
        } else {
          Governor.clampLimits(P.Req.Tenant, P.Req.Limits);
          P.Plan = planChaos(Config.Chaos, P.Id);
          if (P.Plan.any())
            Stats.ChaosInjected.fetch_add(1, std::memory_order_relaxed);
          std::deque<Pending> &Q = TenantQueues[P.Req.Tenant];
          if (Q.empty())
            RoundRobin.push_back(P.Req.Tenant);
          Q.push_back(std::move(P));
          ++TotalQueued;
        }
      }
    }
  }
  if (Reject == RejectKind::None) {
    QueueCv.notify_one();
    return;
  }

  ServiceResponse Resp;
  Resp.Id = P.Id;
  Resp.Tenant = P.Req.Tenant;
  Resp.Reject = Reject;
  Resp.RetryAfterMs = RetryAfterMs;
  Resp.Error = std::move(Error);
  switch (Reject) {
  case RejectKind::QueueFull:
    Stats.RejectedQueueFull.fetch_add(1, std::memory_order_relaxed);
    break;
  case RejectKind::Shedding:
    Stats.RejectedShedding.fetch_add(1, std::memory_order_relaxed);
    break;
  case RejectKind::RateLimited:
    Stats.RejectedRateLimited.fetch_add(1, std::memory_order_relaxed);
    break;
  case RejectKind::TenantQuota:
    Stats.RejectedTenantQuota.fetch_add(1, std::memory_order_relaxed);
    break;
  case RejectKind::CircuitOpen:
    Stats.RejectedCircuitOpen.fetch_add(1, std::memory_order_relaxed);
    break;
  case RejectKind::BadRequest:
    Stats.RejectedBadRequest.fetch_add(1, std::memory_order_relaxed);
    break;
  default:
    break;
  }
  if (GovernorAdmitted) // breaker rejected after admission: release slot
    Governor.onOutcome(Resp.Tenant, Resp);
  P.Done(std::move(Resp));
}

std::future<ServiceResponse> Service::submit(ServiceRequest R) {
  auto Prom = std::make_shared<std::promise<ServiceResponse>>();
  std::future<ServiceResponse> Fut = Prom->get_future();
  submitWith(std::move(R), [Prom](ServiceResponse Resp) {
    Prom->set_value(std::move(Resp));
  });
  return Fut;
}

ServiceResponse Service::call(ServiceRequest R) {
  return submit(std::move(R)).get();
}

bool Service::precompile(const std::string &Source, const PassConfig &Config,
                         std::string *Error) {
  ServiceRequest R;
  R.Source = Source;
  R.Config = Config;
  std::string Key = cacheKey(R);
  bool Hit = false, Pinned = false;
  std::shared_ptr<const CompiledArtifact> Art =
      artifactFor(Key, R, Hit, Pinned, /*TransientFail=*/false);
  if (Pinned)
    unpinArtifact(Key);
  if (!Art->Ok && Error)
    *Error = Art->Error;
  return Art->Ok;
}

void Service::setTenantPolicy(const std::string &Tenant,
                              const TenantPolicy &P) {
  Governor.setPolicy(Tenant, P);
}

TenantCounters Service::tenantStats(const std::string &Tenant) const {
  return Governor.counters(Tenant);
}

std::vector<std::string> Service::tenants() const { return Governor.tenants(); }

std::shared_ptr<const CompiledArtifact>
Service::artifactFor(const std::string &Key, const ServiceRequest &R,
                     bool &CacheHit, bool &Pinned, bool TransientFail) {
  std::shared_future<std::shared_ptr<const CompiledArtifact>> Fut;
  std::promise<std::shared_ptr<const CompiledArtifact>> Mine;
  bool Compile = false;
  {
    std::lock_guard<std::mutex> Lock(CacheMutex);
    auto It = Cache.find(Key);
    if (It != Cache.end()) {
      CacheHit = true;
      CacheEntry &E = It->second;
      ++E.Pins;
      Pinned = true;
      if (E.InLru)
        Lru.splice(Lru.begin(), Lru, E.LruIt); // touch: now most recent
      Fut = E.Fut;
    } else if (TransientFail) {
      // Injected compile fault on a miss: fail this request without
      // caching anything, so the key's next request compiles cleanly.
      // (Distinct from a genuinely bad source, which negative-caches.)
      CacheHit = false;
    } else {
      CacheHit = false;
      Compile = true;
      Fut = Mine.get_future().share();
      CacheEntry E;
      E.Fut = Fut;
      E.Pins = 1;
      Cache.emplace(Key, std::move(E));
      Pinned = true;
    }
  }
  if (CacheHit) {
    Stats.CacheHits.fetch_add(1, std::memory_order_relaxed);
    return Fut.get();
  }
  if (TransientFail) {
    auto Art = std::make_shared<CompiledArtifact>();
    Art->Config = R.Config;
    Art->Error = "injected transient compile-time allocation fault";
    return Art;
  }
  Stats.CacheCompiles.fetch_add(1, std::memory_order_relaxed);
  if (Compile) {
    // Runs on whichever worker first needs the key; everyone else
    // blocks on the shared_future.
    std::shared_ptr<const CompiledArtifact> Art =
        compileArtifact(R.Source, R.Config);
    {
      std::lock_guard<std::mutex> Lock(CacheMutex);
      settleCacheEntryLocked(Key, *Art);
    }
    Mine.set_value(Art);
  }
  return Fut.get();
}

void Service::unpinArtifact(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(CacheMutex);
  auto It = Cache.find(Key);
  if (It == Cache.end())
    return;
  if (It->second.Pins > 0)
    --It->second.Pins;
  // A just-unpinned entry may be the one holding the cache over budget.
  evictToBudgetLocked();
}

void Service::settleCacheEntryLocked(const std::string &Key,
                                     const CompiledArtifact &Art) {
  auto It = Cache.find(Key);
  if (It == Cache.end())
    return; // unreachable: the compiling request holds a pin
  CacheEntry &E = It->second;
  E.Ready = true;
  E.Negative = !Art.Ok;
  // Negative entries still occupy their diagnostics; give everything a
  // floor so even empty entries have eviction weight.
  E.Bytes = std::max<size_t>(Art.SizeBytes, 64);
  CacheBytes += E.Bytes;
  E.LruIt = Lru.insert(Lru.begin(), Key);
  E.InLru = true;
  evictToBudgetLocked();
}

void Service::evictToBudgetLocked() {
  if (Config.MaxCacheBytes != 0) {
    // Pass 1: negative (failed-compile) entries, cheapest first. They
    // exist only to dedup diagnostics; recompiling one is cheap and
    // yields the same error.
    while (CacheBytes > Config.MaxCacheBytes) {
      auto Best = Cache.end();
      for (auto It = Cache.begin(); It != Cache.end(); ++It) {
        const CacheEntry &E = It->second;
        if (E.Ready && E.Negative && E.Pins == 0 &&
            (Best == Cache.end() || E.Bytes < Best->second.Bytes))
          Best = It;
      }
      if (Best == Cache.end())
        break;
      CacheBytes -= Best->second.Bytes;
      if (Best->second.InLru)
        Lru.erase(Best->second.LruIt);
      Cache.erase(Best);
      Stats.CacheEvictions.fetch_add(1, std::memory_order_relaxed);
    }
    // Pass 2: plain LRU from the cold end, skipping pinned entries.
    // Eviction is silent: the evicted key's next request recompiles; it
    // is never a rejection. Pinned-by-running entries can transiently
    // hold the cache over budget — they drain as their requests finish.
    auto It = Lru.end();
    while (CacheBytes > Config.MaxCacheBytes && It != Lru.begin()) {
      --It;
      auto CIt = Cache.find(*It);
      if (CIt == Cache.end()) { // stale name; drop it
        It = Lru.erase(It);
        continue;
      }
      CacheEntry &E = CIt->second;
      if (!E.Ready || E.Pins != 0)
        continue;
      CacheBytes -= E.Bytes;
      Cache.erase(CIt);
      It = Lru.erase(It);
      Stats.CacheEvictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Stats.CacheBytes.store(CacheBytes, std::memory_order_relaxed);
}

void Service::finishRequest(Pending &P, ServiceResponse Resp) {
  // Admission-side bookkeeping: the governor releases the in-flight slot
  // and folds telemetry into the tenant ledger; the breaker hears the
  // verdict for the source key (non-executed outcomes release a probe
  // without tripping or healing).
  Governor.onOutcome(Resp.Tenant, Resp);
  if (!P.Key.empty())
    Breaker.onOutcome(P.Key, Resp.Executed, Resp.Executed && !Resp.Run.Ok,
                      std::chrono::steady_clock::now());
  if (Resp.Executed) {
    Stats.Executed.fetch_add(1, std::memory_order_relaxed);
    if (!Resp.Run.Ok)
      Stats.Traps.fetch_add(1, std::memory_order_relaxed);
  } else if (Resp.Reject == RejectKind::Shedding) {
    Stats.RejectedShedding.fetch_add(1, std::memory_order_relaxed);
  } else if (Resp.Reject == RejectKind::CompileError) {
    Stats.RejectedCompileError.fetch_add(1, std::memory_order_relaxed);
  }
  Stats.QueueMicrosTotal.fetch_add(toMicros(Resp.QueueSeconds),
                                   std::memory_order_relaxed);
  Stats.RunMicrosTotal.fetch_add(toMicros(Resp.RunSeconds),
                                 std::memory_order_relaxed);
  P.Done(std::move(Resp));
}

void perceus::accumulate(ServiceStats &Into, const ServiceStats &From) {
  Into.Submitted += From.Submitted;
  Into.Executed += From.Executed;
  Into.RejectedQueueFull += From.RejectedQueueFull;
  Into.RejectedShedding += From.RejectedShedding;
  Into.RejectedCompileError += From.RejectedCompileError;
  Into.RejectedRateLimited += From.RejectedRateLimited;
  Into.RejectedTenantQuota += From.RejectedTenantQuota;
  Into.RejectedCircuitOpen += From.RejectedCircuitOpen;
  Into.RejectedBadRequest += From.RejectedBadRequest;
  Into.Traps += From.Traps;
  Into.CacheHits += From.CacheHits;
  Into.CacheCompiles += From.CacheCompiles;
  Into.CacheEvictions += From.CacheEvictions;
  Into.CacheBytes += From.CacheBytes;
  Into.ChaosInjected += From.ChaosInjected;
  Into.TrimmedBytes += From.TrimmedBytes;
  Into.QueueSecondsTotal += From.QueueSecondsTotal;
  Into.RunSecondsTotal += From.RunSecondsTotal;
}

void Service::workerLoop(unsigned Index) {
  WorkerState WS;
  for (;;) {
    Pending P;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      QueueCv.wait(Lock, [this] { return Stopping || TotalQueued != 0; });
      if (TotalQueued == 0)
        return; // Stopping; stop() sheds anything left
      // Round-robin across tenants: take the head of the next tenant's
      // FIFO, then rotate that tenant to the back if it has more work.
      std::string Tenant = std::move(RoundRobin.front());
      RoundRobin.pop_front();
      std::deque<Pending> &Q = TenantQueues[Tenant];
      P = std::move(Q.front());
      Q.pop_front();
      --TotalQueued;
      if (!Q.empty())
        RoundRobin.push_back(std::move(Tenant));
    }
    ServiceResponse Resp = execute(WS, P, Index);
    finishRequest(P, std::move(Resp));
  }
}

ServiceResponse Service::execute(WorkerState &WS, Pending &P, unsigned Index) {
  const ServiceRequest &Req = P.Req;
  ServiceResponse Resp;
  Resp.Id = P.Id;
  Resp.Tenant = Req.Tenant;
  Resp.Worker = Index;

  // Chaos: stall the worker before it looks at the clock, widening the
  // queue-delay window that shed-while-queued and breaker cooldowns
  // need. Counted as queue time, which is what it is.
  if (P.Plan.StallUs)
    std::this_thread::sleep_for(std::chrono::microseconds(P.Plan.StallUs));
  Resp.QueueSeconds = secondsSince(P.Enqueued);

  // Per-request limits: the tenant clamp was applied at submit; chaos
  // squeezes compose on top with the same min-semantics.
  RunLimits L = Req.Limits;
  if (P.Plan.FuelLimit)
    L.Fuel = L.Fuel ? std::min(L.Fuel, P.Plan.FuelLimit) : P.Plan.FuelLimit;
  if (P.Plan.DeadlineMs)
    L.DeadlineMs =
        L.DeadlineMs ? std::min(L.DeadlineMs, P.Plan.DeadlineMs)
                     : P.Plan.DeadlineMs;

  // Deadline already burned in the queue: shed without touching an
  // engine — the client stopped waiting, running would waste the worker.
  uint64_t QueueMs = static_cast<uint64_t>(Resp.QueueSeconds * 1e3);
  if (L.DeadlineMs && QueueMs >= L.DeadlineMs) {
    Resp.Reject = RejectKind::Shedding;
    Resp.Error = "deadline expired while queued";
    return Resp;
  }

  auto R0 = std::chrono::steady_clock::now();
  bool Pinned = false;
  std::shared_ptr<const CompiledArtifact> Art =
      artifactFor(P.Key, Req, Resp.CacheHit, Pinned, P.Plan.FailCompile);
  // Keep the cache entry pinned (ineligible for eviction) until this
  // request is done with the artifact.
  struct UnpinGuard {
    Service *S;
    const std::string *Key;
    bool Active;
    ~UnpinGuard() {
      if (Active)
        S->unpinArtifact(*Key);
    }
  } Guard{this, &P.Key, Pinned};

  if (!Art->Ok) {
    Resp.Reject = RejectKind::CompileError;
    Resp.Error = Art->Error;
    Resp.RunSeconds = secondsSince(R0);
    return Resp;
  }

  // Pooled heap for the key's mode; created on first use and kept warm.
  HeapMode Mode = Art->heapMode();
  std::unique_ptr<Heap> &Slot =
      Mode == HeapMode::Gc ? WS.GcHeap : WS.RcHeap;
  if (!Slot)
    Slot = std::make_unique<Heap>(Mode);
  Heap &H = *Slot;

  // Rebuild the VM only when the artifact changed (its mode picks the
  // heap); back-to-back requests on one session reuse the warm VM.
  if (WS.Art != Art) {
    WS.Eng = std::make_unique<VM>(*Art->Code, H);
    WS.Art = Art;
  }

  FuncId Entry = Art->function(Req.Entry);
  if (Entry == InvalidId) {
    Resp.Executed = true;
    Resp.Run.Ok = false;
    Resp.Run.Trap = TrapKind::RuntimeError;
    Resp.Run.Error = "no such entry function: " + Req.Entry;
    Resp.Error = Resp.Run.Error;
    Resp.HeapEmpty = H.empty();
    Resp.RetainedBytes = H.retainedBytes();
    Resp.RunSeconds = secondsSince(R0);
    return Resp;
  }

  // Per-request installs: limits (deadline reduced by the queue wait)
  // and fault injection. Both are uninstalled afterwards so the pooled
  // heap carries nothing from one request into the next. No telemetry
  // sink: the VM runs on the inline RC fast path, and the wire's
  // rc_calls is the heap's classification sum (writeServiceObjectJson).
  if (L.DeadlineMs)
    L.DeadlineMs -= QueueMs;
  WS.Eng->setLimits(L);
  uint64_t FailAlloc = Req.FailAlloc ? Req.FailAlloc : P.Plan.FailAllocNth;
  FaultInjector FI = FaultInjector::failNth(FailAlloc);
  if (FailAlloc)
    H.setFaultInjector(&FI);

  HeapStats Before = H.stats();
  H.stats().PeakBytes = H.stats().LiveBytes; // per-request peak
  Resp.Run = WS.Eng->run(Entry, Req.Args);
  Resp.Executed = true;
  if (!Resp.Run.Ok)
    Resp.Error = Resp.Run.Error;

  // In GC mode a clean run leaves unreachable cells behind (drops are
  // no-ops); sweep them so the pooled heap is empty and reusable, the
  // same invariant RC mode gets for free.
  if (H.mode() == HeapMode::Gc) {
    H.reclaimAll();
    H.resetGcThreshold();
  }
  Resp.Heap = diffStats(H.stats(), Before);
  Resp.HeapEmpty = H.empty();
  H.setFaultInjector(nullptr);
  H.setLimits(HeapLimits{});

  // Retained-memory policy: a peaky request must not pin its slab
  // high-water for the life of the worker.
  if (H.empty() && H.retainedBytes() > Config.MaxRetainedBytes) {
    size_t Trimmed = H.trimRetained();
    Stats.TrimmedBytes.fetch_add(Trimmed, std::memory_order_relaxed);
  }
  Resp.RetainedBytes = H.retainedBytes();
  Resp.RunSeconds = secondsSince(R0);
  return Resp;
}

ServiceStats Service::stats() const {
  ServiceStats S;
  S.Submitted = Stats.Submitted.load(std::memory_order_relaxed);
  S.Executed = Stats.Executed.load(std::memory_order_relaxed);
  S.RejectedQueueFull = Stats.RejectedQueueFull.load(std::memory_order_relaxed);
  S.RejectedShedding = Stats.RejectedShedding.load(std::memory_order_relaxed);
  S.RejectedCompileError =
      Stats.RejectedCompileError.load(std::memory_order_relaxed);
  S.RejectedRateLimited =
      Stats.RejectedRateLimited.load(std::memory_order_relaxed);
  S.RejectedTenantQuota =
      Stats.RejectedTenantQuota.load(std::memory_order_relaxed);
  S.RejectedCircuitOpen =
      Stats.RejectedCircuitOpen.load(std::memory_order_relaxed);
  S.RejectedBadRequest =
      Stats.RejectedBadRequest.load(std::memory_order_relaxed);
  S.Traps = Stats.Traps.load(std::memory_order_relaxed);
  S.CacheHits = Stats.CacheHits.load(std::memory_order_relaxed);
  S.CacheCompiles = Stats.CacheCompiles.load(std::memory_order_relaxed);
  S.CacheEvictions = Stats.CacheEvictions.load(std::memory_order_relaxed);
  S.CacheBytes = Stats.CacheBytes.load(std::memory_order_relaxed);
  S.ChaosInjected = Stats.ChaosInjected.load(std::memory_order_relaxed);
  S.TrimmedBytes = Stats.TrimmedBytes.load(std::memory_order_relaxed);
  S.QueueSecondsTotal =
      Stats.QueueMicrosTotal.load(std::memory_order_relaxed) / 1e6;
  S.RunSecondsTotal =
      Stats.RunMicrosTotal.load(std::memory_order_relaxed) / 1e6;
  return S;
}

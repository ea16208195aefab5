//===- service/Service.h - Long-lived request service -----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived session engine: a compile-once request service over the
/// bytecode VM. Where `Runner` couples one compilation to one heap and
/// one VM, `Service` separates the three lifetimes a server actually
/// has:
///
///   * a *program* is compiled once per (source, PassConfig) key, by the
///     compile entry every runner shares (eval/Compile.h), into an
///     immutable CompiledArtifact (IR plus peepholed bytecode) and
///     cached under an LRU byte budget (ServiceConfig::MaxCacheBytes;
///     0 = unbounded). Artifacts
///     pinned by running requests are never evicted; negative entries
///     (cached compile failures) are evicted cheapest-first. Eviction is
///     silent — a re-requested evicted key just recompiles, it is never
///     a rejection kind;
///   * a *worker* owns a persistent Heap (one per HeapMode, created
///     lazily) and a VM rebuilt only when the artifact or heap mode
///     changes — requests reuse warm slabs and free lists;
///   * a *request* belongs to a *tenant* and carries its own RunLimits
///     (including the wall-clock DeadlineMs), optional fault injection,
///     and per-request telemetry, and leaves the worker heap empty again
///     whether it completed or trapped — the garbage-free guarantee is
///     what makes pooling safe.
///
/// Admission control is layered (see Reject.h for the closed vocabulary):
/// a bounded *global* queue rejects QueueFull at capacity; the
/// TenantGovernor rejects RateLimited / TenantQuota per tenant policy and
/// sheds over-fair-share tenants under pressure; the per-source
/// CircuitBreaker rejects CircuitOpen during a trap-storm cooldown.
/// Every rejection is a structured response with a RetryAfterMs hint,
/// never an abort. Queued requests dequeue round-robin *across tenants*,
/// so a tenant that fills its queue share cannot starve the others even
/// before the governor sheds it. Between requests the worker trims
/// retained slab memory back to one warm slab whenever it exceeds
/// ServiceConfig::MaxRetainedBytes.
///
/// ChaosConfig (off by default) threads seeded fault injection through
/// every boundary — transient compile faults, mid-run OOM, fuel/deadline
/// squeezes, worker stalls — without changing any invariant: a chaotic
/// request still unwinds cleanly to an empty heap.
///
/// Thread-safety note: workers share each artifact's Program read-only.
/// SymbolTable::intern() mutates, so entry-point lookup never interns on
/// the request path — the artifact carries a name → FuncId index built
/// once at compile time, single-threaded. ServiceStats counters are
/// atomics; stats() returns a snapshot without stopping the world.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SERVICE_SERVICE_H
#define PERCEUS_SERVICE_SERVICE_H

#include "bytecode/VM.h"
#include "eval/Compile.h"
#include "eval/EngineConfig.h"
#include "service/Chaos.h"
#include "service/Reject.h"
#include "service/TenantGovernor.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace perceus {

/// One unit of work: which tenant, which program (by source +
/// configuration), which entry point, and how the run is bounded. Args
/// are immediates (ints, unit) — heap values cannot cross the submission
/// boundary.
struct ServiceRequest {
  std::string Tenant = "default"; ///< policy + accounting identity
  std::string Source;
  PassConfig Config = PassConfig::perceusFull();
  /// Always the VM, the only engine. Kept so existing callers that name
  /// it still compile; it is not part of the cache key.
  EngineKind Engine = EngineKind::Vm;
  std::string Entry = "main";
  std::vector<Value> Args;
  RunLimits Limits;       ///< fuel, depth, governor, DeadlineMs
  uint64_t FailAlloc = 0; ///< failNth fault injection (0 = off)
};

/// Everything the service reports about one request.
struct ServiceResponse {
  uint64_t Id = 0;        ///< submission order, 1-based, per shard
  uint64_t Seq = 0;       ///< transport sequence: per-connection frame
                          ///< index (socket) or line number (stdin serve);
                          ///< 0 outside a transport
  unsigned Shard = 0;     ///< service shard that handled the request
                          ///< (0 on an unsharded Service)
  std::string Tenant;     ///< echoed from the request
  bool Executed = false;  ///< the VM ran (Run is meaningful)
  RejectKind Reject = RejectKind::None;
  uint64_t RetryAfterMs = 0; ///< backoff hint on rejections (0 = none)
  std::string Error;      ///< rejection / lookup / trap diagnostics
  RunResult Run;          ///< VM result when Executed
  HeapStats Heap;         ///< this request's stats delta on its worker heap
  bool CacheHit = false;  ///< artifact served from cache
  bool HeapEmpty = true;  ///< worker heap empty after the request
  unsigned Worker = 0;    ///< worker index that executed it
  double QueueSeconds = 0;///< time spent queued before a worker took it
  double RunSeconds = 0;  ///< compile-wait + VM time on the worker
  size_t RetainedBytes = 0; ///< worker slab bytes held after the request
};

/// Resolves a 0 = "auto" parallelism knob to the hardware:
/// std::thread::hardware_concurrency() clamped to [1, Max] (the clamp
/// keeps a big machine from spawning an absurd pool by default, and a
/// hardware_concurrency() of 0 — unknown — resolves to 1). Non-zero
/// values pass through unchanged.
unsigned resolveAutoParallelism(unsigned Requested, unsigned Max);

/// Shard-level tuning: everything one `Service` shard owns — its worker
/// pool, queue, artifact cache, governor, breakers, and chaos plan. The
/// front-end-level knobs (shard count, framing, connection caps) live in
/// `FrontEndConfig` (net/ShardedService.h). The admission-policy fields
/// all default to "off", so a default-constructed service behaves
/// exactly like the single-tenant one it replaces.
struct ServiceConfig {
  /// Worker threads. 0 = one per hardware thread (hardware_concurrency
  /// clamped to [1, 16]); the default stays 1 so existing callers see no
  /// behavior change unless they ask for auto sizing explicitly.
  unsigned Workers = 1;
  size_t QueueCapacity = 64;   ///< bounded queue; 0 means 1
  /// Trim a worker heap back to one warm slab whenever it retains more
  /// than this between requests (0 = trim after every request).
  size_t MaxRetainedBytes = 8u << 20;
  size_t GcThresholdBytes = 4u << 20; ///< per-worker GC threshold
  /// Artifact-cache byte budget; LRU eviction keeps the cache at or
  /// under this (pinned entries excepted). 0 = unbounded (cache forever).
  size_t MaxCacheBytes = 0;
  /// Policy for tenants without an explicit setTenantPolicy() entry.
  /// Default is unlimited: existing single-tenant callers are unchanged.
  TenantPolicy DefaultTenantPolicy;
  /// Per-source circuit breaker: this many *consecutive* trapped runs of
  /// one source key open its breaker for BreakerCooldownMs. 0 = off.
  unsigned BreakerTrapThreshold = 0;
  uint64_t BreakerCooldownMs = 250;
  /// Seeded fault injection at every service boundary; Seed 0 = off.
  ChaosConfig Chaos;

  /// Fluent builders, mirroring the EngineConfig idiom: each returns
  /// *this so a config reads as one expression at the construction site.
  ServiceConfig &withWorkers(unsigned W) {
    Workers = W;
    return *this;
  }
  ServiceConfig &withQueueCapacity(size_t N) {
    QueueCapacity = N;
    return *this;
  }
  ServiceConfig &withMaxRetainedBytes(size_t B) {
    MaxRetainedBytes = B;
    return *this;
  }
  ServiceConfig &withGcThreshold(size_t B) {
    GcThresholdBytes = B;
    return *this;
  }
  ServiceConfig &withMaxCacheBytes(size_t B) {
    MaxCacheBytes = B;
    return *this;
  }
  ServiceConfig &withDefaultTenantPolicy(const TenantPolicy &P) {
    DefaultTenantPolicy = P;
    return *this;
  }
  ServiceConfig &withBreaker(unsigned TrapThreshold, uint64_t CooldownMs = 250) {
    BreakerTrapThreshold = TrapThreshold;
    BreakerCooldownMs = CooldownMs;
    return *this;
  }
  ServiceConfig &withChaos(const ChaosConfig &C) {
    Chaos = C;
    return *this;
  }
};

/// Aggregate counters across the service lifetime. A point-in-time
/// snapshot assembled from atomics — individual counters are exact,
/// cross-counter sums may be mid-update by one request.
struct ServiceStats {
  uint64_t Submitted = 0;
  uint64_t Executed = 0;
  uint64_t RejectedQueueFull = 0;
  uint64_t RejectedShedding = 0;
  uint64_t RejectedCompileError = 0;
  uint64_t RejectedRateLimited = 0;
  uint64_t RejectedTenantQuota = 0;
  uint64_t RejectedCircuitOpen = 0;
  uint64_t RejectedBadRequest = 0;
  uint64_t Traps = 0;       ///< executed requests that trapped
  uint64_t CacheHits = 0;   ///< artifact lookups served from cache
  uint64_t CacheCompiles = 0; ///< distinct keys actually compiled
  uint64_t CacheEvictions = 0; ///< artifacts evicted under MaxCacheBytes
  size_t CacheBytes = 0;    ///< gauge: bytes currently cached
  uint64_t ChaosInjected = 0; ///< requests that received a chaos plan
  uint64_t TrimmedBytes = 0;  ///< slab bytes returned to the OS
  double QueueSecondsTotal = 0;
  double RunSecondsTotal = 0;
};

/// Folds \p From into \p Into counter-by-counter (CacheBytes, a gauge,
/// sums too: the aggregate is "bytes cached across all shards"). This is
/// how ShardedService::stats() assembles its fleet-wide view.
void accumulate(ServiceStats &Into, const ServiceStats &From);

/// See the file comment.
class Service {
public:
  explicit Service(const ServiceConfig &Config = {});
  ~Service(); ///< stops and joins; queued requests are shed
  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Completion callback for submitWith(). Runs exactly once per
  /// request, on the worker thread that finished it — or synchronously
  /// on the submitting thread for immediate rejections. Event-loop
  /// callers (the net front end) must therefore hand off to their own
  /// thread rather than block in the callback.
  using ResponseCallback = std::function<void(ServiceResponse)>;

  /// The submission primitive: enqueues a request and invokes \p Done
  /// with the structured response. Never throws the response away — a
  /// rejected, shed, or stop()-drained request still reaches \p Done.
  void submitWith(ServiceRequest R, ResponseCallback Done);

  /// Enqueues a request. The future resolves when a worker finishes it
  /// (or immediately, with a structured rejection, when admission
  /// refuses it or the service is stopping). A convenience over
  /// submitWith().
  std::future<ServiceResponse> submit(ServiceRequest R);

  /// submit() + get(): the blocking convenience for tests and the CLI.
  ServiceResponse call(ServiceRequest R);

  /// Compiles (or fetches) the artifact for a key without running
  /// anything — warms the cache off the request path. Returns false and
  /// fills \p Error when the source does not compile.
  bool precompile(const std::string &Source, const PassConfig &Config,
                  std::string *Error = nullptr);

  /// Installs (or replaces) \p Tenant's admission policy.
  void setTenantPolicy(const std::string &Tenant, const TenantPolicy &P);

  /// Per-tenant lifetime counters (zeroes for an unknown tenant).
  TenantCounters tenantStats(const std::string &Tenant) const;

  /// Every tenant the governor has seen.
  std::vector<std::string> tenants() const;

  /// Stops accepting work, sheds the queue, and joins the workers.
  /// Idempotent; the destructor calls it.
  void stop();

  ServiceStats stats() const;
  const ServiceConfig &config() const { return Config; }

private:
  struct Pending {
    ServiceRequest Req;
    ResponseCallback Done;
    uint64_t Id = 0;
    std::string Key; ///< cache key, computed once at submit
    ChaosPlan Plan;  ///< per-request chaos, derived from (seed, id)
    std::chrono::steady_clock::time_point Enqueued;
  };

  /// Per-worker persistent state: pooled heaps plus the currently
  /// instantiated (artifact, VM) pair.
  struct WorkerState {
    std::unique_ptr<Heap> RcHeap;
    std::unique_ptr<Heap> GcHeap;
    std::shared_ptr<const CompiledArtifact> Art; ///< the VM's program
    std::unique_ptr<VM> Eng;
  };

  /// One artifact-cache slot. The future decouples compile-wait from the
  /// cache lock; the bookkeeping fields drive LRU eviction: Bytes counts
  /// against MaxCacheBytes once Ready, Pins blocks eviction while any
  /// request is executing against the entry, Negative marks cached
  /// compile failures (evicted first — recompiling one is cheap and
  /// re-diagnosing is correct).
  struct CacheEntry {
    std::shared_future<std::shared_ptr<const CompiledArtifact>> Fut;
    size_t Bytes = 0;
    bool Ready = false;
    bool Negative = false;
    uint64_t Pins = 0;
    std::list<std::string>::iterator LruIt; ///< valid iff InLru
    bool InLru = false;
  };

  /// Lifetime counters as relaxed atomics so worker threads accumulate
  /// without a stats lock; time totals are microsecond integers (atomic
  /// double add is not portable). stats() converts back to seconds.
  struct AtomicStats {
    std::atomic<uint64_t> Submitted{0};
    std::atomic<uint64_t> Executed{0};
    std::atomic<uint64_t> RejectedQueueFull{0};
    std::atomic<uint64_t> RejectedShedding{0};
    std::atomic<uint64_t> RejectedCompileError{0};
    std::atomic<uint64_t> RejectedRateLimited{0};
    std::atomic<uint64_t> RejectedTenantQuota{0};
    std::atomic<uint64_t> RejectedCircuitOpen{0};
    std::atomic<uint64_t> RejectedBadRequest{0};
    std::atomic<uint64_t> Traps{0};
    std::atomic<uint64_t> CacheHits{0};
    std::atomic<uint64_t> CacheCompiles{0};
    std::atomic<uint64_t> CacheEvictions{0};
    std::atomic<size_t> CacheBytes{0};
    std::atomic<uint64_t> ChaosInjected{0};
    std::atomic<uint64_t> TrimmedBytes{0};
    std::atomic<uint64_t> QueueMicrosTotal{0};
    std::atomic<uint64_t> RunMicrosTotal{0};
  };

  void workerLoop(unsigned Index);
  ServiceResponse execute(WorkerState &WS, Pending &P, unsigned Index);
  /// Looks up or compiles \p Key. Pins the entry (caller must
  /// unpinArtifact). \p TransientFail injects a compile fault on a cache
  /// miss: the failed artifact is returned but never cached.
  std::shared_ptr<const CompiledArtifact>
  artifactFor(const std::string &Key, const ServiceRequest &R, bool &CacheHit,
              bool &Pinned, bool TransientFail);
  void unpinArtifact(const std::string &Key);
  /// Records a finished compile in the cache ledger and evicts LRU
  /// entries down to MaxCacheBytes. Called with CacheMutex held.
  void settleCacheEntryLocked(const std::string &Key,
                              const CompiledArtifact &Art);
  void evictToBudgetLocked();
  void finishRequest(Pending &P, ServiceResponse Resp);

  ServiceConfig Config;

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv;
  /// Fair queueing: one FIFO per tenant, dequeued round-robin across the
  /// tenants that have work. Capacity bounds the *total*.
  std::unordered_map<std::string, std::deque<Pending>> TenantQueues;
  std::deque<std::string> RoundRobin; ///< tenants with nonempty queues
  size_t TotalQueued = 0;
  bool Stopping = false;
  uint64_t NextId = 1;

  mutable std::mutex CacheMutex;
  std::unordered_map<std::string, CacheEntry> Cache;
  std::list<std::string> Lru; ///< front = most recently used
  size_t CacheBytes = 0;      ///< ready, counted entries only

  TenantGovernor Governor;
  CircuitBreaker Breaker;

  mutable AtomicStats Stats;

  std::vector<std::thread> Workers;
};

/// A client handle that pins one (tenant, source, PassConfig) key on a
/// Service, so callers submit by entry point alone — the "session" of
/// the session engine. Cheap; many sessions can share one
/// Service, and sessions over the same key share the cached artifact.
class Session {
public:
  Session(Service &S, std::string Source,
          PassConfig Config = PassConfig::perceusFull(),
          std::string Tenant = "default")
      : Svc(S), Source(std::move(Source)), Config(Config),
        Tenant(std::move(Tenant)) {}

  /// Compiles the session's program now (off the request path). Returns
  /// false and fills \p Error when the source does not compile.
  bool warm(std::string *Error = nullptr) {
    return Svc.precompile(Source, Config, Error);
  }

  std::future<ServiceResponse> submit(std::string Entry,
                                      std::vector<Value> Args = {},
                                      const RunLimits &Limits = {},
                                      uint64_t FailAlloc = 0) {
    return Svc.submit(makeRequest(std::move(Entry), std::move(Args), Limits,
                                  FailAlloc));
  }

  ServiceResponse call(std::string Entry, std::vector<Value> Args = {},
                       const RunLimits &Limits = {}, uint64_t FailAlloc = 0) {
    return Svc.call(makeRequest(std::move(Entry), std::move(Args), Limits,
                                FailAlloc));
  }

  Service &service() { return Svc; }

private:
  ServiceRequest makeRequest(std::string Entry, std::vector<Value> Args,
                             const RunLimits &Limits, uint64_t FailAlloc) {
    ServiceRequest R;
    R.Tenant = Tenant;
    R.Source = Source;
    R.Config = Config;
    R.Entry = std::move(Entry);
    R.Args = std::move(Args);
    R.Limits = Limits;
    R.FailAlloc = FailAlloc;
    return R;
  }

  Service &Svc;
  std::string Source;
  PassConfig Config;
  std::string Tenant;
};

} // namespace perceus

#endif // PERCEUS_SERVICE_SERVICE_H

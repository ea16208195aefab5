//===- service/TenantGovernor.h - Per-tenant admission policy ---*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-tenant admission policy and accounting for the request service,
/// plus the per-source circuit breaker. Together they are the overload
/// story: a noisy tenant is contained by its own token bucket, in-flight
/// cap and fair queue share instead of starving everyone, and a source
/// whose runs trap repeatedly is rejected fast instead of burning a
/// worker per attempt.
///
/// * TenantGovernor — one `TenantPolicy` per tenant (token-bucket request
///   rate, max in-flight, per-tenant `RunLimits` clamps) with a default
///   for tenants that have none. Admission is O(1) per request; every
///   rejection carries a `RetryAfterMs` hint. Under queue pressure (the
///   queue at or past 3/4 capacity) a tenant holding more than its fair
///   share of queue slots is shed even when its own quota would admit it
///   — graceful degradation favors the polite. Accounting deliberately
///   rides the *existing* heap/RC telemetry ledgers (HeapStats deltas per
///   request, accumulate()), not a parallel byte-count: Counting
///   Immutable Beans makes the same choice for the same reason — the RC
///   ledger is already exact.
///
/// * CircuitBreaker — per-source trap-storm protection. A source key
///   whose executed runs trap `TrapThreshold` times consecutively opens
///   for `CooldownMs`; while open, requests reject with `CircuitOpen`
///   and a precise `RetryAfterMs`. After the cooldown one probe runs
///   (half-open): success closes the breaker, another trap re-opens it.
///   Only sources with a trap on record keep an entry; a success erases
///   it, so a stream of distinct healthy sources leaves nothing behind.
///
/// Both are internally locked and safe to call from submit() and worker
/// threads concurrently; neither ever calls back into Service, so the
/// lock hierarchy stays one-way (Service locks may be held around calls
/// into these, never the reverse).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_SERVICE_TENANTGOVERNOR_H
#define PERCEUS_SERVICE_TENANTGOVERNOR_H

#include "eval/EngineConfig.h"
#include "service/Reject.h"

#include <chrono>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace perceus {

/// What one tenant is allowed to do. Zero fields mean "unlimited", so a
/// default-constructed policy admits everything — existing single-tenant
/// callers see no behavior change until they opt in.
struct TenantPolicy {
  /// Token-bucket request rate (requests/second refill; 0 = unlimited).
  double RatePerSec = 0;
  /// Bucket capacity (burst). 0 derives max(1, RatePerSec).
  double Burst = 0;
  /// Cap on requests admitted but not yet finished (queued + running).
  uint64_t MaxInFlight = 0;
  /// Per-field *maximum* request limits: a nonzero clamp field lowers
  /// the request's corresponding RunLimits field (and imposes it when
  /// the request asked for unlimited). Fuel, call depth, deadline, and
  /// the heap governor caps all clamp.
  RunLimits Clamp;

  bool unlimited() const {
    return RatePerSec == 0 && MaxInFlight == 0 && Clamp.Fuel == 0 &&
           Clamp.MaxCallDepth == 0 && Clamp.DeadlineMs == 0 &&
           Clamp.Heap.unlimited();
  }
};

/// Per-tenant lifetime counters, all maintained by the governor. The heap
/// ledger is the sum of per-request HeapStats deltas (allocs, frees, RC
/// ops, peaks) — the same numbers the stats-classification invariant
/// cross-checks, so tenant accounting can never drift from the runtime's.
struct TenantCounters {
  uint64_t Submitted = 0;  ///< admission attempts seen
  uint64_t Admitted = 0;   ///< passed the governor
  uint64_t Executed = 0;   ///< ran on a worker
  uint64_t Traps = 0;      ///< executed and trapped
  uint64_t RejectedRateLimited = 0;
  uint64_t RejectedTenantQuota = 0;
  uint64_t Shed = 0;       ///< admitted but shed before running
  double QueueSecondsTotal = 0;
  double RunSecondsTotal = 0;
  HeapStats Heap;          ///< accumulated per-request stats deltas
  size_t RetainedPeakBytes = 0; ///< worst worker-retained bytes observed
};

struct ServiceResponse; // Service.h; onOutcome reads it

/// See the file comment.
class TenantGovernor {
public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// One admission verdict. Reject == None admits (and records the
  /// request in flight until onOutcome()).
  struct Decision {
    RejectKind Reject = RejectKind::None;
    uint64_t RetryAfterMs = 0;
    const char *Error = ""; ///< static diagnostic, "" when admitted
  };

  explicit TenantGovernor(TenantPolicy DefaultPolicy = {})
      : Default(DefaultPolicy) {}

  /// Policy for tenants without an explicit one.
  void setDefaultPolicy(const TenantPolicy &P);
  /// Installs (or replaces) \p Tenant's policy.
  void setPolicy(const std::string &Tenant, const TenantPolicy &P);

  /// Admission check for one request: token bucket, in-flight cap, and —
  /// when \p TotalQueued is at or past 3/4 of \p QueueCapacity — the
  /// fair-share shed (\p TenantQueued over QueueCapacity / active
  /// tenants). Admission consumes a token and counts in flight.
  Decision admit(const std::string &Tenant, TimePoint Now,
                 size_t TenantQueued, size_t TotalQueued,
                 size_t QueueCapacity);

  /// Applies the tenant's RunLimits clamps to \p L in place.
  void clampLimits(const std::string &Tenant, RunLimits &L) const;

  /// Terminal accounting for an admitted request (executed, shed in the
  /// queue, or rejected downstream): releases the in-flight slot and
  /// folds the response's telemetry into the tenant's ledgers.
  void onOutcome(const std::string &Tenant, const ServiceResponse &R);

  /// Snapshot of \p Tenant's counters (zeroes for an unknown tenant).
  TenantCounters counters(const std::string &Tenant) const;

  /// Every tenant the governor has seen, in no particular order.
  std::vector<std::string> tenants() const;

private:
  struct State {
    TenantPolicy Policy;
    bool HasPolicy = false; ///< false: track Default (including updates)
    double Tokens = 0;
    bool BucketPrimed = false;
    TimePoint LastRefill{};
    uint64_t InFlight = 0;
    TenantCounters C;
  };

  const TenantPolicy &policyFor(const State &S) const {
    return S.HasPolicy ? S.Policy : Default;
  }
  State &stateFor(const std::string &Tenant);

  mutable std::mutex M;
  TenantPolicy Default;
  std::unordered_map<std::string, State> Tenants;
  uint64_t ActiveTenants = 0; ///< tenants with InFlight > 0
};

/// See the file comment. TrapThreshold == 0 disables the breaker
/// entirely (every admit allows, no state is kept).
class CircuitBreaker {
public:
  using TimePoint = std::chrono::steady_clock::time_point;

  enum class State : uint8_t {
    Closed,   ///< normal operation
    Open,     ///< rejecting fast until the cooldown elapses
    HalfOpen, ///< cooldown elapsed; one probe request decides
  };

  struct Decision {
    bool Allow = true;
    uint64_t RetryAfterMs = 0; ///< when !Allow: remaining cooldown
  };

  CircuitBreaker(unsigned TrapThreshold, uint64_t CooldownMs)
      : Threshold(TrapThreshold), CooldownMs(CooldownMs) {}

  bool enabled() const { return Threshold != 0; }

  /// Admission check for \p SourceKey. An Open breaker whose cooldown
  /// elapsed transitions to HalfOpen and admits exactly one probe;
  /// everything else queues behind the probe's verdict.
  Decision admit(const std::string &SourceKey, TimePoint Now);

  /// Terminal verdict for an admitted request. \p Executed is false for
  /// requests shed before running — they release a half-open probe slot
  /// but neither trip nor heal the breaker.
  void onOutcome(const std::string &SourceKey, bool Executed, bool Trapped,
                 TimePoint Now);

  /// Test introspection: the breaker state for \p SourceKey.
  State state(const std::string &SourceKey) const;

  /// Test introspection: source keys with state on record. A key is
  /// tracked from its first trap until a success closes it again.
  size_t trackedSources() const;

private:
  struct Entry {
    State St = State::Closed;
    unsigned ConsecutiveTraps = 0;
    TimePoint OpenedAt{};
    bool ProbeInFlight = false;
  };

  mutable std::mutex M;
  unsigned Threshold;
  uint64_t CooldownMs;
  std::unordered_map<std::string, Entry> Entries;
};

} // namespace perceus

#endif // PERCEUS_SERVICE_TENANTGOVERNOR_H

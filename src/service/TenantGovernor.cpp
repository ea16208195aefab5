//===- service/TenantGovernor.cpp - Per-tenant admission policy -----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/TenantGovernor.h"

#include "service/Service.h"

#include <algorithm>

using namespace perceus;

namespace {

/// Clamps one RunLimits field: a nonzero cap lowers the requested value
/// and imposes itself when the request asked for unlimited (0).
template <typename T> void clampField(T &Value, T Cap) {
  if (Cap != 0)
    Value = Value == 0 ? Cap : std::min(Value, Cap);
}

} // namespace

void TenantGovernor::setDefaultPolicy(const TenantPolicy &P) {
  std::lock_guard<std::mutex> Lock(M);
  Default = P;
}

void TenantGovernor::setPolicy(const std::string &Tenant,
                               const TenantPolicy &P) {
  std::lock_guard<std::mutex> Lock(M);
  State &S = Tenants[Tenant];
  S.Policy = P;
  S.HasPolicy = true;
  // Re-prime the bucket on the next admit so a rate change takes effect
  // with a full burst, not a stale token count.
  S.BucketPrimed = false;
}

TenantGovernor::State &TenantGovernor::stateFor(const std::string &Tenant) {
  return Tenants[Tenant];
}

TenantGovernor::Decision TenantGovernor::admit(const std::string &Tenant,
                                               TimePoint Now,
                                               size_t TenantQueued,
                                               size_t TotalQueued,
                                               size_t QueueCapacity) {
  std::lock_guard<std::mutex> Lock(M);
  State &S = stateFor(Tenant);
  const TenantPolicy &P = policyFor(S);
  ++S.C.Submitted;

  Decision D;

  // In-flight cap: queued + running requests this tenant already owns.
  if (P.MaxInFlight != 0 && S.InFlight >= P.MaxInFlight) {
    D.Reject = RejectKind::TenantQuota;
    D.Error = "tenant at max in-flight requests";
    // The slot frees when one of the tenant's own requests finishes;
    // its expected wait is its own average run time, best known to the
    // caller — hint one scheduling quantum.
    D.RetryAfterMs = 5;
    ++S.C.RejectedTenantQuota;
    return D;
  }

  // Fair-share shed under pressure: when the global queue is at or past
  // 3/4 capacity, a tenant holding more than QueueCapacity / active
  // tenants slots is refused even if its own quota admits it. This is
  // what keeps one abusive tenant from starving the polite ones.
  if (QueueCapacity != 0 && TotalQueued * 4 >= QueueCapacity * 3) {
    uint64_t Sharers = std::max<uint64_t>(1, ActiveTenants);
    size_t FairShare = std::max<size_t>(1, QueueCapacity / Sharers);
    if (TenantQueued >= FairShare) {
      D.Reject = RejectKind::TenantQuota;
      D.Error = "tenant over fair queue share under pressure";
      D.RetryAfterMs = 5;
      ++S.C.RejectedTenantQuota;
      return D;
    }
  }

  // Token bucket. Refill lazily from elapsed wall clock; a fresh (or
  // re-policied) bucket starts full so the first burst is admitted.
  if (P.RatePerSec > 0) {
    double Burst = P.Burst > 0 ? P.Burst : std::max(1.0, P.RatePerSec);
    if (!S.BucketPrimed) {
      S.Tokens = Burst;
      S.LastRefill = Now;
      S.BucketPrimed = true;
    } else {
      double Elapsed =
          std::chrono::duration<double>(Now - S.LastRefill).count();
      S.Tokens = std::min(Burst, S.Tokens + Elapsed * P.RatePerSec);
      S.LastRefill = Now;
    }
    if (S.Tokens < 1.0) {
      D.Reject = RejectKind::RateLimited;
      D.Error = "tenant request rate exceeded";
      double Deficit = (1.0 - S.Tokens) / P.RatePerSec;
      D.RetryAfterMs = std::max<uint64_t>(
          1, static_cast<uint64_t>(Deficit * 1e3 + 0.5));
      ++S.C.RejectedRateLimited;
      return D;
    }
    S.Tokens -= 1.0;
  }

  ++S.C.Admitted;
  if (S.InFlight++ == 0)
    ++ActiveTenants;
  return D;
}

void TenantGovernor::clampLimits(const std::string &Tenant,
                                 RunLimits &L) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Tenants.find(Tenant);
  const TenantPolicy &P =
      It != Tenants.end() && It->second.HasPolicy ? It->second.Policy
                                                  : Default;
  clampField(L.Fuel, P.Clamp.Fuel);
  clampField(L.MaxCallDepth, P.Clamp.MaxCallDepth);
  clampField(L.DeadlineMs, P.Clamp.DeadlineMs);
  clampField(L.Heap.MaxLiveBytes, P.Clamp.Heap.MaxLiveBytes);
  clampField(L.Heap.MaxLiveCells, P.Clamp.Heap.MaxLiveCells);
  clampField(L.Heap.AllocBudget, P.Clamp.Heap.AllocBudget);
}

void TenantGovernor::onOutcome(const std::string &Tenant,
                               const ServiceResponse &R) {
  std::lock_guard<std::mutex> Lock(M);
  State &S = stateFor(Tenant);
  if (S.InFlight > 0 && --S.InFlight == 0)
    --ActiveTenants;
  S.C.QueueSecondsTotal += R.QueueSeconds;
  S.C.RunSecondsTotal += R.RunSeconds;
  if (R.Executed) {
    ++S.C.Executed;
    if (!R.Run.Ok)
      ++S.C.Traps;
    // The tenant's resource ledger is the sum of its requests' HeapStats
    // deltas — the same counters the classification invariant pins.
    accumulate(S.C.Heap, R.Heap);
    S.C.RetainedPeakBytes = std::max(S.C.RetainedPeakBytes, R.RetainedBytes);
  } else {
    ++S.C.Shed;
  }
}

TenantCounters TenantGovernor::counters(const std::string &Tenant) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Tenants.find(Tenant);
  return It == Tenants.end() ? TenantCounters{} : It->second.C;
}

std::vector<std::string> TenantGovernor::tenants() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Names;
  Names.reserve(Tenants.size());
  for (const auto &KV : Tenants)
    Names.push_back(KV.first);
  return Names;
}

//===--- CircuitBreaker -------------------------------------------------===//

CircuitBreaker::Decision CircuitBreaker::admit(const std::string &SourceKey,
                                               TimePoint Now) {
  Decision D;
  if (!enabled())
    return D;
  std::lock_guard<std::mutex> Lock(M);
  // No entry means Closed with a clean record: admit without inserting.
  auto It = Entries.find(SourceKey);
  if (It == Entries.end())
    return D;
  Entry &E = It->second;
  switch (E.St) {
  case State::Closed:
    return D;
  case State::Open: {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       Now - E.OpenedAt)
                       .count();
    if (Elapsed >= static_cast<int64_t>(CooldownMs)) {
      E.St = State::HalfOpen;
      E.ProbeInFlight = true; // this request is the probe
      return D;
    }
    D.Allow = false;
    D.RetryAfterMs = CooldownMs - static_cast<uint64_t>(Elapsed);
    return D;
  }
  case State::HalfOpen:
    if (!E.ProbeInFlight) {
      E.ProbeInFlight = true;
      return D;
    }
    D.Allow = false;
    D.RetryAfterMs = std::max<uint64_t>(1, CooldownMs / 2);
    return D;
  }
  return D;
}

void CircuitBreaker::onOutcome(const std::string &SourceKey, bool Executed,
                               bool Trapped, TimePoint Now) {
  if (!enabled())
    return;
  std::lock_guard<std::mutex> Lock(M);
  auto It = Entries.find(SourceKey);
  if (!Executed) {
    // Shed before running: releases a half-open probe slot but is no
    // evidence either way.
    if (It != Entries.end() && It->second.St == State::HalfOpen)
      It->second.ProbeInFlight = false;
    return;
  }
  if (Trapped) {
    // Trap accounting must not depend on a prior admit() for the key —
    // the breaker learns from every executed run it is told about.
    Entry &E = It != Entries.end() ? It->second : Entries[SourceKey];
    if (E.St == State::HalfOpen) {
      // The probe trapped too: straight back to Open for a fresh
      // cooldown.
      E.St = State::Open;
      E.OpenedAt = Now;
      E.ProbeInFlight = false;
      E.ConsecutiveTraps = Threshold;
      return;
    }
    if (++E.ConsecutiveTraps >= Threshold && E.St == State::Closed) {
      E.St = State::Open;
      E.OpenedAt = Now;
    }
    return;
  }
  // Success closes from any state, and a Closed entry with no traps and
  // no probe is exactly the default one: erase it, so the map holds only
  // sources with a trap on record, not every source ever served.
  if (It != Entries.end())
    Entries.erase(It);
}

size_t CircuitBreaker::trackedSources() const {
  std::lock_guard<std::mutex> Lock(M);
  return Entries.size();
}

CircuitBreaker::State
CircuitBreaker::state(const std::string &SourceKey) const {
  std::lock_guard<std::mutex> Lock(M);
  auto It = Entries.find(SourceKey);
  return It == Entries.end() ? State::Closed : It->second.St;
}

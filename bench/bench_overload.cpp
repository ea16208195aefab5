//===- bench/bench_overload.cpp - Multi-tenant overload / degradation -----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Graceful degradation under a hostile tenant mix: N polite tenants
/// submit open-loop (timed arrivals, independent of completions) at a
/// modest rate while one abusive tenant floods the same service. The
/// abusive tenant is contained by policy — an in-flight cap and the
/// fair-share queue discipline — so the measurement is whether the
/// polite tenants notice.
///
/// Two phases over identical polite schedules:
///   baseline  — polite tenants only
///   abuse     — polite tenants + the abusive flood
///
/// Per tenant and phase the harness reports p50/p99/mean end-to-end
/// latency (queue + run, server-side), shed rate, the admission
/// rejection breakdown, and the worst worker-retained RSS, into
/// BENCH_overload.json ("overload" row objects, schema-validated).
///
/// Acceptance (exit 1 on violation):
///   * polite p99 under abuse stays within 3x the no-abuse baseline
///     (plus a small absolute floor to absorb scheduler jitter);
///   * polite shed rate under abuse stays below 1%.
///
///   bench_overload [--scale=X] [--requests=N] [--json=PATH | --no-json]
///
/// --requests sets the polite per-tenant request count (default 100);
/// --scale multiplies the per-request workload.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "service/Service.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

using namespace perceus;
using namespace perceus::bench;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t parseRequests(int Argc, char **Argv, uint64_t Default) {
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--requests=", 11) == 0)
      return std::max(1l, std::atol(Argv[I] + 11));
  return Default;
}

constexpr unsigned NumPolite = 3;
constexpr size_t QueueCap = 64;
constexpr double PoliteRatePerSec = 40.0; // per polite tenant

/// Workers never exceed the machine: oversubscribed workers timeslice
/// the engine runs themselves and the latency measurement stops meaning
/// queueing. The flood and the containment cap scale with the workers so
/// the abusive tenant saturates the service on any core count.
unsigned serviceWorkers() {
  unsigned HW = std::thread::hardware_concurrency();
  return std::max(1u, std::min(4u, HW == 0 ? 1u : HW));
}
double abuseRatePerSec() { return 1200.0 * serviceWorkers(); }
uint64_t abusiveMaxInFlight() { return 2 * serviceWorkers(); }

/// One tenant's aggregated outcome for a phase.
struct TenantOutcome {
  OverloadInfo Ov;
  HeapStats Heap;
  std::vector<double> LatenciesMs; ///< executed requests only
};

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * double(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

/// Picks a per-request workload whose run time is a few milliseconds:
/// large enough that latency measurements dominate scheduler noise,
/// small enough that the open-loop rates stay feasible.
int64_t calibrateWorkload(const BenchProgram &P, double Scale) {
  int64_t Work = std::max<int64_t>(1, static_cast<int64_t>(50 * Scale));
  Service S(ServiceConfig{});
  // Warm the artifact cache first: the calibration rounds must measure
  // VM time, not the one-off compile.
  S.precompile(P.Source, PassConfig::perceusFull());
  for (int Round = 0; Round != 4; ++Round) {
    ServiceRequest R;
    R.Source = P.Source;
    R.Entry = P.Entry;
    R.Args = {Value::makeInt(Work)};
    ServiceResponse Resp = S.call(std::move(R));
    if (!Resp.Executed || !Resp.Run.Ok)
      break;
    double Ms = Resp.RunSeconds * 1e3;
    if (Ms >= 0.5 && Ms <= 2.0)
      break;
    double Target = 1.0;
    double Factor = Ms > 0 ? Target / Ms : 2.0;
    Factor = std::min(8.0, std::max(0.125, Factor));
    Work = std::max<int64_t>(1, static_cast<int64_t>(double(Work) * Factor));
  }
  return Work;
}

/// Runs one phase: every polite tenant follows the same open-loop
/// schedule; when \p WithAbuse the abusive tenant floods concurrently.
/// Returns one outcome per tenant (polite first, abusive last when
/// present).
std::vector<TenantOutcome> runPhase(const BenchProgram &Prog, int64_t Work,
                                    uint64_t PoliteRequests, bool WithAbuse) {
  ServiceConfig SC;
  SC.Workers = serviceWorkers();
  SC.QueueCapacity = QueueCap;
  Service S(SC);

  TenantPolicy Abuse;
  Abuse.MaxInFlight = abusiveMaxInFlight();
  S.setTenantPolicy("abusive", Abuse);

  // Compile off the measured path; every request is then a cache hit.
  std::string CompileError;
  if (!S.precompile(Prog.Source, PassConfig::perceusFull(), &CompileError)) {
    std::fprintf(stderr, "bench_overload: %s\n", CompileError.c_str());
    std::exit(1);
  }

  struct Event {
    double AtSec;
    unsigned Tenant; ///< 0..NumPolite-1 polite, NumPolite = abusive
  };
  std::vector<Event> Schedule;
  Rng Jitter(42);
  for (unsigned T = 0; T != NumPolite; ++T)
    for (uint64_t I = 0; I != PoliteRequests; ++I) {
      // Poisson-ish arrivals: uniform jitter of one inter-arrival slot.
      double Slot = double(I) / PoliteRatePerSec;
      double J = double(Jitter.below(1000)) / 1000.0 / PoliteRatePerSec;
      Schedule.push_back({Slot + J, T});
    }
  double PhaseSec = double(PoliteRequests) / PoliteRatePerSec;
  if (WithAbuse) {
    double AbuseRate = abuseRatePerSec();
    uint64_t AbuseRequests = static_cast<uint64_t>(PhaseSec * AbuseRate);
    for (uint64_t I = 0; I != AbuseRequests; ++I)
      Schedule.push_back({double(I) / AbuseRate, NumPolite});
  }
  std::sort(Schedule.begin(), Schedule.end(),
            [](const Event &A, const Event &B) { return A.AtSec < B.AtSec; });

  auto TenantName = [](unsigned T) {
    return T == NumPolite ? std::string("abusive")
                          : "polite-" + std::to_string(T + 1);
  };

  std::vector<TenantOutcome> Out(WithAbuse ? NumPolite + 1 : NumPolite);
  std::vector<std::pair<unsigned, std::future<ServiceResponse>>> InFlight;
  InFlight.reserve(Schedule.size());

  Clock::time_point T0 = Clock::now();
  for (const Event &E : Schedule) {
    std::this_thread::sleep_until(
        T0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(E.AtSec)));
    ServiceRequest R;
    R.Tenant = TenantName(E.Tenant);
    R.Source = Prog.Source;
    R.Entry = Prog.Entry;
    R.Args = {Value::makeInt(Work)};
    ++Out[E.Tenant].Ov.Requests;
    InFlight.emplace_back(E.Tenant, S.submit(std::move(R)));
  }
  for (auto &[T, Fut] : InFlight) {
    ServiceResponse Resp = Fut.get();
    TenantOutcome &O = Out[T];
    if (Resp.Executed) {
      ++O.Ov.Executed;
      O.LatenciesMs.push_back((Resp.QueueSeconds + Resp.RunSeconds) * 1e3);
    } else {
      switch (Resp.Reject) {
      case RejectKind::RateLimited:
        ++O.Ov.RejectedRateLimited;
        break;
      case RejectKind::TenantQuota:
        ++O.Ov.RejectedTenantQuota;
        break;
      case RejectKind::QueueFull:
        ++O.Ov.RejectedQueueFull;
        break;
      case RejectKind::CircuitOpen:
        ++O.Ov.RejectedCircuitOpen;
        break;
      default:
        ++O.Ov.Shed;
        break;
      }
    }
  }
  S.stop();

  for (unsigned T = 0; T != Out.size(); ++T) {
    TenantOutcome &O = Out[T];
    O.Ov.Present = true;
    O.Ov.Tenant = TenantName(T);
    O.Ov.Abusive = T == NumPolite;
    uint64_t NotExecuted = O.Ov.Requests - O.Ov.Executed;
    O.Ov.ShedRate =
        O.Ov.Requests ? double(NotExecuted) / double(O.Ov.Requests) : 0;
    O.Ov.P50Ms = percentile(O.LatenciesMs, 0.50);
    O.Ov.P99Ms = percentile(O.LatenciesMs, 0.99);
    double Sum = 0;
    for (double L : O.LatenciesMs)
      Sum += L;
    O.Ov.MeanMs = O.LatenciesMs.empty() ? 0 : Sum / O.LatenciesMs.size();
    TenantCounters C = S.tenantStats(O.Ov.Tenant);
    O.Ov.RetainedPeakBytes = C.RetainedPeakBytes;
    O.Heap = C.Heap;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv, 1.0);
  uint64_t PoliteRequests = parseRequests(Argc, Argv, 100);
  std::string JsonPath = parseJsonPath("overload", Argc, Argv);
  BenchReport Report("overload", Scale);

  // One interactive-sized program; the contention is in the service, not
  // the workload, so one program suffices and keeps phases comparable.
  BenchProgram Prog{"rbtree", rbtreeSource(), "bench_rbtree", 0, nullptr};
  int64_t Work = calibrateWorkload(Prog, Scale);

  std::printf("Multi-tenant overload mix: %u polite @ %.0f req/s each "
              "(%llu requests), abusive @ %.0f req/s, %u workers, "
              "queue %zu, workload %lld\n\n",
              NumPolite, PoliteRatePerSec,
              (unsigned long long)PoliteRequests, abuseRatePerSec(),
              serviceWorkers(), QueueCap, (long long)Work);

  std::vector<TenantOutcome> Base =
      runPhase(Prog, Work, PoliteRequests, /*WithAbuse=*/false);
  std::vector<TenantOutcome> Abuse =
      runPhase(Prog, Work, PoliteRequests, /*WithAbuse=*/true);

  std::printf("%-10s %-9s %9s %9s %9s %9s %9s %10s\n", "tenant", "phase",
              "requests", "executed", "shedrate", "p50[ms]", "p99[ms]",
              "retained");
  auto printRow = [](const TenantOutcome &O, const char *Phase) {
    std::printf("%-10s %-9s %9llu %9llu %8.2f%% %9.2f %9.2f %9zuB\n",
                O.Ov.Tenant.c_str(), Phase,
                (unsigned long long)O.Ov.Requests,
                (unsigned long long)O.Ov.Executed, O.Ov.ShedRate * 100,
                O.Ov.P50Ms, O.Ov.P99Ms, (size_t)O.Ov.RetainedPeakBytes);
  };
  for (const TenantOutcome &O : Base)
    printRow(O, "baseline");
  for (const TenantOutcome &O : Abuse)
    printRow(O, "abuse");

  // Report rows: benchmark = tenant, config = phase.
  auto addRows = [&](const std::vector<TenantOutcome> &Phase,
                     const char *Name) {
    for (const TenantOutcome &O : Phase) {
      Measurement M;
      M.Ran = true;
      M.Seconds = O.Ov.MeanMs / 1e3;
      M.Heap = O.Heap;
      M.Ov = O.Ov;
      Report.add(O.Ov.Tenant, Name, M);
    }
  };
  addRows(Base, "baseline");
  addRows(Abuse, "abuse");

  // Acceptance: the polite tenants must not notice the abuse. p99 within
  // 3x baseline (with a 2ms absolute floor absorbing scheduler jitter on
  // loaded CI machines), shed rate under 1%.
  bool Violation = false;
  for (unsigned T = 0; T != NumPolite; ++T) {
    const OverloadInfo &B = Base[T].Ov;
    const OverloadInfo &A = Abuse[T].Ov;
    double Limit = std::max(3.0 * B.P99Ms, B.P99Ms + 2.0);
    if (A.P99Ms > Limit) {
      std::fprintf(stderr,
                   "%s: p99 degraded %.2fms -> %.2fms (limit %.2fms)\n",
                   A.Tenant.c_str(), B.P99Ms, A.P99Ms, Limit);
      Violation = true;
    }
    if (A.ShedRate >= 0.01) {
      std::fprintf(stderr, "%s: shed rate %.2f%% under abuse (limit 1%%)\n",
                   A.Tenant.c_str(), A.ShedRate * 100);
      Violation = true;
    }
  }
  if (Violation) {
    std::fprintf(stderr, "\ngraceful degradation violated — see above\n");
    return 1;
  }
  std::printf("\npolite tenants: p99 within 3x baseline, shed rate < 1%% "
              "under abuse\n");

  std::string SchemaErr = validateBenchJson(Report.json());
  if (!SchemaErr.empty()) {
    std::fprintf(stderr, "BENCH_overload.json schema violation: %s\n",
                 SchemaErr.c_str());
    return 1;
  }
  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

//===- bench/bench_net.cpp - Sharded socket front-end throughput ----------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Open-loop TCP mix against the sharded socket front end (`perc
/// --listen` internals, driven in-process): four tenants each hold
/// their own line-JSON connection and submit at a fixed rate,
/// independent of completions, while the harness measures end-to-end
/// (client-observed) latency per response seq.
///
/// Two phases over identical schedules:
///   1shard  — every tenant routes to the single shard (baseline)
///   Nshard  — N >= 4 shards; tenants spread by the (tenant, source)
///             hash, caches and governors isolated per shard
///
/// Per tenant and phase the harness reports p50/p99/mean latency and
/// the admission breakdown ("overload" row objects); the N-shard phase
/// additionally reports one "shard" row object per shard — requests,
/// cache hits/compiles/evictions, sheds, qps — proving cache isolation
/// (every shard that saw traffic compiled the one source exactly once).
/// Results land in BENCH_net.json ("perceus-bench-v1",
/// schema-validated before writing).
///
/// Acceptance (exit 1 on violation):
///   * N-shard aggregate p99 stays within 3x the 1-shard aggregate p50
///     (plus a small absolute floor to absorb scheduler jitter);
///   * every executed response's retained_bytes stays within the
///     per-worker retained-trim policy (RSS bound);
///   * per-shard cache isolation: each shard that received traffic
///     compiled exactly once, and no cross-shard artifact sharing.
///
///   bench_net [--scale=X] [--requests=N] [--shards=N]
///             [--json=PATH | --no-json]
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "net/Server.h"
#include "net/ShardedService.h"
#include "net/Wire.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace perceus;
using namespace perceus::bench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned NumTenants = 4;
constexpr double RatePerSec = 30.0; // per tenant, open loop
constexpr size_t MaxRetained = 4u << 20;

uint64_t parseFlag(int Argc, char **Argv, const char *Name,
                   uint64_t Default) {
  size_t Len = std::strlen(Name);
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], Name, Len) == 0)
      return std::max(1l, std::atol(Argv[I] + Len));
  return Default;
}

/// Picks a per-request workload whose run time is around a millisecond
/// (measured through the service, cache warm), so the open-loop rates
/// stay feasible on one core yet latency dominates scheduler noise.
int64_t calibrateWorkload(const BenchProgram &P, double Scale) {
  int64_t Work = std::max<int64_t>(1, static_cast<int64_t>(50 * Scale));
  Service S(ServiceConfig{});
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
    double Factor = Ms > 0 ? 1.0 / Ms : 2.0;
    Factor = std::min(8.0, std::max(0.125, Factor));
    Work = std::max<int64_t>(1, static_cast<int64_t>(double(Work) * Factor));
  }
  return Work;
}

double percentile(std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(P * double(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

int connectTo(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off != Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, 0);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// One tenant's client-observed outcome for a phase.
struct TenantRun {
  OverloadInfo Ov;
  std::vector<double> LatMs;
  uint64_t RetainedMaxBytes = 0;
  bool RetainedViolation = false;
  bool TransportError = false;
};

/// Drives one tenant's connection: a sender pacing the open-loop
/// schedule and an in-thread reader matching responses back to send
/// times by seq (the server numbers frames per connection in arrival
/// order, which over one TCP stream is submission order).
void runTenant(uint16_t Port, const std::string &Tenant, const char *Entry,
               int64_t Work, uint64_t Requests, TenantRun &Out) {
  int Fd = connectTo(Port);
  if (Fd < 0) {
    Out.TransportError = true;
    return;
  }
  std::vector<Clock::time_point> SentAt(Requests + 1);
  std::thread Sender([&] {
    std::string Frame = std::string("{\"tenant\":\"") + Tenant +
                        "\",\"entry\":\"" + Entry +
                        "\",\"args\":[" + std::to_string(Work) + "]}\n";
    Clock::time_point T0 = Clock::now();
    for (uint64_t I = 0; I != Requests; ++I) {
      std::this_thread::sleep_until(
          T0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(double(I) / RatePerSec)));
      SentAt[I + 1] = Clock::now();
      if (!sendAll(Fd, Frame)) {
        Out.TransportError = true;
        return;
      }
      ++Out.Ov.Requests;
    }
  });

  std::string Buf;
  char Chunk[65536];
  uint64_t Got = 0;
  while (Got != Requests) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N <= 0) {
      Out.TransportError = true;
      break;
    }
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Nl;
    while ((Nl = Buf.find('\n')) != std::string::npos) {
      Clock::time_point Now = Clock::now();
      std::string Line = Buf.substr(0, Nl);
      Buf.erase(0, Nl + 1);
      ++Got;
      std::optional<JsonValue> Doc = parseJson(Line);
      const JsonValue *Svc =
          Doc ? Doc->find("service", JsonValue::Kind::Object) : nullptr;
      if (!Svc) {
        Out.TransportError = true;
        continue;
      }
      uint64_t Seq =
          static_cast<uint64_t>(Svc->find("seq", JsonValue::Kind::Number)->Num);
      const JsonValue *Executed =
          Svc->find("executed", JsonValue::Kind::Bool);
      uint64_t Retained = static_cast<uint64_t>(
          Svc->find("retained_bytes", JsonValue::Kind::Number)->Num);
      Out.RetainedMaxBytes = std::max(Out.RetainedMaxBytes, Retained);
      if (Retained > MaxRetained)
        Out.RetainedViolation = true;
      if (Executed && Executed->B && Seq >= 1 && Seq <= Requests) {
        ++Out.Ov.Executed;
        Out.LatMs.push_back(
            std::chrono::duration<double>(Now - SentAt[Seq]).count() * 1e3);
      } else {
        ++Out.Ov.Shed;
      }
    }
  }
  Sender.join();
  ::close(Fd);
}

struct PhaseResult {
  std::vector<TenantRun> Tenants;
  std::vector<ServiceStats> ShardStats;
  ServerStats Net;
  double WallSec = 0;
  double P50 = 0, P99 = 0;
  double Qps = 0;
};

PhaseResult runPhase(const BenchProgram &Prog, int64_t Work,
                     uint64_t Requests, unsigned Shards) {
  FrontEndConfig FC;
  FC.withShards(Shards).withShard(
      ServiceConfig{}.withWorkers(1).withQueueCapacity(64).withMaxRetainedBytes(
          MaxRetained));
  ShardedService SS(FC);

  // Compile off the measured path, once per (tenant, source) shard —
  // the per-shard compile counters below must show exactly these.
  for (unsigned T = 0; T != NumTenants; ++T) {
    std::string Err;
    if (!SS.precompile("tenant-" + std::to_string(T + 1), Prog.Source,
                       PassConfig::perceusFull(), EngineKind::Vm, &Err)) {
      std::fprintf(stderr, "bench_net: %s\n", Err.c_str());
      std::exit(1);
    }
  }

  ServiceRequest Defaults;
  Defaults.Source = Prog.Source;
  Defaults.Entry = Prog.Entry;
  Server Srv(SS, FC, Defaults);
  std::string Err;
  if (!Srv.listen("127.0.0.1:0", &Err) || !Srv.start()) {
    std::fprintf(stderr, "bench_net: listen failed: %s\n", Err.c_str());
    std::exit(1);
  }

  PhaseResult PR;
  PR.Tenants.resize(NumTenants);
  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Drivers;
  for (unsigned T = 0; T != NumTenants; ++T)
    Drivers.emplace_back(runTenant, Srv.port(),
                         "tenant-" + std::to_string(T + 1), Prog.Entry, Work,
                         Requests, std::ref(PR.Tenants[T]));
  for (std::thread &D : Drivers)
    D.join();
  PR.WallSec = std::chrono::duration<double>(Clock::now() - T0).count();

  PR.Net = Srv.stats();
  for (size_t I = 0; I != SS.shardCount(); ++I)
    PR.ShardStats.push_back(SS.shardStats(I));
  Srv.stop();
  SS.stop();

  std::vector<double> All;
  uint64_t Executed = 0;
  for (unsigned I = 0; I != NumTenants; ++I) {
    TenantRun &T = PR.Tenants[I];
    T.Ov.Present = true;
    T.Ov.Tenant = "tenant-" + std::to_string(I + 1);
    T.Ov.P50Ms = percentile(T.LatMs, 0.50);
    T.Ov.P99Ms = percentile(T.LatMs, 0.99);
    double Sum = 0;
    for (double L : T.LatMs)
      Sum += L;
    T.Ov.MeanMs = T.LatMs.empty() ? 0 : Sum / double(T.LatMs.size());
    T.Ov.ShedRate = T.Ov.Requests
                        ? double(T.Ov.Requests - T.Ov.Executed) /
                              double(T.Ov.Requests)
                        : 0;
    T.Ov.RetainedPeakBytes = T.RetainedMaxBytes;
    Executed += T.Ov.Executed;
    All.insert(All.end(), T.LatMs.begin(), T.LatMs.end());
  }
  PR.P50 = percentile(All, 0.50);
  PR.P99 = percentile(All, 0.99);
  PR.Qps = PR.WallSec > 0 ? double(Executed) / PR.WallSec : 0;
  return PR;
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv, 1.0);
  uint64_t Requests = parseFlag(Argc, Argv, "--requests=", 120);
  unsigned Shards = static_cast<unsigned>(
      std::max<uint64_t>(4, parseFlag(Argc, Argv, "--shards=", 4)));
  std::string JsonPath = parseJsonPath("net", Argc, Argv);
  BenchReport Report("net", Scale);

  BenchProgram Prog{"rbtree", rbtreeSource(), "bench_rbtree", 0, nullptr};
  int64_t Work = calibrateWorkload(Prog, Scale);

  std::printf("Sharded socket front end (%s): %u tenants @ %.0f req/s each, "
              "%llu requests/tenant, workload %lld\n\n",
              Poller::backendName(), NumTenants, RatePerSec,
              (unsigned long long)Requests, (long long)Work);

  PhaseResult Base = runPhase(Prog, Work, Requests, 1);
  PhaseResult Wide = runPhase(Prog, Work, Requests, Shards);
  std::string WideName = std::to_string(Shards) + "shard";

  auto printPhase = [&](const char *Name, const PhaseResult &PR) {
    std::printf("%-8s p50=%.2fms p99=%.2fms qps=%.0f frames_in=%llu "
                "bad=%llu dropped=%llu\n",
                Name, PR.P50, PR.P99, PR.Qps,
                (unsigned long long)PR.Net.FramesIn,
                (unsigned long long)PR.Net.BadRequests,
                (unsigned long long)PR.Net.DroppedResponses);
  };
  printPhase("1shard", Base);
  printPhase(WideName.c_str(), Wide);

  bool Violation = false;
  for (const PhaseResult *PR : {&Base, &Wide})
    for (const TenantRun &T : PR->Tenants) {
      if (T.TransportError) {
        std::fprintf(stderr, "%s: transport error\n", T.Ov.Tenant.c_str());
        Violation = true;
      }
      if (T.RetainedViolation) {
        std::fprintf(stderr,
                     "retained_bytes exceeded the %zuB trim policy "
                     "(peak %lluB)\n",
                     MaxRetained, (unsigned long long)T.RetainedMaxBytes);
        Violation = true;
      }
    }

  // Gate 1: scaling out must not cost tail latency. The absolute floor
  // absorbs scheduler jitter on loaded single-core CI machines.
  double Limit = std::max(3.0 * Base.P50, Base.P50 + 10.0);
  if (Wide.P99 > Limit) {
    std::fprintf(stderr,
                 "p99 at %u shards %.2fms exceeds limit %.2fms "
                 "(3x 1-shard p50 %.2fms)\n",
                 Shards, Wide.P99, Limit, Base.P50);
    Violation = true;
  }

  // Gate 2: per-shard cache isolation. Every shard that saw traffic
  // compiled the one source exactly once (its own cache, warmed by its
  // own precompile); idle shards compiled nothing.
  unsigned Active = 0;
  uint64_t TotalCompiles = 0;
  for (size_t I = 0; I != Wide.ShardStats.size(); ++I) {
    const ServiceStats &ST = Wide.ShardStats[I];
    TotalCompiles += ST.CacheCompiles;
    if (ST.Submitted == 0 && ST.CacheCompiles == 0)
      continue;
    ++Active;
    if (ST.CacheCompiles != 1) {
      std::fprintf(stderr,
                   "shard %zu compiled %llu times (want exactly 1)\n", I,
                   (unsigned long long)ST.CacheCompiles);
      Violation = true;
    }
  }
  if (Active < 2) {
    std::fprintf(stderr,
                 "tenant hash spread only %u active shards at %u shards\n",
                 Active, Shards);
    Violation = true;
  }

  // Rows: per-tenant latency ("overload" objects) for both phases, plus
  // one per-shard isolation row for the wide phase.
  auto addTenantRows = [&](const PhaseResult &PR, const std::string &Name) {
    for (unsigned T = 0; T != NumTenants; ++T) {
      Measurement M;
      M.Ran = !PR.Tenants[T].TransportError;
      M.Seconds = PR.Tenants[T].Ov.MeanMs / 1e3;
      M.Ov = PR.Tenants[T].Ov;
      Report.add(M.Ov.Tenant, Name, M);
    }
  };
  addTenantRows(Base, "1shard");
  addTenantRows(Wide, WideName);
  for (size_t I = 0; I != Wide.ShardStats.size(); ++I) {
    const ServiceStats &ST = Wide.ShardStats[I];
    Measurement M;
    M.Ran = true;
    M.Shard.Present = true;
    M.Shard.Shard = I;
    M.Shard.Requests = ST.Submitted;
    M.Shard.Executed = ST.Executed;
    M.Shard.CacheHits = ST.CacheHits;
    M.Shard.CacheCompiles = ST.CacheCompiles;
    M.Shard.CacheEvictions = ST.CacheEvictions;
    M.Shard.Sheds = ST.RejectedQueueFull + ST.RejectedShedding +
                    ST.RejectedRateLimited + ST.RejectedTenantQuota +
                    ST.RejectedCircuitOpen;
    M.Shard.Qps = Wide.WallSec > 0 ? double(ST.Executed) / Wide.WallSec : 0;
    Report.add("shard-" + std::to_string(I), WideName, M);
  }

  if (Violation) {
    std::fprintf(stderr, "\nsharded front-end acceptance violated — see "
                         "above\n");
    return 1;
  }
  std::printf("\n%u shards: p99 %.2fms within 3x 1-shard p50, retained "
              "<= %zuB, %u shards compiled once each\n",
              Shards, Wide.P99, MaxRetained, Active);

  std::string SchemaErr = validateBenchJson(Report.json());
  if (!SchemaErr.empty()) {
    std::fprintf(stderr, "BENCH_net.json schema violation: %s\n",
                 SchemaErr.c_str());
    return 1;
  }
  if (!JsonPath.empty() && !Report.write(JsonPath))
    return 1;
  return 0;
}

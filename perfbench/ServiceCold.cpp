//===- perfbench/ServiceCold.cpp - Workload service-cold -------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed loop into an in-process Service (VM, one worker, an
/// artifact-cache byte budget) with InFlight requests outstanding. Every
/// request carries a source the service has never seen: a seeded pick of
/// a built-in program, renamed apart, so the cache key is new but the
/// compile work is real. Each runs at a tiny n, so compile dominates, and
/// the cache's insert and evict path runs on every request. The seed
/// picks each request's program when it is sent; latency is also taken
/// relative to the host reference, sampled by the client thread.
///
/// Results come back in the response, so each is checked against the
/// program's oracle. The traced run also compiles the first seeded
/// sources through the public layer functions, outside the service, for
/// the compile split.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "service/Service.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>

using namespace perceus;

namespace perfbench {
namespace {

constexpr int InFlight = 2;
constexpr unsigned Workers = 1;
/// Room for a handful of artifacts, so nearly every insert evicts.
constexpr size_t CacheBudgetBytes = 512 * 1024;
constexpr int WarmupRequests = 120;
constexpr int CompileSplitSamples = 40;

/// A finished request, handed from the worker's callback to the client.
struct Done {
  uint64_t Req;
  size_t Prog;
  Clock::time_point SentAt, At;
  ServiceResponse Resp;
};

class ServiceCold {
public:
  explicit ServiceCold(const Options &O) : O(O), T(O.Trace) {}

  Outcome run();

  /// The pool program of request \p I of the seeded stream. Its source is
  /// that program renamed apart with suffix(I).
  size_t programAt(uint64_t I) const {
    return Rng::at(O.Seed, I).next() % Pool.size();
  }

private:
  bool prepare();
  /// Closed loop from Next until \p Budget seconds pass or \p Count
  /// requests are sent, then drains; records samples into \p Ph when
  /// given.
  void loop(Service &S, double Budget, uint64_t Count, Phase *Ph,
            bool Traced);
  void submit(Service &S, uint64_t Req);
  std::string suffix(uint64_t Req) const {
    return Tag + "x" + std::to_string(Req);
  }

  const Options &O;
  Tracer T;
  HostRef Ref;
  Outcome Out;
  std::vector<ProgramSpec> Pool;
  std::vector<int64_t> Expected; ///< oracle at TinyN, per pool program
  std::string Tag;
  uint64_t Next = 0;

  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<Done> Finished; ///< guarded by Mu

  // Service-layer samples of the traced run.
  std::vector<double> QueueMs, RunMs;
  double RetainedMax = 0;
};

bool ServiceCold::prepare() {
  std::string Err;
  if (!builtinPrograms(O.Root, Pool, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return false;
  }
  InputHash H;
  for (size_t P = 0; P != Pool.size(); ++P) {
    Expected.push_back(Pool[P].Oracle(Pool[P].TinyN) +
                       (O.CorruptOracle && P == 0));
    H.add(Pool[P].Source);
    H.add(Pool[P].TinyN);
  }
  Rng R(O.Seed);
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "_c%04llx",
                (unsigned long long)(R.next() & 0xffff));
  Tag = Buf;
  H.add(Tag);
  for (uint64_t I = 0; I != HashedRequests; ++I)
    H.add(int64_t(programAt(I)));
  Out.InputHash = H.value();
  return true;
}

void ServiceCold::submit(Service &S, uint64_t Req) {
  size_t Prog = programAt(Req);
  const ProgramSpec &P = Pool[Prog];
  Renamed Src = renameApart(P.Source, P.Entry, suffix(Req));
  ServiceRequest R;
  R.Source = std::move(Src.Source);
  R.Entry = std::move(Src.Entry);
  R.Engine = EngineKind::Vm;
  R.Config = PassConfig::perceusFull();
  R.Args = {Value::makeInt(P.TinyN)};
  Clock::time_point SentAt = Clock::now();
  S.submitWith(std::move(R), [this, Req, Prog, SentAt](ServiceResponse Resp) {
    Clock::time_point Now = Clock::now();
    {
      std::lock_guard<std::mutex> G(Mu);
      Finished.push_back({Req, Prog, SentAt, Now, std::move(Resp)});
    }
    Cv.notify_one();
  });
}

void ServiceCold::loop(Service &S, double Budget, uint64_t Count, Phase *Ph,
                       bool Traced) {
  Clock::time_point Start = Clock::now(), Mark = Start;
  uint64_t Stop = Next + Count;
  int Outstanding = 0;
  for (; Outstanding != InFlight && Next < Stop; ++Outstanding)
    submit(S, Next++);
  while (Outstanding > 0) {
    Done D;
    {
      std::unique_lock<std::mutex> G(Mu);
      Cv.wait(G, [&] { return !Finished.empty(); });
      D = std::move(Finished.front());
      Finished.pop_front();
    }
    --Outstanding;
    if (usBetween(Start, Clock::now()) < Budget * 1e6 && Next < Stop) {
      submit(S, Next++);
      ++Outstanding;
    }
    const ServiceResponse &Resp = D.Resp;
    size_t P = D.Prog;
    bool Ok = Resp.Executed && Resp.Reject == RejectKind::None &&
              Resp.Run.Ok && Resp.Run.Result.Int == Expected[P] &&
              Resp.HeapEmpty && !Resp.CacheHit;
    Ref.maybeSample(Clock::now());
    if (!Ph)
      continue;
    double RefUs = Ref.us(), Us = usBetween(Mark, D.At);
    Ph->elapse(Us, Us / RefUs);
    Mark = D.At;
    ++Out.Attempted;
    if (!Ok) {
      ++Out.Failed;
      continue;
    }
    Ph->complete();
    Us = usBetween(D.SentAt, D.At);
    Ph->latency(Us, Us / RefUs);
    // The worker's compile + run.
    Ph->call(P, Resp.RunSeconds * 1e6, Resp.RunSeconds * 1e6 / RefUs);
    Ph->peakBytes(P, double(Resp.Heap.PeakBytes));
    QueueMs.push_back(Resp.QueueSeconds * 1e3);
    RunMs.push_back(Resp.RunSeconds * 1e3);
    RetainedMax = std::max(RetainedMax, double(Resp.RetainedBytes));
    if (Traced) {
      auto Sec = [](double V) {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(V));
      };
      uint64_t Id = T.add("service.request", D.Req, 0, D.SentAt, D.At);
      Clock::time_point RunStart = D.At - Sec(Resp.RunSeconds);
      T.add("service.queue", D.Req, Id, RunStart - Sec(Resp.QueueSeconds),
            RunStart);
      T.add("service.run", D.Req, Id, RunStart, D.At);
    }
  }
}

Outcome ServiceCold::run() {
  if (!prepare()) {
    Out.Correct = false;
    return std::move(Out);
  }
  ServiceConfig Cfg = ServiceConfig{}
                          .withWorkers(Workers)
                          .withQueueCapacity(64)
                          .withMaxCacheBytes(CacheBudgetBytes);
  std::unique_ptr<Service> S;
  timeSetUps(
      O.Trace ? 1 : SetupReps, [&] { S.reset(); },
      [&] {
        S = std::make_unique<Service>(Cfg);
        loop(*S, 1e9, WarmupRequests, nullptr, false);
        return true;
      },
      Out.Setup);

  Phase Plain(Pool.size(), WindowSamples, O.Trace),
      TracedPh(Pool.size(), WindowSamples, true);
  Metrics &M = Out.M;
  if (!O.Trace) {
    loop(*S, O.Seconds, UINT64_MAX / 2, &Plain, false);
    // The pool starts with the Figure 9 programs, in the same order.
    reportEndToEnd(Out, Plain);
    return std::move(Out);
  }

  loop(*S, O.Seconds / 2, UINT64_MAX / 2, &Plain, false);
  QueueMs.clear();
  RunMs.clear();
  RetainedMax = 0;
  loop(*S, O.Seconds / 2, UINT64_MAX / 2, &TracedPh, true);
  ServiceStats St = S->stats();
  S.reset();

  // The compile split of the same seeded sources, outside the service.
  std::vector<std::unique_ptr<CompiledUnit>> Owned;
  std::vector<const CompiledUnit *> Units;
  for (int I = 0; I != CompileSplitSamples; ++I) {
    const ProgramSpec &P = Pool[programAt(uint64_t(I))];
    std::string Err;
    Owned.push_back(compileUnit(
        renameApart(P.Source, P.Entry, suffix(uint64_t(I))).Source, &T,
        OffStreamReq + uint64_t(I), Err));
    if (Owned.back())
      Units.push_back(Owned.back().get());
  }
  reportCompileLayers(Units, M);
  reportAbsolute(M, Plain, Ref);
  reportServiceLayers(M, QueueMs, RunMs, St, RetainedMax);
  // Relative to the reference, so a host slow-down between the halves
  // does not count as tracing overhead.
  Plain.closeWindow();
  TracedPh.closeWindow();
  double PlainP50 = Plain.latP50Ref(), TracedP50 = TracedPh.latP50Ref();
  M.set("trace.overhead_frac", PlainP50 > 0 ? TracedP50 / PlainP50 - 1 : 0,
        "frac");
  if (!O.TraceOut.empty() && !T.write(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
  return std::move(Out);
}

} // namespace

Outcome runServiceCold(const Options &O) { return ServiceCold(O).run(); }

} // namespace perfbench

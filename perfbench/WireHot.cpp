//===- perfbench/WireHot.cpp - Workload wire-hot ---------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// wire-v1 line-JSON over loopback to an in-process Server in front of a
/// one-shard ShardedService with one worker, on the VM. A wire request
/// names no source, so the server serves one source assembled from the
/// five Figure 9 programs, each renamed apart. Every request is a cache
/// hit at a size where engine time is comparable to framing, the event
/// loop, the queue and the hand-off, so net and service carry a large
/// share of each request and compile carries none.
///
/// Closed loop: Conns connections driven by one client thread, each
/// sending its next request when the reply arrives. The seed picks each
/// request's entry and size when it is sent; latency is also taken
/// relative to the host reference, sampled by the client thread.
/// wire-v1 responses carry no return value, so
/// each response is checked for run.ok, heap_empty, and heap/run stats
/// equal to an in-process run whose checksum matched the oracle.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "bytecode/VM.h"
#include "net/Server.h"
#include "net/ShardedService.h"
#include "runtime/Heap.h"
#include "support/JsonWriter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>

using namespace perceus;

namespace perfbench {
namespace {

/// Two connections: a few in flight, yet steady. A third put the p99 up
/// from about 1.9 to 2.5-3.0 ms and made it vary 19% between runs, as
/// each request then waits behind two others on the one worker.
constexpr int Conns = 2;
constexpr size_t WarmupRequests = 200;

/// Sizes where one request's engine time is roughly 13-70 µs (README.md).
/// Each program has one size or three: a program's time doubles per step
/// of n, so with two equally likely sizes the median fell in the gap
/// between them and jumped from one to the other between runs.
std::vector<int64_t> sizesFor(const std::string &Name) {
  if (Name == "rbtree" || Name == "rbtree-ck")
    return {16, 24, 32};
  if (Name == "deriv")
    return {4, 5, 6};
  if (Name == "nqueens")
    return {5};
  return {6, 7, 8}; // cfold
}

/// The stats a correct response must carry, from an in-process run.
struct ExpectedStats {
  bool Valid = false; ///< the in-process checksum matched the oracle
  double Steps, ReuseHits, ReuseMisses, Allocs, Frees, Dups, Drops, DecRefs,
      Peak;
};

struct Request {
  size_t Prog;
  int64_t N;
};

struct Conn {
  int Fd = -1;
  std::string Buf;
  bool Busy = false;
  uint64_t Id = 0;
  Request Req{};
  Clock::time_point SentAt;
};

int connectLoopback(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off != Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Off += size_t(N);
  }
  return true;
}

double num(const JsonValue *Obj, const char *Key) {
  const JsonValue *V = Obj ? Obj->find(Key, JsonValue::Kind::Number) : nullptr;
  return V ? V->Num : -1;
}

bool flag(const JsonValue *Obj, const char *Key) {
  const JsonValue *V = Obj ? Obj->find(Key, JsonValue::Kind::Bool) : nullptr;
  return V && V->B;
}

/// One server instance and its connected clients.
struct Rig {
  std::unique_ptr<ShardedService> SS;
  std::unique_ptr<Server> Srv;
  std::vector<Conn> Clients;

  ~Rig() {
    for (Conn &C : Clients)
      if (C.Fd >= 0)
        ::close(C.Fd);
    if (Srv)
      Srv->stop();
    if (SS)
      SS->stop();
  }
};

class WireHot {
public:
  explicit WireHot(const Options &O)
      : O(O), Progs(figure9Programs()), T(O.Trace) {}

  Outcome run();

  /// Request \p I of the seeded stream.
  Request requestAt(uint64_t I) const {
    Rng R = Rng::at(O.Seed, I);
    size_t P = R.next() % Progs.size();
    std::vector<int64_t> Sizes = sizesFor(Progs[P].Name);
    return {P, Sizes[R.next() % Sizes.size()]};
  }

private:
  bool prepare();
  bool setUp(Rig &R);
  /// Closed loop from Next until \p Budget seconds pass or \p Count
  /// requests are sent, then drains; records samples into \p Ph when
  /// given. False on a transport failure.
  bool loop(Rig &R, double Budget, uint64_t Count, Phase *Ph, bool Traced);
  void onReply(const Conn &C, const std::string &Line, Clock::time_point Now,
               Phase *Ph, bool Traced);

  const Options &O;
  const std::vector<ProgramSpec> &Progs;
  Tracer T;
  HostRef Ref;
  Outcome Out;
  std::string Merged;
  std::vector<std::string> Entries; ///< renamed entry per program
  uint64_t Next = 0;
  std::map<std::pair<size_t, int64_t>, ExpectedStats> Expected;
  std::vector<std::unique_ptr<CompiledUnit>> CompileUnits; ///< traced only

  // Service-layer samples of the traced run.
  std::vector<double> QueueMs, RunMs;
  double RetainedMax = 0;
};

bool WireHot::prepare() {
  InputHash H;
  for (size_t P = 0; P != Progs.size(); ++P) {
    Renamed R = renameApart(Progs[P].Source, Progs[P].Entry,
                            "_w" + std::to_string(P));
    Merged += R.Source;
    Entries.push_back(R.Entry);
  }
  H.add(Merged);
  for (uint64_t I = 0; I != HashedRequests; ++I) {
    Request Rq = requestAt(I);
    H.add(int64_t(Rq.Prog));
    H.add(Rq.N);
  }
  Out.InputHash = H.value();

  // Expected stats: every (program, size) once, in process, through the
  // same public layers, checked against the oracle.
  std::string Err;
  std::unique_ptr<CompiledUnit> U = compileUnit(Merged, nullptr, 0, Err);
  if (!U) {
    std::fprintf(stderr, "perfbench: merged source: %s\n", Err.c_str());
    return false;
  }
  Heap Hp(HeapMode::Rc);
  VM Machine(*U->Code, Hp);
  for (size_t P = 0; P != Progs.size(); ++P) {
    for (int64_t N : sizesFor(Progs[P].Name)) {
      HeapStats &HS = Hp.stats();
      HS.PeakBytes = HS.LiveBytes;
      HeapStats B = HS;
      RunResult R = Machine.run(U->function(Entries[P]), {Value::makeInt(N)});
      int64_t Want = Progs[P].Oracle(N) + (O.CorruptOracle && P == 0);
      ExpectedStats &E = Expected[{P, N}];
      E.Valid = R.Ok && R.Result.Int == Want && Hp.empty();
      E.Steps = double(R.Steps);
      E.ReuseHits = double(R.ReuseHits);
      E.ReuseMisses = double(R.ReuseMisses);
      E.Allocs = double(HS.Allocs - B.Allocs);
      E.Frees = double(HS.Frees - B.Frees);
      E.Dups = double(HS.DupOps - B.DupOps);
      E.Drops = double(HS.DropOps - B.DropOps);
      E.DecRefs = double(HS.DecRefOps - B.DecRefOps);
      E.Peak = double(HS.PeakBytes);
    }
  }
  if (O.Trace) {
    // The compile split of the served source, through the public layer
    // functions (the service's own compile is not observable from here).
    for (int Rep = 0; Rep != 5; ++Rep) {
      std::unique_ptr<CompiledUnit> C =
          compileUnit(Merged, &T, OffStreamReq + Rep, Err);
      if (C)
        CompileUnits.push_back(std::move(C));
    }
  }
  return true;
}

void WireHot::onReply(const Conn &C, const std::string &Line,
                      Clock::time_point Now, Phase *Ph, bool Traced) {
  const Request &Rq = C.Req;
  std::optional<JsonValue> Doc = parseJson(Line);
  const JsonValue *Svc =
      Doc ? Doc->find("service", JsonValue::Kind::Object) : nullptr;
  const JsonValue *Hp = Doc ? Doc->find("heap", JsonValue::Kind::Object)
                            : nullptr;
  const JsonValue *Run = Doc ? Doc->find("run", JsonValue::Kind::Object)
                             : nullptr;
  const JsonValue *Status =
      Svc ? Svc->find("status", JsonValue::Kind::String) : nullptr;
  const ExpectedStats &E = Expected[{Rq.Prog, Rq.N}];
  bool Ok = Status && Status->Str == "ok" && flag(Svc, "executed") &&
            flag(Svc, "cache_hit") && flag(Svc, "heap_empty") &&
            flag(Run, "ok") && E.Valid && num(Run, "steps") == E.Steps &&
            num(Run, "reuse_hits") == E.ReuseHits &&
            num(Run, "reuse_misses") == E.ReuseMisses &&
            num(Hp, "allocs") == E.Allocs && num(Hp, "frees") == E.Frees &&
            num(Hp, "dup_ops") == E.Dups && num(Hp, "drop_ops") == E.Drops &&
            num(Hp, "decref_ops") == E.DecRefs &&
            num(Hp, "peak_bytes") == E.Peak;
  if (!Ph)
    return;
  ++Out.Attempted;
  if (!Ok) {
    ++Out.Failed;
    return;
  }
  Ph->complete();
  double RefUs = Ref.us(), Us = usBetween(C.SentAt, Now);
  double Queue = num(Svc, "queue_ms"), RunT = num(Svc, "run_ms");
  Ph->latency(Us, Us / RefUs);
  Ph->call(Rq.Prog, RunT * 1e3, RunT * 1e3 / RefUs); // the worker's time
  Ph->peakBytes(Rq.Prog, num(Hp, "peak_bytes"));
  QueueMs.push_back(Queue);
  RunMs.push_back(RunT);
  RetainedMax = std::max(RetainedMax, num(Svc, "retained_bytes"));
  if (Traced) {
    // Children from the reported phases, placed before the reply; the
    // parent's self time is framing, event loop, hand-off and loopback.
    auto Ms = [](double V) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(V));
    };
    uint64_t Id = T.add("wire.request", C.Id, 0, C.SentAt, Now);
    Clock::time_point RunStart = Now - Ms(RunT);
    T.add("service.queue", C.Id, Id, RunStart - Ms(Queue), RunStart);
    T.add("service.run", C.Id, Id, RunStart, Now);
  }
}

bool WireHot::loop(Rig &R, double Budget, uint64_t Count, Phase *Ph,
                   bool Traced) {
  Clock::time_point Start = Clock::now(), LastReply = Start, Mark = Start;
  std::vector<pollfd> Fds(R.Clients.size());
  char Chunk[65536];
  uint64_t Stop = Next + Count;
  for (;;) {
    bool Sending = usBetween(Start, Clock::now()) < Budget * 1e6;
    bool AnyBusy = false;
    for (size_t I = 0; I != R.Clients.size(); ++I) {
      Conn &C = R.Clients[I];
      if (!C.Busy && Sending && Next < Stop) {
        C.Id = Next;
        C.Req = requestAt(Next++);
        std::string Frame = "{\"entry\":\"" + Entries[C.Req.Prog] +
                            "\",\"args\":[" + std::to_string(C.Req.N) +
                            "],\"engine\":\"vm\"}\n";
        C.Busy = true;
        C.SentAt = Clock::now();
        if (!sendAll(C.Fd, Frame))
          return false;
      }
      AnyBusy |= C.Busy;
      Fds[I] = {C.Fd, POLLIN, 0};
    }
    if (!AnyBusy)
      break;
    int N = ::poll(Fds.data(), Fds.size(), 1000);
    if (N < 0 && errno != EINTR)
      return false;
    if (N <= 0) {
      if (usBetween(LastReply, Clock::now()) > 30e6)
        return false; // the server stopped answering
      continue;
    }
    for (size_t I = 0; I != R.Clients.size(); ++I) {
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Conn &C = R.Clients[I];
      ssize_t Got = ::recv(C.Fd, Chunk, sizeof(Chunk), 0);
      if (Got <= 0)
        return false;
      Clock::time_point Now = Clock::now();
      LastReply = Now;
      if (Ph) {
        double Us = usBetween(Mark, Now);
        Ph->elapse(Us, Us / Ref.us());
        Mark = Now;
      }
      C.Buf.append(Chunk, size_t(Got));
      size_t Nl;
      while ((Nl = C.Buf.find('\n')) != std::string::npos) {
        std::string Line = C.Buf.substr(0, Nl);
        C.Buf.erase(0, Nl + 1);
        if (!C.Busy)
          return false; // a reply nobody asked for
        onReply(C, Line, Now, Ph, Traced);
        C.Busy = false;
      }
    }
    Ref.maybeSample(Clock::now());
  }
  return true;
}

bool WireHot::setUp(Rig &R) {
  FrontEndConfig FC;
  FC.withShards(1).withShard(
      ServiceConfig{}.withWorkers(1).withQueueCapacity(64));
  R.SS = std::make_unique<ShardedService>(FC);
  ServiceRequest Defaults;
  Defaults.Source = Merged;
  Defaults.Engine = EngineKind::Vm;
  Defaults.Config = PassConfig::perceusFull();
  std::string Err;
  if (!R.SS->precompile(Defaults.Tenant, Merged, Defaults.Config,
                        EngineKind::Vm, &Err)) {
    std::fprintf(stderr, "perfbench: precompile: %s\n", Err.c_str());
    return false;
  }
  R.Srv = std::make_unique<Server>(*R.SS, FC, Defaults);
  if (!R.Srv->listen("127.0.0.1:0", &Err) || !R.Srv->start()) {
    std::fprintf(stderr, "perfbench: listen: %s\n", Err.c_str());
    return false;
  }
  R.Clients.resize(Conns);
  for (Conn &C : R.Clients)
    if ((C.Fd = connectLoopback(R.Srv->port())) < 0)
      return false;
  // Warm-up: an unmeasured stretch of the closed loop.
  return loop(R, 1e9, WarmupRequests, nullptr, false);
}

Outcome WireHot::run() {
  if (!prepare()) {
    Out.Correct = false;
    return std::move(Out);
  }
  std::unique_ptr<Rig> R;
  if (!timeSetUps(
          O.Trace ? 1 : SetupReps, [&] { R.reset(); },
          [&] {
            R = std::make_unique<Rig>();
            return setUp(*R);
          },
          Out.Setup)) {
    Out.Correct = false;
    return std::move(Out);
  }

  auto Measure = [&](Phase &Ph, double Budget, bool Traced) {
    if (!loop(*R, Budget, UINT64_MAX / 2, &Ph, Traced)) {
      Out.Correct = false;
      ++Out.Failed;
    }
  };
  Phase Plain(Progs.size(), WindowSamples, O.Trace),
      TracedPh(Progs.size(), WindowSamples, true);
  Metrics &M = Out.M;
  if (!O.Trace) {
    Measure(Plain, O.Seconds, false);
    reportEndToEnd(Out, Plain);
    return std::move(Out);
  }

  Measure(Plain, O.Seconds / 2, false);
  QueueMs.clear();
  RunMs.clear();
  RetainedMax = 0;
  Measure(TracedPh, O.Seconds / 2, true);
  std::vector<const CompiledUnit *> Units;
  for (const auto &U : CompileUnits)
    Units.push_back(U.get());
  reportCompileLayers(Units, M);
  reportAbsolute(M, Plain, Ref);
  reportServiceLayers(M, QueueMs, RunMs, R->SS->stats(), RetainedMax);
  ServerStats NS = R->Srv->stats();
  M.set("net.wire_ms_p50", median(T.selfUs("wire.request")) / 1e3, "ms");
  M.set("net.bad_requests", double(NS.BadRequests), "count");
  M.set("net.dropped_responses", double(NS.DroppedResponses), "count");
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

Outcome runWireHot(const Options &O) { return WireHot(O).run(); }

} // namespace perfbench

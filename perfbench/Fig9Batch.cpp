//===- perfbench/Fig9Batch.cpp - Workload fig9-batch -----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 9 programs under the perceus configuration, on the
/// bytecode VM with the peephole tier, one thread. The benchmark composes
/// the public layers itself (compileUnit, then VM::run on a Heap); the
/// compile and one warm-up call per program count toward setup_s, and
/// only the entry calls after warm-up are timed.
///
/// The seed shuffles the call order of every round and draws each n from
/// a narrow band of eight sizes. nqueens, cfold and deriv grow by a large
/// factor per step of n, so their band is one size. Call times are also
/// taken relative to the host reference, sampled after every call.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "bytecode/VM.h"
#include "runtime/Heap.h"

#include <algorithm>
#include <map>

using namespace perceus;

namespace perfbench {
namespace {

/// Sizes at which one call takes 4-12 ms on the VM: well above the timer
/// and scheduler noise floor, yet a few hundred calls per process, on
/// heaps of at most a few MB.
struct Band {
  int64_t Lo, Step;
  int Count;
};

Band bandFor(const std::string &Name) {
  if (Name == "rbtree")
    return {2500, 5, 8};
  if (Name == "rbtree-ck")
    return {2000, 5, 8};
  if (Name == "deriv")
    return {20, 0, 1};
  if (Name == "nqueens")
    return {8, 0, 1};
  return {14, 0, 1}; // cfold
}

/// One program compiled and ready: its own heap and VM.
struct Loaded {
  std::unique_ptr<CompiledUnit> Unit;
  std::unique_ptr<Heap> H;
  std::unique_ptr<VM> Machine;
  FuncId Entry = InvalidId;
};

struct Call {
  size_t Prog;
  int64_t N;
};

/// Per-program counters of the traced calls.
struct LayerSamples {
  std::vector<double> Us, Steps, Fused, Allocs, RcOps, NonHeapRc, Peak;
  uint64_t ReuseHits = 0, ReuseMisses = 0;
};

class Fig9Batch {
public:
  explicit Fig9Batch(const Options &O)
      : O(O), Progs(figure9Programs()), T(O.Trace) {}

  Outcome run();

private:
  /// Call \p I of the seeded plan: round I / 5 shuffles the five
  /// programs and draws their sizes.
  Call callAt(uint64_t I) const;
  void prepare();
  bool setUp(std::vector<Loaded> &L, uint64_t Req);
  /// Runs plan calls from Cursor until \p Budget seconds pass.
  void timedPhase(std::vector<Loaded> &L, double Budget, bool Traced,
                  Phase &Ph, std::vector<LayerSamples> &S);
  bool execute(Loaded &P, size_t Prog, int64_t N, bool Traced,
               LayerSamples *S, double *Us);

  const Options &O;
  const std::vector<ProgramSpec> &Progs;
  Tracer T;
  HostRef Ref;
  Outcome Out;
  uint64_t Cursor = 0;
  std::map<std::pair<size_t, int64_t>, int64_t> Expected;
};

Call Fig9Batch::callAt(uint64_t I) const {
  Rng R = Rng::at(O.Seed, I / Progs.size());
  std::vector<size_t> Order(Progs.size());
  for (size_t K = 0; K != Order.size(); ++K)
    Order[K] = K;
  for (size_t K = Order.size(); K > 1; --K)
    std::swap(Order[K - 1], Order[R.next() % K]);
  Call C{};
  for (size_t K = 0; K <= I % Progs.size(); ++K) {
    Band B = bandFor(Progs[Order[K]].Name);
    C = {Order[K], B.Lo + B.Step * R.range(0, B.Count - 1)};
  }
  return C;
}

void Fig9Batch::prepare() {
  // The oracle for every size the plan can use, off the clock.
  for (size_t P = 0; P != Progs.size(); ++P) {
    Band B = bandFor(Progs[P].Name);
    for (int K = 0; K != B.Count; ++K) {
      int64_t N = B.Lo + B.Step * K;
      int64_t V = Progs[P].Oracle(N);
      if (O.CorruptOracle && P == 0)
        V += 1;
      Expected[{P, N}] = V;
    }
  }
  InputHash H;
  for (uint64_t I = 0; I != HashedRequests; ++I) {
    Call C = callAt(I);
    H.add(int64_t(C.Prog));
    H.add(C.N);
  }
  Out.InputHash = H.value();
}

bool Fig9Batch::execute(Loaded &P, size_t Prog, int64_t N, bool Traced,
                        LayerSamples *S, double *Us) {
  HeapStats &HS = P.H->stats();
  HS.PeakBytes = HS.LiveBytes;
  HeapStats Before = HS;
  Clock::time_point T0 = Clock::now();
  RunResult R = P.Machine->run(P.Entry, {Value::makeInt(N)});
  Clock::time_point T1 = Clock::now();
  if (Traced)
    T.add("vm.run", Cursor, 0, T0, T1);
  bool Ok = R.Ok && R.Result.Int == Expected[{Prog, N}] && P.H->empty();
  if (Us)
    *Us = usBetween(T0, T1);
  if (S) {
    S->Us.push_back(usBetween(T0, T1));
    S->Steps.push_back(double(R.Steps));
    S->Fused.push_back(double(R.Rc.FusedOps));
    S->Allocs.push_back(double(HS.Allocs - Before.Allocs));
    S->RcOps.push_back(double(HS.DupOps + HS.DropOps + HS.DecRefOps -
                              Before.DupOps - Before.DropOps -
                              Before.DecRefOps));
    S->NonHeapRc.push_back(double(HS.NonHeapRcOps - Before.NonHeapRcOps));
    S->Peak.push_back(double(HS.PeakBytes));
    S->ReuseHits += R.ReuseHits;
    S->ReuseMisses += R.ReuseMisses;
  }
  return Ok;
}

bool Fig9Batch::setUp(std::vector<Loaded> &L, uint64_t Req) {
  L.resize(Progs.size());
  for (size_t P = 0; P != Progs.size(); ++P) {
    std::string Err;
    L[P].Unit = compileUnit(Progs[P].Source, &T, Req, Err);
    if (!L[P].Unit) {
      std::fprintf(stderr, "perfbench: %s: %s\n", Progs[P].Name.c_str(),
                   Err.c_str());
      return false;
    }
    L[P].H = std::make_unique<Heap>(HeapMode::Rc);
    L[P].Machine = std::make_unique<VM>(*L[P].Unit->Code, *L[P].H);
    L[P].Entry = L[P].Unit->function(Progs[P].Entry);
    if (L[P].Entry == InvalidId ||
        !execute(L[P], P, bandFor(Progs[P].Name).Lo, false, nullptr,
                 nullptr))
      return false;
  }
  return true;
}

void Fig9Batch::timedPhase(std::vector<Loaded> &L, double Budget, bool Traced,
                           Phase &Ph, std::vector<LayerSamples> &S) {
  // Relative times are taken on the thread's CPU clock, which leaves out
  // time the host took the CPU away; the reference is too.
  Clock::time_point Start = Clock::now(), Mark = Start, CpuMark = cpuNow();
  while (usBetween(Start, Clock::now()) < Budget * 1e6) {
    Call C = callAt(Cursor);
    double Us = 0;
    ++Out.Attempted;
    Clock::time_point Cpu0 = cpuNow();
    bool Ok = execute(L[C.Prog], C.Prog, C.N, Traced,
                      Traced ? &S[C.Prog] : nullptr, &Us);
    double CpuUs = usBetween(Cpu0, cpuNow());
    Ref.sample();
    double RefUs = Ref.us(), Refs = CpuUs / RefUs;
    if (Ok) {
      Ph.complete();
      Ph.call(C.Prog, Us, Refs);
      Ph.latency(Us, Refs);
      // execute() starts each call's peak at the live bytes.
      Ph.peakBytes(C.Prog, double(L[C.Prog].H->stats().PeakBytes));
    } else {
      ++Out.Failed;
    }
    ++Cursor;
    Clock::time_point Now = Clock::now(), CpuNow = cpuNow();
    Ph.elapse(usBetween(Mark, Now), usBetween(CpuMark, CpuNow) / RefUs);
    Mark = Now;
    CpuMark = CpuNow;
  }
}

Outcome Fig9Batch::run() {
  prepare();
  std::vector<Loaded> L;
  if (!timeSetUps(
          O.Trace ? 1 : SetupReps, [&] { L.clear(); },
          [&] { return setUp(L, OffStreamReq); }, Out.Setup)) {
    Out.Correct = false;
    return std::move(Out);
  }

  // One window: a run holds a few thousand calls.
  Phase Plain(Progs.size(), 0, O.Trace), Traced(Progs.size(), 0, true);
  std::vector<LayerSamples> Layers(Progs.size());
  Metrics &M = Out.M;
  if (!O.Trace) {
    timedPhase(L, O.Seconds, false, Plain, Layers);
    reportEndToEnd(Out, Plain);
    return std::move(Out);
  }

  timedPhase(L, O.Seconds / 2, false, Plain, Layers);
  timedPhase(L, O.Seconds / 2, true, Traced, Layers);
  std::vector<const CompiledUnit *> Units;
  for (const Loaded &P : L)
    Units.push_back(P.Unit.get());
  reportCompileLayers(Units, M);
  reportAbsolute(M, Plain, Ref);
  UnitCosts C = measureUnitCosts();
  M.set("heap.alloc_free_ns", C.AllocFreeNs, "ns");
  M.set("heap.dup_drop_ns", C.DupDropNs, "ns");
  M.set("heap.shared_dup_drop_ns", C.SharedDupDropNs, "ns");
  M.set("vm.loop_ns_per_dispatch", C.DispatchNs, "ns");
  for (size_t P = 0; P != Progs.size(); ++P) {
    const std::string &Name = Progs[P].Name;
    const LayerSamples &S = Layers[P];
    double Us = median(S.Us), Steps = median(S.Steps);
    double Allocs = median(S.Allocs), RcOps = median(S.RcOps);
    M.set("perceus.static_rc_ops." + Name, double(L[P].Unit->StaticRcOps),
          "count");
    M.set("vm.dispatches." + Name, Steps, "count");
    M.set("vm.ns_per_dispatch." + Name, Steps ? Us * 1e3 / Steps : 0, "ns");
    M.set("vm.fused_ops." + Name, median(S.Fused), "count");
    M.set("heap.allocs." + Name, Allocs, "count");
    M.set("heap.rc_ops." + Name, RcOps, "count");
    M.set("heap.non_heap_rc_ops." + Name, median(S.NonHeapRc), "count");
    uint64_t Reuse = S.ReuseHits + S.ReuseMisses;
    M.set("heap.reuse_hit_ratio." + Name,
          Reuse ? double(S.ReuseHits) / double(Reuse) : 0, "frac");
    M.set("heap.peak_bytes." + Name, median(S.Peak), "bytes");
    // The ledger: dispatch, RC and allocation at their microloop unit
    // costs; the residual is the share of the call they do not explain.
    double LedgerNs = Steps * C.DispatchNs + RcOps * C.DupDropNs / 2 +
                      Allocs * C.AllocFreeNs;
    M.set("heap.ledger_residual." + Name,
          Us > 0 ? (Us * 1e3 - LedgerNs) / (Us * 1e3) : 0, "frac");
  }
  // Relative to the reference, so a host slow-down between the halves
  // does not count as tracing overhead.
  Plain.closeWindow();
  Traced.closeWindow();
  double PlainRef = 0, TracedRef = 0;
  for (size_t P = 0; P != Progs.size(); ++P) {
    PlainRef += Plain.progRef(P);
    TracedRef += Traced.progRef(P);
  }
  M.set("trace.overhead_frac", PlainRef > 0 ? TracedRef / PlainRef - 1 : 0,
        "frac");
  if (!O.TraceOut.empty() && !T.write(O.TraceOut))
    std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
  return std::move(Out);
}

} // namespace

Outcome runFig9Batch(const Options &O) { return Fig9Batch(O).run(); }

} // namespace perfbench

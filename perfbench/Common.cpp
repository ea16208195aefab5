//===- perfbench/Common.cpp - Shared pieces of the repository benchmark ----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "bytecode/Compiler.h"
#include "bytecode/VM.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Resolver.h"
#include "native/Native.h"
#include "programs/Programs.h"
#include "runtime/Heap.h"
#include "service/Service.h"
#include "support/JsonWriter.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_set>

#include <time.h>

using namespace perceus;

namespace perfbench {

//===--- Metrics ----------------------------------------------------------===//

void Metrics::set(const std::string &Name, double Value, const char *Unit) {
  if (!std::isfinite(Value))
    Value = 0;
  for (Entry &E : Entries)
    if (E.Name == Name) {
      E.Value = Value;
      E.Unit = Unit;
      return;
    }
  Entries.push_back({Name, Value, Unit});
}

std::string Metrics::json(bool Correct, uint64_t Attempted,
                          uint64_t Failed) const {
  JsonWriter W;
  W.beginObject()
      .member("correct", Correct)
      .member("attempted", Attempted)
      .member("failed", Failed);
  W.key("metrics").beginObject();
  for (const Entry &E : Entries) {
    W.key(E.Name).beginObject().member("value", E.Value).member("unit",
                                                                E.Unit);
    W.endObject();
  }
  W.endObject().endObject();
  return W.take();
}

//===--- Tracer -----------------------------------------------------------===//

uint64_t Tracer::add(const char *Name, uint64_t Req, uint64_t Parent,
                     Clock::time_point Start, Clock::time_point End) {
  if (!Enabled)
    return 0;
  Spans.push_back({Name, Req, Parent, usBetween(Epoch, Start),
                   usBetween(Epoch, End)});
  return Spans.size();
}

std::vector<double> Tracer::selfUs(std::string_view Name) const {
  std::vector<double> Covered(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent != 0)
      Covered[S.Parent - 1] += S.EndUs - S.StartUs;
  std::vector<double> Out;
  for (size_t I = 0; I != Spans.size(); ++I)
    if (Name == Spans[I].Name)
      Out.push_back(
          std::max(0.0, Spans[I].EndUs - Spans[I].StartUs - Covered[I]));
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"schema\":\"perfbench-trace-v1\",\"spans\":[");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"id\":%zu,\"parent\":%llu,\"req\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}",
                 I ? "," : "", I + 1, (unsigned long long)S.Parent,
                 (unsigned long long)S.Req, S.Name, S.StartUs, S.EndUs);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

//===--- Statistics -------------------------------------------------------===//

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(std::ceil(P * double(V.size())));
  return V[std::min(V.size() - 1, I == 0 ? 0 : I - 1)];
}

void InputHash::add(std::string_view S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  add(int64_t(S.size()));
}

void InputHash::add(int64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= uint64_t(V >> (8 * I)) & 0xff;
    H *= 1099511628211ull;
  }
}

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

//===--- The host reference -----------------------------------------------===//

namespace {

constexpr int64_t HostRefN = 1000;
constexpr double HostRefIntervalUs = 10000;
/// us() is the median of this many latest samples.
constexpr size_t HostRefWindow = 5;

} // namespace

HostRef::HostRef() {
  for (size_t I = 0; I != HostRefWindow; ++I)
    sample();
}

void HostRef::sample() {
  Clock::time_point T0 = cpuNow();
  volatile int64_t Sink = native::rbtree(HostRefN);
  (void)Sink;
  All.push_back(usBetween(T0, cpuNow()));
  Last = Clock::now();
}

void HostRef::maybeSample(Clock::time_point Now) {
  if (usBetween(Last, Now) >= HostRefIntervalUs)
    sample();
}

double HostRef::us() const {
  return median(std::vector<double>(All.end() - HostRefWindow, All.end()));
}

//===--- Set-up time ------------------------------------------------------===//

bool timeSetUps(int Reps, const std::function<void()> &Drop,
                const std::function<bool()> &Build, SetupTimes &Out) {
  HostRef R;
  for (int I = 0; I != Reps; ++I) {
    Drop();
    Clock::time_point T0 = Clock::now();
    if (!Build())
      return false;
    Out.WallS.push_back(usBetween(T0, Clock::now()) / 1e6);
    for (int K = 0; K != 3; ++K)
      R.sample();
  }
  Out.RefUs = R.medianUs();
  return true;
}

//===--- Oracles ----------------------------------------------------------===//
//
// Each checks a program's result without the parser, passes or engines
// under test: bench/native where a C++ version exists, otherwise a small
// reference or a closed form written here.

namespace {

/// rbtree-ck keeps every 5th tree alive, but its checksum is the count
/// of true values in the final tree: keys 0..n-1, value "key % 10 == 0".
/// The retained trees change sharing and memory, never the result.
int64_t rbtreeCkReference(int64_t N) {
  std::map<int64_t, bool> T;
  for (int64_t I = 0; I < N; ++I)
    T[I] = I % 10 == 0;
  int64_t Count = 0;
  for (const auto &KV : T)
    Count += KV.second;
  return Count;
}

/// mapsum: sum of (i + 1) for i in n..1.
int64_t mapSumClosedForm(int64_t N) { return N * (N + 1) / 2 + N; }

/// examples/programs/shared_tree.perc: n rounds over a depth-8 tree whose
/// node at path x and depth d holds x + d.
int64_t sharedTreeSum(int64_t D, int64_t X) {
  return D == 0 ? 0
                : sharedTreeSum(D - 1, X * 2) + (X + D) +
                      sharedTreeSum(D - 1, X * 2 + 1);
}

std::string readFile(const std::string &Path, bool &Ok) {
  std::ifstream In(Path);
  Ok = bool(In);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

const std::vector<ProgramSpec> &figure9Programs() {
  static const std::vector<ProgramSpec> Progs = {
      {"rbtree", rbtreeSource(), "bench_rbtree", native::rbtree, 60},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", rbtreeCkReference,
       60},
      {"deriv", derivSource(), "bench_deriv", native::deriv, 3},
      {"nqueens", nqueensSource(), "bench_nqueens", native::nqueens, 5},
      {"cfold", cfoldSource(), "bench_cfold", native::cfold, 5},
  };
  return Progs;
}

bool builtinPrograms(const std::string &Root, std::vector<ProgramSpec> &Out,
                     std::string &Err) {
  Out = figure9Programs();
  Out.push_back({"msort", msortSource(), "bench_msort", native::msort, 40});
  Out.push_back({"queue", queueSource(), "bench_queue", native::queue, 40});
  Out.push_back({"tmap", tmapSource(), "bench_tmap_fbip", native::tmapMorris,
                 4});
  Out.push_back({"mapsum", mapSumSource(), "bench_mapsum", mapSumClosedForm,
                 40});
  struct Example {
    const char *Name, *File;
    std::function<int64_t(int64_t)> Oracle;
    int64_t TinyN;
  };
  const Example Examples[] = {
      {"ex-hello", "hello.perc", [](int64_t N) { return N; }, 4},
      {"ex-msort", "msort.perc", native::msort, 24},
      {"ex-nqueens", "nqueens.perc", native::nqueens, 5},
      {"ex-rbtree", "rbtree.perc", native::rbtree, 60},
      {"ex-shared-tree", "shared_tree.perc",
       [](int64_t N) { return N * sharedTreeSum(8, 1); }, 2},
  };
  for (const Example &E : Examples) {
    std::string Path = Root + "/examples/programs/" + E.File;
    bool Ok = false;
    std::string Src = readFile(Path, Ok);
    if (!Ok) {
      Err = "cannot read " + Path;
      return false;
    }
    Out.push_back({E.Name, std::move(Src), "main", E.Oracle, E.TinyN});
  }
  return true;
}

//===--- Renamer ----------------------------------------------------------===//
//
// Over lang/Lexer's tokens. Declared names are the identifier after `fun`
// or `type` and every constructor; every occurrence of a declared name is
// renamed, so locals that shadow one stay consistent. The text between
// tokens (space, comments) is copied as it is.

Renamed renameApart(std::string_view Source, std::string_view Entry,
                    std::string_view Suffix) {
  DiagnosticEngine Diags;
  std::vector<Token> Toks = lex(Source, Diags);
  auto Named = [](const Token &T) {
    return T.Kind == TokKind::Ident || T.Kind == TokKind::CtorIdent;
  };
  std::unordered_set<std::string_view> Declared;
  TokKind Prev = TokKind::Eof;
  for (const Token &T : Toks) {
    if (T.Kind == TokKind::CtorIdent ||
        (Named(T) && (Prev == TokKind::KwFun || Prev == TokKind::KwType)))
      Declared.insert(T.Text);
    Prev = T.Kind;
  }
  Renamed R;
  R.Source.reserve(Source.size() + Source.size() / 4);
  size_t Copied = 0;
  for (const Token &T : Toks) {
    if (!Named(T) || !Declared.count(T.Text))
      continue;
    size_t End = size_t(T.Text.data() - Source.data()) + T.Text.size();
    R.Source.append(Source.substr(Copied, End - Copied));
    R.Source.append(Suffix);
    Copied = End;
  }
  R.Source.append(Source.substr(Copied));
  R.Entry = std::string(Entry);
  if (Declared.count(Entry))
    R.Entry.append(Suffix);
  return R;
}

//===--- The compile layers -----------------------------------------------===//

FuncId CompiledUnit::function(std::string_view Name) const {
  return Prog->findFunction(Prog->symbols().intern(Name));
}

namespace {

uint64_t countInstrs(const CompiledProgram &CP) {
  uint64_t N = 0;
  for (const Chunk &C : CP.Funcs)
    N += C.Code.size();
  for (const Chunk &C : CP.Lams)
    N += C.Code.size();
  return N;
}

} // namespace

std::unique_ptr<CompiledUnit> compileUnit(std::string Source, Tracer *T,
                                          uint64_t Req, std::string &Err) {
  auto U = std::make_unique<CompiledUnit>();
  U->Source = std::move(Source);
  U->Prog = std::make_unique<Program>();
  DiagnosticEngine Diags;
  auto Span = [&](const char *Name, Clock::time_point A, Clock::time_point B) {
    if (T)
      T->add(Name, Req, 0, A, B);
    return usBetween(A, B);
  };

  Clock::time_point T0 = Clock::now();
  SModule M = parseModule(U->Source, Diags);
  Clock::time_point T1 = Clock::now();
  U->ParseUs = Span("lang.parse", T0, T1);
  if (Diags.hasErrors() || !resolveModule(M, *U->Prog, Diags)) {
    Err = Diags.str();
    return nullptr;
  }
  Clock::time_point T2 = Clock::now();
  U->ResolveUs = Span("lang.resolve", T1, T2);
  runPipeline(*U->Prog, PassConfig::perceusFull());
  Clock::time_point T3 = Clock::now();
  U->PipelineUs = Span("perceus.pipeline", T2, T3);
  U->StaticRcOps = countIrOps(*U->Prog).rcTotal();
  Clock::time_point T4 = Clock::now();
  U->Layout.emplace(layoutProgram(*U->Prog));
  Clock::time_point T5 = Clock::now();
  U->LayoutUs = Span("layout", T4, T5);
  U->Code.emplace(compileProgram(*U->Prog, *U->Layout));
  Clock::time_point T6 = Clock::now();
  U->CompileUs = Span("bytecode.compile", T5, T6);
  U->BytecodeInstrs = countInstrs(*U->Code);
  Clock::time_point T7 = Clock::now();
  U->Peep = runPeephole(*U->Code);
  Clock::time_point T8 = Clock::now();
  U->PeepholeUs = Span("peephole", T7, T8);
  U->PeepholeInstrs = countInstrs(*U->Code);
  return U;
}

void reportCompileLayers(const std::vector<const CompiledUnit *> &Units,
                         Metrics &M) {
  auto Med = [&](auto Get) {
    std::vector<double> V;
    for (const CompiledUnit *U : Units)
      V.push_back(double(Get(*U)));
    return median(V);
  };
  M.set("lang.parse_us", Med([](auto &U) { return U.ParseUs; }), "us");
  M.set("lang.resolve_us", Med([](auto &U) { return U.ResolveUs; }), "us");
  M.set("perceus.pipeline_us", Med([](auto &U) { return U.PipelineUs; }),
        "us");
  M.set("layout.us", Med([](auto &U) { return U.LayoutUs; }), "us");
  M.set("bytecode.compile_us", Med([](auto &U) { return U.CompileUs; }),
        "us");
  M.set("bytecode.instrs", Med([](auto &U) { return U.BytecodeInstrs; }),
        "count");
  M.set("peephole.us", Med([](auto &U) { return U.PeepholeUs; }), "us");
  M.set("peephole.instrs", Med([](auto &U) { return U.PeepholeInstrs; }),
        "count");
  M.set("peephole.fused", Med([](auto &U) { return U.Peep.totalFused(); }),
        "count");
  M.set("peephole.elided", Med([](auto &U) { return U.Peep.totalElided(); }),
        "count");
}

//===--- Reports shared by the workloads ----------------------------------===//

namespace {

/// VmHWM, not getrusage: ru_maxrss survives execve, so it would report
/// the parent's peak whenever that is larger.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

} // namespace

namespace {

/// A window needs this many latency samples to be kept.
constexpr size_t MinWindowSamples = 20;

} // namespace

Phase::Phase(size_t Progs, size_t WindowLen, bool KeepAbsolute)
    : ProgPeakBytes(Progs), ProgUs(Progs), WindowLen(WindowLen),
      KeepAbsolute(KeepAbsolute), WinProg(Progs), ProgRef(Progs) {}

void Phase::call(size_t Prog, double Us, double Refs) {
  WinProg[Prog].push_back(Refs);
  if (KeepAbsolute)
    ProgUs[Prog].push_back(Us);
}

void Phase::latency(double Us, double Refs) {
  WinLat.push_back(Refs);
  if (KeepAbsolute)
    LatUs.push_back(Us);
  if (WinLat.size() == WindowLen)
    closeWindow();
}

void Phase::closeWindow() {
  if (WinLat.size() < MinWindowSamples)
    return; // too few to say anything; it joins the next window
  LatSamples += WinLat.size();
  LatP50Ref.push_back(percentile(WinLat, 0.50));
  LatP99Ref.push_back(percentile(WinLat, 0.99));
  RateRef.push_back(WinRefs > 0 ? double(WinCompleted) / WinRefs : 0);
  for (size_t P = 0; P != WinProg.size(); ++P) {
    if (!WinProg[P].empty())
      ProgRef[P].push_back(median(WinProg[P]));
    WinProg[P].clear();
  }
  WinLat.clear();
  WinCompleted = 0;
  WinRefs = 0;
}

void reportEndToEnd(Outcome &Out, Phase &P) {
  P.closeWindow();
  Out.LatSamples = P.LatSamples;
  Out.Windows = P.windows();
  Metrics &M = Out.M;
  M.set("setup_s", Out.Setup.scaledS(), "s");
  const std::vector<ProgramSpec> &Fig9 = figure9Programs();
  double PeakSum = 0;
  for (size_t I = 0; I != Fig9.size(); ++I) {
    M.set("run_ref." + Fig9[I].Name, P.progRef(I), "ref");
    PeakSum += P.ProgPeakBytes[I];
  }
  M.set("heap_peak_mb", PeakSum / 1048576.0, "MB");
  M.set("peak_rss_mb", peakRssMb(), "MB");
  M.set("req_per_ref", P.rateRef(), "1/ref");
  M.set("latency_p50_ref", P.latP50Ref(), "ref");
  M.set("latency_p99_ref", P.latP99Ref(), "ref");
}

void reportAbsolute(Metrics &M, const Phase &P, const HostRef &H) {
  const std::vector<ProgramSpec> &Fig9 = figure9Programs();
  for (size_t I = 0; I != Fig9.size(); ++I)
    M.set("run_s." + Fig9[I].Name, median(P.ProgUs[I]) / 1e6, "s");
  M.set("req_per_s", P.Seconds > 0 ? double(P.Completed) / P.Seconds : 0,
        "1/s");
  M.set("latency_p50_ms", percentile(P.LatUs, 0.50) / 1e3, "ms");
  M.set("latency_p99_ms", percentile(P.LatUs, 0.99) / 1e3, "ms");
  M.set("host.ref_us", H.medianUs(), "us");
}

void reportServiceLayers(Metrics &M, const std::vector<double> &QueueMs,
                         const std::vector<double> &RunMs,
                         const ServiceStats &S, double RetainedMax) {
  M.set("service.queue_ms_p50", median(QueueMs), "ms");
  M.set("service.run_ms_p50", median(RunMs), "ms");
  uint64_t Lookups = S.CacheHits + S.CacheCompiles;
  M.set("service.cache_hit_ratio",
        Lookups ? double(S.CacheHits) / double(Lookups) : 0, "frac");
  M.set("service.compiles", double(S.CacheCompiles), "count");
  M.set("service.evictions", double(S.CacheEvictions), "count");
  M.set("service.retained_bytes_max", RetainedMax, "bytes");
}

//===--- Unit costs and host calibration ----------------------------------===//

namespace {

template <typename F> double medianNsPerOp(uint64_t Ops, F Body) {
  std::vector<double> Ns;
  for (int Rep = 0; Rep != 5; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Body();
    Ns.push_back(usBetween(T0, Clock::now()) * 1e3 / double(Ops));
  }
  return median(Ns);
}

} // namespace

UnitCosts measureUnitCosts() {
  constexpr uint64_t N = 1'000'000;
  UnitCosts U;
  Heap H;
  U.AllocFreeNs = medianNsPerOp(N, [&] {
    for (uint64_t I = 0; I != N; ++I) {
      Cell *C = H.alloc(2, 0, CellKind::Ctor);
      C->fields()[0] = Value::makeInt(int64_t(I));
      C->fields()[1] = Value::unit();
      H.drop(Value::makeRef(C));
    }
  });
  auto DupDrop = [&](bool Shared) {
    Cell *C = H.alloc(2, 0, CellKind::Ctor);
    C->fields()[0] = Value::makeInt(1);
    C->fields()[1] = Value::unit();
    Value V = Value::makeRef(C);
    if (Shared)
      H.markShared(V);
    double Ns = medianNsPerOp(N, [&] {
      for (uint64_t I = 0; I != N; ++I) {
        H.dup(V);
        H.drop(V);
      }
    });
    H.drop(V);
    return Ns;
  };
  U.DupDropNs = DupDrop(false);
  U.SharedDupDropNs = DupDrop(true);

  // A tail-recursive integer loop: every operand is an immediate, so the
  // peephole tier leaves no heap work and the time is pure dispatch.
  std::string Err;
  std::unique_ptr<CompiledUnit> Loop = compileUnit(
      "fun spin(i, n, acc) { if i >= n then acc else spin(i + 1, n, acc + i) }",
      nullptr, 0, Err);
  if (Loop) {
    Heap LH;
    VM Machine(*Loop->Code, LH);
    FuncId F = Loop->function("spin");
    std::vector<double> Ns;
    for (int Rep = 0; Rep != 5; ++Rep) {
      Clock::time_point T0 = Clock::now();
      RunResult R = Machine.run(
          F, {Value::makeInt(0), Value::makeInt(int64_t(N)), Value::makeInt(0)});
      double Us = usBetween(T0, Clock::now());
      if (R.Ok && R.Steps)
        Ns.push_back(Us * 1e3 / double(R.Steps));
    }
    U.DispatchNs = median(Ns);
  }
  return U;
}

Clock::time_point cpuNow() {
  timespec TS{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::seconds(TS.tv_sec) + std::chrono::nanoseconds(TS.tv_nsec)));
}

double spinNsPerIter() {
  constexpr uint64_t N = 20'000'000;
  uint64_t X = 1;
  Clock::time_point T0 = Clock::now();
  for (uint64_t I = 0; I != N; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(X));
  }
  return usBetween(T0, Clock::now()) * 1e3 / double(N);
}

} // namespace perfbench

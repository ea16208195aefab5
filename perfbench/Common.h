//===- perfbench/Common.h - Shared pieces of the repository benchmark ------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the metric sink, the in-memory span
/// tracer, the host reference, the seeded source renamer, the program
/// table with its compiler-independent oracles, the layer-by-layer
/// compile, and the unit-cost microloops of the heap ledger. Everything
/// here calls the public functions of the layers; nothing reaches inside
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_PERFBENCH_COMMON_H
#define PERCEUS_PERFBENCH_COMMON_H

#include "bytecode/Bytecode.h"
#include "bytecode/Peephole.h"
#include "eval/Layout.h"
#include "ir/Program.h"
#include "perceus/Pipeline.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perceus {
struct ServiceStats;
} // namespace perceus

namespace perfbench {

using perceus::CompiledProgram;
using perceus::FuncId;
using perceus::PeepholeReport;
using perceus::Program;
using perceus::ProgramLayout;
using Clock = std::chrono::steady_clock;

inline double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Root = ".";  ///< checkout root (examples/programs lives here)
  std::string TraceOut;    ///< where the traced run writes its spans
  bool CorruptOracle = false; ///< self-test: one expected value is wrong
};

/// Named metrics in report order, each with its unit.
class Metrics {
public:
  void set(const std::string &Name, double Value, const char *Unit);
  /// The result object: {"correct","attempted","failed","metrics"}.
  std::string json(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  struct Entry {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Entry> Entries;
};

//===--- Tracing ----------------------------------------------------------===//

/// Spans recorded at the benchmark-side layer boundaries, kept in memory
/// and written when the run ends. A disabled tracer records nothing and
/// reads no clock. Single-threaded: callers record from one thread.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  /// Records a finished span; returns its id (0 when disabled). Spans of
  /// one request share \p Req; \p Parent is the causing span's id.
  uint64_t add(const char *Name, uint64_t Req, uint64_t Parent,
               Clock::time_point Start, Clock::time_point End);

  /// Self time (µs) of every span named \p Name: its duration minus what
  /// its child spans cover (children never overlap here).
  std::vector<double> selfUs(std::string_view Name) const;

  /// Writes the spans as one JSON document; false when it cannot.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    uint64_t Req, Parent;
    double StartUs, EndUs;
  };
  bool Enabled;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

//===--- Statistics -------------------------------------------------------===//

/// Nearest-rank percentile of \p V (0 when empty); sorts a copy.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

/// FNV-1a, folded over every generated input of a workload so two runs
/// can be shown to use identical inputs.
class InputHash {
public:
  void add(std::string_view S);
  void add(int64_t V);
  uint64_t value() const { return H; }

private:
  uint64_t H = 1469598103934665603ull;
};

/// SplitMix64: the benchmark's only source of randomness.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  /// The stream of item \p I of the run seeded with \p Seed. Workloads
  /// draw request I from it when they send it, so they keep no plan.
  static Rng at(uint64_t Seed, uint64_t I) {
    return Rng(Seed ^ (I * 0xd1b54a32d192ed03ull));
  }
  uint64_t next();
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + int64_t(next() % uint64_t(Hi - Lo + 1));
  }

private:
  uint64_t S;
};

/// How many leading requests of its seeded stream a workload hashes into
/// its input hash: more than any run sends.
constexpr uint64_t HashedRequests = 1u << 20;

/// Request ids of spans outside the request stream (set-up, compile
/// split) start here.
constexpr uint64_t OffStreamReq = 1ull << 40;

//===--- The host reference -----------------------------------------------===//

/// The CPU time of a fixed native C++ program (bench/native's rbtree at
/// n = 1000), sampled in the measuring thread after every call or every
/// few milliseconds. The host this benchmark runs on has stretches of
/// seconds in which every thread is about 1.6x slower; the reference
/// slows with them, so a time divided by it is steady where the time
/// itself is not (README.md).
class HostRef {
public:
  HostRef();
  /// Times the reference once.
  void sample();
  /// Samples when the last sample is older than the interval.
  void maybeSample(Clock::time_point Now);
  /// Median of the latest samples, in µs.
  double us() const;
  /// Median of every sample so far, in µs.
  double medianUs() const { return median(All); }

private:
  std::vector<double> All;
  Clock::time_point Last;
};

//===--- Set-up time ------------------------------------------------------===//

/// How many times an untraced process sets its workload up from scratch.
constexpr int SetupReps = 5;

/// The host reference's time on a quiet host, in µs: setup_s is the set-up
/// time scaled to a host on which the reference takes this long.
constexpr double NominalRefUs = 75;

/// The set-ups of one process.
struct SetupTimes {
  std::vector<double> WallS; ///< one per set-up
  double RefUs = 0;          ///< median reference around the set-ups
  /// The median set-up, scaled to the nominal host (README.md).
  double scaledS() const { return median(WallS) * NominalRefUs / RefUs; }
};

/// Sets the workload up \p Reps times: \p Drop (untimed) discards the
/// previous state, \p Build (timed on the wall clock) makes it afresh. The
/// host reference is sampled before the first build and after each. False
/// as soon as a build fails.
bool timeSetUps(int Reps, const std::function<void()> &Drop,
                const std::function<bool()> &Build, SetupTimes &Out);

/// What a workload hands back to main.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t InputHash = 0;
  uint64_t LatSamples = 0; ///< behind the latency metrics (--trace 0)
  size_t Windows = 0;
  SetupTimes Setup;
  Metrics M;
};

//===--- Programs and oracles ---------------------------------------------===//

/// One program the workloads run: its source, entry point, the
/// reference that checks its result without the compiler under test,
/// and the input sizes each workload uses.
struct ProgramSpec {
  std::string Name;
  std::string Source;
  std::string Entry;
  std::function<int64_t(int64_t)> Oracle;
  int64_t TinyN = 1; ///< service-cold: compile dominates
};

/// The five Figure 9 programs, in the paper's column order.
const std::vector<ProgramSpec> &figure9Programs();

/// Every built-in program: the Figure 9 five, the other programs of
/// programs/Programs.h, and examples/programs/*.perc under \p Root.
/// Returns false (with \p Err) when an example file is missing.
bool builtinPrograms(const std::string &Root, std::vector<ProgramSpec> &Out,
                     std::string &Err);

/// A source with every top-level name (function, type, constructor)
/// renamed apart by appending \p Suffix; \p Entry is the renamed entry.
struct Renamed {
  std::string Source;
  std::string Entry;
};
Renamed renameApart(std::string_view Source, std::string_view Entry,
                    std::string_view Suffix);

//===--- The compile layers -----------------------------------------------===//

/// One program compiled through the public layer functions, each call
/// timed: parseModule, resolveModule, runPipeline (perceus), layout,
/// compileProgram, runPeephole. Held by pointer: the bytecode refers to
/// the program and layout in place.
struct CompiledUnit {
  std::string Source;
  std::unique_ptr<Program> Prog;
  std::optional<ProgramLayout> Layout;
  std::optional<CompiledProgram> Code;
  PeepholeReport Peep;
  uint64_t StaticRcOps = 0;  ///< countIrOps().rcTotal() after the pipeline
  uint64_t BytecodeInstrs = 0, PeepholeInstrs = 0;
  double ParseUs = 0, ResolveUs = 0, PipelineUs = 0, LayoutUs = 0,
         CompileUs = 0, PeepholeUs = 0;

  FuncId function(std::string_view Name) const;
};

/// Compiles \p Source; null with \p Err on a compile error. When \p T is
/// enabled, records one span per layer call under request \p Req.
std::unique_ptr<CompiledUnit> compileUnit(std::string Source, Tracer *T,
                                          uint64_t Req, std::string &Err);

/// Adds the per-compile layer metrics (medians over \p Units) to \p M.
void reportCompileLayers(const std::vector<const CompiledUnit *> &Units,
                         Metrics &M);

//===--- Reports shared by the workloads ----------------------------------===//

/// Latency samples per window: p99 then has ten samples beyond it.
constexpr size_t WindowSamples = 1000;

/// The samples of one measured phase. Times relative to the host
/// reference ("refs") are summarised per window: each closed window keeps
/// its latency p50 and p99, its completion rate and its median call time
/// per program, and the end-to-end metrics are medians over windows. So a
/// stall of the host spoils a few windows, not the run. A phase whose
/// window is 0 samples long is one window. Absolute times are kept per
/// sample only for the traced run's per-layer report. Per-program vectors
/// are indexed like the workload's program table, which starts with
/// figure9Programs().
class Phase {
public:
  Phase(size_t Progs, size_t WindowLen, bool KeepAbsolute);

  /// One entry call of program \p Prog: \p Us wall time, \p Refs relative.
  void call(size_t Prog, double Us, double Refs);
  /// One latency sample; closes the window when it is full.
  void latency(double Us, double Refs);
  void complete() { ++Completed, ++WinCompleted; }
  /// Elapsed time: \p Us of wall time, \p Refs relative.
  void elapse(double Us, double Refs) {
    Seconds += Us / 1e6;
    WinRefs += Refs;
  }
  void peakBytes(size_t Prog, double Bytes) {
    ProgPeakBytes[Prog] = std::max(ProgPeakBytes[Prog], Bytes);
  }
  /// Closes the open window (kept only if it holds enough samples).
  void closeWindow();

  /// Medians over the closed windows.
  double progRef(size_t Prog) const { return median(ProgRef[Prog]); }
  double latP50Ref() const { return median(LatP50Ref); }
  double latP99Ref() const { return median(LatP99Ref); }
  double rateRef() const { return median(RateRef); }
  size_t windows() const { return RateRef.size(); }

  std::vector<double> ProgPeakBytes; ///< largest heap peak per program
  uint64_t Completed = 0;            ///< operations verified OK
  uint64_t LatSamples = 0;           ///< in closed windows
  double Seconds = 0;                ///< elapsed wall time
  /// Absolute samples (traced run only).
  std::vector<std::vector<double>> ProgUs;
  std::vector<double> LatUs;

private:
  size_t WindowLen;
  bool KeepAbsolute;
  std::vector<std::vector<double>> WinProg;
  std::vector<double> WinLat;
  uint64_t WinCompleted = 0;
  double WinRefs = 0;
  std::vector<std::vector<double>> ProgRef;
  std::vector<double> LatP50Ref, LatP99Ref, RateRef;
};

/// The end-to-end metrics (README.md): the median set-up time and the
/// phase's reference-relative medians, with their sample counts. Closes
/// the open window.
void reportEndToEnd(Outcome &Out, Phase &P);

/// The absolute times of \p P and the reference itself, as per-layer
/// metrics of a traced run.
void reportAbsolute(Metrics &M, const Phase &P, const HostRef &H);

/// The service-layer metrics: per-response queue and run times, and the
/// service's own counters.
void reportServiceLayers(Metrics &M, const std::vector<double> &QueueMs,
                         const std::vector<double> &RunMs,
                         const perceus::ServiceStats &S, double RetainedMax);

//===--- Unit costs and host calibration ----------------------------------===//

/// Unit costs of the heap ledger, from microloops over Heap's public
/// alloc, dup and drop, and of one VM dispatch, from a heap-free loop.
struct UnitCosts {
  double AllocFreeNs = 0;     ///< alloc + free of one 2-field cell
  double DupDropNs = 0;       ///< dup + drop of a thread-local cell
  double SharedDupDropNs = 0; ///< dup + drop of a thread-shared cell
  double DispatchNs = 0;      ///< one VM dispatch with no heap work
};
UnitCosts measureUnitCosts();

/// The calling thread's CPU time. With steal-time accounting in the
/// guest kernel it leaves out time the hypervisor ran something else.
Clock::time_point cpuNow();

/// One-thread spin loop, ns per iteration: shows a noisy neighbour.
double spinNsPerIter();


//===--- The workloads (one file each) ------------------------------------===//

Outcome runFig9Batch(const Options &O);
Outcome runWireHot(const Options &O);
Outcome runServiceCold(const Options &O);

} // namespace perfbench

#endif // PERCEUS_PERFBENCH_COMMON_H

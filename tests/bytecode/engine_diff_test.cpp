//===- tests/bytecode/engine_diff_test.cpp - The VM against frozen runs --===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing of the bytecode VM's two tiers against a frozen
/// reference: every benchmark program under every pass configuration
/// runs on the raw VM and on the peephole VM, and everything observable
/// must equal a golden row — results (structural checksums for heap
/// values), println output, trap and message, the unfused RC
/// instruction counts, the heap's own statistics, reuse hits/misses,
/// and the garbage-free guarantee (Heap::empty() after the run). The
/// goldens were captured from runs on which the retired CEK tree-walker
/// and the raw VM agreed on every one of those fields, so they carry the
/// old cross-engine check without a second engine: the raw VM must match
/// them exactly, and the peephole VM under the elision relation. An
/// exhaustive failing-allocation sweep pins the two tiers to the same
/// trap point, the same unwind size, and the same (empty) final heap on
/// every error path. Random lambda-1 programs are checked against the
/// Figure 6 semantics in tests/eval/random_machine_test.cpp. Every run
/// is capped by fuel and live bytes far above any correct run, and in a
/// -DPERCEUS_VM_PROFILE=1 build an opcode census requires the corpus to
/// execute every superinstruction.
///
/// Dispatch metrics (Steps, TailCalls, MaxCallDepth, MaxLocalsSlots) are
/// not frozen: they are the VM's own. Heap statistics in the tracing-GC
/// configuration are compared only where collection timing cannot
/// perturb them (allocation count, results).
///
/// A golden row changes only with the heap semantics of the compiled
/// code (a pass, the compiler, or the VM's RC handling). When such a
/// change is intended, re-derive the affected rows by hand from the
/// failure output and say why in the change's notes.
///
//===----------------------------------------------------------------------===//

#include "eval/Runner.h"
#include "programs/Programs.h"
#include "support/Casting.h"
#include "support/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace perceus;

namespace {

struct DiffCase {
  const char *Name;
  const char *Source;
  const char *Entry;
  int64_t N;
};

std::vector<DiffCase> diffCases() {
  return {
      {"rbtree", rbtreeSource(), "bench_rbtree", 120},
      {"rbtree-ck", rbtreeCkSource(), "bench_rbtree_ck", 60},
      {"deriv", derivSource(), "bench_deriv", 4},
      {"nqueens", nqueensSource(), "bench_nqueens", 6},
      {"cfold", cfoldSource(), "bench_cfold", 6},
      {"tmap-fbip", tmapSource(), "bench_tmap_fbip", 6},
      {"tmap-naive", tmapSource(), "bench_tmap_naive", 6},
      {"mapsum", mapSumSource(), "bench_mapsum", 500},
      {"msort", msortSource(), "bench_msort", 300},
      {"queue", queueSource(), "bench_queue", 300},
      {"shared-tree-build", sharedTreeSource(), "build_tree", 6},
  };
}

std::vector<std::pair<const char *, PassConfig>> allConfigs() {
  return {{"perceus", PassConfig::perceusFull()},
          {"perceus-noopt", PassConfig::perceusNoOpt()},
          {"perceus-borrow", PassConfig::perceusBorrow()},
          {"scoped-rc", PassConfig::scoped()},
          {"gc", PassConfig::gc()}};
}

/// Full Perceus without drop-reuse specialization: every drop-reuse
/// stays one DropReuse instruction, as in Figure 1's stage (e).
PassConfig perceusNoDropSpec() {
  PassConfig C = PassConfig::perceusFull();
  C.EnableDropSpec = false;
  return C;
}

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

/// Structural checksum of a result value (closures compare shallowly).
uint64_t checksumValue(Value V) {
  switch (V.Kind) {
  case ValueKind::Int:
    return mix(2, uint64_t(V.Int));
  case ValueKind::Bool:
    return mix(3, V.asBool());
  case ValueKind::Enum:
    return mix(1, V.enumTag());
  case ValueKind::HeapRef: {
    Cell *C = V.Ref;
    if (C->H.Kind == CellKind::Closure)
      return 0xC105;
    uint64_t H = mix(1, C->H.Tag);
    for (uint32_t I = 0; I != C->H.Arity; ++I)
      H = mix(H, checksumValue(C->fields()[I]));
    return H;
  }
  default:
    return 0;
  }
}

/// Everything one run observably produced.
struct Observed {
  RunResult Run;
  HeapStats Heap;
  uint64_t Checksum = 0;
  bool HeapEmpty = false;
  uint64_t Elided = 0; ///< RC instructions the peephole tier deleted
};

/// Caps far above every correct run here (the longest takes about
/// 190 000 steps, the largest peak is about 330 KB), so a broken compile
/// that loops or balloons fails fast as a trap mismatch.
constexpr uint64_t FuelCap = 10'000'000;
constexpr size_t LiveBytesCap = 32u << 20;

Observed runOn(const DiffCase &C, const PassConfig &Config, bool Peephole,
               FaultInjector *FI = nullptr) {
  RunLimits L;
  L.Fuel = FuelCap;
  L.Heap.MaxLiveBytes = LiveBytesCap;
  EngineConfig EC = EngineConfig{}.withPeephole(Peephole).withLimits(L);
  EC.Injector = FI;
  Runner R(C.Source, Config, EC);
  EXPECT_TRUE(R.ok()) << R.diagnostics().str();
  Observed O;
  R.engine().setResultInspector(
      [&](Value V) { O.Checksum = checksumValue(V); });
  O.Run = R.callInt(C.Entry, {C.N});
  O.Heap = R.heap().stats();
  O.HeapEmpty = R.heapIsEmpty();
  O.Elided = R.peepholeReport().totalElided();
  return O;
}

/// One frozen run. Rc is the unfused RcInstrCounts (Dups, Drops, Frees,
/// DecRefs, IsUniques, DropReuses, ImplicitDups, ImplicitDrops,
/// ImplicitDecRefs); Run is (ReuseHits, ReuseMisses, UnwoundCells); Heap
/// is the HeapStats (Allocs, Frees, DupOps, DropOps, DecRefOps,
/// NonHeapRcOps, AtomicRcOps, IsUniqueTests, FailedAllocs, UnwindFrees,
/// LiveBytes, PeakBytes, LiveCells). The gc rows record the raw VM's
/// collection-dependent counters too, but only Allocs among them is
/// compared.
struct Golden {
  const char *Program;
  const char *Config;
  TrapKind Trap;
  const char *Error;
  const char *Output;
  ValueKind Result;
  uint64_t Checksum;
  uint64_t Rc[9];
  uint64_t Run[3];
  uint64_t Heap[13];
};

/// The built-in corpus (diffCases() x allConfigs()). The LiveBytes and
/// PeakBytes columns were re-frozen when a cell field became one 8-byte
/// word (8 + 8·arity bytes a cell); every other column is unchanged.
const Golden CorpusGoldens[] = {
    {"rbtree", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7ca3ull,
     {7987, 5074, 408, 654, 2066, 0, 0, 0, 0},
     {1004, 0, 0},
     {408, 408, 1425, 771, 654, 10865, 0, 2066, 0, 0, 0, 5760, 0}},
    {"rbtree", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7ca3ull,
     {13963, 6056, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1412, 1412, 3551, 2735, 0, 13733, 0, 0, 0, 0, 0, 5760, 0}},
    {"rbtree", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7ca3ull,
     {6739, 4000, 288, 0, 1292, 0, 0, 0, 0},
     {1004, 0, 0},
     {408, 408, 771, 772, 0, 9196, 0, 1292, 0, 0, 0, 5760, 0}},
    {"rbtree", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7ca3ull,
     {26374, 18467, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1412, 1412, 7237, 6421, 0, 31183, 0, 0, 0, 0, 0, 48432, 0}},
    {"rbtree", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7ca3ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1412, 0, 0, 0, 0, 0, 0, 0, 0, 0, 67776, 67776, 1412}},
    {"rbtree-ck", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c99ull,
     {3681, 2088, 177, 338, 860, 0, 0, 0, 0},
     {367, 48, 0},
     {237, 237, 668, 279, 338, 4822, 0, 860, 0, 0, 0, 6552, 0}},
    {"rbtree-ck", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c99ull,
     {5791, 2451, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {604, 604, 1401, 1094, 0, 5747, 0, 0, 0, 0, 0, 6552, 0}},
    {"rbtree-ck", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c99ull,
     {3175, 1610, 117, 70, 532, 0, 0, 0, 0},
     {367, 48, 0},
     {237, 237, 400, 280, 70, 4105, 0, 532, 0, 0, 0, 6552, 0}},
    {"rbtree-ck", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c99ull,
     {11149, 7809, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {604, 604, 2997, 2690, 0, 13271, 0, 0, 0, 0, 0, 20448, 0}},
    {"rbtree-ck", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c99ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {604, 0, 0, 0, 0, 0, 0, 0, 0, 0, 28680, 28680, 604}},
    {"deriv", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7cdeull,
     {238, 126, 90, 88, 217, 0, 0, 0, 0},
     {39, 30, 0},
     {98, 98, 101, 21, 88, 242, 0, 217, 0, 0, 0, 656, 0}},
    {"deriv", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7cdeull,
     {343, 285, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {137, 137, 165, 238, 0, 225, 0, 0, 0, 0, 0, 656, 0}},
    {"deriv", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7cdeull,
     {212, 91, 68, 75, 182, 0, 0, 0, 0},
     {39, 30, 0},
     {98, 98, 87, 2, 75, 214, 0, 182, 0, 0, 0, 656, 0}},
    {"deriv", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7cdeull,
     {829, 771, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {137, 137, 381, 454, 0, 765, 0, 0, 0, 0, 0, 848, 0}},
    {"deriv", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7cdeull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {137, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2464, 2464, 137}},
    {"nqueens", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c9bull,
     {16584, 3538, 153, 1708, 1861, 0, 0, 0, 0},
     {0, 0, 0},
     {305, 305, 2486, 784, 1708, 16852, 0, 1861, 0, 0, 0, 4272, 0}},
    {"nqueens", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c9bull,
     {16886, 5395, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {305, 305, 2780, 2641, 0, 16860, 0, 0, 0, 0, 0, 4272, 0}},
    {"nqueens", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c9bull,
     {14131, 2640, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {305, 305, 294, 155, 0, 16322, 0, 0, 0, 0, 0, 5616, 0}},
    {"nqueens", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c9bull,
     {24412, 12921, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {305, 305, 5871, 5732, 0, 25730, 0, 0, 0, 0, 0, 5616, 0}},
    {"nqueens", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c9bull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {305, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7320, 7320, 305}},
    {"cfold", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7d09ull,
     {429, 162, 123, 0, 186, 0, 0, 0, 0},
     {63, 0, 0},
     {138, 138, 0, 15, 0, 576, 0, 186, 0, 0, 0, 2536, 0}},
    {"cfold", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7d09ull,
     {684, 314, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {201, 201, 206, 201, 0, 591, 0, 0, 0, 0, 0, 2536, 0}},
    {"cfold", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7d09ull,
     {444, 148, 79, 0, 142, 0, 0, 0, 0},
     {63, 0, 0},
     {138, 138, 0, 1, 0, 591, 0, 142, 0, 0, 0, 2536, 0}},
    {"cfold", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7d09ull,
     {1278, 908, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {201, 201, 545, 540, 0, 1101, 0, 0, 0, 0, 0, 3344, 0}},
    {"cfold", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7d09ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {201, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4040, 4040, 201}},
    {"tmap-fbip", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {316, 511, 63, 0, 252, 0, 0, 0, 0},
     {189, 0, 0},
     {63, 63, 0, 0, 0, 827, 0, 252, 0, 0, 0, 2016, 0}},
    {"tmap-fbip", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {1072, 763, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {252, 252, 310, 252, 0, 1273, 0, 0, 0, 0, 0, 2016, 0}},
    {"tmap-fbip", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {379, 448, 0, 0, 189, 0, 0, 0, 0},
     {189, 0, 0},
     {63, 63, 0, 1, 0, 826, 0, 189, 0, 0, 0, 2016, 0}},
    {"tmap-fbip", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {2336, 2027, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {252, 252, 809, 751, 0, 2803, 0, 0, 0, 0, 0, 8064, 0}},
    {"tmap-fbip", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {252, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8064, 8064, 252}},
    {"tmap-naive", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {316, 256, 63, 0, 126, 0, 0, 0, 0},
     {63, 0, 0},
     {63, 63, 0, 0, 0, 572, 0, 126, 0, 0, 0, 2016, 0}},
    {"tmap-naive", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {694, 382, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {126, 126, 124, 126, 0, 826, 0, 0, 0, 0, 0, 2016, 0}},
    {"tmap-naive", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {379, 193, 0, 0, 63, 0, 0, 0, 0},
     {63, 0, 0},
     {63, 63, 0, 1, 0, 571, 0, 63, 0, 0, 0, 2016, 0}},
    {"tmap-naive", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {1326, 1014, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {126, 126, 248, 250, 0, 1842, 0, 0, 0, 0, 0, 4032, 0}},
    {"tmap-naive", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a84b6ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4032, 4032, 126}},
    {"mapsum", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4c67c9ull,
     {1501, 4, 500, 0, 1000, 0, 0, 0, 0},
     {500, 0, 0},
     {500, 500, 0, 0, 0, 1505, 0, 1000, 0, 0, 0, 12000, 0}},
    {"mapsum", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4c67c9ull,
     {3501, 1004, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1000, 1000, 998, 1000, 0, 2507, 0, 0, 0, 0, 0, 12000, 0}},
    {"mapsum", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4c67c9ull,
     {2001, 4, 0, 0, 500, 0, 0, 0, 0},
     {500, 0, 0},
     {500, 500, 0, 1, 0, 2004, 0, 500, 0, 0, 0, 12000, 0}},
    {"mapsum", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4c67c9ull,
     {7503, 5006, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1000, 1000, 1996, 1998, 0, 8515, 0, 0, 0, 0, 0, 24000, 0}},
    {"mapsum", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4c67c9ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1000, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24000, 24000, 1000}},
    {"msort", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b980332a81ull,
     {6537, 2100, 599, 0, 10181, 0, 0, 0, 0},
     {9582, 0, 0},
     {599, 599, 299, 299, 0, 8039, 0, 10181, 0, 0, 0, 7224, 0}},
    {"msort", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b980332a81ull,
     {26299, 11681, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {10181, 10181, 10991, 10480, 0, 16509, 0, 0, 0, 0, 0, 7224, 0}},
    {"msort", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b980332a81ull,
     {6837, 2100, 299, 0, 9881, 0, 0, 0, 0},
     {9582, 0, 0},
     {599, 599, 299, 300, 0, 8338, 0, 9881, 0, 0, 0, 7224, 0}},
    {"msort", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b980332a81ull,
     {48293, 33675, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {10181, 10181, 22113, 21602, 0, 38253, 0, 0, 0, 0, 0, 28920, 0}},
    {"msort", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b980332a81ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {10181, 0, 0, 0, 0, 0, 0, 0, 0, 0, 244344, 244344, 10181}},
    {"queue", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4d3a8bull,
     {1502, 22, 601, 0, 2703, 0, 0, 0, 0},
     {2102, 0, 0},
     {601, 601, 0, 0, 0, 1524, 0, 2703, 0, 0, 0, 7248, 0}},
    {"queue", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4d3a8bull,
     {6908, 2725, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {2703, 2703, 3761, 2703, 0, 3169, 0, 0, 0, 0, 0, 7248, 0}},
    {"queue", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4d3a8bull,
     {1502, 22, 601, 0, 2703, 0, 0, 0, 0},
     {2102, 0, 0},
     {601, 601, 0, 0, 0, 1524, 0, 2703, 0, 0, 0, 7248, 0}},
    {"queue", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4d3a8bull,
     {14724, 10541, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {2703, 2703, 8130, 7072, 0, 10063, 0, 0, 0, 0, 0, 57456, 0}},
    {"queue", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4d3a8bull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {2703, 0, 0, 0, 0, 0, 0, 0, 0, 0, 64872, 64872, 2703}},
    {"shared-tree-build", "perceus", TrapKind::Ok, "", "", ValueKind::HeapRef, 0xf43a1c698291125aull,
     {379, 128, 0, 0, 0, 0, 0, 1, 0},
     {0, 0, 0},
     {63, 63, 0, 1, 0, 507, 0, 0, 0, 0, 0, 2016, 0}},
    {"shared-tree-build", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::HeapRef, 0xf43a1c698291125aull,
     {379, 128, 0, 0, 0, 0, 0, 1, 0},
     {0, 0, 0},
     {63, 63, 0, 1, 0, 507, 0, 0, 0, 0, 0, 2016, 0}},
    {"shared-tree-build", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::HeapRef, 0xf43a1c698291125aull,
     {379, 128, 0, 0, 0, 0, 0, 1, 0},
     {0, 0, 0},
     {63, 63, 0, 1, 0, 507, 0, 0, 0, 0, 0, 2016, 0}},
    {"shared-tree-build", "scoped-rc", TrapKind::Ok, "", "", ValueKind::HeapRef, 0xf43a1c698291125aull,
     {506, 255, 0, 0, 0, 0, 0, 1, 0},
     {0, 0, 0},
     {63, 63, 0, 1, 0, 761, 0, 0, 0, 0, 0, 2016, 0}},
    {"shared-tree-build", "gc", TrapKind::Ok, "", "", ValueKind::HeapRef, 0xf43a1c698291125aull,
     {0, 0, 0, 0, 0, 0, 0, 1, 0},
     {0, 0, 0},
     {63, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2016, 2016, 63}},
};

/// The same-tag match cases of SameTagValueOfAnotherTypeFallsThrough.
const Golden SameTagGoldens[] = {
    {"enum-default", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {0, 2, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-default", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {0, 2, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-default", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {0, 1, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-default", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {0, 2, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-default", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-no-default", "perceus", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {0, 1, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-no-default", "perceus-noopt", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {0, 1, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-no-default", "perceus-borrow", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-no-default", "scoped-rc", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"enum-no-default", "gc", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"cell-default", "perceus", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {1, 1, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 24, 0}},
    {"cell-default", "perceus-noopt", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {1, 1, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 24, 0}},
    {"cell-default", "perceus-borrow", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {1, 1, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 24, 0}},
    {"cell-default", "scoped-rc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {2, 2, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1, 1, 0, 1, 0, 3, 0, 0, 0, 0, 0, 24, 0}},
    {"cell-default", "gc", TrapKind::Ok, "", "", ValueKind::Int, 0x9e3779b97f4a7c97ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 0},
     {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 24, 1}},
    {"cell-no-default", "perceus", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {1, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 1},
     {1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 24, 0}},
    {"cell-no-default", "perceus-noopt", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {1, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 1},
     {1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 24, 0}},
    {"cell-no-default", "perceus-borrow", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {1, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 1},
     {1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 24, 0}},
    {"cell-no-default", "scoped-rc", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {2, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 1},
     {1, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 24, 0}},
    {"cell-no-default", "gc", TrapKind::RuntimeError, "non-exhaustive match", "", ValueKind::Unit, 0x0ull,
     {0, 0, 0, 0, 0, 0, 0, 0, 0},
     {0, 0, 1},
     {1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 24, 0}},
};

/// The golden row for (\p Program, \p Config); fails the test if the
/// table has none.
template <size_t N>
const Golden *findGolden(const Golden (&Table)[N], const char *Program,
                         const char *Config) {
  for (const Golden &G : Table)
    if (std::string_view(G.Program) == Program &&
        std::string_view(G.Config) == Config)
      return &G;
  ADD_FAILURE() << "no golden row for " << Program << " / " << Config;
  return nullptr;
}

/// A golden row as the Observed of a clean reference run.
Observed fromGolden(const Golden &G) {
  Observed O;
  O.Run.Ok = G.Trap == TrapKind::Ok;
  O.Run.Trap = G.Trap;
  O.Run.Error = G.Error;
  O.Run.Output = G.Output;
  O.Run.Result.Kind = G.Result;
  O.Checksum = G.Checksum;
  RcInstrCounts &A = O.Run.Rc;
  A.Dups = G.Rc[0];
  A.Drops = G.Rc[1];
  A.Frees = G.Rc[2];
  A.DecRefs = G.Rc[3];
  A.IsUniques = G.Rc[4];
  A.DropReuses = G.Rc[5];
  A.ImplicitDups = G.Rc[6];
  A.ImplicitDrops = G.Rc[7];
  A.ImplicitDecRefs = G.Rc[8];
  O.Run.ReuseHits = G.Run[0];
  O.Run.ReuseMisses = G.Run[1];
  O.Run.UnwoundCells = G.Run[2];
  HeapStats &H = O.Heap;
  H.Allocs = G.Heap[0];
  H.Frees = G.Heap[1];
  H.DupOps = G.Heap[2];
  H.DropOps = G.Heap[3];
  H.DecRefOps = G.Heap[4];
  H.NonHeapRcOps = G.Heap[5];
  H.AtomicRcOps = G.Heap[6];
  H.IsUniqueTests = G.Heap[7];
  H.FailedAllocs = G.Heap[8];
  H.UnwindFrees = G.Heap[9];
  H.LiveBytes = G.Heap[10];
  H.PeakBytes = G.Heap[11];
  H.LiveCells = G.Heap[12];
  O.HeapEmpty = H.LiveCells == 0;
  return O;
}

/// The full equality contract between a reference run (a golden row or
/// the raw VM) and a VM run of the same program.
/// \p GcMode relaxes the heap comparison to collection-timing-immune
/// counters. \p Semantic relaxes the RC-instruction comparison to the
/// peephole elision relation: the rewritten VM may execute fewer
/// dup/drop/decref *instructions*, but only ones the immediacy analysis
/// proved operate on immediates — so every elided instruction is
/// accounted for, one-for-one, by the drop in the heap's NonHeapRcOps
/// classification, and every heap-semantic counter stays bit-identical.
void expectEqualObservations(const Observed &Ref, const Observed &Vm,
                             bool GcMode, bool Semantic = false) {
  EXPECT_EQ(Ref.Run.Ok, Vm.Run.Ok) << Vm.Run.Error;
  EXPECT_EQ(Ref.Run.Trap, Vm.Run.Trap);
  EXPECT_EQ(Ref.Run.Error, Vm.Run.Error);
  EXPECT_EQ(Ref.Run.Output, Vm.Run.Output);
  EXPECT_EQ(Ref.Checksum, Vm.Checksum);
  EXPECT_EQ(Ref.Run.Result.Kind, Vm.Run.Result.Kind);

  const RcInstrCounts &A = Ref.Run.Rc, &B = Vm.Run.Rc;
  const HeapStats &H = Ref.Heap, &G = Vm.Heap;
  if (!Semantic) {
    EXPECT_EQ(A.Dups, B.Dups);
    EXPECT_EQ(A.Drops, B.Drops);
    EXPECT_EQ(A.DecRefs, B.DecRefs);
    EXPECT_EQ(B.FusedOps, 0u);
    EXPECT_EQ(B.FusedRcOps, 0u);
  } else {
    // Elision only ever removes instructions, never adds them.
    EXPECT_GE(A.Dups, B.Dups);
    EXPECT_GE(A.Drops, B.Drops);
    EXPECT_GE(A.DecRefs, B.DecRefs);
    if (!GcMode) {
      // The conservation law: every elided engine-side RC instruction
      // is one the heap would have classified as a non-heap no-op.
      uint64_t ElidedInstrs = (A.Dups - B.Dups) + (A.Drops - B.Drops) +
                              (A.DecRefs - B.DecRefs);
      EXPECT_EQ(ElidedInstrs, H.NonHeapRcOps - G.NonHeapRcOps);
    }
    // The RC operations executed inside superinstructions were already
    // tallied in the per-kind counters; FusedRcOps only audits them.
    EXPECT_LE(B.FusedRcOps, B.Dups + B.Drops + B.DecRefs + B.IsUniques);
  }
  EXPECT_EQ(A.Frees, B.Frees);
  EXPECT_EQ(A.IsUniques, B.IsUniques);
  EXPECT_EQ(A.DropReuses, B.DropReuses);
  EXPECT_EQ(A.ImplicitDups, B.ImplicitDups);
  EXPECT_EQ(A.ImplicitDrops, B.ImplicitDrops);
  EXPECT_EQ(A.ImplicitDecRefs, B.ImplicitDecRefs);
  EXPECT_EQ(Ref.Run.ReuseHits, Vm.Run.ReuseHits);
  EXPECT_EQ(Ref.Run.ReuseMisses, Vm.Run.ReuseMisses);

  EXPECT_EQ(H.Allocs, G.Allocs);
  if (!GcMode) {
    EXPECT_EQ(H.Frees, G.Frees);
    EXPECT_EQ(H.DupOps, G.DupOps);
    EXPECT_EQ(H.DropOps, G.DropOps);
    EXPECT_EQ(H.DecRefOps, G.DecRefOps);
    if (!Semantic)
      EXPECT_EQ(H.NonHeapRcOps, G.NonHeapRcOps);
    else
      EXPECT_GE(H.NonHeapRcOps, G.NonHeapRcOps);
    EXPECT_EQ(H.AtomicRcOps, G.AtomicRcOps);
    EXPECT_EQ(H.IsUniqueTests, G.IsUniqueTests);
    EXPECT_EQ(H.FailedAllocs, G.FailedAllocs);
    EXPECT_EQ(H.UnwindFrees, G.UnwindFrees);
    EXPECT_EQ(H.LiveBytes, G.LiveBytes);
    EXPECT_EQ(H.PeakBytes, G.PeakBytes);
    EXPECT_EQ(H.LiveCells, G.LiveCells);
    EXPECT_EQ(Ref.Run.UnwoundCells, Vm.Run.UnwoundCells);
    EXPECT_EQ(Ref.HeapEmpty, Vm.HeapEmpty);
  }
}

/// Every program under every configuration, on both VM tiers, against
/// its golden row: the raw VM exactly, the peephole VM under the elision
/// relation (exact on everything heap-semantic, the conservation law on
/// the RC instruction counts).
TEST(EngineDiff, EveryProgramEveryConfigMatchesTheGoldens) {
  ASSERT_EQ(std::size(CorpusGoldens), diffCases().size() * allConfigs().size())
      << "every golden row must belong to a (program, config) cell";
  for (const DiffCase &C : diffCases()) {
    for (const auto &[Name, Config] : allConfigs()) {
      SCOPED_TRACE(std::string(C.Name) + " / " + Name);
      const Golden *G = findGolden(CorpusGoldens, C.Name, Name);
      ASSERT_NE(G, nullptr);
      bool GcMode = Config.Mode == RcMode::None;
      Observed Ref = fromGolden(*G);
      Observed Vm = runOn(C, Config, /*Peephole=*/false);
      Observed VmPeep = runOn(C, Config, /*Peephole=*/true);
      ASSERT_TRUE(Ref.Run.Ok) << Ref.Run.Error;
      expectEqualObservations(Ref, Vm, GcMode);
      expectEqualObservations(Ref, VmPeep, GcMode, /*Semantic=*/true);
      if (Config.Mode != RcMode::None) {
        EXPECT_TRUE(Vm.HeapEmpty);
        EXPECT_TRUE(VmPeep.HeapEmpty);
      }
    }
  }
}

/// The peephole tier must actually bite on the benchmark programs in the
/// full configuration — a silent no-op pass would keep every test above
/// green while delivering nothing. It must fuse, and it must elide: the
/// conservation law holds trivially when nothing is elided.
TEST(EngineDiff, PeepholeFusesAndElidesOnTheBenchmarks) {
  for (const DiffCase &C : diffCases()) {
    SCOPED_TRACE(C.Name);
    Observed Plain = runOn(C, PassConfig::perceusFull(), /*Peephole=*/false);
    Observed Peep = runOn(C, PassConfig::perceusFull(), /*Peephole=*/true);
    EXPECT_GT(Peep.Run.Rc.FusedOps, 0u);
    EXPECT_LT(Peep.Run.Steps, Plain.Run.Steps);
    EXPECT_GT(Peep.Elided, 0u);
    const RcInstrCounts &A = Plain.Run.Rc, &B = Peep.Run.Rc;
    EXPECT_LT(B.Dups + B.Drops + B.DecRefs, A.Dups + A.Drops + A.DecRefs);
    EXPECT_LT(Peep.Heap.NonHeapRcOps, Plain.Heap.NonHeapRcOps);
    // msort's integer fields sit in `Cons` and in its list pair `P`, of
    // the same arity; the immediacy analysis proves them per constructor.
    if (std::string_view(C.Name) == "msort") {
      EXPECT_LE(4 * Peep.Heap.NonHeapRcOps, Plain.Heap.NonHeapRcOps);
    }
  }
}

/// A peephole chunk keeps what the VM reads and no more: each vector at
/// its exact size, and the later fused-site columns only on a chunk
/// holding one of the four forms whose handlers read them.
TEST(EngineDiff, PeepholeChunksHoldOnlyWhatTheyUse) {
  for (const DiffCase &C : diffCases()) {
    SCOPED_TRACE(C.Name);
    std::shared_ptr<const CompiledArtifact> A =
        compileArtifact(C.Source, PassConfig::perceusFull());
    ASSERT_TRUE(A->Ok) << A->Error;
    for (const std::vector<Chunk> *Tab : {&A->Code->Funcs, &A->Code->Lams})
      for (const Chunk &Ch : *Tab) {
        EXPECT_EQ(Ch.Code.capacity(), Ch.Code.size());
        EXPECT_EQ(Ch.Sites.capacity(), Ch.Sites.size());
        const bool ReadsLaterSites = std::any_of(
            Ch.Code.begin(), Ch.Code.end(), [](const Instr &I) {
              return I.O == Op::Dup2 || I.O == Op::Drop2 ||
                     I.O == Op::Dup3 || I.O == Op::Dup2DecLoadConst;
            });
        const size_t Want = ReadsLaterSites ? Ch.Code.size() : 0;
        EXPECT_EQ(Ch.Sites2.capacity(), Want);
        EXPECT_EQ(Ch.Sites2.size(), Want);
        EXPECT_EQ(Ch.Sites3.capacity(), Want);
        EXPECT_EQ(Ch.Sites3.size(), Want);
      }
  }
}

/// A drop-reuse in value position: the match is a `val` initializer, so
/// its arm compiles through the value path. Every drop-reuse of the
/// corpus is in tail position.
const char *const ValueReuseSource = R"(
type list {
  Cons(head, tail)
  Nil
}
fun build(n) { if n == 0 then Nil else Cons(n, build(n - 1)) }
fun sum(xs) { match xs { Nil -> 0  Cons(x, rest) -> x + sum(rest) } }
fun main(n) {
  val s = match build(n) {
    Nil -> 0
    Cons(x, rest) -> sum(Cons(x * 2, rest))
  }
  s + 1
}
)";

/// Without drop-reuse specialization every drop-reuse runs as one
/// DropReuse instruction, so the VM's handler and the compiler paths that
/// emit it execute. Specialization only moves RC work around, so both
/// tiers must still give the perceus reference's result, allocations,
/// frees, peak bytes and reuse outcome, and an empty heap. The reference
/// is the corpus's perceus golden row, or for the value-position case a
/// raw perceus run.
TEST(EngineDiff, UnspecializedDropReuseMatchesThePerceusGoldens) {
  std::vector<std::pair<DiffCase, Observed>> Cases;
  for (const DiffCase &C : diffCases()) {
    const Golden *G = findGolden(CorpusGoldens, C.Name, "perceus");
    ASSERT_NE(G, nullptr);
    Cases.push_back({C, fromGolden(*G)});
  }
  DiffCase ValueReuse{"value-reuse", ValueReuseSource, "main", 40};
  Cases.push_back({ValueReuse, runOn(ValueReuse, PassConfig::perceusFull(),
                                     /*Peephole=*/false)});
  for (const auto &[C, Ref] : Cases) {
    SCOPED_TRACE(C.Name);
    ASSERT_TRUE(Ref.Run.Ok) << Ref.Run.Error;
    for (bool Peephole : {false, true}) {
      SCOPED_TRACE(Peephole ? "vm-peep" : "vm");
      Observed Vm = runOn(C, perceusNoDropSpec(), Peephole);
      ASSERT_TRUE(Vm.Run.Ok) << Vm.Run.Error;
      EXPECT_EQ(Ref.Run.Output, Vm.Run.Output);
      EXPECT_EQ(Ref.Run.Result.Kind, Vm.Run.Result.Kind);
      EXPECT_EQ(Ref.Checksum, Vm.Checksum);
      EXPECT_EQ(Ref.Heap.Allocs, Vm.Heap.Allocs);
      EXPECT_EQ(Ref.Heap.Frees, Vm.Heap.Frees);
      EXPECT_EQ(Ref.Heap.PeakBytes, Vm.Heap.PeakBytes);
      EXPECT_EQ(Ref.Run.ReuseHits, Vm.Run.ReuseHits);
      EXPECT_EQ(Ref.Run.ReuseMisses, Vm.Run.ReuseMisses);
      EXPECT_TRUE(Vm.HeapEmpty);
      if (Ref.Run.ReuseHits + Ref.Run.ReuseMisses > 0) {
        EXPECT_GT(Vm.Run.Rc.DropReuses, 0u);
      }
    }
  }
}

/// Tail calls whose arguments name the caller's own parameters in
/// another order, to a function and through a closure: each call's
/// operand list reads registers the call itself overwrites.
const char *const RotateSource = R"(
fun rot(a, b, c, n) {
  if n == 0 then a * 100 + b * 10 + c else rot(b, c, a, n - 1)
}
fun apply(g, u, v, n) {
  if n == 0 then g(u, v, 0) else apply(g, v, u, n - 1)
}
fun main(n) {
  rot(1, 2, 3, n) * 1000 + apply(fn(x, y, k) { x * 10 + y + k }, 7, 5, n)
}
)";

TEST(EngineDiff, TailCallsPermutingTheirParametersRunOnBothTiers) {
  const int64_t Want[] = {123075, 231057, 312075, 123057, 231075};
  for (int64_t N = 0; N != 5; ++N) {
    for (const auto &[Name, Config] : allConfigs()) {
      for (bool Peephole : {false, true}) {
        SCOPED_TRACE(std::string(Name) + (Peephole ? " / vm-peep" : " / vm") +
                     " / n=" + std::to_string(N));
        Observed O = runOn({"rotate", RotateSource, "main", N}, Config,
                           Peephole);
        ASSERT_TRUE(O.Run.Ok) << O.Run.Error;
        EXPECT_EQ(O.Run.Result.Kind, ValueKind::Int);
        EXPECT_EQ(O.Run.Result.Int, Want[N]);
        // Scoped RC drops the parameters after each call, so its calls
        // are not in tail position and permute through a fresh window.
        EXPECT_EQ(O.Run.TailCalls, Config.Mode == RcMode::Scoped
                                       ? 0
                                       : 2 * static_cast<uint64_t>(N) + 1);
        if (Config.Mode != RcMode::None) {
          EXPECT_TRUE(O.HeapEmpty);
        }
      }
    }
  }
}

/// The opcode census: on the peephole tier, the corpus under every
/// configuration executes every superinstruction at least once. A fused
/// opcode that no built-in program runs is a handler no test exercises
/// and no benchmark gains from, so it fails here until it is deleted.
/// Counting needs the opcode-pair profile (-DPERCEUS_VM_PROFILE=1).
TEST(EngineDiff, EverySuperinstructionExecutesOnTheCorpus) {
#if PERCEUS_VM_PROFILE
  std::memset(VmPairProfile, 0, sizeof(VmPairProfile));
  for (const DiffCase &C : diffCases())
    for (const auto &[Name, Config] : allConfigs())
      runOn(C, Config, /*Peephole=*/true);
  for (size_t Cur = FirstSuperinstruction; Cur != NumOpcodes; ++Cur) {
    uint64_t Executed = 0;
    for (size_t Prev = 0; Prev != NumOpcodes; ++Prev)
      Executed += VmPairProfile[Prev][Cur];
    EXPECT_GT(Executed, 0u) << opName(static_cast<Op>(Cur))
                            << " never executes on the corpus";
  }
#else
  GTEST_SKIP() << "counting opcodes needs a -DPERCEUS_VM_PROFILE=1 build";
#endif
}

/// The exhaustive failing-allocation sweep, differentially: for every k,
/// both tiers must hit the injected failure at the same allocation, trap
/// with OutOfMemory, unwind the same number of cells, and leave their
/// heaps empty. The alloc sequence is part of the tiers' contract, so
/// the k-th attempt is the same attempt on both.
TEST(EngineDiff, FaultSweepTrapsAtTheSamePointOnBothTiers) {
  std::vector<DiffCase> Cases = {
      {"rbtree", rbtreeSource(), "bench_rbtree", 16},
      {"msort", msortSource(), "bench_msort", 12},
  };
  for (const DiffCase &C : Cases) {
    for (const auto &[Name, Config] : allConfigs()) {
      if (Config.Mode == RcMode::None)
        continue; // GC collection timing makes the k-th attempt differ
      SCOPED_TRACE(std::string(C.Name) + " / " + Name);
      Observed Clean = runOn(C, Config, /*Peephole=*/false);
      ASSERT_TRUE(Clean.Run.Ok) << Clean.Run.Error;
      uint64_t PerRun = Clean.Heap.Allocs;
      ASSERT_GT(PerRun, 0u);
      ASSERT_LT(PerRun, 1500u) << "too large for the differential sweep";

      for (uint64_t K = 1; K <= PerRun; ++K) {
        SCOPED_TRACE("k=" + std::to_string(K));
        FaultInjector FiVm = FaultInjector::failNth(K);
        FaultInjector FiPeep = FaultInjector::failNth(K);
        Observed Vm = runOn(C, Config, /*Peephole=*/false, &FiVm);
        // The peepholed VM allocates at the same indices (elision never
        // touches an allocating instruction), so the k-th attempt is the
        // same attempt — and the unwind must reclaim the same cells even
        // from rewritten code with skipped dead-temp writes.
        Observed Peep = runOn(C, Config, /*Peephole=*/true, &FiPeep);
        ASSERT_FALSE(Vm.Run.Ok);
        ASSERT_FALSE(Peep.Run.Ok);
        ASSERT_EQ(Vm.Run.Trap, TrapKind::OutOfMemory);
        ASSERT_EQ(Peep.Run.Trap, TrapKind::OutOfMemory);
        ASSERT_EQ(FiVm.injected(), 1u);
        ASSERT_EQ(FiPeep.injected(), 1u);
        expectEqualObservations(Vm, Peep, false, /*Semantic=*/true);
        ASSERT_TRUE(Vm.HeapEmpty);
        ASSERT_TRUE(Peep.HeapEmpty);
      }
    }
  }
}

/// The 63-bit boundary and mixed-kind equality: both tiers must trap
/// one step past the edge (not wrap) with the same message, the same
/// trap kind, and a clean unwind. IntMin / -1 and IntMin % -1 trap: the
/// quotient leaves the range.
TEST(EngineDiff, OverflowAndMixedEqualityTrapIdenticallyOnBothTiers) {
  struct TrapCase {
    const char *Name;
    const char *Source;
    const char *Msg;
    int64_t N;
  };
  std::vector<TrapCase> Cases = {
      {"div-intmin", "fun main(n) { n / (0 - 1) }",
       "integer overflow in division", IntMin},
      {"mod-intmin", "fun main(n) { n % (0 - 1) }",
       "integer overflow in modulo", IntMin},
      {"neg-intmin", "fun main(n) { -n }", "integer overflow in negation",
       IntMin},
      {"div-zero", "fun main(n) { n / (n - n) }", "division by zero", 7},
      {"mod-zero", "fun main(n) { n % (n - n) }", "modulo by zero", 7},
      // + - * at the 63-bit edges; on the peephole VM the constant forms
      // run as ArithConst (x+K, x-K, K-x, x*K) and must trap the same.
      {"add-max", "fun main(n) { n + 1 }", "integer overflow in addition",
       IntMax},
      {"add-max-plain", "fun main(n) { n + (n - n + 1) }",
       "integer overflow in addition", IntMax},
      {"sub-plain", "fun main(n) { n - (n - n + 1) }",
       "integer overflow in subtraction", IntMin},
      {"add-min", "fun main(n) { n + n }", "integer overflow in addition",
       IntMin},
      {"sub-min", "fun main(n) { n - 1 }", "integer overflow in subtraction",
       IntMin},
      {"rsub-min", "fun main(n) { 0 - n }", "integer overflow in subtraction",
       IntMin},
      {"mul-max", "fun main(n) { 2 * n }",
       "integer overflow in multiplication", IntMax},
      {"mul-half", "fun main(n) { 2 * n }",
       "integer overflow in multiplication", IntMax / 2 + 1},
      {"mul-half-neg", "fun main(n) { n * 2 }",
       "integer overflow in multiplication", IntMin / 2 - 1},
      {"neg-via-sub", "fun main(n) { 0 - n - 1 - 1 }",
       "integer overflow in subtraction", IntMax},
      {"mul-min", "fun main(n) { n * (0 - 1) }",
       "integer overflow in multiplication", IntMin},
      {"eq-int-bool", "fun main(n) { if n == True then 1 else 0 }",
       "equality on incompatible or heap values", 1},
      {"ne-int-bool", "fun main(n) { if n != False then 1 else 0 }",
       "equality on incompatible or heap values", 1},
  };
  for (const TrapCase &C : Cases) {
    for (const auto &[CfgName, Config] : allConfigs()) {
      for (bool Peephole : {false, true}) {
        SCOPED_TRACE(std::string(C.Name) + " / " + CfgName +
                     (Peephole ? " / vm-peep" : " / vm"));
        Runner R(C.Source, Config, EngineConfig{}.withPeephole(Peephole));
        ASSERT_TRUE(R.ok()) << R.diagnostics().str();
        RunResult Res = R.callInt("main", {C.N});
        EXPECT_FALSE(Res.Ok);
        EXPECT_EQ(Res.Trap, TrapKind::RuntimeError);
        EXPECT_EQ(Res.Error, C.Msg);
        EXPECT_TRUE(R.heapIsEmpty());
      }
    }
  }
}

/// The same boundary operands on results that do NOT overflow must keep
/// producing wrapped-free exact answers on both tiers — the traps must
/// not over-fire.
TEST(EngineDiff, OverflowBoundaryNeighborsStillSucceed) {
  struct OkCase {
    const char *Source;
    int64_t N;
    int64_t Expect;
  };
  std::vector<OkCase> Cases = {
      {"fun main(n) { n / 1 }", IntMin, IntMin},
      {"fun main(n) { (n + 1) / (0 - 1) }", IntMin, IntMax},
      {"fun main(n) { n % 1 }", IntMin, 0},
      {"fun main(n) { n % (0 - 1) }", IntMin + 1, 0},
      {"fun main(n) { -(n + 1) }", IntMin, IntMax},
      {"fun main(n) { -n }", IntMax, -IntMax},
      {"fun main(n) { n - 1 }", IntMax, IntMax - 1},
      {"fun main(n) { n + 1 }", IntMax - 1, IntMax},
      {"fun main(n) { n + (n - n + 1) }", IntMax - 1, IntMax},
      {"fun main(n) { n + 1 }", IntMin, IntMin + 1},
      {"fun main(n) { n - 1 }", IntMin + 1, IntMin},
      {"fun main(n) { n - (n - n + 1) }", IntMin + 1, IntMin},
      {"fun main(n) { (0 - 1) - n }", IntMax, IntMin},
      {"fun main(n) { 2 * n }", IntMin / 2, IntMin},
      {"fun main(n) { 2 * n }", IntMax / 2, IntMax - 1},
      {"fun main(n) { n * 2 }", IntMin / 2, IntMin},
      {"fun main(n) { n * (0 - 1) }", IntMax, -IntMax},
      {"fun main(n) { n * n }", 2147483647, 4611686014132420609},
      {"fun main(n) { n / (0 - 1) }", IntMax, -IntMax},
  };
  for (const OkCase &C : Cases) {
    for (bool Peephole : {false, true}) {
      Runner R(C.Source, PassConfig::perceusFull(),
               EngineConfig{}.withPeephole(Peephole));
      ASSERT_TRUE(R.ok()) << R.diagnostics().str();
      RunResult Res = R.callInt("main", {C.N});
      ASSERT_TRUE(Res.Ok) << Res.Error;
      EXPECT_EQ(Res.Result.Int, C.Expect);
    }
  }
}

/// An integer argument outside the 63-bit range is a structured trap at
/// the VM's entry, on both tiers: never wrapped, and any heap argument
/// beside it is freed, so the heap ends empty.
TEST(EngineDiff, OutOfRangeEntryArgumentsTrapWithAnEmptyHeap) {
  const char *Source = "type box { Box(x) }\n"
                       "fun main(b, n) { match b { Box(x) -> x + n } }";
  for (int64_t N : {IntMax + 1, IntMin - 1, INT64_MAX, INT64_MIN}) {
    for (bool Peephole : {false, true}) {
      SCOPED_TRACE(std::to_string(N) + (Peephole ? " vm-peep" : " vm"));
      Runner R(Source, PassConfig::perceusFull(),
               EngineConfig{}.withPeephole(Peephole));
      ASSERT_TRUE(R.ok()) << R.diagnostics().str();
      Cell *C = R.heap().alloc(1, 0, CellKind::Ctor);
      ASSERT_NE(C, nullptr);
      C->fields()[0] = Value::makeInt(1);
      RunResult Res = R.call("main", {Value::makeRef(C), Value::makeInt(N)});
      EXPECT_FALSE(Res.Ok);
      EXPECT_EQ(Res.Trap, TrapKind::RuntimeError);
      EXPECT_EQ(Res.Error, "entry argument " + std::to_string(N) +
                               " is outside the integer range " +
                               IntRangeText);
      EXPECT_EQ(Res.UnwoundCells, 1u);
      EXPECT_TRUE(R.heapIsEmpty());
      // The edge itself is an ordinary argument.
      C = R.heap().alloc(1, 0, CellKind::Ctor);
      C->fields()[0] = Value::makeInt(0);
      Res = R.call("main", {Value::makeRef(C), Value::makeInt(N < 0 ? IntMin
                                                                    : IntMax)});
      ASSERT_TRUE(Res.Ok) << Res.Error;
      EXPECT_EQ(Res.Result.Int, N < 0 ? IntMin : IntMax);
      EXPECT_TRUE(R.heapIsEmpty());
    }
  }
}

/// A constructor arm matches only a value it can bind. A value of another
/// type with the same tag — an enum immediate, or a cell of another
/// arity — falls through to the default arm or the non-exhaustive-match
/// trap, on both tiers and as frozen in the goldens; no field it lacks
/// is ever read.
TEST(EngineDiff, SameTagValueOfAnotherTypeFallsThrough) {
  const char *Enums = "type a { A0  A1 }\ntype b { B0  B1(x) }\n";
  const char *Cells = "type a { A0  A1(x, y) }\ntype b { B0  B1(x, y, z) }\n";
  struct MatchCase {
    const char *Name;
    std::string Source;
    bool Ok;
  };
  std::vector<MatchCase> Cases = {
      {"enum-default",
       std::string(Enums) + "fun main(n) { match A1 { B1(x) -> x  _ -> 0 } }",
       true},
      {"enum-no-default",
       std::string(Enums) + "fun main(n) { match A1 { B1(x) -> x  B0 -> 1 } }",
       false},
      {"cell-default",
       std::string(Cells) +
           "fun main(n) { match A1(n, n) { B1(x, y, z) -> x + y + z  "
           "_ -> 0 } }",
       true},
      {"cell-no-default",
       std::string(Cells) +
           "fun main(n) { match A1(n, n) { B1(x, y, z) -> x + y + z  "
           "B0 -> 1 } }",
       false},
  };
  ASSERT_EQ(std::size(SameTagGoldens), Cases.size() * allConfigs().size());
  for (const MatchCase &M : Cases) {
    for (const auto &[CfgName, Config] : allConfigs()) {
      SCOPED_TRACE(std::string(M.Name) + " / " + CfgName);
      const Golden *G = findGolden(SameTagGoldens, M.Name, CfgName);
      ASSERT_NE(G, nullptr);
      DiffCase C{M.Name, M.Source.c_str(), "main", 5};
      bool GcMode = Config.Mode == RcMode::None;
      Observed Ref = fromGolden(*G);
      Observed Vm = runOn(C, Config, /*Peephole=*/false);
      Observed VmPeep = runOn(C, Config, /*Peephole=*/true);
      ASSERT_EQ(Vm.Run.Ok, M.Ok) << Vm.Run.Error;
      if (M.Ok) {
        EXPECT_EQ(Vm.Run.Result.Int, 0);
      } else {
        EXPECT_EQ(Vm.Run.Trap, TrapKind::RuntimeError);
        EXPECT_EQ(Vm.Run.Error, "non-exhaustive match");
      }
      expectEqualObservations(Ref, Vm, GcMode);
      expectEqualObservations(Ref, VmPeep, GcMode, /*Semantic=*/true);
      EXPECT_EQ(VmPeep.Run.Result.Int, Vm.Run.Result.Int);
      if (!GcMode) {
        EXPECT_TRUE(Vm.HeapEmpty);
        EXPECT_TRUE(VmPeep.HeapEmpty);
      }
    }
  }
}

} // namespace

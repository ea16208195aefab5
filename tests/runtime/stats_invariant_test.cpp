//===- tests/runtime/stats_invariant_test.cpp - RC stats classification --------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enforces the statistics classification invariant end to end: every
/// executed RC instruction increments exactly one HeapStats counter, and
/// the three ledgers — the machine's per-instruction counts
/// (RunResult::Rc), the heap's classification counters (HeapStats), and
/// an independent event sink (CountingSink) — must agree exactly, for
/// every benchmark program under every configuration, on both VM tiers
/// (raw and peephole). Any future drift
/// (an entry point forgetting a counter, a counter bumped on an
/// early-out path, a machine call site missing its count) breaks an
/// equation here.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

using namespace perceus;
using namespace perceus::bench;

namespace {

std::vector<BenchProgram> invariantPrograms() {
  // The Figure 9 set at a CI-friendly scale, plus the reuse/FBIP
  // workloads — together they exercise every RC instruction kind,
  // drop-reuse on both the unique and shared path, tshare, and refs.
  std::vector<BenchProgram> Ps = figure9Programs(0.05);
  Ps.push_back({"mapsum", mapSumSource(), "bench_mapsum", 2000, nullptr});
  Ps.push_back({"msort", msortSource(), "bench_msort", 2000, nullptr});
  Ps.push_back({"queue", queueSource(), "bench_queue", 2000, nullptr});
  Ps.push_back({"tmap", tmapSource(), "bench_tmap_fbip", 10, nullptr});
  return Ps;
}

/// The five stock configurations, plus full Perceus without drop-reuse
/// specialization, which leaves every drop-reuse one DropReuse
/// instruction (Figure 1's stage (e)) so its implicit RC calls are
/// ledgered too.
std::vector<std::pair<const char *, PassConfig>> allConfigs() {
  PassConfig NoDropSpec = PassConfig::perceusFull();
  NoDropSpec.EnableDropSpec = false;
  return {{"perceus", PassConfig::perceusFull()},
          {"perceus-noopt", PassConfig::perceusNoOpt()},
          {"perceus-borrow", PassConfig::perceusBorrow()},
          {"scoped-rc", PassConfig::scoped()},
          {"gc", PassConfig::gc()},
          {"perceus-no-drop-spec", NoDropSpec}};
}

TEST(StatsInvariant, EveryRcCallIsClassifiedExactlyOnce) {
  for (bool Peephole : {false, true})
   for (const BenchProgram &Prog : invariantPrograms()) {
    for (const auto &[Name, Config] : allConfigs()) {
      SCOPED_TRACE(std::string(Prog.Name) + " / " + Name +
                   (Peephole ? " / vm+peephole" : " / vm"));
      CountingSink Sink;
      Measurement M = measure(
          Prog, Config, EngineConfig{}.withPeephole(Peephole).withSink(&Sink));
      ASSERT_TRUE(M.Ran);

      const RcInstrCounts &Rc = M.Run.Rc;
      // Machine-side calls == sink-observed calls, per entry point.
      EXPECT_EQ(Sink.count(RcEvent::DupCall),
                Rc.Dups + Rc.ImplicitDups);
      EXPECT_EQ(Sink.count(RcEvent::DropCall),
                Rc.Drops + Rc.ImplicitDrops);
      EXPECT_EQ(Sink.count(RcEvent::DecRefCall),
                Rc.DecRefs + Rc.ImplicitDecRefs);
      EXPECT_EQ(Sink.count(RcEvent::IsUniqueCall), Rc.IsUniques);

      // Each call lands in exactly one classification counter.
      const HeapStats &H = M.Heap;
      uint64_t Classified = H.DupOps + H.DropOps + H.DecRefOps +
                            H.IsUniqueTests + H.NonHeapRcOps;
      EXPECT_EQ(Classified, Sink.totalRcCalls());
      EXPECT_EQ(Classified, Rc.totalCalls());

      // The shadow byte ledger rebuilt from Alloc/Free events alone
      // agrees with the heap's own accounting — reuse hits and sticky
      // early-outs must not perturb it.
      EXPECT_EQ(Sink.shadowLiveBytes(), H.LiveBytes);
      EXPECT_EQ(Sink.shadowPeakBytes(), H.PeakBytes);
      EXPECT_EQ(Sink.count(RcEvent::Alloc), H.Allocs);
      EXPECT_EQ(Sink.count(RcEvent::Free), H.Frees);

      // Reuse events match the machine's token bookkeeping.
      EXPECT_EQ(Sink.count(RcEvent::ReuseHit), M.Run.ReuseHits);
      EXPECT_EQ(Sink.count(RcEvent::ReuseMiss), M.Run.ReuseMisses);
    }
  }
}

TEST(StatsInvariant, GarbageFreeConfigsEndWithEmptyLedgers) {
  // Perceus is garbage free: at program exit nothing is live, in the
  // heap and in the shadow ledger alike.
  for (bool Peephole : {false, true})
   for (const BenchProgram &Prog : invariantPrograms()) {
    for (const auto &[Name, Config] : allConfigs()) {
      if (Config.Mode == RcMode::None)
        continue; // gc mode legitimately exits with live cells
      SCOPED_TRACE(std::string(Prog.Name) + " / " + Name +
                   (Peephole ? " / vm+peephole" : " / vm"));
      CountingSink Sink;
      Measurement M = measure(
          Prog, Config, EngineConfig{}.withPeephole(Peephole).withSink(&Sink));
      ASSERT_TRUE(M.Ran);
      EXPECT_EQ(M.Heap.LiveBytes, 0u);
      EXPECT_EQ(M.Heap.LiveCells, 0u);
      EXPECT_EQ(Sink.shadowLiveBytes(), 0u);
    }
  }
}

} // namespace

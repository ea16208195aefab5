//===- bench/bench_reuse.cpp - Section 2.5: reuse on unique vs shared data ----===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's reuse claims (Sections 2.4-2.5): on a unique
/// red-black tree, "every Node is reused in the fast path without doing
/// any allocations" — insertion becomes an in-place rebalancing
/// algorithm; when the tree is used persistently (rbtree-ck retains
/// every 5th tree), the algorithm "adapts to copying exactly the shared
/// spine". We report the reuse hit rate and the fresh-allocation rate
/// per insert for both workloads, plus the ablation with reuse disabled.
///
/// Usage: bench_reuse [--scale=X] [--json=PATH | --no-json]
///
//===----------------------------------------------------------------------===//

#include "Common.h"

using namespace perceus;
using namespace perceus::bench;

namespace {

BenchReport *Report;

void report(const char *Label, const char *ConfigName,
            const BenchProgram &Prog, const PassConfig &Config) {
  Measurement M = measure(Prog, Config);
  Report->add(Prog.Name, ConfigName, M);
  if (!M.Ran) {
    std::printf("  %-34s failed\n", Label);
    return;
  }
  uint64_t Attempts = M.Run.ReuseHits + M.Run.ReuseMisses;
  double HitRate = Attempts ? 100.0 * M.Run.ReuseHits / Attempts : 0.0;
  std::printf("  %-34s allocs=%-10llu reuse-hits=%-10llu hit-rate=%5.1f%% "
              "peak=%.2fMB\n",
              Label, (unsigned long long)M.Heap.Allocs,
              (unsigned long long)M.Run.ReuseHits, HitRate,
              M.PeakBytes / 1048576.0);
}

/// Feeds every event to both a shadow byte ledger and a per-site table.
struct DualSink : StatsSink {
  CountingSink Counts;
  SiteTableSink Sites;
  void record(RcEvent E, size_t Bytes) override {
    Counts.record(E, Bytes);
    Sites.setSite(CurSite, CurLabel, CurLoc);
    Sites.record(E, Bytes);
  }
};

/// The byte-accounting check behind the reuse claim: a drop-reuse that
/// feeds a Con@ru must leave live bytes unchanged — the reused cell is
/// neither freed nor allocated, so the shadow ledger built from Alloc
/// and Free events alone has to agree exactly with the heap's own
/// LiveBytes/PeakBytes. A reuse hit that double-counted bytes (counted
/// as an alloc without the matching free, or vice versa) shows up here.
bool verifyReuseByteAccounting(const char *Label, const BenchProgram &Prog,
                               const PassConfig &Config, bool PrintSites) {
  DualSink Sink;
  Measurement M = measure(Prog, Config, EngineConfig{}.withSink(&Sink));
  if (!M.Ran) {
    std::printf("  %-34s failed (accounting run)\n", Label);
    return false;
  }
  if (PrintSites)
    std::printf("\nper-site RC events, %s under perceus:\n%s", Prog.Name,
                Sink.Sites.toText().c_str());
  bool Ok = true;
  if (Sink.Counts.shadowPeakBytes() != M.Heap.PeakBytes) {
    std::printf("  BYTE ACCOUNTING MISMATCH (%s): shadow peak %zu != heap "
                "peak %zu\n",
                Prog.Name, Sink.Counts.shadowPeakBytes(), M.Heap.PeakBytes);
    Ok = false;
  }
  if (Sink.Counts.shadowLiveBytes() != M.Heap.LiveBytes) {
    std::printf("  BYTE ACCOUNTING MISMATCH (%s): shadow live %zu != heap "
                "live %zu\n",
                Prog.Name, Sink.Counts.shadowLiveBytes(), M.Heap.LiveBytes);
    Ok = false;
  }
  if (Ok)
    std::printf("  %-34s byte ledger exact: %llu reuse hits left "
                "live/peak bytes untouched\n",
                Label, (unsigned long long)M.Run.ReuseHits);
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  double Scale = parseScale(Argc, Argv, 0.5);
  std::string JsonPath = parseJsonPath("reuse", Argc, Argv);
  std::vector<BenchProgram> Programs = figure9Programs(Scale);
  BenchReport Rep("reuse", Scale);
  Report = &Rep;

  PassConfig Full = PassConfig::perceusFull();
  PassConfig NoReuse = PassConfig::perceusFull();
  NoReuse.EnableReuse = false;
  NoReuse.EnableReuseSpec = false;
  PassConfig NoReuseSpec = PassConfig::perceusFull();
  NoReuseSpec.EnableReuseSpec = false;

  std::printf("Reuse analysis effectiveness (--scale=%.2f)\n", Scale);
  std::printf("\nrbtree: unique tree -> in-place rebalancing "
              "(high reuse, low allocation)\n");
  report("perceus (reuse + reuse-spec)", "perceus", Programs[0], Full);
  report("perceus (reuse, no reuse-spec)", "perceus-no-reuse-spec",
         Programs[0], NoReuseSpec);
  report("perceus (no reuse)", "perceus-no-reuse", Programs[0], NoReuse);

  std::printf("\nrbtree-ck: every 5th tree retained -> shared spines are "
              "copied, unshared parts still reused\n");
  report("perceus (reuse + reuse-spec)", "perceus", Programs[1], Full);
  report("perceus (reuse, no reuse-spec)", "perceus-no-reuse-spec",
         Programs[1], NoReuseSpec);
  report("perceus (no reuse)", "perceus-no-reuse", Programs[1], NoReuse);

  std::printf("\nmap over a 100k list (Figure 1): every Cons reused\n");
  BenchProgram MapSum{"mapsum", mapSumSource(), "bench_mapsum", 100000,
                      nullptr};
  report("perceus", "perceus", MapSum, Full);
  report("perceus (no reuse)", "perceus-no-reuse", MapSum, NoReuse);

  std::printf("\nmerge sort of 20k random elements (FBIP): in-place "
              "split/merge\n");
  BenchProgram Sort{"msort", msortSource(), "bench_msort", 20000, nullptr};
  report("perceus", "perceus", Sort, Full);
  report("perceus (no reuse)", "perceus-no-reuse", Sort, NoReuse);

  std::printf("\nbatched queue, 50k enqueue/dequeue pairs: in-place "
              "rotation\n");
  BenchProgram Queue{"queue", queueSource(), "bench_queue", 50000, nullptr};
  report("perceus", "perceus", Queue, Full);
  report("perceus (no reuse)", "perceus-no-reuse", Queue, NoReuse);

  std::printf("\nreuse byte accounting (shadow alloc/free ledger vs heap "
              "counters):\n");
  // Small mapsum keeps the Figure 1 site table readable; rbtree and
  // msort exercise the Con@ru fast path at depth.
  BenchProgram SmallMap{"mapsum", mapSumSource(), "bench_mapsum", 1000,
                        nullptr};
  bool Ok = verifyReuseByteAccounting("mapsum (perceus)", SmallMap, Full,
                                      /*PrintSites=*/true);
  Ok &= verifyReuseByteAccounting("rbtree (perceus)", Programs[0], Full,
                                  /*PrintSites=*/false);
  Ok &= verifyReuseByteAccounting("msort (perceus)", Sort, Full,
                                  /*PrintSites=*/false);

  if (!JsonPath.empty() && !Rep.write(JsonPath))
    return 1;
  return Ok ? 0 : 1;
}

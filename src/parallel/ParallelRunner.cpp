//===- parallel/ParallelRunner.cpp - Worker-pool execution ---------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "parallel/ParallelRunner.h"

#include "bytecode/VM.h"
#include "runtime/SharedPool.h"

#include <chrono>
#include <thread>

using namespace perceus;

namespace {
double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}
} // namespace

ParallelRunner::ParallelRunner(std::string_view Source,
                               const PassConfig &Config)
    : Art(compileArtifact(Source, Config)) {}

ParallelRunner::~ParallelRunner() = default;

ParallelOutcome ParallelRunner::run(const EngineConfig &EC,
                                    std::string_view Entry,
                                    std::vector<Value> Args) {
  ParallelOutcome Out;
  if (!Art->Ok) {
    Out.Error = Art->Error;
    return Out;
  }
  unsigned Workers = EC.Workers ? EC.Workers : 1;

  // Names resolve through the artifact's index: the Program and its
  // bytecode are strictly read-only once workers run.
  FuncId EntryFn = Art->function(Entry);
  if (EntryFn == InvalidId) {
    Out.Error = "no such entry function: " + std::string(Entry);
    return Out;
  }
  const CompiledProgram &Code = *Art->Code;

  bool HasShared = !EC.SharedBuilder.empty();
  FuncId Builder = InvalidId;
  if (HasShared) {
    if (Art->heapMode() == HeapMode::Gc) {
      Out.Error = "shared-input mode requires a reference-counting "
                  "configuration (the tracing collector has no tshare)";
      return Out;
    }
    Builder = Art->function(EC.SharedBuilder);
    if (Builder == InvalidId) {
      Out.Error = "no such shared-input builder: " + EC.SharedBuilder;
      return Out;
    }
  }

  // Phase 1: build the shared segment on the owner heap. The registry
  // enables the post-join leak sweep; the result is kept alive past the
  // engine's final result drop by the inspector's dup, then published
  // with markShared — after this point every RC update on the segment is
  // atomic, from any thread.
  Heap Owner(HeapMode::Rc, EC.GcThresholdBytes);
  Value Root = Value::unit();
  if (HasShared) {
    Owner.enableCellRegistry();
    VM B(Code, Owner, EC.Peephole);
    B.setResultInspector([&](Value V) {
      Root = V;
      Owner.dup(V);
    });
    RunResult BR = B.run(Builder, EC.SharedArgs);
    if (!BR.Ok) {
      Out.Error = "shared-input builder trapped: " + BR.Error;
      return Out;
    }
    Owner.markShared(Root);
    // One reference per worker (callee-owns: each worker's entry call
    // consumes the reference its argument carries). The dups are issued
    // here, single-threaded, so the owner still has exclusive access.
    for (unsigned W = 0; W != Workers; ++W)
      Owner.dup(Root);
  }

  // Phase 2: run the workers. Each owns a private heap and VM;
  // frees of foreign shared cells park in the pool. Workers write their
  // outcomes into cache-line-padded slots — the elements of Out.Workers
  // are adjacent, and per-worker stores during the run must not bounce a
  // line between cores (the same false-sharing rule as the pool shards).
  SharedCellPool Pool;
  struct alignas(64) PaddedOutcome {
    WorkerOutcome WO;
  };
  std::vector<PaddedOutcome> Slots(Workers);
  auto T0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> Threads;
    Threads.reserve(Workers);
    for (unsigned W = 0; W != Workers; ++W) {
      Threads.emplace_back([&, W] {
        WorkerOutcome &WO = Slots[W].WO;
        Heap H(Art->heapMode(), EC.GcThresholdBytes);
        H.setSharedPool(&Pool);
        // Coalesce the shared-count traffic: net deltas accumulate in a
        // per-worker buffer and flush in batches (VM safepoints, the
        // unconditional post-run flush below, and trap unwinds inside
        // run()). Safe here because the owner retains its root reference
        // until after join — no shared count can reach zero out from
        // under a worker's pending increment (DESIGN.md §7d).
        if (HasShared)
          H.enableSharedCoalescing();
        VM M(Code, H, EC.Peephole);
        M.setLimits(EC.Limits);
        std::vector<Value> WArgs = Args;
        if (HasShared)
          WArgs.push_back(Root);
        auto W0 = std::chrono::steady_clock::now();
        WO.Run = M.run(EntryFn, std::move(WArgs));
        // Every buffered delta must be published before this worker's
        // stats and heap-empty flag are read at join.
        H.flushSharedDeltas();
        WO.Seconds = secondsSince(W0);
        WO.Heap = H.stats();
        WO.HeapEmpty = H.empty();
      });
    }
    for (std::thread &T : Threads)
      T.join();
  }
  Out.Seconds = secondsSince(T0);
  // Every thread that could park has joined: quiesce the pool, making
  // parkedCells() exact and any late park() a checked contract violation.
  Pool.setQuiesced(true);
  Out.Workers.resize(Workers);
  for (unsigned W = 0; W != Workers; ++W)
    Out.Workers[W] = std::move(Slots[W].WO);

  // Phase 3: join bookkeeping, single-threaded again. Absorb the pool
  // (reconciling the owner's live-cell accounting), release the owner's
  // own reference, and — when trapped workers leaked references into the
  // segment — sweep the stragglers via the registry so the garbage-free
  // guarantee holds across threads too.
  Out.Ok = true;
  for (WorkerOutcome &WO : Out.Workers) {
    Out.Ok = Out.Ok && WO.Run.Ok;
    accumulate(Out.Combined, WO.Heap);
  }
  if (HasShared) {
    Owner.absorbSharedFrees(Pool);
    Owner.drop(Root);
    if (!Owner.empty())
      Out.SharedLeaked = Owner.reclaimLeaked();
    Out.Shared = Owner.stats();
  }
  Out.AllHeapsEmpty = Owner.empty();
  for (const WorkerOutcome &WO : Out.Workers)
    Out.AllHeapsEmpty = Out.AllHeapsEmpty && WO.HeapEmpty;
  return Out;
}

//===- parallel/ParallelRunner.h - Worker-pool execution --------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A worker pool that executes N VM instances concurrently —
/// the execution layer that puts Section 2.7.2's thread-shared counts
/// under *real* threads.
///
/// The program is compiled once, in the constructor, through the
/// compile entry (eval/Compile.h); the resulting artifact is read-only
/// at run time and shared by all workers, and each run picks its own
/// tier (EngineConfig::Peephole). Each worker owns a private Heap and VM
/// for its working set, so thread-local counts stay non-atomic.
/// Optionally a **shared segment** is built first: a builder function
/// runs on a dedicated owner heap, its result is published with
/// `markShared` (the paper's `tshare` contract — counts flip negative,
/// all further RC updates are atomic), and every worker receives the
/// shared root as its entry function's final argument. Workers
/// dup/drop/decref the segment concurrently; when one of them observes
/// the last reference its heap parks the cell in a SharedCellPool, which
/// the owner heap absorbs after join (see runtime/SharedPool.h).
///
/// The join merges per-worker HeapStats into one combined view and
/// enforces the garbage-free guarantee across threads: every worker heap
/// and the shared owner heap must be empty after every run — including
/// runs where workers trapped, in which case the owner sweeps leaked
/// shared cells via its cell registry (Heap::reclaimLeaked).
///
/// Contract: worker programs must not call `tshare` themselves when a
/// shared segment is configured — the runner performs the sharing on
/// their behalf, exactly once, before any worker starts.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_PARALLEL_PARALLELRUNNER_H
#define PERCEUS_PARALLEL_PARALLELRUNNER_H

#include "eval/Compile.h"
#include "eval/EngineConfig.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perceus {

/// One worker's results after join.
struct WorkerOutcome {
  RunResult Run;         ///< the engine's run result (trap, checksum, rc)
  HeapStats Heap;        ///< the worker heap's final statistics
  double Seconds = 0;    ///< this worker's own wall clock
  bool HeapEmpty = false;///< Heap::empty() held after the run
};

/// The whole run's results after join.
struct ParallelOutcome {
  bool Ok = false;            ///< every worker ran to completion
  std::string Error;          ///< setup failure (compile, lookup, builder)
  std::vector<WorkerOutcome> Workers;
  HeapStats Combined;         ///< field-wise sum of worker heap stats
  HeapStats Shared;           ///< owner-heap stats after absorb/sweep
  double Seconds = 0;         ///< wall clock spawn-to-join
  bool AllHeapsEmpty = false; ///< workers' and owner's Heap::empty()
  uint64_t SharedLeaked = 0;  ///< shared cells swept after trapped
                              ///< workers (0 on clean runs)
};

/// See the file comment.
class ParallelRunner {
public:
  /// Compiles \p Source under \p Config once for all workers. Check
  /// `ok()` before running.
  ParallelRunner(std::string_view Source, const PassConfig &Config);
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner &) = delete;
  ParallelRunner &operator=(const ParallelRunner &) = delete;

  bool ok() const { return Art->Ok; }
  const DiagnosticEngine &diagnostics() const { return Art->Diags; }

  /// Executes \p EC.Workers VMs concurrently,
  /// each calling \p Entry on \p Args (plus the shared root when
  /// \p EC.SharedBuilder is set); blocks until all joined. May be called
  /// repeatedly. EC's injector/sink hooks are single-VM facilities
  /// and are not installed on worker heaps.
  ParallelOutcome run(const EngineConfig &EC, std::string_view Entry = "main",
                      std::vector<Value> Args = {});

private:
  std::shared_ptr<const CompiledArtifact> Art;
};

} // namespace perceus

#endif // PERCEUS_PARALLEL_PARALLELRUNNER_H

//===- eval/Runner.h - One-stop compile-and-run facade ----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runner bundles the whole stack — the compile entry (eval/Compile.h),
/// a heap and a VM — behind the API the examples, tests and benchmarks
/// use:
///
///   Runner R(Source, PassConfig::perceusFull());
///   RunResult Res = R.callInt("main", {});
///
/// EngineConfig::Peephole picks the tier the VM runs; the compiled
/// artifact is the same either way.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_EVAL_RUNNER_H
#define PERCEUS_EVAL_RUNNER_H

#include "bytecode/VM.h"
#include "eval/Compile.h"
#include "eval/EngineConfig.h"

#include <memory>
#include <string_view>

namespace perceus {

/// See the file comment.
class Runner {
public:
  /// Compiles \p Source under \p Config and sets up a VM configured by
  /// \p EC. Check `ok()` before running.
  Runner(std::string_view Source, const PassConfig &Config,
         const EngineConfig &EC = {});

  /// Compiles an already-resolved program, taking ownership of it.
  Runner(std::unique_ptr<Program> P, const PassConfig &Config,
         const EngineConfig &EC = {});

  ~Runner();
  Runner(const Runner &) = delete;
  Runner &operator=(const Runner &) = delete;

  bool ok() const { return Art->Ok; }
  const DiagnosticEngine &diagnostics() const { return Art->Diags; }
  const Program &program() const { return *Art->Prog; }
  const CompiledArtifact &artifact() const { return *Art; }
  Heap &heap() { return *TheHeap; }
  /// The VM that runs the compiled program.
  VM &engine() { return *TheVM; }
  const PassConfig &config() const { return Art->Config; }
  /// The artifact's peephole rewrite report, whichever tier runs.
  /// Consumed by `perc --pass-stats`.
  const PeepholeReport &peepholeReport() const { return Art->Peephole; }

  /// Calls function \p Name with integer arguments.
  RunResult callInt(std::string_view Name, std::vector<int64_t> Args);

  /// Calls function \p Name with arbitrary values.
  RunResult call(std::string_view Name, std::vector<Value> Args);

  /// After a run in an RC configuration, true iff no cell leaked —
  /// the dynamic garbage-free-at-exit check. With the clean-unwind path
  /// this holds after trapped runs too.
  bool heapIsEmpty() const { return TheHeap->empty(); }

  /// Installs resource limits on the heap and the VM. May be called
  /// between runs; RunLimits::unlimited() restores the ungoverned path.
  void setLimits(const RunLimits &L);

  /// Installs a fault injector on the heap (non-owning; null uninstalls).
  void setFaultInjector(FaultInjector *FI);

  /// Installs a telemetry sink on the heap (non-owning; null uninstalls).
  /// The VM picks it up at the start of the next run and attributes
  /// every RC/alloc/reuse event to its IR site.
  void setStatsSink(StatsSink *S);

private:
  void finishSetup(const EngineConfig &EC);

  std::shared_ptr<const CompiledArtifact> Art;
  std::unique_ptr<Heap> TheHeap;
  std::unique_ptr<VM> TheVM;
};

} // namespace perceus

#endif // PERCEUS_EVAL_RUNNER_H

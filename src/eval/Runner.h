//===- eval/Runner.h - One-stop compile-and-run facade ----------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runner bundles the whole stack — parse, resolve, Perceus pipeline,
/// frame layout, bytecode compile (plus the peephole tier unless
/// EngineConfig::Peephole is off), heap, collector, VM — behind the API
/// the examples, tests and benchmarks use:
///
///   Runner R(Source, PassConfig::perceusFull());
///   RunResult Res = R.callInt("main", {});
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_EVAL_RUNNER_H
#define PERCEUS_EVAL_RUNNER_H

#include "bytecode/Bytecode.h"
#include "bytecode/Peephole.h"
#include "bytecode/VM.h"
#include "eval/Engine.h"
#include "eval/EngineConfig.h"
#include "perceus/Pipeline.h"
#include "support/Diagnostics.h"

#include <memory>
#include <optional>
#include <string_view>

namespace perceus {

/// See the file comment.
class Runner {
public:
  /// Compiles \p Source under \p Config and sets up a VM configured by
  /// \p EC. Check `ok()` before running.
  Runner(std::string_view Source, const PassConfig &Config,
         const EngineConfig &EC = {});

  /// Wraps an already-resolved program (takes no ownership); runs the
  /// pipeline on it.
  Runner(Program &P, const PassConfig &Config, const EngineConfig &EC = {});

  ~Runner();
  Runner(const Runner &) = delete;
  Runner &operator=(const Runner &) = delete;

  bool ok() const { return Ok; }
  const DiagnosticEngine &diagnostics() const { return Diags; }
  Program &program() { return *Prog; }
  Heap &heap() { return *TheHeap; }
  /// The VM that runs the compiled program.
  VM &engine() { return *TheVM; }
  const PassConfig &config() const { return Config; }
  const EngineConfig &engineConfig() const { return EC; }
  /// The peephole rewrite report (empty when EngineConfig::Peephole is
  /// off). Consumed by `perc --pass-stats`.
  const PeepholeReport &peepholeReport() const { return PeepReport; }

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
  void finishSetup();

  PassConfig Config;
  EngineConfig EC;
  DiagnosticEngine Diags;
  std::unique_ptr<Program> OwnedProg;
  Program *Prog = nullptr;
  std::optional<CompiledProgram> Compiled;
  PeepholeReport PeepReport; // peephole tier only
  std::unique_ptr<Heap> TheHeap;
  std::unique_ptr<VM> TheVM;
  bool Ok = false;
};

} // namespace perceus

#endif // PERCEUS_EVAL_RUNNER_H

//===- eval/EngineConfig.h - Unified engine configuration -------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One configuration object for every way of running a program on the
/// bytecode VM. It bundles every resource limit, carries the
/// cross-cutting hooks (fault injector, stats sink) plus the
/// parallel-run fields (worker count, shared segment), and selects the
/// peephole tier. `Runner`, `ParallelRunner`, the `perc` CLI and the
/// bench harnesses all consume the same struct, so a flag like `--fuel=N`
/// is parsed once and threaded everywhere.
///
/// The pass configuration (PassConfig) stays separate on purpose: it
/// selects what code the compiler emits, while EngineConfig selects how
/// the emitted code is executed.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_EVAL_ENGINECONFIG_H
#define PERCEUS_EVAL_ENGINECONFIG_H

#include "eval/Engine.h"

#include <string>
#include <string_view>
#include <vector>

namespace perceus {

class FaultInjector;
class StatsSink;

/// The execution engine. The bytecode VM is the only one; the enum and
/// its name functions remain because the repository benchmark's sources
/// name them (ServiceRequest::Engine, ShardedService::precompile).
enum class EngineKind : uint8_t {
  Vm, ///< the register-based bytecode interpreter (bytecode/VM.h)
};

/// Short stable name ("vm") for flags and tables.
const char *engineKindName(EngineKind K);

/// Parses "vm" into \p Out; returns false on anything else.
bool parseEngineKind(std::string_view Name, EngineKind &Out);

/// See the file comment. Value-semantic and cheap to copy; the injector
/// and sink are non-owning (null = not installed).
struct EngineConfig {
  RunLimits Limits; ///< governor + fuel + depth

  //===--- Parallel runs (consumed by ParallelRunner only) ----------------===//
  unsigned Workers = 1;          ///< number of concurrent VMs
  std::string SharedBuilder;     ///< when non-empty: builder function whose
                                 ///< result becomes the tshare'd segment
  std::vector<Value> SharedArgs; ///< builder arguments (immediates)

  //===--- Cross-cutting hooks (non-owning) -------------------------------===//
  FaultInjector *Injector = nullptr; ///< sees every allocation attempt
  StatsSink *Sink = nullptr;         ///< per-site RC/alloc telemetry

  size_t GcThresholdBytes = 4u << 20; ///< GC collection threshold

  /// Run the VM on the peephole tier (bytecode/Peephole.h: fused
  /// superinstructions, proven-immediate RC ops elided). On by default;
  /// `--no-peephole` runs the raw chunks every compiled artifact keeps
  /// instead, for debugging and for exact (rather than semantic)
  /// RC-instruction counts. Either way the program is compiled once.
  bool Peephole = true;

  /// Convenience builders for the common axes.
  EngineConfig &withLimits(const RunLimits &L) {
    Limits = L;
    return *this;
  }
  EngineConfig &withSink(StatsSink *S) {
    Sink = S;
    return *this;
  }
  EngineConfig &withGcThreshold(size_t Bytes) {
    GcThresholdBytes = Bytes;
    return *this;
  }
  EngineConfig &withPeephole(bool On) {
    Peephole = On;
    return *this;
  }
};

} // namespace perceus

#endif // PERCEUS_EVAL_ENGINECONFIG_H

//===- eval/Compile.h - The one path from source to bytecode ----*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile path, written once: resolve, the Perceus pipeline
/// (perceus/Pipeline.h), frame layout, bytecode and the peephole tier.
/// Runner, ParallelRunner, Service and the perc CLI all compile through
/// compileArtifact and run the immutable CompiledArtifact it returns:
///
///   std::shared_ptr<const CompiledArtifact> A =
///       compileArtifact(Source, PassConfig::perceusFull());
///   VM M(*A->Code, H);
///   RunResult R = M.run(A->function("main"), {Value::makeInt(10)});
///
/// Every artifact is peepholed and keeps its raw chunks, so the tier a
/// run executes is chosen when its VM is built, never by compiling twice.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_EVAL_COMPILE_H
#define PERCEUS_EVAL_COMPILE_H

#include "bytecode/Bytecode.h"
#include "bytecode/Peephole.h"
#include "perceus/Pipeline.h"
#include "runtime/Heap.h"
#include "support/Diagnostics.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perceus {

/// One immutable compiled program, shared read-only by every VM that
/// runs it, on any thread. When compilation fails, Ok is false, Diags
/// holds the diagnostics and Error the message callers report; a failed
/// artifact is cached like any other (Service's negative entries).
struct CompiledArtifact {
  bool Ok = false;
  /// "program failed to compile:\n" and the diagnostics; empty when Ok.
  std::string Error;
  DiagnosticEngine Diags;
  PassConfig Config;
  std::unique_ptr<Program> Prog;
  std::optional<CompiledProgram> Code; ///< peepholed; raw chunks kept
  PeepholeReport Peephole;             ///< what the peephole rewrote
  /// Every top-level function by surface name, resolved at compile time
  /// so no run ever interns into the (mutating) symbol table. The names
  /// are views of Prog's own symbol spellings.
  std::unordered_map<std::string_view, FuncId> Functions;
  /// Estimated resident bytes: the source, the IR arena, both chunk
  /// tiers with every pool, the name index, the peephole report and the
  /// diagnostics. Service's cache sums these against
  /// ServiceConfig::MaxCacheBytes.
  size_t SizeBytes = 0;

  /// The heap mode the program runs on: the tracing collector's for the
  /// gc configuration, reference counting otherwise.
  HeapMode heapMode() const {
    return Config.Mode == RcMode::None ? HeapMode::Gc : HeapMode::Rc;
  }

  /// The function named \p Name, or InvalidId.
  FuncId function(std::string_view Name) const {
    auto It = Functions.find(Name);
    return It == Functions.end() ? InvalidId : It->second;
  }
};

/// Compiles \p Source under \p Config. \p PassStats, when given,
/// receives the static counts after each pipeline pass (the table of
/// `perc --pass-stats`).
std::shared_ptr<const CompiledArtifact>
compileArtifact(std::string_view Source, const PassConfig &Config,
                std::vector<PassStat> *PassStats = nullptr);

/// Compiles an already-resolved program, taking ownership of it.
std::shared_ptr<const CompiledArtifact>
compileArtifact(std::unique_ptr<Program> Prog, const PassConfig &Config,
                std::vector<PassStat> *PassStats = nullptr);

} // namespace perceus

#endif // PERCEUS_EVAL_COMPILE_H

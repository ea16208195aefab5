//===- perceus/Pipeline.h - Pass pipeline and configurations ----*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the Perceus passes into the configurations the paper
/// evaluates (Section 4):
///
///   perceus       insertion + reuse + drop-spec + fusion
///   perceus-noopt insertion only ("Koka, no-opt": reuse analysis and
///                 drop specialization disabled)
///   scoped-rc     lexical-lifetime RC (the Swift / shared_ptr baseline)
///   gc            no RC instructions at all (bodies stay erased); the
///                 abstract machine pairs this with the tracing collector
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_PERCEUS_PIPELINE_H
#define PERCEUS_PERCEUS_PIPELINE_H

#include "ir/Program.h"

#include <string>
#include <string_view>
#include <vector>

namespace perceus {

/// How reference-count instructions are inserted.
enum class RcMode { None, Perceus, Scoped };

/// Which passes run.
struct PassConfig {
  RcMode Mode = RcMode::Perceus;
  bool EnableReuse = true;    ///< reuse analysis (2.4)
  bool EnableDropSpec = true; ///< drop + drop-reuse specialization (2.3)
  bool EnableFusion = true;   ///< dup push-down + fusion (2.3/2.4)
  bool EnableBorrow = false;  ///< borrow inference (Section 6 extension;
                              ///< trades strict garbage-freedom for
                              ///< fewer RC operations)

  /// Full Perceus (the paper's "Koka" configuration).
  static PassConfig perceusFull() { return {}; }

  /// Full Perceus plus inferred borrowing (the Section 6 extension).
  static PassConfig perceusBorrow() {
    PassConfig C;
    C.EnableBorrow = true;
    return C;
  }

  /// Precise RC without the optimizations (the paper's "Koka, no-opt").
  static PassConfig perceusNoOpt() {
    PassConfig C;
    C.EnableReuse = C.EnableDropSpec = C.EnableFusion = false;
    return C;
  }

  /// Scoped-lifetime RC (Section 2.2 baseline; Swift / shared_ptr).
  static PassConfig scoped() {
    PassConfig C;
    C.Mode = RcMode::Scoped;
    C.EnableReuse = C.EnableDropSpec = C.EnableFusion = false;
    return C;
  }

  /// No RC instructions; for use with the tracing collector.
  static PassConfig gc() {
    PassConfig C;
    C.Mode = RcMode::None;
    C.EnableReuse = C.EnableDropSpec = C.EnableFusion = false;
    return C;
  }

  /// Short name used in benchmark tables.
  const char *name() const;
};

/// Sets \p Out to the stock configuration whose name() is \p Name:
/// perceus, perceus-noopt, perceus-borrow, scoped-rc or gc. Returns false,
/// leaving \p Out alone, on any other name.
bool parsePassConfig(std::string_view Name, PassConfig &Out);

/// Static instruction counts over a whole program's IR — the per-pass
/// pipeline statistics behind `perc --pass-stats`. "Static" means
/// occurrences in the IR, not executions; the dynamic counterpart lives
/// in HeapStats / RunResult.
struct IrOpCounts {
  uint64_t Dups = 0;       ///< dup instructions
  uint64_t Drops = 0;      ///< drop instructions
  uint64_t Frees = 0;      ///< free instructions
  uint64_t DecRefs = 0;    ///< decref instructions
  uint64_t IsUniques = 0;  ///< is-unique tests
  uint64_t DropReuses = 0; ///< drop-reuse bindings
  uint64_t ReuseCons = 0;  ///< Con@ru constructors
  uint64_t TokenOps = 0;   ///< &x / NULL tokens
  uint64_t Nodes = 0;      ///< all expression nodes

  uint64_t rcTotal() const {
    return Dups + Drops + Frees + DecRefs + IsUniques + DropReuses;
  }
};

/// Walks every function body of \p P once.
IrOpCounts countIrOps(const Program &P);

/// The static counts captured after one pipeline stage.
struct PassStat {
  std::string Pass;  ///< "input", "perceus insertion (2.2)", ...
  IrOpCounts Counts; ///< program-wide counts after the stage ran
};

/// Runs the configured pipeline over all functions of \p P. \p Stats,
/// when given, receives countIrOps before the first pass ("input") and
/// after each pass that actually ran.
void runPipeline(Program &P, const PassConfig &Config,
                 std::vector<PassStat> *Stats = nullptr);

/// One captured intermediate stage of the pipeline for one function.
struct StageDump {
  std::string Stage; ///< e.g. "dup/drop insertion (2.2)"
  std::string Text;  ///< pretty-printed function
};

/// Runs the full-Perceus pipeline on function \p F only, capturing the
/// pretty-printed function after each stage — the Figure 1 reproduction.
std::vector<StageDump> runPipelineWithStages(Program &P, FuncId F);

} // namespace perceus

#endif // PERCEUS_PERCEUS_PIPELINE_H

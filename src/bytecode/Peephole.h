//===- bytecode/Peephole.h - Post-compile superinstruction tier -*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The peephole tier: a post-compile rewrite of every chunk in a
/// CompiledProgram that (a) deletes RC instructions the immediacy
/// analysis (analysis/ImmediateAnalysis.h) proved to be dynamic no-ops,
/// and (b) fuses hot adjacent instruction pairs/triples into the
/// superinstructions at the tail of the Op enum. Both transforms
/// preserve the heap-semantics contract from Bytecode.h:
///
///   * Elision only removes dup/drop/decref whose operand is a proven
///     immediate — operations the heap classifies as NonHeapRcOps. Every
///     heap-semantic counter (allocs, frees, heap dups/drops, reuse
///     hits, peak bytes) is bit-identical before and after; only the
///     non-heap RC tallies and the engine's own Dups/Drops/DecRefs
///     shrink, by exactly the same amount on both sides of the heap/
///     engine classification invariant.
///   * Fusion is literal handler concatenation — the fused opcode runs
///     the same heap calls, telemetry stamps and traps at the same
///     points as the pair it replaces, and additionally counts itself
///     in RcInstrCounts::FusedOps/FusedRcOps.
///
/// Control-flow safety: an instruction that is a jump target (a
/// "leader") never becomes the second-or-later component of a fusion,
/// and no fusion spans a leader — including the pcs of elided
/// instructions inside the fused span, since their remapped targets
/// would otherwise land mid-superinstruction. Match tables of rewritten
/// chunks are cloned (arm targets remapped) so the retained raw chunks
/// keep their original tables.
///
/// The pre-rewrite chunks move to CompiledProgram::RawFuncs/RawLams;
/// VM::run falls back to them for any run whose entry arguments include
/// heap references (see the soundness boundary in ImmediateAnalysis.h).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_BYTECODE_PEEPHOLE_H
#define PERCEUS_BYTECODE_PEEPHOLE_H

#include "bytecode/Bytecode.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perceus {

/// Per-chunk rewrite statistics, reported by `perc --pass-stats`.
struct PeepholeChunkStats {
  std::string Name;     ///< function name, or "lambda#N"
  uint32_t Before = 0;  ///< instructions pre-rewrite
  uint32_t After = 0;   ///< instructions post-rewrite
  uint32_t Elided = 0;  ///< RC instructions deleted (proven immediate)
  uint32_t Fused = 0;   ///< fusions performed (each removes >=1 instr)
};

struct PeepholeReport {
  std::vector<PeepholeChunkStats> Chunks;
  uint32_t AnalysisRounds = 0; ///< immediacy fixpoint rounds
  uint64_t totalElided() const {
    uint64_t N = 0;
    for (const auto &C : Chunks)
      N += C.Elided;
    return N;
  }
  uint64_t totalFused() const {
    uint64_t N = 0;
    for (const auto &C : Chunks)
      N += C.Fused;
    return N;
  }
};

/// Rewrites \p CP in place (idempotent: a second call on an already
/// peepholed program is a no-op returning an empty report). Runs the
/// immediacy analysis on CP.Prog, then elides and fuses every function
/// and lambda chunk.
PeepholeReport runPeephole(CompiledProgram &CP);

} // namespace perceus

#endif // PERCEUS_BYTECODE_PEEPHOLE_H

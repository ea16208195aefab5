//===- eval/Engine.h - Run limits, results, traps and counters --*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The limit, result, trap and counter types of a run on the bytecode
/// VM (bytecode/VM.h). Every trap takes the clean-unwind path: after it the
/// VM has reclaimed everything it still referenced, so Heap::empty()
/// holds on the error path too. RcInstrCounts, reuse hits/misses and the
/// heap's own counters are bit-identical across the raw and peephole
/// tiers; dispatch-granularity metrics (Steps, TailCalls, MaxCallDepth,
/// MaxLocalsSlots) count bytecode instructions and frames.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_EVAL_ENGINE_H
#define PERCEUS_EVAL_ENGINE_H

#include "ir/Program.h"
#include "runtime/Heap.h"

#include <string>
#include <vector>

namespace perceus {

/// Why a run stopped. `Ok` is the only kind with a result value; all
/// others are traps, after which the engine has unwound its frames and
/// released every reachable cell (the heap is empty again — the
/// garbage-free guarantee extends to the error path).
enum class TrapKind : uint8_t {
  Ok,            ///< ran to completion
  OutOfMemory,   ///< the heap governor refused an allocation
  OutOfFuel,     ///< the step-fuel limit was exhausted
  StackOverflow, ///< the call-depth limit was exceeded
  RuntimeError,  ///< dynamic error: arity/tag/type mismatch, div-0, abort
  Deadline,      ///< the wall-clock deadline expired mid-run
};

/// Short stable name ("ok", "out-of-memory", ...) for messages/tables.
const char *trapKindName(TrapKind K);

/// How many RC operations the engine issued against the heap, counted
/// at the engine side so tests can cross-check them against the heap's
/// classification counters (see the invariant on HeapStats). The
/// explicit counters tally instructions in the instrumented IR; the
/// Implicit* counters tally heap calls the engine makes on its own
/// behalf — closure application (rule app_r: dup each capture, drop the
/// closure), ref cell primitives, tshare's consuming drop, the final
/// heap-result release, and drop-reuse's expansion (dropChildren on the
/// unique path, decref on the shared path). By construction:
///
///   heap dup calls    == Dups + ImplicitDups
///   heap drop calls   == Drops + ImplicitDrops
///   heap decref calls == DecRefs + ImplicitDecRefs
///   heap is-unique calls == IsUniques
struct RcInstrCounts {
  uint64_t Dups = 0;       ///< dup instructions executed
  uint64_t Drops = 0;      ///< drop instructions executed
  uint64_t Frees = 0;      ///< free instructions executed (memory-only)
  uint64_t DecRefs = 0;    ///< decref instructions executed
  uint64_t IsUniques = 0;  ///< is-unique tests executed (all forms)
  uint64_t DropReuses = 0; ///< drop-reuse instructions executed
  uint64_t ImplicitDups = 0;
  uint64_t ImplicitDrops = 0;
  uint64_t ImplicitDecRefs = 0;

  /// Superinstructions executed (peephole tier only; always 0 on raw
  /// bytecode). Their RC components increment the counters above
  /// exactly as the unfused instructions would — FusedOps counts the
  /// combined dispatches, FusedRcOps the RC operations that executed
  /// inside them, so dispatch savings stay auditable without touching
  /// the classification invariant.
  uint64_t FusedOps = 0;
  uint64_t FusedRcOps = 0;

  uint64_t totalCalls() const {
    return Dups + ImplicitDups + Drops + ImplicitDrops + DecRefs +
           ImplicitDecRefs + IsUniques;
  }
};

/// Resource limits for one VM: heap governor plus fuel and call
/// depth. Zero fields mean "unlimited"; the default is the ungoverned
/// fast path.
struct RunLimits {
  HeapLimits Heap;            ///< live bytes / live cells / alloc budget
  uint64_t Fuel = 0;          ///< max VM instructions (0 = unlimited)
  uint64_t MaxCallDepth = 0;  ///< max live non-tail frames (0 = unlimited)
  uint64_t DeadlineMs = 0;    ///< wall-clock budget per run in ms (0 =
                              ///< none); expiry traps with
                              ///< TrapKind::Deadline, clean-unwound

  static RunLimits unlimited() { return {}; }
};

/// Per-run execution statistics and results.
struct RunResult {
  bool Ok = false;
  TrapKind Trap = TrapKind::Ok; ///< structured trap cause when !Ok
  std::string Error;       ///< trap message when !Ok
  Value Result;            ///< final value (immediates only; heap results
                           ///< are reported as kind HeapRef and dropped)
  std::string Output;      ///< accumulated println output
  uint64_t Steps = 0;      ///< bytecode instructions dispatched (a fused
                           ///< superinstruction counts once)
  uint64_t ReuseHits = 0;  ///< Con@ru with a non-null token (in-place)
  uint64_t ReuseMisses = 0;///< Con@ru that had to allocate fresh
  uint64_t TailCalls = 0;  ///< frame-reusing calls
  uint64_t MaxCallDepth = 0;  ///< high-water mark of live non-tail call
                              ///< frames — true continuation depth (tail
                              ///< calls reuse their frame; FBIP loops
                              ///< stay at depth 1)
  uint64_t MaxLocalsSlots = 0;///< high-water mark of the locals stack in
                              ///< slots (sums frame sizes, not depth)
  uint64_t UnwoundCells = 0;  ///< cells reclaimed by the trap unwind
  RcInstrCounts Rc;        ///< engine-side RC operation counts
};

} // namespace perceus

#endif // PERCEUS_EVAL_ENGINE_H

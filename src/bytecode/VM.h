//===- bytecode/VM.h - Register bytecode interpreter ------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode execution engine: a register-machine interpreter over
/// bytecode/Bytecode.h chunks, dispatching with computed goto (a GCC
/// and Clang extension; VM.cpp's overflow checks need those compilers
/// too). Handlers read their operands in place through the program counter, a
/// pointer into the current chunk, and each dispatch pays one compare
/// for fuel, safepoints and deadlines together (see VM::execute).
///
/// It is the only execution engine. Every trap takes the clean-unwind
/// path (the heap is empty afterwards), and the raw and peephole tiers
/// issue the same heap-operation sequence (see the contract in
/// Bytecode.h). Call frames overlap Lua-style
/// in one register stack — a call copies its operand list into a window
/// that becomes the callee's parameter registers — and tail calls are
/// resolved statically by the compiler and reuse the frame in place.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_BYTECODE_VM_H
#define PERCEUS_BYTECODE_VM_H

#include "bytecode/Bytecode.h"
#include "eval/Engine.h"
#include "runtime/Heap.h"

#include <chrono>
#include <cstring>
#include <memory>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

// Build with -DPERCEUS_VM_PROFILE=1 to tally every executed opcode pair
// into perceus::VmPairProfile (indexed [prev][cur]). This is how the
// superinstruction set in bytecode/Peephole.cpp was chosen: run the
// benchmarks on a profiled build, rank the pair counts, fuse the top
// ones. Off by default — the counter write would cost more than some
// handlers.
#ifndef PERCEUS_VM_PROFILE
#define PERCEUS_VM_PROFILE 0
#endif

namespace perceus {

#if PERCEUS_VM_PROFILE
/// Executed opcode pairs, [previous opcode][dispatched opcode], summed
/// over every VM in the process (not synchronized).
extern uint64_t VmPairProfile[NumOpcodes][NumOpcodes];
#endif

/// The flat register stack backing all frames, one Word per register: a
/// drop-in for std::vector<Word> whose size changes stay inline. Frames
/// grow and shrink on every call and return, and libstdc++'s out-of-line
/// default-append path showed up at ~5% of VM time on the Figure 9 set.
/// Reframing is a size update plus one memset of the fresh slots to the
/// empty word; only capacity growth leaves the fast path.
class RegStack {
public:
  Word *data() { return Mem.get(); }
  const Word *begin() const { return Mem.get(); }
  const Word *end() const { return Mem.get() + Sz; }
  size_t size() const { return Sz; }
  Word &operator[](size_t I) { return Mem[I]; }
  void clear() { Sz = 0; }

  /// Sets the stack to \p N slots with slots [From, N) empty — the
  /// combined frame-resize + argument-window-clear every call executes.
  /// \p From never exceeds \p N (arguments fit the frame).
  void reframe(size_t N, size_t From) {
    static_assert(std::is_trivially_copyable_v<Word>,
                  "a frame is cleared with memset");
    assert(From <= N && "arguments must fit the frame");
    if (N > Cap)
      grow(N);
    std::memset(static_cast<void *>(Mem.get() + From), 0,
                (N - From) * sizeof(Word));
    Sz = N;
  }

  /// vector::resize semantics: growth clears, shrink truncates.
  void resize(size_t N) { reframe(N, Sz < N ? Sz : N); }

private:
  void grow(size_t N);

  std::unique_ptr<Word[]> Mem;
  size_t Sz = 0, Cap = 0;
};

/// Executes compiled programs; see the file comment. One VM per thread:
/// the CompiledProgram is immutable and shareable, the VM is not.
class VM {
public:
  /// \p CP must outlive the VM and have been compiled from the program
  /// whose cells \p H manages. A GC-mode heap gets the mark-sweep
  /// collector armed, with this VM's frames as its roots. \p Peephole
  /// picks the tier of a peepholed program: its rewritten chunks, or the
  /// raw chunks it keeps (CompiledProgram::RawFuncs/RawLams).
  VM(const CompiledProgram &CP, Heap &H, bool Peephole = true);
  VM(const VM &) = delete; ///< the heap's collector holds this address
  VM &operator=(const VM &) = delete;

  /// Runs function \p F on \p Args (ownership of heap arguments
  /// transfers to the callee). A heap-valued result is dropped before
  /// returning (reported in Result.Kind). An integer argument outside the
  /// 63-bit range (fitsInt) is a trap, and the heap arguments are freed.
  RunResult run(FuncId F, std::vector<Value> Args);

  /// Installs \p L: the governor on the heap, and on this VM
  ///   * Fuel, the bytecode instructions before an OutOfFuel trap (a
  ///     fused superinstruction counts once);
  ///   * MaxCallDepth, the live non-tail frames before a StackOverflow
  ///     trap (tail calls reuse their frame and never count);
  ///   * DeadlineMs, a wall-clock budget per run whose clock starts at
  ///     the next run() entry. Expiry traps with TrapKind::Deadline; the
  ///     check is step-batched (one steady_clock read every
  ///     DeadlineCheckInterval instructions), so it fires within a
  ///     batch, not on the exact instruction.
  /// Zero fields are unlimited. May be called between runs.
  void setLimits(const RunLimits &L) {
    H.setLimits(L.Heap);
    StepLimit = L.Fuel;
    CallDepthLimit = L.MaxCallDepth;
    DeadlineMs = L.DeadlineMs;
  }

  /// How many instructions run between deadline clock reads.
  static constexpr uint64_t DeadlineCheckInterval = 1024;

  /// How many safepoints pass between full flushes of the heap's
  /// shared-count coalescing buffer (Heap::flushSharedDeltas). Flushing
  /// every safepoint would defeat coalescing: the dominant cancellation
  /// is a dup from one traversal round netting against the decref from
  /// the previous round, and a round usually spans many safepoint
  /// intervals. A longer stride keeps staleness bounded (other workers
  /// see counts at most this many instructions old) without forcing one
  /// RMW per operation. Correctness never depends on the stride: a
  /// shared count cannot reach zero while any worker still runs (the
  /// segment owner retains its root reference until after join), and
  /// trap unwind and join flush unconditionally.
  static constexpr uint64_t SharedFlushSafepointStride = 32;

  /// Enumerates every register of every live frame, plus the pending
  /// result: the GC roots. Registers may hold the empty word.
  void enumerateRoots(const std::function<void(Word)> &Fn) const;

  /// Called with the final value right before the VM releases it (heap
  /// results are dropped to keep runs garbage free); lets callers
  /// inspect structured results.
  void setResultInspector(std::function<void(Value)> Fn) {
    ResultInspector = std::move(Fn);
  }

  /// The heap this VM allocates from.
  Heap &heap() { return H; }

private:
  /// A suspended caller: where to resume and where the callee's value
  /// goes.
  struct Frame {
    const Chunk *Ch;
    uint32_t Pc;   ///< resume index into Ch->Code
    uint32_t Base; ///< the caller frame's first register
    uint32_t Dst;  ///< caller register receiving the return value
  };

  void execute(const Chunk *Entry, RunResult &R);
  const Chunk *resolveCallee(Word Callee, uint32_t NArgs, Cell *&Clo);
  void applyClosure(const Chunk *T, Cell *Clo, const Expr *CallSite,
                    Word *RF);
  void trap(std::string Msg, TrapKind Kind = TrapKind::RuntimeError);
  void unwind();

  const CompiledProgram &CP;
  Heap &H;

  RegStack Regs; ///< one overlapped register stack, all frames
  std::vector<Frame> Frames;
  Word Result;

  RunResult *Run = nullptr;
  StatsSink *Sink = nullptr; // cached from H.statsSink() at run() entry
  uint64_t StepLimit = 0;
  uint64_t CallDepthLimit = 0;
  uint64_t CallDepth = 0; // live non-tail frames
  uint64_t DeadlineMs = 0;
  std::chrono::steady_clock::time_point DeadlineAt{};
  bool Trapped = false;
  /// True while the current run executes the pre-peephole chunk tables.
  /// Set at run() entry when the program is peepholed and either this VM
  /// runs the raw tier or an entry argument is a heap reference (e.g. a
  /// thread-shared segment), which voids the immediacy analysis's
  /// whole-program assumptions — see CompiledProgram::Peepholed.
  bool UseRawChunks = false;
  bool PeepholeTier = true; ///< the constructor's tier choice
  std::function<void(Value)> ResultInspector;
};

} // namespace perceus

#endif // PERCEUS_BYTECODE_VM_H

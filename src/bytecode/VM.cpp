//===- bytecode/VM.cpp - Register bytecode interpreter ------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Dispatch is threaded (computed goto) on GCC/Clang and a plain switch
// elsewhere; the handler bodies are written once and shared by both
// forms through the VM_CASE/VM_NEXT macros, whose control transfer is
// goto-based in both modes so handlers may use VM_NEXT from inside
// nested loops without capture-by-break surprises.
//
// Parity note: every heap call, telemetry stamp, counter increment and
// trap message below mirrors eval/Machine.cpp line for line — when
// changing one engine, change the other. Differences are confined to the
// engine-specific metrics (Steps, TailCalls, MaxCallDepth,
// MaxLocalsSlots), which count dispatches and frames at this engine's
// own granularity.
//
//===----------------------------------------------------------------------===//

#include "bytecode/VM.h"

#include "support/Telemetry.h"

#include <algorithm>

using namespace perceus;

#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(PERCEUS_VM_FORCE_SWITCH)
#define PERCEUS_VM_COMPUTED_GOTO 1
#else
#define PERCEUS_VM_COMPUTED_GOTO 0
#endif

// Build with -DPERCEUS_VM_PROFILE=1 to tally every executed opcode pair
// into perceus::VmPairProfile (indexed [prev][cur]). This is how the
// superinstruction set in bytecode/Peephole.cpp was chosen: run the
// benchmarks on a profiled build, rank the pair counts, fuse the top
// ones. Off by default — the counter write would cost more than some
// handlers.
#ifndef PERCEUS_VM_PROFILE
#define PERCEUS_VM_PROFILE 0
#endif
#if PERCEUS_VM_PROFILE
namespace perceus {
uint64_t VmPairProfile[NumOpcodes][NumOpcodes];
}
#define VM_PROFILE_PAIR()                                                      \
  do {                                                                         \
    VmPairProfile[ProfPrevOp][static_cast<size_t>(I.O)]++;                     \
    ProfPrevOp = static_cast<size_t>(I.O);                                     \
  } while (0)
#else
#define VM_PROFILE_PAIR() (void)0
#endif

/// Every opcode, in the exact order of the Op enum (the computed-goto
/// table is indexed by the raw opcode byte).
#define PERCEUS_VM_OPCODES(X)                                                  \
  X(LoadConst) X(Move)                                                         \
  X(Jump) X(JumpIfFalse) X(MatchOp)                                            \
  X(Call) X(CallStatic) X(TailCall) X(TailCallStatic) X(Ret)                   \
  X(MakeClosure) X(Con) X(ConReuse)                                            \
  X(Dup) X(Drop) X(FreeOp) X(DecRef) X(IsUniqueBr) X(DropReuse)                \
  X(ReuseAddr) X(IsNullTokenBr) X(SetField) X(TokenValue)                      \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(Neg)                                    \
  X(Lt) X(Le) X(Gt) X(Ge) X(EqVal) X(NeVal) X(Not)                             \
  X(PrintLn) X(MarkSharedOp) X(AbortOp)                                        \
  X(RefNew) X(RefGet) X(RefSet)                                                \
  X(TrapOp)                                                                    \
  X(DupMove) X(Dup2) X(Drop2) X(Dup3) X(Drop3)                                 \
  X(DupCallStatic) X(DupCall) X(IsUniqueReuse) X(SetFieldToken)                \
  X(Move2) X(LoadConstMove) X(RetConst)                                        \
  X(LtBr) X(LeBr) X(GtBr) X(GeBr) X(EqBr) X(NeBr) X(CmpConstBr)            \
  X(CmpJmp) X(MoveArith) X(ArithMove) X(ArithConst) X(Move3)                   \
  X(MoveTailCallStatic) X(IsUniqueBrDup2) X(DecLoadConst)                      \
  X(JfMove) X(JfDrop) X(DropLoadConst) X(DropRetConst)                         \
  X(DupDecLoadConst) X(Dup2DecLoadConst) X(Dup2Move2) X(MoveDupMove)       \
  X(MoveArithConst) X(ArithConstMove) X(MoveCmpConstBr) X(ConRet)          \
  X(DropMove) X(ArithConstRet) X(IsUniqueReuseJmp)

/// Capacity growth is the only out-of-line RegStack path: doubling keeps
/// it amortized to the deepest frame ever reached, after which every
/// reframe is a size update plus the unit-fill.
void RegStack::grow(size_t N) {
  size_t NewCap = Cap ? Cap * 2 : 64;
  if (NewCap < N)
    NewCap = N;
  std::unique_ptr<Value[]> NewMem(new Value[NewCap]);
  std::copy(Mem.get(), Mem.get() + Sz, NewMem.get());
  Mem = std::move(NewMem);
  Cap = NewCap;
}

void VM::trap(std::string Msg, TrapKind Kind) {
  Trapped = true;
  Run->Ok = false;
  Run->Trap = Kind;
  Run->Error = std::move(Msg);
}

/// The clean-unwind path, identical in effect to Machine::unwind: after
/// a trap every value still held in a register or the result is garbage;
/// reclaim it all so Heap::empty() holds on the error path too. Registers
/// may be stale — ownership already moved on, or the cell already freed —
/// which Heap::reclaim tolerates by design (registry check + dedup).
void VM::unwind() {
  size_t Freed;
  if (H.mode() == HeapMode::Gc) {
    Freed = H.reclaimAll();
  } else {
    std::vector<Value> Roots;
    Roots.reserve(Regs.size() + 1);
    Roots.insert(Roots.end(), Regs.begin(), Regs.end());
    Roots.push_back(Result);
    Freed = H.reclaim(Roots);
  }
  Regs.clear();
  Frames.clear();
  Result = Value::unit();
  Run->UnwoundCells = Freed;
}

/// Rule (app_r), same order as Machine::doCall: the callee's arguments
/// are already bound (the operand window is the parameter region), so
/// dup each capture into its frame slot, then drop the closure.
void VM::applyClosure(const Chunk *T, Cell *Clo, const Expr *CallSite,
                      Value *RF) {
  if (Sink)
    Sink->setSite(T->Lam, "app", CallSite->loc());
  for (size_t I = 0; I != T->CaptureDst.size(); ++I) {
    Value Cap = Clo->field(1 + I);
    ++Run->Rc.ImplicitDups;
    H.dup(Cap);
    RF[T->CaptureDst[I]] = Cap;
  }
  ++Run->Rc.ImplicitDrops;
  H.drop(Value::makeRef(Clo));
}

RunResult VM::run(FuncId F, std::vector<Value> Args) {
  RunResult R;
  Run = &R;
  Sink = H.statsSink();
  Trapped = false;
  CallDepth = 0;
  if (DeadlineMs)
    DeadlineAt = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(DeadlineMs);
  Frames.clear();
  Result = Value::unit();

  // The peephole tier's RC elision assumes every heap cell in the run
  // was built by this program's own constructor sites. A heap-valued
  // entry argument (e.g. a thread-shared segment from the parallel
  // runner) voids that, so such runs execute the retained raw chunks.
  UseRawChunks = false;
  if (CP.Peepholed)
    for (const Value &A : Args)
      if (A.isHeap()) {
        UseRawChunks = true;
        break;
      }

  const Chunk &Entry = (UseRawChunks ? CP.RawFuncs : CP.Funcs)[F];
  if (Args.size() != Entry.NumParams) {
    trap("entry function arity mismatch");
    // Ownership of the arguments transferred to us; unwind them.
    Regs.assign(Args.data(), Args.data() + Args.size());
    unwind();
    Run = nullptr;
    return R;
  }
  Regs.assign(Entry.NumRegs, Value::unit());
  for (size_t I = 0; I != Args.size(); ++I)
    Regs[I] = Args[I];
  if (Regs.size() > R.MaxLocalsSlots)
    R.MaxLocalsSlots = Regs.size();

  execute(&Entry, R);

  if (!Trapped) {
    R.Ok = true;
    R.Result = Result;
    if (ResultInspector)
      ResultInspector(Result);
    // The caller of the entry point owns the result; release heap
    // results so a garbage-free run ends with an empty heap.
    if (Result.isHeap()) {
      if (Sink)
        Sink->setSite(this, "result", SourceLoc{});
      ++R.Rc.ImplicitDrops;
      H.drop(Result);
    }
    Regs.clear();
    Result = Value::unit();
  } else {
    unwind();
  }
  Run = nullptr;
  return R;
}

void VM::execute(const Chunk *Entry, RunResult &R) {
  const Chunk *Ch = Entry;
  const Instr *Code = Ch->Code.data();
  const Expr *const *Sites = Ch->Sites.data();
  const Expr *const *Sites2 = Ch->Sites2.data();
  const Expr *const *Sites3 = Ch->Sites3.data();
  const std::vector<Chunk> &FuncTab = UseRawChunks ? CP.RawFuncs : CP.Funcs;
  const std::vector<Chunk> &LamTab = UseRawChunks ? CP.RawLams : CP.Lams;
  uint32_t BaseL = 0;
  Value *RF = Regs.data();
  const Value *Consts = CP.Consts.data();
  uint32_t Pc = 0;
  uint64_t Steps = 0;
  const uint64_t Fuel = StepLimit;
  const bool HasDeadline = DeadlineMs != 0;
  // Safepoints fire on the deadline cadence when armed: a deadline is
  // set, or the heap coalesces shared counts and must flush buffered
  // deltas periodically so other workers observe bounded-stale counts.
  const bool HasSafepoint = HasDeadline || H.sharedCoalescingEnabled();
  Instr I{};
#if PERCEUS_VM_PROFILE
  size_t ProfPrevOp = 0;
#endif

#define VM_TRAP(Msg, Kind)                                                     \
  do {                                                                         \
    trap(Msg, Kind);                                                           \
    goto Exit;                                                                 \
  } while (0)

#define VM_FUEL_CHECK()                                                        \
  do {                                                                         \
    ++Steps;                                                                   \
    if (Fuel && Steps > Fuel)                                                  \
      VM_TRAP("step limit exceeded (out of fuel)", TrapKind::OutOfFuel);       \
    if (HasSafepoint && (Steps & (DeadlineCheckInterval - 1)) == 0) {          \
      if ((Steps &                                                             \
           (DeadlineCheckInterval * SharedFlushSafepointStride - 1)) == 0)     \
        H.flushSharedDeltas();                                                 \
      if (HasDeadline && std::chrono::steady_clock::now() >= DeadlineAt)       \
        VM_TRAP("wall-clock deadline exceeded", TrapKind::Deadline);           \
    }                                                                          \
  } while (0)

  // Re-derive the cached frame pointer / chunk pointers after anything
  // that resizes the register stack or switches frames.
#define VM_REFRAME() (RF = Regs.data() + BaseL)
#define VM_SWITCH_CHUNK(NewCh)                                                 \
  do {                                                                         \
    Ch = (NewCh);                                                              \
    Code = Ch->Code.data();                                                    \
    Sites = Ch->Sites.data();                                                  \
    Sites2 = Ch->Sites2.data();                                                \
    Sites3 = Ch->Sites3.data();                                                \
  } while (0)

#if PERCEUS_VM_COMPUTED_GOTO
  static const void *const Tab[] = {
#define PERCEUS_VM_LABEL(Name) &&L_##Name,
      PERCEUS_VM_OPCODES(PERCEUS_VM_LABEL)
#undef PERCEUS_VM_LABEL
  };
  static_assert(sizeof(Tab) / sizeof(Tab[0]) == NumOpcodes,
                "dispatch table out of sync with the Op enum");
#define VM_CASE(Name) L_##Name:
#define VM_NEXT()                                                              \
  do {                                                                         \
    VM_FUEL_CHECK();                                                           \
    I = Code[Pc++];                                                            \
    VM_PROFILE_PAIR();                                                         \
    goto *Tab[static_cast<size_t>(I.O)];                                       \
  } while (0)
  VM_NEXT();
#else
#define VM_CASE(Name) case Op::Name:
#define VM_NEXT() goto NextInstr
NextInstr:
  VM_FUEL_CHECK();
  I = Code[Pc++];
  VM_PROFILE_PAIR();
  switch (I.O) {
#endif

  VM_CASE(LoadConst) {
    RF[I.B] = Consts[I.E];
    VM_NEXT();
  }
  VM_CASE(Move) {
    RF[I.B] = RF[I.C];
    VM_NEXT();
  }

  //===--- Control flow ---------------------------------------------------===//
  VM_CASE(Jump) {
    Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(JumpIfFalse) {
    Value V = RF[I.B];
    if (V.Kind != ValueKind::Bool)
      VM_TRAP("if condition is not a boolean", TrapKind::RuntimeError);
    if (!V.asBool())
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(MatchOp) {
    Value V = RF[I.B];
    const MatchTable &T = CP.Matches[I.E];
    const MatchArmCode *Default = nullptr;
    for (const MatchArmCode &Arm : T.Arms) {
      bool Matches = false;
      switch (Arm.Kind) {
      case ArmKind::Ctor:
        if (V.Kind == ValueKind::Enum)
          Matches = V.enumTag() == Arm.Tag;
        else if (V.Kind == ValueKind::HeapRef &&
                 V.Ref->H.Kind == CellKind::Ctor)
          Matches = V.Ref->H.Tag == Arm.Tag;
        else if (V.Kind != ValueKind::Enum && V.Kind != ValueKind::HeapRef)
          VM_TRAP("match on a non-constructor value", TrapKind::RuntimeError);
        break;
      case ArmKind::IntLit:
        if (V.Kind != ValueKind::Int)
          VM_TRAP("integer pattern on a non-integer value",
                  TrapKind::RuntimeError);
        Matches = V.Int == Arm.Lit;
        break;
      case ArmKind::BoolLit:
        if (V.Kind != ValueKind::Bool)
          VM_TRAP("boolean pattern on a non-boolean value",
                  TrapKind::RuntimeError);
        Matches = (V.Int != 0) == (Arm.Lit != 0);
        break;
      case ArmKind::Default:
        // Recorded, but the scan continues: a later ill-typed arm still
        // traps even when a default exists (CEK parity).
        Default = &Arm;
        break;
      }
      if (Matches) {
        const uint16_t *Binders = CP.BinderSlots.data() + Arm.BinderBase;
        for (uint32_t J = 0; J != Arm.NumBinders; ++J)
          RF[Binders[J]] = V.Ref->field(J);
        Pc = Arm.Target;
        VM_NEXT();
      }
    }
    if (Default) {
      Pc = Default->Target;
      VM_NEXT();
    }
    VM_TRAP("non-exhaustive match", TrapKind::RuntimeError);
  }

  //===--- Calls ----------------------------------------------------------===//
  VM_CASE(CallStatic) {
    const Chunk *T = &FuncTab[I.E];
    if (CallDepthLimit && CallDepth >= CallDepthLimit)
      VM_TRAP("call depth limit exceeded (stack overflow)",
              TrapKind::StackOverflow);
    ++CallDepth;
    if (CallDepth > R.MaxCallDepth)
      R.MaxCallDepth = CallDepth;
    Frames.push_back(Frame{Ch, Pc, BaseL, I.B});
    BaseL += I.C; // the argument window is the callee's parameter region
    Regs.reframe(BaseL + T->NumRegs, BaseL + I.A);
    if (Regs.size() > R.MaxLocalsSlots)
      R.MaxLocalsSlots = Regs.size();
    VM_SWITCH_CHUNK(T);
    VM_REFRAME();
    Pc = 0;
    VM_NEXT();
  }
  VM_CASE(Call) {
    Value Callee = RF[I.C];
    const Chunk *T;
    Cell *Clo = nullptr;
    if (Callee.Kind == ValueKind::FnRef) {
      T = &FuncTab[Callee.fnId()];
      if (T->NumParams != I.A)
        VM_TRAP("arity mismatch calling '" +
                    std::string(CP.Prog->symbols().name(T->Fn->Name)) + "'",
                TrapKind::RuntimeError);
    } else if (Callee.Kind == ValueKind::HeapRef &&
               Callee.Ref->H.Kind == CellKind::Closure) {
      Clo = Callee.Ref;
      const auto *Lm = static_cast<const LamExpr *>(Clo->field(0).rawPtr());
      T = &LamTab[Lm->lamId()];
      if (T->NumParams != I.A)
        VM_TRAP("arity mismatch calling a closure", TrapKind::RuntimeError);
    } else {
      VM_TRAP("calling a non-function value", TrapKind::RuntimeError);
    }
    if (CallDepthLimit && CallDepth >= CallDepthLimit)
      VM_TRAP("call depth limit exceeded (stack overflow)",
              TrapKind::StackOverflow);
    ++CallDepth;
    if (CallDepth > R.MaxCallDepth)
      R.MaxCallDepth = CallDepth;
    const Expr *SiteE = Sites[Pc - 1];
    Frames.push_back(Frame{Ch, Pc, BaseL, I.B});
    BaseL += I.C + 1; // arguments start one past the callee register
    Regs.reframe(BaseL + T->NumRegs, BaseL + I.A);
    if (Regs.size() > R.MaxLocalsSlots)
      R.MaxLocalsSlots = Regs.size();
    VM_SWITCH_CHUNK(T);
    VM_REFRAME();
    Pc = 0;
    if (Clo)
      applyClosure(T, Clo, SiteE, RF);
    VM_NEXT();
  }
  VM_CASE(TailCallStatic) {
    const Chunk *T = &FuncTab[I.E];
    ++R.TailCalls;
    for (uint32_t J = 0; J != I.A; ++J) // forward copy; window >= dst
      RF[J] = RF[I.C + J];
    Regs.reframe(BaseL + T->NumRegs, BaseL + I.A);
    if (Regs.size() > R.MaxLocalsSlots)
      R.MaxLocalsSlots = Regs.size();
    VM_SWITCH_CHUNK(T);
    VM_REFRAME();
    Pc = 0;
    VM_NEXT();
  }
  VM_CASE(TailCall) {
    Value Callee = RF[I.C];
    const Chunk *T;
    Cell *Clo = nullptr;
    if (Callee.Kind == ValueKind::FnRef) {
      T = &FuncTab[Callee.fnId()];
      if (T->NumParams != I.A)
        VM_TRAP("arity mismatch calling '" +
                    std::string(CP.Prog->symbols().name(T->Fn->Name)) + "'",
                TrapKind::RuntimeError);
    } else if (Callee.Kind == ValueKind::HeapRef &&
               Callee.Ref->H.Kind == CellKind::Closure) {
      Clo = Callee.Ref;
      const auto *Lm = static_cast<const LamExpr *>(Clo->field(0).rawPtr());
      T = &LamTab[Lm->lamId()];
      if (T->NumParams != I.A)
        VM_TRAP("arity mismatch calling a closure", TrapKind::RuntimeError);
    } else {
      VM_TRAP("calling a non-function value", TrapKind::RuntimeError);
    }
    ++R.TailCalls;
    const Expr *SiteE = Sites[Pc - 1];
    for (uint32_t J = 0; J != I.A; ++J) // forward copy; window+1 > dst
      RF[J] = RF[I.C + 1 + J];
    Regs.reframe(BaseL + T->NumRegs, BaseL + I.A);
    if (Regs.size() > R.MaxLocalsSlots)
      R.MaxLocalsSlots = Regs.size();
    VM_SWITCH_CHUNK(T);
    VM_REFRAME();
    Pc = 0;
    if (Clo)
      applyClosure(T, Clo, SiteE, RF);
    VM_NEXT();
  }
  VM_CASE(Ret) {
    Value V = RF[I.B];
    if (Frames.empty()) {
      Result = V;
      goto Done;
    }
    Frame F = Frames.back();
    Frames.pop_back();
    --CallDepth;
    BaseL = F.Base;
    Regs.resize(BaseL + F.Ch->NumRegs);
    VM_SWITCH_CHUNK(F.Ch);
    VM_REFRAME();
    Pc = F.Pc;
    RF[F.Dst] = V;
    VM_NEXT();
  }

  //===--- Heap allocation ------------------------------------------------===//
  VM_CASE(MakeClosure) {
    const Chunk *LC = &LamTab[I.E];
    size_t NCaps = LC->CaptureSrc.size();
    if (Sink)
      Sink->setSite(LC->Lam, "lambda", LC->Lam->loc());
    Cell *C =
        H.alloc(static_cast<uint32_t>(NCaps + 1), 0, CellKind::Closure);
    if (!C)
      VM_TRAP("out of memory allocating a closure", TrapKind::OutOfMemory);
    VM_REFRAME(); // a GC-mode alloc may have collected, never resized;
                  // reframe anyway for uniformity
    C->setField(0, Value::makeRaw(LC->Lam));
    for (size_t J = 0; J != NCaps; ++J) // ownership moves in
      C->setField(1 + J, RF[LC->CaptureSrc[J]]);
    RF[I.B] = Value::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(Con) {
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "con", Sites[Pc - 1]->loc());
    Cell *C = H.alloc(I.A, I.D, CellKind::Ctor);
    if (!C)
      VM_TRAP("out of memory allocating a constructor", TrapKind::OutOfMemory);
    VM_REFRAME();
    for (uint32_t J = 0; J != I.A; ++J)
      C->setField(J, RF[I.C + J]);
    RF[I.B] = Value::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(ConReuse) {
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "con@ru", Sites[Pc - 1]->loc());
    Value Tok = RF[I.D];
    if (Tok.Kind != ValueKind::Token)
      VM_TRAP("constructor reuse with a non-token", TrapKind::RuntimeError);
    Cell *C = nullptr;
    if (Tok.Tok) {
      C = Tok.Tok; // in-place reuse: same memory, fresh identity
      assert(C->H.Arity == I.A && "reuse token arity mismatch");
      C->H.Rc.store(1, std::memory_order_relaxed);
      C->H.Tag = static_cast<uint8_t>(I.E);
      C->H.Kind = CellKind::Ctor;
      ++R.ReuseHits;
      if (Sink)
        Sink->record(RcEvent::ReuseHit, Cell::allocSize(I.A));
    } else {
      ++R.ReuseMisses;
      if (Sink)
        Sink->record(RcEvent::ReuseMiss, 0);
    }
    if (!C) {
      C = H.alloc(I.A, I.E, CellKind::Ctor);
      if (!C)
        VM_TRAP("out of memory allocating a constructor",
                TrapKind::OutOfMemory);
      VM_REFRAME();
    }
    for (uint32_t J = 0; J != I.A; ++J)
      C->setField(J, RF[I.C + J]);
    RF[I.B] = Value::makeRef(C);
    VM_NEXT();
  }

  //===--- RC instructions ------------------------------------------------===//
  VM_CASE(Dup) {
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.C]);
    VM_NEXT();
  }
  VM_CASE(Drop) {
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "drop", Sites[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[I.C]);
    VM_NEXT();
  }
  VM_CASE(FreeOp) {
    // `free` is memory-only disposal, not an RC operation (Rc.Frees
    // only; see Machine.cpp).
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "free", Sites[Pc - 1]->loc());
    ++R.Rc.Frees;
    Value V = RF[I.C];
    if (V.Kind == ValueKind::HeapRef) {
      H.freeMemoryOnly(V.Ref);
    } else if (V.Kind == ValueKind::Token) {
      if (V.Tok)
        H.freeMemoryOnly(V.Tok);
    }
    VM_NEXT();
  }
  VM_CASE(DecRef) {
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "decref", Sites[Pc - 1]->loc());
    ++R.Rc.DecRefs;
    H.decref(RF[I.C]);
    VM_NEXT();
  }
  VM_CASE(IsUniqueBr) {
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "is-unique", Sites[Pc - 1]->loc());
    ++R.Rc.IsUniques;
    if (!H.isUnique(RF[I.C]))
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(DropReuse) {
    Value V = RF[I.C];
    if (V.Kind != ValueKind::HeapRef)
      VM_TRAP("drop-reuse of a non-heap value", TrapKind::RuntimeError);
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "drop-reuse", Sites[Pc - 1]->loc());
    ++R.Rc.DropReuses;
    ++R.Rc.IsUniques; // the probe below is a real is-unique test
    if (H.isUnique(V)) {
      R.Rc.ImplicitDrops += V.Ref->H.Arity; // dropChildren drops each
      H.dropChildren(V.Ref);
      RF[I.D] = Value::makeToken(V.Ref);
    } else {
      ++R.Rc.ImplicitDecRefs;
      H.decref(V);
      RF[I.D] = Value::makeToken(nullptr);
    }
    VM_NEXT();
  }
  VM_CASE(ReuseAddr) {
    Value V = RF[I.C];
    if (V.Kind != ValueKind::HeapRef)
      VM_TRAP("reuse-addr of a non-heap value", TrapKind::RuntimeError);
    RF[I.B] = Value::makeToken(V.Ref);
    VM_NEXT();
  }
  VM_CASE(IsNullTokenBr) {
    // Blind union read, like the CEK machine: layout guarantees the slot
    // holds a token here.
    if (RF[I.C].Tok == nullptr) {
      // The reuse-specialized fresh path: the pairing missed.
      ++R.ReuseMisses;
      if (Sink) {
        Sink->setSite(Sites[Pc - 1], "is-null-token", Sites[Pc - 1]->loc());
        Sink->record(RcEvent::ReuseMiss, 0);
      }
    } else {
      Pc = I.E;
    }
    VM_NEXT();
  }
  VM_CASE(SetField) {
    Value Tok = RF[I.C];
    if (Tok.Kind != ValueKind::Token || !Tok.Tok)
      VM_TRAP("field assignment through a null token", TrapKind::RuntimeError);
    Tok.Tok->setField(I.A, RF[I.D]);
    VM_NEXT();
  }
  VM_CASE(TokenValue) {
    Value V = RF[I.C];
    if (V.Kind != ValueKind::Token || !V.Tok)
      VM_TRAP("token value of a null or non-token", TrapKind::RuntimeError);
    Cell *C = V.Tok;
    C->H.Tag = static_cast<uint8_t>(I.D);
    C->H.Kind = CellKind::Ctor;
    ++R.ReuseHits;
    if (Sink) {
      Sink->setSite(Sites[Pc - 1], "token-value", Sites[Pc - 1]->loc());
      Sink->record(RcEvent::ReuseHit, Cell::allocSize(C->H.Arity));
    }
    RF[I.B] = Value::makeRef(C);
    VM_NEXT();
  }

  //===--- Primitives -----------------------------------------------------===//
  VM_CASE(Add) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    RF[I.B] = Value::makeInt(A.Int + B.Int);
    VM_NEXT();
  }
  VM_CASE(Sub) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    RF[I.B] = Value::makeInt(A.Int - B.Int);
    VM_NEXT();
  }
  VM_CASE(Mul) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    RF[I.B] = Value::makeInt(A.Int * B.Int);
    VM_NEXT();
  }
  VM_CASE(Div) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    if (B.Int == 0)
      VM_TRAP("division by zero", TrapKind::RuntimeError);
    if (A.Int == INT64_MIN && B.Int == -1)
      VM_TRAP("integer overflow in division", TrapKind::RuntimeError);
    RF[I.B] = Value::makeInt(A.Int / B.Int);
    VM_NEXT();
  }
  VM_CASE(Mod) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    if (B.Int == 0)
      VM_TRAP("modulo by zero", TrapKind::RuntimeError);
    if (A.Int == INT64_MIN && B.Int == -1)
      VM_TRAP("integer overflow in modulo", TrapKind::RuntimeError);
    RF[I.B] = Value::makeInt(A.Int % B.Int);
    VM_NEXT();
  }
  VM_CASE(Neg) {
    Value A = RF[I.C];
    if (A.Kind != ValueKind::Int)
      VM_TRAP("negation of a non-integer", TrapKind::RuntimeError);
    if (A.Int == INT64_MIN)
      VM_TRAP("integer overflow in negation", TrapKind::RuntimeError);
    RF[I.B] = Value::makeInt(-A.Int);
    VM_NEXT();
  }
  VM_CASE(Lt) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
    RF[I.B] = Value::makeBool(A.Int < B.Int);
    VM_NEXT();
  }
  VM_CASE(Le) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
    RF[I.B] = Value::makeBool(A.Int <= B.Int);
    VM_NEXT();
  }
  VM_CASE(Gt) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
    RF[I.B] = Value::makeBool(A.Int > B.Int);
    VM_NEXT();
  }
  VM_CASE(Ge) {
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
    RF[I.B] = Value::makeBool(A.Int >= B.Int);
    VM_NEXT();
  }
  VM_CASE(EqVal) {
    Value A = RF[I.C], B = RF[I.D];
    bool Eq;
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
      Eq = A.Int == B.Int;
    else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
      Eq = (A.Int != 0) == (B.Int != 0);
    else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
      Eq = A.Bits == B.Bits;
    else
      VM_TRAP("equality on incompatible or heap values",
              TrapKind::RuntimeError);
    RF[I.B] = Value::makeBool(Eq);
    VM_NEXT();
  }
  VM_CASE(NeVal) {
    Value A = RF[I.C], B = RF[I.D];
    bool Eq;
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
      Eq = A.Int == B.Int;
    else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
      Eq = (A.Int != 0) == (B.Int != 0);
    else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
      Eq = A.Bits == B.Bits;
    else
      VM_TRAP("equality on incompatible or heap values",
              TrapKind::RuntimeError);
    RF[I.B] = Value::makeBool(!Eq);
    VM_NEXT();
  }
  VM_CASE(Not) {
    Value A = RF[I.C];
    if (A.Kind != ValueKind::Bool)
      VM_TRAP("negation of a non-boolean", TrapKind::RuntimeError);
    RF[I.B] = Value::makeBool(!A.asBool());
    VM_NEXT();
  }
  VM_CASE(PrintLn) {
    Value A = RF[I.C];
    if (A.Kind == ValueKind::Int)
      R.Output += std::to_string(A.Int);
    else if (A.Kind == ValueKind::Bool)
      R.Output += A.asBool() ? "True" : "False";
    else if (A.Kind == ValueKind::Unit)
      R.Output += "()";
    else
      VM_TRAP("println of a non-printable value", TrapKind::RuntimeError);
    R.Output += '\n';
    RF[I.B] = Value::unit();
    VM_NEXT();
  }
  VM_CASE(MarkSharedOp) {
    // tshare consumes its argument (the reference is transferred in).
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "tshare", Sites[Pc - 1]->loc());
    H.markShared(RF[I.C]);
    ++R.Rc.ImplicitDrops;
    H.drop(RF[I.C]);
    RF[I.B] = Value::unit();
    VM_NEXT();
  }
  VM_CASE(AbortOp) {
    VM_TRAP("abort: non-exhaustive match or explicit failure",
            TrapKind::RuntimeError);
  }
  VM_CASE(RefNew) {
    // Ownership of the content moves into the cell.
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "ref-new", Sites[Pc - 1]->loc());
    Cell *C = H.alloc(1, 0, CellKind::Ref);
    if (!C)
      VM_TRAP("out of memory allocating a reference", TrapKind::OutOfMemory);
    VM_REFRAME();
    C->setField(0, RF[I.C]);
    RF[I.B] = Value::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(RefGet) {
    Value Rv = RF[I.C];
    if (Rv.Kind != ValueKind::HeapRef || Rv.Ref->H.Kind != CellKind::Ref)
      VM_TRAP("deref of a non-reference", TrapKind::RuntimeError);
    Value Out = Rv.Ref->field(0);
    // The paper's read: dup the content, then release the handle.
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "ref-get", Sites[Pc - 1]->loc());
    ++R.Rc.ImplicitDups;
    H.dup(Out);
    ++R.Rc.ImplicitDrops;
    H.drop(Rv);
    RF[I.B] = Out;
    VM_NEXT();
  }
  VM_CASE(RefSet) {
    Value Rv = RF[I.C];
    if (Rv.Kind != ValueKind::HeapRef || Rv.Ref->H.Kind != CellKind::Ref)
      VM_TRAP("set-ref of a non-reference", TrapKind::RuntimeError);
    Value Old = Rv.Ref->field(0);
    Rv.Ref->setField(0, RF[I.D]); // content ownership moves in
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "ref-set", Sites[Pc - 1]->loc());
    R.Rc.ImplicitDrops += 2;
    H.drop(Old);
    H.drop(Rv); // release the handle
    RF[I.B] = Value::unit();
    VM_NEXT();
  }

  VM_CASE(TrapOp) {
    VM_TRAP(CP.Messages[I.E], TrapKind::RuntimeError);
  }

  //===--- Superinstructions (peephole tier) ------------------------------===//
  // Each handler is the literal concatenation of its component handlers:
  // same heap calls, same counter increments, same telemetry stamps,
  // same trap messages at the same points — one dispatch. Primary sites
  // live in Sites; per-component extras in Sites2/Sites3, which the
  // peephole pass populates on every chunk it rewrites.

  VM_CASE(DupMove) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.D]);
    RF[I.B] = RF[I.C];
    VM_NEXT();
  }
  VM_CASE(Dup2) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 2;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.C]);
    if (Sink)
      Sink->setSite(Sites2[Pc - 1], "dup", Sites2[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.D]);
    VM_NEXT();
  }
  VM_CASE(Drop2) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 2;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "drop", Sites[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[I.C]);
    if (Sink)
      Sink->setSite(Sites2[Pc - 1], "drop", Sites2[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[I.D]);
    VM_NEXT();
  }
  VM_CASE(Dup3) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 3;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.C]);
    if (Sink)
      Sink->setSite(Sites2[Pc - 1], "dup", Sites2[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.D]);
    if (Sink)
      Sink->setSite(Sites3[Pc - 1], "dup", Sites3[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[static_cast<uint16_t>(I.E)]);
    VM_NEXT();
  }
  VM_CASE(Drop3) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 3;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "drop", Sites[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[I.C]);
    if (Sink)
      Sink->setSite(Sites2[Pc - 1], "drop", Sites2[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[I.D]);
    if (Sink)
      Sink->setSite(Sites3[Pc - 1], "drop", Sites3[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[static_cast<uint16_t>(I.E)]);
    VM_NEXT();
  }
  VM_CASE(DupCallStatic) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.D]);
    const Chunk *T = &FuncTab[I.E];
    if (CallDepthLimit && CallDepth >= CallDepthLimit)
      VM_TRAP("call depth limit exceeded (stack overflow)",
              TrapKind::StackOverflow);
    ++CallDepth;
    if (CallDepth > R.MaxCallDepth)
      R.MaxCallDepth = CallDepth;
    Frames.push_back(Frame{Ch, Pc, BaseL, I.B});
    BaseL += I.C; // the argument window is the callee's parameter region
    Regs.reframe(BaseL + T->NumRegs, BaseL + I.A);
    if (Regs.size() > R.MaxLocalsSlots)
      R.MaxLocalsSlots = Regs.size();
    VM_SWITCH_CHUNK(T);
    VM_REFRAME();
    Pc = 0;
    VM_NEXT();
  }
  VM_CASE(DupCall) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites2[Pc - 1], "dup", Sites2[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.D]);
    Value Callee = RF[I.C];
    const Chunk *T;
    Cell *Clo = nullptr;
    if (Callee.Kind == ValueKind::FnRef) {
      T = &FuncTab[Callee.fnId()];
      if (T->NumParams != I.A)
        VM_TRAP("arity mismatch calling '" +
                    std::string(CP.Prog->symbols().name(T->Fn->Name)) + "'",
                TrapKind::RuntimeError);
    } else if (Callee.Kind == ValueKind::HeapRef &&
               Callee.Ref->H.Kind == CellKind::Closure) {
      Clo = Callee.Ref;
      const auto *Lm = static_cast<const LamExpr *>(Clo->field(0).rawPtr());
      T = &LamTab[Lm->lamId()];
      if (T->NumParams != I.A)
        VM_TRAP("arity mismatch calling a closure", TrapKind::RuntimeError);
    } else {
      VM_TRAP("calling a non-function value", TrapKind::RuntimeError);
    }
    if (CallDepthLimit && CallDepth >= CallDepthLimit)
      VM_TRAP("call depth limit exceeded (stack overflow)",
              TrapKind::StackOverflow);
    ++CallDepth;
    if (CallDepth > R.MaxCallDepth)
      R.MaxCallDepth = CallDepth;
    const Expr *SiteE = Sites[Pc - 1];
    Frames.push_back(Frame{Ch, Pc, BaseL, I.B});
    BaseL += I.C + 1; // arguments start one past the callee register
    Regs.reframe(BaseL + T->NumRegs, BaseL + I.A);
    if (Regs.size() > R.MaxLocalsSlots)
      R.MaxLocalsSlots = Regs.size();
    VM_SWITCH_CHUNK(T);
    VM_REFRAME();
    Pc = 0;
    if (Clo)
      applyClosure(T, Clo, SiteE, RF);
    VM_NEXT();
  }
  VM_CASE(IsUniqueReuse) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "is-unique", Sites[Pc - 1]->loc());
    ++R.Rc.IsUniques;
    Value V = RF[I.C];
    if (H.isUnique(V))
      RF[I.B] = Value::makeToken(V.Ref); // the fused ReuseAddr
    else
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(SetFieldToken) {
    ++R.Rc.FusedOps;
    Value Tok = RF[I.C];
    if (Tok.Kind != ValueKind::Token || !Tok.Tok)
      VM_TRAP("field assignment through a null token", TrapKind::RuntimeError);
    Cell *C = Tok.Tok;
    C->setField(I.A, RF[I.D]);
    C->H.Tag = static_cast<uint8_t>(I.E);
    C->H.Kind = CellKind::Ctor;
    ++R.ReuseHits;
    if (Sink) {
      Sink->setSite(Sites[Pc - 1], "token-value", Sites[Pc - 1]->loc());
      Sink->record(RcEvent::ReuseHit, Cell::allocSize(C->H.Arity));
    }
    RF[I.B] = Value::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(Move2) {
    ++R.Rc.FusedOps;
    RF[I.B] = RF[I.C];
    RF[I.D] = RF[static_cast<uint16_t>(I.E)];
    VM_NEXT();
  }
  VM_CASE(LoadConstMove) {
    ++R.Rc.FusedOps;
    RF[I.D] = Consts[I.E];
    RF[I.B] = RF[I.C];
    VM_NEXT();
  }
  VM_CASE(RetConst) {
    ++R.Rc.FusedOps;
    Value V = Consts[I.E];
    if (Frames.empty()) {
      Result = V;
      goto Done;
    }
    Frame F = Frames.back();
    Frames.pop_back();
    --CallDepth;
    BaseL = F.Base;
    Regs.resize(BaseL + F.Ch->NumRegs);
    VM_SWITCH_CHUNK(F.Ch);
    VM_REFRAME();
    Pc = F.Pc;
    RF[F.Dst] = V;
    VM_NEXT();
  }
  VM_CASE(LtBr) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
    if (!(A.Int < B.Int))
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(LeBr) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
    if (!(A.Int <= B.Int))
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(GtBr) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
    if (!(A.Int > B.Int))
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(GeBr) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
    if (!(A.Int >= B.Int))
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(EqBr) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = RF[I.D];
    bool Eq;
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
      Eq = A.Int == B.Int;
    else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
      Eq = (A.Int != 0) == (B.Int != 0);
    else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
      Eq = A.Bits == B.Bits;
    else
      VM_TRAP("equality on incompatible or heap values",
              TrapKind::RuntimeError);
    if (!Eq)
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(NeBr) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = RF[I.D];
    bool Eq;
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
      Eq = A.Int == B.Int;
    else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
      Eq = (A.Int != 0) == (B.Int != 0);
    else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
      Eq = A.Bits == B.Bits;
    else
      VM_TRAP("equality on incompatible or heap values",
              TrapKind::RuntimeError);
    if (Eq)
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(CmpConstBr) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = Consts[I.D];
    CmpBrKind K = static_cast<CmpBrKind>(I.A);
    bool Res;
    if (K == CmpBrKind::Eq || K == CmpBrKind::Ne) {
      bool Eq;
      if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
        Eq = A.Int == B.Int;
      else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
        Eq = (A.Int != 0) == (B.Int != 0);
      else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
        Eq = A.Bits == B.Bits;
      else
        VM_TRAP("equality on incompatible or heap values",
                TrapKind::RuntimeError);
      Res = K == CmpBrKind::Eq ? Eq : !Eq;
    } else {
      if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
        VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
      switch (K) {
      case CmpBrKind::Lt:
        Res = A.Int < B.Int;
        break;
      case CmpBrKind::Le:
        Res = A.Int <= B.Int;
        break;
      case CmpBrKind::Gt:
        Res = A.Int > B.Int;
        break;
      default:
        Res = A.Int >= B.Int;
        break;
      }
    }
    if (!Res)
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(CmpJmp) {
    // compare + Jump + the target JumpIfFalse, threaded into one
    // two-way branch. The compare always yields a boolean, so the
    // skipped JumpIfFalse's non-boolean trap was unreachable, and its
    // condition temp is dead on this path (the write is elided).
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = RF[I.D];
    CmpBrKind K = static_cast<CmpBrKind>(I.A);
    bool Res;
    if (K == CmpBrKind::Eq || K == CmpBrKind::Ne) {
      bool Eq;
      if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
        Eq = A.Int == B.Int;
      else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
        Eq = (A.Int != 0) == (B.Int != 0);
      else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
        Eq = A.Bits == B.Bits;
      else
        VM_TRAP("equality on incompatible or heap values",
                TrapKind::RuntimeError);
      Res = K == CmpBrKind::Eq ? Eq : !Eq;
    } else {
      if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
        VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
      switch (K) {
      case CmpBrKind::Lt:
        Res = A.Int < B.Int;
        break;
      case CmpBrKind::Le:
        Res = A.Int <= B.Int;
        break;
      case CmpBrKind::Gt:
        Res = A.Int > B.Int;
        break;
      default:
        Res = A.Int >= B.Int;
        break;
      }
    }
    Pc = Res ? I.B : I.E;
    VM_NEXT();
  }
  VM_CASE(MoveArith) {
    ++R.Rc.FusedOps;
    RF[static_cast<uint16_t>(I.E >> 16)] = RF[static_cast<uint16_t>(I.E)];
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    RF[I.B] = Value::makeInt(I.A == 0   ? A.Int + B.Int
                             : I.A == 1 ? A.Int - B.Int
                                        : A.Int * B.Int);
    VM_NEXT();
  }
  VM_CASE(ArithMove) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = RF[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    RF[I.B] = Value::makeInt(I.A == 0   ? A.Int + B.Int
                             : I.A == 1 ? A.Int - B.Int
                                        : A.Int * B.Int);
    RF[static_cast<uint16_t>(I.E >> 16)] = RF[static_cast<uint16_t>(I.E)];
    VM_NEXT();
  }
  VM_CASE(ArithConst) {
    // LoadConst into a dead temp + the arith consuming it; the trap
    // condition (either operand non-integer) is checked exactly as the
    // component arith did, constants included.
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = Consts[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    int64_t V;
    switch (I.A) {
    case 0:
      V = A.Int + B.Int;
      break;
    case 1:
      V = A.Int - B.Int;
      break;
    case 2:
      V = B.Int - A.Int;
      break;
    default:
      V = A.Int * B.Int;
      break;
    }
    RF[I.B] = Value::makeInt(V);
    VM_NEXT();
  }
  VM_CASE(Move3) {
    ++R.Rc.FusedOps;
    RF[I.B] = RF[I.C];
    RF[I.D] = RF[static_cast<uint16_t>(I.E)];
    RF[static_cast<uint16_t>(I.E >> 16)] = RF[I.A];
    VM_NEXT();
  }
  VM_CASE(MoveTailCallStatic) {
    ++R.Rc.FusedOps;
    RF[I.B] = RF[I.D]; // the fused move (an argument-window store)
    const Chunk *T = &FuncTab[I.E];
    ++R.TailCalls;
    for (uint32_t J = 0; J != I.A; ++J) // forward copy; window >= dst
      RF[J] = RF[I.C + J];
    Regs.reframe(BaseL + T->NumRegs, BaseL + I.A);
    if (Regs.size() > R.MaxLocalsSlots)
      R.MaxLocalsSlots = Regs.size();
    VM_SWITCH_CHUNK(T);
    VM_REFRAME();
    Pc = 0;
    VM_NEXT();
  }
  VM_CASE(IsUniqueBrDup2) {
    // The reuse-specialized match arm prologue: probe, then dup the two
    // fields — but only on the unique path, exactly like the unfused
    // IsUniqueBr whose else-branch skipped them.
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "is-unique", Sites[Pc - 1]->loc());
    ++R.Rc.IsUniques;
    if (H.isUnique(RF[I.C])) {
      R.Rc.FusedRcOps += 2;
      if (Sink)
        Sink->setSite(Sites2[Pc - 1], "dup", Sites2[Pc - 1]->loc());
      ++R.Rc.Dups;
      H.dup(RF[I.B]);
      if (Sink)
        Sink->setSite(Sites3[Pc - 1], "dup", Sites3[Pc - 1]->loc());
      ++R.Rc.Dups;
      H.dup(RF[I.D]);
    } else {
      Pc = I.E;
    }
    VM_NEXT();
  }
  VM_CASE(DecLoadConst) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "decref", Sites[Pc - 1]->loc());
    ++R.Rc.DecRefs;
    H.decref(RF[I.C]);
    RF[I.B] = Consts[I.E];
    VM_NEXT();
  }
  VM_CASE(JfMove) {
    ++R.Rc.FusedOps;
    Value V = RF[I.B];
    if (V.Kind != ValueKind::Bool)
      VM_TRAP("if condition is not a boolean", TrapKind::RuntimeError);
    if (!V.asBool())
      Pc = I.E;
    else
      RF[I.C] = RF[I.D];
    VM_NEXT();
  }
  VM_CASE(JfDrop) {
    ++R.Rc.FusedOps;
    Value V = RF[I.B];
    if (V.Kind != ValueKind::Bool)
      VM_TRAP("if condition is not a boolean", TrapKind::RuntimeError);
    if (!V.asBool()) {
      Pc = I.E;
    } else {
      ++R.Rc.FusedRcOps;
      if (Sink)
        Sink->setSite(Sites2[Pc - 1], "drop", Sites2[Pc - 1]->loc());
      ++R.Rc.Drops;
      H.drop(RF[I.C]);
    }
    VM_NEXT();
  }
  VM_CASE(DropLoadConst) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "drop", Sites[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[I.C]);
    RF[I.B] = Consts[I.E];
    VM_NEXT();
  }
  VM_CASE(DropRetConst) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "drop", Sites[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[I.C]);
    Value V = Consts[I.E];
    if (Frames.empty()) {
      Result = V;
      goto Done;
    }
    Frame F = Frames.back();
    Frames.pop_back();
    --CallDepth;
    BaseL = F.Base;
    Regs.resize(BaseL + F.Ch->NumRegs);
    VM_SWITCH_CHUNK(F.Ch);
    VM_REFRAME();
    Pc = F.Pc;
    RF[F.Dst] = V;
    VM_NEXT();
  }
  VM_CASE(DupDecLoadConst) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 2;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.C]);
    if (Sink)
      Sink->setSite(Sites2[Pc - 1], "decref", Sites2[Pc - 1]->loc());
    ++R.Rc.DecRefs;
    H.decref(RF[I.D]);
    RF[I.B] = Consts[I.E];
    VM_NEXT();
  }
  VM_CASE(Dup2DecLoadConst) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 3;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.C]);
    if (Sink)
      Sink->setSite(Sites2[Pc - 1], "dup", Sites2[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.D]);
    if (Sink)
      Sink->setSite(Sites3[Pc - 1], "decref", Sites3[Pc - 1]->loc());
    ++R.Rc.DecRefs;
    H.decref(RF[I.B]);
    RF[I.A] = Consts[I.E];
    VM_NEXT();
  }
  VM_CASE(Dup2Move2) {
    // Two "dup r; copy r into the frame slot" pairs — the binder
    // materialization every match arm opens with.
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 2;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.C]);
    RF[I.B] = RF[I.C];
    if (Sink)
      Sink->setSite(Sites2[Pc - 1], "dup", Sites2[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[static_cast<uint16_t>(I.E)]);
    RF[I.D] = RF[static_cast<uint16_t>(I.E)];
    VM_NEXT();
  }
  VM_CASE(MoveDupMove) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    RF[I.B] = RF[I.C];
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "dup", Sites[Pc - 1]->loc());
    ++R.Rc.Dups;
    H.dup(RF[I.D]);
    RF[static_cast<uint16_t>(I.E)] = RF[I.D];
    VM_NEXT();
  }
  VM_CASE(MoveArithConst) {
    ++R.Rc.FusedOps;
    RF[static_cast<uint16_t>(I.E >> 16)] = RF[static_cast<uint16_t>(I.E)];
    Value A = RF[I.C], B = Consts[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    int64_t V;
    switch (I.A) {
    case 0:
      V = A.Int + B.Int;
      break;
    case 1:
      V = A.Int - B.Int;
      break;
    case 2:
      V = B.Int - A.Int;
      break;
    default:
      V = A.Int * B.Int;
      break;
    }
    RF[I.B] = Value::makeInt(V);
    VM_NEXT();
  }
  VM_CASE(ArithConstMove) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = Consts[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    int64_t V;
    switch (I.A) {
    case 0:
      V = A.Int + B.Int;
      break;
    case 1:
      V = A.Int - B.Int;
      break;
    case 2:
      V = B.Int - A.Int;
      break;
    default:
      V = A.Int * B.Int;
      break;
    }
    RF[I.B] = Value::makeInt(V);
    RF[static_cast<uint16_t>(I.E >> 16)] = RF[static_cast<uint16_t>(I.E)];
    VM_NEXT();
  }
  VM_CASE(MoveCmpConstBr) {
    ++R.Rc.FusedOps;
    RF[I.C] = RF[I.B]; // the fused move feeds the compare's lhs
    Value A = RF[I.C], B = Consts[I.D];
    CmpBrKind K = static_cast<CmpBrKind>(I.A);
    bool Res;
    if (K == CmpBrKind::Eq || K == CmpBrKind::Ne) {
      bool Eq;
      if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
        Eq = A.Int == B.Int;
      else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
        Eq = (A.Int != 0) == (B.Int != 0);
      else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
        Eq = A.Bits == B.Bits;
      else
        VM_TRAP("equality on incompatible or heap values",
                TrapKind::RuntimeError);
      Res = K == CmpBrKind::Eq ? Eq : !Eq;
    } else {
      if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
        VM_TRAP("comparison of non-integers", TrapKind::RuntimeError);
      switch (K) {
      case CmpBrKind::Lt:
        Res = A.Int < B.Int;
        break;
      case CmpBrKind::Le:
        Res = A.Int <= B.Int;
        break;
      case CmpBrKind::Gt:
        Res = A.Int > B.Int;
        break;
      default:
        Res = A.Int >= B.Int;
        break;
      }
    }
    if (!Res)
      Pc = I.E;
    VM_NEXT();
  }
  VM_CASE(ConRet) {
    ++R.Rc.FusedOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "con", Sites[Pc - 1]->loc());
    Cell *C = H.alloc(I.A, I.D, CellKind::Ctor);
    if (!C)
      VM_TRAP("out of memory allocating a constructor", TrapKind::OutOfMemory);
    VM_REFRAME();
    for (uint32_t J = 0; J != I.A; ++J)
      C->setField(J, RF[I.C + J]);
    Value V = Value::makeRef(C);
    RF[I.B] = V; // kept live for a clean unwind should the pop not happen
    if (Frames.empty()) {
      Result = V;
      goto Done;
    }
    Frame F = Frames.back();
    Frames.pop_back();
    --CallDepth;
    BaseL = F.Base;
    Regs.resize(BaseL + F.Ch->NumRegs);
    VM_SWITCH_CHUNK(F.Ch);
    VM_REFRAME();
    Pc = F.Pc;
    RF[F.Dst] = V;
    VM_NEXT();
  }
  VM_CASE(DropMove) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "drop", Sites[Pc - 1]->loc());
    ++R.Rc.Drops;
    H.drop(RF[I.C]);
    RF[I.B] = RF[I.D];
    VM_NEXT();
  }
  VM_CASE(ArithConstRet) {
    ++R.Rc.FusedOps;
    Value A = RF[I.C], B = Consts[I.D];
    if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int)
      VM_TRAP("arithmetic on a non-integer", TrapKind::RuntimeError);
    int64_t VI;
    switch (I.A) {
    case 0:
      VI = A.Int + B.Int;
      break;
    case 1:
      VI = A.Int - B.Int;
      break;
    case 2:
      VI = B.Int - A.Int;
      break;
    default:
      VI = A.Int * B.Int;
      break;
    }
    Value V = Value::makeInt(VI);
    if (Frames.empty()) {
      Result = V;
      goto Done;
    }
    Frame F = Frames.back();
    Frames.pop_back();
    --CallDepth;
    BaseL = F.Base;
    Regs.resize(BaseL + F.Ch->NumRegs);
    VM_SWITCH_CHUNK(F.Ch);
    VM_REFRAME();
    Pc = F.Pc;
    RF[F.Dst] = V;
    VM_NEXT();
  }
  VM_CASE(IsUniqueReuseJmp) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    if (Sink)
      Sink->setSite(Sites[Pc - 1], "is-unique", Sites[Pc - 1]->loc());
    ++R.Rc.IsUniques;
    Value V = RF[I.C];
    if (H.isUnique(V)) {
      RF[I.B] = Value::makeToken(V.Ref); // the fused ReuseAddr
      Pc = I.D;                          // the fused unique-path Jump
    } else {
      Pc = I.E;
    }
    VM_NEXT();
  }

#if !PERCEUS_VM_COMPUTED_GOTO
  }
  VM_TRAP("corrupt opcode", TrapKind::RuntimeError);
#endif

Done:
  R.Steps = Steps;
  return;
Exit:
  R.Steps = Steps;
  return;

#undef VM_CASE
#undef VM_NEXT
#undef VM_TRAP
#undef VM_FUEL_CHECK
#undef VM_REFRAME
#undef VM_SWITCH_CHUNK
}

void VM::enumerateRoots(const std::function<void(Value)> &Fn) const {
  for (const Value &V : Regs)
    Fn(V);
  Fn(Result);
}

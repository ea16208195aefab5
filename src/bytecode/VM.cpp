//===- bytecode/VM.cpp - Register bytecode interpreter ------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Dispatch is threaded (computed goto) on GCC/Clang and a plain switch
// elsewhere; the handler bodies are written once and shared by both
// forms through the VM_CASE/VM_NEXT/VM_JUMP macros, whose control
// transfer is goto-based in both modes so handlers may dispatch from
// inside nested loops without capture-by-break surprises. Handlers read
// their operands through I, the program counter, which points into the
// current chunk; every dispatch pays one budget compare (see Budget).
//
//===----------------------------------------------------------------------===//

#include "bytecode/VM.h"

#include "gc/MarkSweep.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace perceus;

#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(PERCEUS_VM_FORCE_SWITCH)
#define PERCEUS_VM_COMPUTED_GOTO 1
#else
#define PERCEUS_VM_COMPUTED_GOTO 0
#endif

#if PERCEUS_VM_PROFILE
namespace perceus {
uint64_t VmPairProfile[NumOpcodes][NumOpcodes];
}
#define VM_PROFILE_PAIR()                                                      \
  do {                                                                         \
    VmPairProfile[ProfPrevOp][static_cast<size_t>(I->O)]++;                    \
    ProfPrevOp = static_cast<size_t>(I->O);                                    \
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
  X(ReuseAddr)                                                                 \
  X(Add) X(Sub) X(Mul) X(Div) X(Mod) X(Neg) X(Cmp) X(Not)                      \
  X(PrintLn) X(MarkSharedOp) X(AbortOp)                                        \
  X(RefNew) X(RefGet) X(RefSet)                                                \
  X(TrapOp)                                                                    \
  X(Dup2) X(Drop2) X(Dup3) X(RetConst)                                         \
  X(LtBr) X(LeBr) X(EqBr) X(NeBr) X(CmpConstBr) X(CmpJmp) X(ArithConst)        \
  X(DecLoadConst) X(DropLoadConst) X(DropRetConst) X(Dup2DecLoadConst)         \
  X(ConRet) X(DropMove) X(ArithConstRet) X(IsUniqueReuseJmp)

const char *perceus::opName(Op O) {
  static const char *const Names[] = {
#define PERCEUS_VM_NAME(Name) #Name,
      PERCEUS_VM_OPCODES(PERCEUS_VM_NAME)
#undef PERCEUS_VM_NAME
  };
  return Names[static_cast<size_t>(O)];
}

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

/// The step at which the dispatch loop next takes its budget branch:
/// one past the fuel limit (0 = none), or the next safepoint when they
/// are armed, whichever comes first.
static uint64_t nextBudgetCheck(uint64_t Steps, uint64_t Fuel,
                                bool HasSafepoint) {
  uint64_t Next = Fuel && Fuel != UINT64_MAX ? Fuel + 1 : UINT64_MAX;
  if (HasSafepoint)
    Next = std::min(Next, (Steps | (VM::DeadlineCheckInterval - 1)) + 1);
  return Next;
}

/// The binary arithmetic primitives, the one definition every arithmetic
/// handler (plain or fused) runs: both operands must be integers, a
/// divisor must be non-zero, and the exact result must fit int64 —
/// INT64_MIN / -1 and INT64_MIN % -1 trap before the division unit sees
/// them. Returns the trap message, else null with the result in \p Out.
/// The plain handlers pass a constant kind, which folds the switch away.
/// The trap branches here and in compare are [[unlikely]]: inlined, an
/// unmarked one is laid out as the handler's fall-through path (a
/// returned pointer is predicted non-null), which more than doubled the
/// branch-fused compare handlers' hot code.
[[gnu::always_inline]] static inline const char *
checkedArith(ArithKind Kind, Value A, Value B, int64_t &Out) {
  if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int) [[unlikely]]
    return "arithmetic on a non-integer";
  int64_t X = A.Int, Y = B.Int;
  if (Kind == ArithKind::Div || Kind == ArithKind::Mod) {
    const bool Div = Kind == ArithKind::Div;
    if (Y == 0) [[unlikely]]
      return Div ? "division by zero" : "modulo by zero";
    if (X == INT64_MIN && Y == -1) [[unlikely]]
      return Div ? "integer overflow in division"
                 : "integer overflow in modulo";
    Out = Div ? X / Y : X % Y;
    return nullptr;
  }
  // Tested first, Div and Mod leave the fused handlers' run-time kind a
  // compare chain; with them in the switch GCC emits a jump table.
  switch (Kind) {
  case ArithKind::Add:
    return __builtin_add_overflow(X, Y, &Out) ? "integer overflow in addition"
                                              : nullptr;
  case ArithKind::RSub:
    std::swap(X, Y);
    [[fallthrough]];
  case ArithKind::Sub:
    return __builtin_sub_overflow(X, Y, &Out)
               ? "integer overflow in subtraction"
               : nullptr;
  default:
    return __builtin_mul_overflow(X, Y, &Out)
               ? "integer overflow in multiplication"
               : nullptr;
  }
}

/// The compare primitives, the one definition every compare handler
/// runs: integer order, and equality over two Ints, two Bools or two
/// Enums. Returns the trap message when the operands do not fit the
/// kind, else null with the outcome in \p Out. The hot branch-fused
/// handlers pass a constant kind.
[[gnu::always_inline]] static inline const char *
compare(CmpKind Kind, Value A, Value B, bool &Out) {
  if (Kind == CmpKind::Eq || Kind == CmpKind::Ne) {
    bool Eq;
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
      Eq = A.Int == B.Int;
    else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
      Eq = (A.Int != 0) == (B.Int != 0);
    else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
      Eq = A.Bits == B.Bits;
    else [[unlikely]]
      return "equality on incompatible or heap values";
    Out = Kind == CmpKind::Eq ? Eq : !Eq;
    return nullptr;
  }
  if (A.Kind != ValueKind::Int || B.Kind != ValueKind::Int) [[unlikely]]
    return "comparison of non-integers";
  switch (Kind) {
  case CmpKind::Lt:
    Out = A.Int < B.Int;
    break;
  case CmpKind::Le:
    Out = A.Int <= B.Int;
    break;
  case CmpKind::Gt:
    Out = A.Int > B.Int;
    break;
  default:
    Out = A.Int >= B.Int;
    break;
  }
  return nullptr;
}

VM::VM(const CompiledProgram &CP, Heap &H, bool Peephole)
    : CP(CP), H(H), PeepholeTier(Peephole) {
  if (H.mode() == HeapMode::Gc)
    attachCollector(H, [this](const std::function<void(Value)> &Fn) {
      enumerateRoots(Fn);
    });
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

/// The chunk a Call or TailCall of \p Callee with \p NArgs arguments
/// enters, with \p Clo set to the closure cell (null for a function
/// reference). Traps and returns null when the callee is not a function
/// or takes another number of arguments.
const Chunk *VM::resolveCallee(Value Callee, uint32_t NArgs, Cell *&Clo) {
  Clo = nullptr;
  if (Callee.Kind == ValueKind::FnRef) {
    const Chunk *T = &(UseRawChunks ? CP.RawFuncs : CP.Funcs)[Callee.fnId()];
    if (T->NumParams == NArgs)
      return T;
    trap("arity mismatch calling '" +
         std::string(CP.Prog->symbols().name(T->Fn->Name)) + "'");
    return nullptr;
  }
  if (Callee.Kind != ValueKind::HeapRef ||
      Callee.Ref->H.Kind != CellKind::Closure) {
    trap("calling a non-function value");
    return nullptr;
  }
  Clo = Callee.Ref;
  const auto *Lm = static_cast<const LamExpr *>(Clo->field(0).rawPtr());
  const Chunk *T = &(UseRawChunks ? CP.RawLams : CP.Lams)[Lm->lamId()];
  if (T->NumParams == NArgs)
    return T;
  trap("arity mismatch calling a closure");
  return nullptr;
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
  // runner) voids that, so such runs execute the retained raw chunks,
  // as every run of a raw-tier VM does.
  UseRawChunks =
      CP.Peepholed &&
      (!PeepholeTier || std::any_of(Args.begin(), Args.end(),
                                    [](const Value &A) { return A.isHeap(); }));

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

// Every handler ends in the same dispatch sequence, and GCC's
// cross-jumping merges identical tails into a few shared indirect jumps
// unless the dispatch block has more than 100 incoming edges, which is
// all that kept them apart at 85 opcodes. Merged, wire-hot's short runs
// read 5-11% slower (E24); one indirect jump per handler exit predicts
// better.
[[gnu::optimize("no-crossjumping")]] void VM::execute(const Chunk *Entry,
                                                      RunResult &R) {
  const Chunk *Ch = Entry;
  const Instr *Code = Ch->Code.data();
  const std::vector<Chunk> &FuncTab = UseRawChunks ? CP.RawFuncs : CP.Funcs;
  const std::vector<Chunk> &LamTab = UseRawChunks ? CP.RawLams : CP.Lams;
  uint32_t BaseL = 0;
  Value *RF = Regs.data();
  const Value *Consts = CP.Consts.data();
  const uint16_t *Lists = CP.RegLists.data();
  uint64_t Steps = 0;
  const uint64_t Fuel = StepLimit;
  const bool HasDeadline = DeadlineMs != 0;
  // Safepoints fire on the deadline cadence when armed: a deadline is
  // set, or the heap coalesces shared counts and must flush buffered
  // deltas periodically so other workers observe bounded-stale counts.
  const bool HasSafepoint = HasDeadline || H.sharedCoalescingEnabled();
  uint64_t NextCheck = nextBudgetCheck(Steps, Fuel, HasSafepoint);
  // The program counter: the instruction being dispatched, read in place.
  const Instr *I = Code;
#if PERCEUS_VM_PROFILE
  size_t ProfPrevOp = 0;
#endif

#define VM_TRAP(Msg, Kind)                                                     \
  do {                                                                         \
    trap(Msg, Kind);                                                           \
    goto Exit;                                                                 \
  } while (0)
  // Runs a primitive's one definition (checkedArith or compare) into Out,
  // trapping with its message.
#define VM_PRIM(Helper, Kind, A, B, Out)                                       \
  do {                                                                         \
    if (const char *Msg_ = Helper(Kind, A, B, Out))                            \
      VM_TRAP(Msg_, TrapKind::RuntimeError);                                   \
  } while (0)

  // Re-derive the cached frame pointer after anything that resizes the
  // register stack or switches frames.
#define VM_REFRAME() (RF = Regs.data() + BaseL)
#define VM_SWITCH_CHUNK(NewCh)                                                 \
  do {                                                                         \
    Ch = (NewCh);                                                              \
    Code = Ch->Code.data();                                                    \
  } while (0)

  // The telemetry site of the current instruction in column Col (Sites,
  // or Sites2/Sites3 for a fused instruction's later components);
  // VM_STAMP reads it only when a sink is installed.
#define VM_SITE(Col) (Ch->Col[I - Code])
#define VM_STAMP(Col, What)                                                    \
  do {                                                                         \
    if (Sink)                                                                  \
      Sink->setSite(VM_SITE(Col), What, VM_SITE(Col)->loc());                  \
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
#define VM_DISPATCH()                                                          \
  do {                                                                         \
    if (++Steps >= NextCheck)                                                  \
      goto Budget;                                                             \
    VM_PROFILE_PAIR();                                                         \
    goto *Tab[static_cast<size_t>(I->O)];                                      \
  } while (0)
#define VM_RESUME()                                                            \
  do {                                                                         \
    VM_PROFILE_PAIR();                                                         \
    goto *Tab[static_cast<size_t>(I->O)];                                      \
  } while (0)
#else
#define VM_CASE(Name) case Op::Name:
#define VM_DISPATCH() goto Dispatch
#define VM_RESUME() goto Execute
#endif
  // Execute *I (after the budget), the next instruction, or the one at
  // index Target of the current chunk.
#define VM_NEXT()                                                              \
  do {                                                                         \
    ++I;                                                                       \
    VM_DISPATCH();                                                             \
  } while (0)
#define VM_JUMP(Target)                                                        \
  do {                                                                         \
    I = Code + (Target);                                                       \
    VM_DISPATCH();                                                             \
  } while (0)

  // Calls push a frame holding the caller's resume index, then enter the
  // callee with its frame based at BaseL and its NArgs arguments already
  // in place: size the frame, clear the rest, start at instruction 0.
#define VM_PUSH_FRAME()                                                        \
  do {                                                                         \
    if (CallDepthLimit && CallDepth >= CallDepthLimit)                         \
      VM_TRAP("call depth limit exceeded (stack overflow)",                    \
              TrapKind::StackOverflow);                                        \
    ++CallDepth;                                                               \
    if (CallDepth > R.MaxCallDepth)                                            \
      R.MaxCallDepth = CallDepth;                                              \
    Frames.push_back(                                                          \
        Frame{Ch, static_cast<uint32_t>(I + 1 - Code), BaseL, I->B});          \
  } while (0)
#define VM_ENTER(T, NArgs)                                                     \
  do {                                                                         \
    Regs.reframe(BaseL + (T)->NumRegs, BaseL + (NArgs));                       \
    if (Regs.size() > R.MaxLocalsSlots)                                        \
      R.MaxLocalsSlots = Regs.size();                                          \
    VM_SWITCH_CHUNK(T);                                                        \
    VM_REFRAME();                                                              \
    I = Code;                                                                  \
  } while (0)
  // Copies the operand list's registers: into the window starting at W,
  // into the fresh cell C's fields, or (tail calls) through the window
  // into the frame's parameter registers.
#define VM_GATHER(W)                                                           \
  do {                                                                         \
    const uint16_t *L_ = Lists + I->E;                                         \
    Value *W_ = (W);                                                           \
    for (uint32_t J = 0; J != I->A; ++J)                                       \
      W_[J] = RF[L_[J]];                                                       \
  } while (0)
#define VM_FILL(C)                                                             \
  do {                                                                         \
    const uint16_t *L_ = Lists + I->E;                                         \
    for (uint32_t J = 0; J != I->A; ++J)                                       \
      (C)->setField(J, RF[L_[J]]);                                             \
  } while (0)
#define VM_TAIL_GATHER()                                                       \
  do {                                                                         \
    VM_GATHER(RF + I->C);                                                      \
    for (uint32_t J = 0; J != I->A; ++J) /* forward copy; window >= dst */    \
      RF[J] = RF[I->C + J];                                                    \
  } while (0)
  // Returns Val to the caller's Dst register and resumes the caller, or
  // ends the run from the entry frame.
#define VM_RETURN(Val)                                                         \
  do {                                                                         \
    Value Ret_ = (Val);                                                        \
    if (Frames.empty()) {                                                      \
      Result = Ret_;                                                           \
      goto Done;                                                               \
    }                                                                          \
    Frame F_ = Frames.back();                                                  \
    Frames.pop_back();                                                         \
    --CallDepth;                                                               \
    BaseL = F_.Base;                                                           \
    Regs.resize(BaseL + F_.Ch->NumRegs);                                       \
    VM_SWITCH_CHUNK(F_.Ch);                                                    \
    VM_REFRAME();                                                              \
    RF[F_.Dst] = Ret_;                                                         \
    I = Code + F_.Pc;                                                          \
    VM_DISPATCH();                                                             \
  } while (0)

  VM_DISPATCH();

  // The budget branch, taken once Steps reaches NextCheck: one past the
  // fuel limit, or a safepoint (every DeadlineCheckInterval dispatches,
  // when armed). So every dispatch pays one compare, and the checks
  // below trap on exactly the step they would if run on every dispatch.
Budget:
  if (Fuel && Steps > Fuel)
    VM_TRAP("step limit exceeded (out of fuel)", TrapKind::OutOfFuel);
  if (HasSafepoint && (Steps & (DeadlineCheckInterval - 1)) == 0) {
    if ((Steps & (DeadlineCheckInterval * SharedFlushSafepointStride - 1)) ==
        0)
      H.flushSharedDeltas();
    if (HasDeadline && std::chrono::steady_clock::now() >= DeadlineAt)
      VM_TRAP("wall-clock deadline exceeded", TrapKind::Deadline);
  }
  NextCheck = nextBudgetCheck(Steps, Fuel, HasSafepoint);
  VM_RESUME();

#if !PERCEUS_VM_COMPUTED_GOTO
Dispatch:
  if (++Steps >= NextCheck)
    goto Budget;
Execute:
  VM_PROFILE_PAIR();
  switch (I->O) {
#endif

  VM_CASE(LoadConst) {
    RF[I->B] = Consts[I->E];
    VM_NEXT();
  }
  VM_CASE(Move) {
    RF[I->B] = RF[I->C];
    VM_NEXT();
  }

  //===--- Control flow ---------------------------------------------------===//
  VM_CASE(Jump) {
    VM_JUMP(I->E);
  }
  VM_CASE(JumpIfFalse) {
    Value V = RF[I->B];
    if (V.Kind != ValueKind::Bool)
      VM_TRAP("if condition is not a boolean", TrapKind::RuntimeError);
    if (!V.asBool())
      VM_JUMP(I->E);
    VM_NEXT();
  }
  VM_CASE(MatchOp) {
    Value V = RF[I->B];
    const MatchTable &T = CP.Matches[I->E];
    const MatchArmCode *Default = nullptr;
    for (const MatchArmCode &Arm : T.Arms) {
      bool Matches = false;
      switch (Arm.Kind) {
      case ArmKind::Ctor:
        // Only a value the arm can bind: its own constructor's immediate,
        // or a cell with its tag and one field per binder. A same-tag
        // value of another type falls through.
        if (V.Kind == ValueKind::Enum)
          Matches = V.Bits == Value::makeEnum(Arm.DataId, Arm.Tag).Bits;
        else if (V.Kind == ValueKind::HeapRef &&
                 V.Ref->H.Kind == CellKind::Ctor)
          Matches = V.Ref->H.Tag == Arm.Tag &&
                    V.Ref->H.Arity == Arm.NumBinders;
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
        // traps even when a default exists.
        Default = &Arm;
        break;
      }
      if (Matches) {
        const uint16_t *Binders = Lists + Arm.BinderBase;
        for (uint32_t J = 0; J != Arm.NumBinders; ++J)
          RF[Binders[J]] = V.Ref->field(J);
        VM_JUMP(Arm.Target);
      }
    }
    if (Default)
      VM_JUMP(Default->Target);
    VM_TRAP("non-exhaustive match", TrapKind::RuntimeError);
  }

  //===--- Calls ----------------------------------------------------------===//
  // A call gathers its operand list into the window, which becomes the
  // callee's parameter region. The list names variables' own slots, which
  // sit below the window, and computed arguments' window slots, so no
  // copy overwrites a register another one still reads. A tail call then
  // moves the window down to the frame's parameters: going through the
  // window is what lets its arguments name those parameters in any order.
  VM_CASE(CallStatic) {
    const Chunk *T = &FuncTab[I->D];
    VM_PUSH_FRAME();
    VM_GATHER(RF + I->C);
    BaseL += I->C;
    VM_ENTER(T, I->A);
    VM_DISPATCH();
  }
  VM_CASE(Call) {
    Cell *Clo = nullptr;
    const Chunk *T = resolveCallee(RF[I->D], I->A, Clo);
    if (!T)
      goto Exit;
    VM_PUSH_FRAME();
    const Expr *SiteE = VM_SITE(Sites);
    VM_GATHER(RF + I->C);
    BaseL += I->C;
    VM_ENTER(T, I->A);
    if (Clo)
      applyClosure(T, Clo, SiteE, RF);
    VM_DISPATCH();
  }
  VM_CASE(TailCallStatic) {
    const Chunk *T = &FuncTab[I->D];
    ++R.TailCalls;
    VM_TAIL_GATHER();
    VM_ENTER(T, I->A);
    VM_DISPATCH();
  }
  VM_CASE(TailCall) {
    Cell *Clo = nullptr;
    const Chunk *T = resolveCallee(RF[I->D], I->A, Clo);
    if (!T)
      goto Exit;
    ++R.TailCalls;
    const Expr *SiteE = VM_SITE(Sites);
    VM_TAIL_GATHER();
    VM_ENTER(T, I->A);
    if (Clo)
      applyClosure(T, Clo, SiteE, RF);
    VM_DISPATCH();
  }
  VM_CASE(Ret) {
    VM_RETURN(RF[I->B]);
  }

  //===--- Heap allocation ------------------------------------------------===//
  VM_CASE(MakeClosure) {
    const Chunk *LC = &LamTab[I->E];
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
    RF[I->B] = Value::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(Con) {
    VM_STAMP(Sites, "con");
    Cell *C = H.alloc(I->A, I->D, CellKind::Ctor);
    if (!C)
      VM_TRAP("out of memory allocating a constructor", TrapKind::OutOfMemory);
    VM_REFRAME();
    VM_FILL(C);
    RF[I->B] = Value::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(ConReuse) {
    VM_STAMP(Sites, "con@ru");
    Value Tok = RF[I->C];
    if (Tok.Kind != ValueKind::Token)
      VM_TRAP("constructor reuse with a non-token", TrapKind::RuntimeError);
    Cell *C = nullptr;
    if (Tok.Tok) {
      C = Tok.Tok; // in-place reuse: same memory, fresh identity
      assert(C->H.Arity == I->A && "reuse token arity mismatch");
      C->H.Rc.store(1, std::memory_order_relaxed);
      C->H.Tag = static_cast<uint8_t>(I->D);
      C->H.Kind = CellKind::Ctor;
      ++R.ReuseHits;
      if (Sink)
        Sink->record(RcEvent::ReuseHit, Cell::allocSize(I->A));
    } else {
      ++R.ReuseMisses;
      if (Sink)
        Sink->record(RcEvent::ReuseMiss, 0);
    }
    if (!C) {
      C = H.alloc(I->A, I->D, CellKind::Ctor);
      if (!C)
        VM_TRAP("out of memory allocating a constructor",
                TrapKind::OutOfMemory);
      VM_REFRAME();
    }
    VM_FILL(C);
    RF[I->B] = Value::makeRef(C);
    VM_NEXT();
  }

  //===--- RC instructions ------------------------------------------------===//
  VM_CASE(Dup) {
    VM_STAMP(Sites, "dup");
    ++R.Rc.Dups;
    H.dup(RF[I->C]);
    VM_NEXT();
  }
  VM_CASE(Drop) {
    VM_STAMP(Sites, "drop");
    ++R.Rc.Drops;
    H.drop(RF[I->C]);
    VM_NEXT();
  }
  VM_CASE(FreeOp) {
    // `free` is memory-only disposal, not an RC operation (Rc.Frees
    // only).
    VM_STAMP(Sites, "free");
    ++R.Rc.Frees;
    Value V = RF[I->C];
    if (V.Kind == ValueKind::HeapRef) {
      H.freeMemoryOnly(V.Ref);
    } else if (V.Kind == ValueKind::Token) {
      if (V.Tok)
        H.freeMemoryOnly(V.Tok);
    }
    VM_NEXT();
  }
  VM_CASE(DecRef) {
    VM_STAMP(Sites, "decref");
    ++R.Rc.DecRefs;
    H.decref(RF[I->C]);
    VM_NEXT();
  }
  VM_CASE(IsUniqueBr) {
    VM_STAMP(Sites, "is-unique");
    ++R.Rc.IsUniques;
    if (!H.isUnique(RF[I->C]))
      VM_JUMP(I->E);
    VM_NEXT();
  }
  VM_CASE(DropReuse) {
    Value V = RF[I->C];
    if (V.Kind != ValueKind::HeapRef)
      VM_TRAP("drop-reuse of a non-heap value", TrapKind::RuntimeError);
    VM_STAMP(Sites, "drop-reuse");
    ++R.Rc.DropReuses;
    ++R.Rc.IsUniques; // the probe below is a real is-unique test
    if (H.isUnique(V)) {
      R.Rc.ImplicitDrops += V.Ref->H.Arity; // dropChildren drops each
      H.dropChildren(V.Ref);
      RF[I->D] = Value::makeToken(V.Ref);
    } else {
      ++R.Rc.ImplicitDecRefs;
      H.decref(V);
      RF[I->D] = Value::makeToken(nullptr);
    }
    VM_NEXT();
  }
  VM_CASE(ReuseAddr) {
    Value V = RF[I->C];
    if (V.Kind != ValueKind::HeapRef)
      VM_TRAP("reuse-addr of a non-heap value", TrapKind::RuntimeError);
    RF[I->B] = Value::makeToken(V.Ref);
    VM_NEXT();
  }

  //===--- Primitives -----------------------------------------------------===//
  VM_CASE(Add) {
    int64_t V = 0;
    VM_PRIM(checkedArith, ArithKind::Add, RF[I->C], RF[I->D], V);
    RF[I->B] = Value::makeInt(V);
    VM_NEXT();
  }
  VM_CASE(Sub) {
    int64_t V = 0;
    VM_PRIM(checkedArith, ArithKind::Sub, RF[I->C], RF[I->D], V);
    RF[I->B] = Value::makeInt(V);
    VM_NEXT();
  }
  VM_CASE(Mul) {
    int64_t V = 0;
    VM_PRIM(checkedArith, ArithKind::Mul, RF[I->C], RF[I->D], V);
    RF[I->B] = Value::makeInt(V);
    VM_NEXT();
  }
  VM_CASE(Div) {
    int64_t V = 0;
    VM_PRIM(checkedArith, ArithKind::Div, RF[I->C], RF[I->D], V);
    RF[I->B] = Value::makeInt(V);
    VM_NEXT();
  }
  VM_CASE(Mod) {
    int64_t V = 0;
    VM_PRIM(checkedArith, ArithKind::Mod, RF[I->C], RF[I->D], V);
    RF[I->B] = Value::makeInt(V);
    VM_NEXT();
  }
  VM_CASE(Neg) {
    Value A = RF[I->C];
    if (A.Kind != ValueKind::Int)
      VM_TRAP("negation of a non-integer", TrapKind::RuntimeError);
    if (A.Int == INT64_MIN)
      VM_TRAP("integer overflow in negation", TrapKind::RuntimeError);
    RF[I->B] = Value::makeInt(-A.Int);
    VM_NEXT();
  }
  VM_CASE(Cmp) {
    bool Res = false;
    VM_PRIM(compare, static_cast<CmpKind>(I->A), RF[I->C], RF[I->D], Res);
    RF[I->B] = Value::makeBool(Res);
    VM_NEXT();
  }
  VM_CASE(Not) {
    Value A = RF[I->C];
    if (A.Kind != ValueKind::Bool)
      VM_TRAP("negation of a non-boolean", TrapKind::RuntimeError);
    RF[I->B] = Value::makeBool(!A.asBool());
    VM_NEXT();
  }
  VM_CASE(PrintLn) {
    Value A = RF[I->C];
    if (A.Kind == ValueKind::Int)
      R.Output += std::to_string(A.Int);
    else if (A.Kind == ValueKind::Bool)
      R.Output += A.asBool() ? "True" : "False";
    else if (A.Kind == ValueKind::Unit)
      R.Output += "()";
    else
      VM_TRAP("println of a non-printable value", TrapKind::RuntimeError);
    R.Output += '\n';
    RF[I->B] = Value::unit();
    VM_NEXT();
  }
  VM_CASE(MarkSharedOp) {
    // tshare consumes its argument (the reference is transferred in).
    VM_STAMP(Sites, "tshare");
    H.markShared(RF[I->C]);
    ++R.Rc.ImplicitDrops;
    H.drop(RF[I->C]);
    RF[I->B] = Value::unit();
    VM_NEXT();
  }
  VM_CASE(AbortOp) {
    VM_TRAP("abort: non-exhaustive match or explicit failure",
            TrapKind::RuntimeError);
  }
  VM_CASE(RefNew) {
    // Ownership of the content moves into the cell.
    VM_STAMP(Sites, "ref-new");
    Cell *C = H.alloc(1, 0, CellKind::Ref);
    if (!C)
      VM_TRAP("out of memory allocating a reference", TrapKind::OutOfMemory);
    VM_REFRAME();
    C->setField(0, RF[I->C]);
    RF[I->B] = Value::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(RefGet) {
    Value Rv = RF[I->C];
    if (Rv.Kind != ValueKind::HeapRef || Rv.Ref->H.Kind != CellKind::Ref)
      VM_TRAP("deref of a non-reference", TrapKind::RuntimeError);
    Value Out = Rv.Ref->field(0);
    // The paper's read: dup the content, then release the handle.
    VM_STAMP(Sites, "ref-get");
    ++R.Rc.ImplicitDups;
    H.dup(Out);
    ++R.Rc.ImplicitDrops;
    H.drop(Rv);
    RF[I->B] = Out;
    VM_NEXT();
  }
  VM_CASE(RefSet) {
    Value Rv = RF[I->C];
    if (Rv.Kind != ValueKind::HeapRef || Rv.Ref->H.Kind != CellKind::Ref)
      VM_TRAP("set-ref of a non-reference", TrapKind::RuntimeError);
    Value Old = Rv.Ref->field(0);
    Rv.Ref->setField(0, RF[I->D]); // content ownership moves in
    VM_STAMP(Sites, "ref-set");
    R.Rc.ImplicitDrops += 2;
    H.drop(Old);
    H.drop(Rv); // release the handle
    RF[I->B] = Value::unit();
    VM_NEXT();
  }

  VM_CASE(TrapOp) {
    VM_TRAP(CP.Messages[I->E], TrapKind::RuntimeError);
  }

  //===--- Superinstructions (peephole tier) ------------------------------===//
  // Each handler is the literal concatenation of its component handlers:
  // same heap calls, same counter increments, same telemetry stamps,
  // same trap messages at the same points — one dispatch. Primary sites
  // live in Sites; per-component extras in Sites2/Sites3, which the
  // peephole pass populates on every chunk it rewrites.

  VM_CASE(Dup2) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 2;
    VM_STAMP(Sites, "dup");
    ++R.Rc.Dups;
    H.dup(RF[I->C]);
    VM_STAMP(Sites2, "dup");
    ++R.Rc.Dups;
    H.dup(RF[I->D]);
    VM_NEXT();
  }
  VM_CASE(Drop2) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 2;
    VM_STAMP(Sites, "drop");
    ++R.Rc.Drops;
    H.drop(RF[I->C]);
    VM_STAMP(Sites2, "drop");
    ++R.Rc.Drops;
    H.drop(RF[I->D]);
    VM_NEXT();
  }
  VM_CASE(Dup3) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 3;
    VM_STAMP(Sites, "dup");
    ++R.Rc.Dups;
    H.dup(RF[I->C]);
    VM_STAMP(Sites2, "dup");
    ++R.Rc.Dups;
    H.dup(RF[I->D]);
    VM_STAMP(Sites3, "dup");
    ++R.Rc.Dups;
    H.dup(RF[static_cast<uint16_t>(I->E)]);
    VM_NEXT();
  }
  VM_CASE(RetConst) {
    ++R.Rc.FusedOps;
    VM_RETURN(Consts[I->E]);
  }
  VM_CASE(LtBr) {
    ++R.Rc.FusedOps;
    bool Res = false;
    VM_PRIM(compare, CmpKind::Lt, RF[I->C], RF[I->D], Res);
    if (!Res)
      VM_JUMP(I->E);
    VM_NEXT();
  }
  VM_CASE(LeBr) {
    ++R.Rc.FusedOps;
    bool Res = false;
    VM_PRIM(compare, CmpKind::Le, RF[I->C], RF[I->D], Res);
    if (!Res)
      VM_JUMP(I->E);
    VM_NEXT();
  }
  VM_CASE(EqBr) {
    ++R.Rc.FusedOps;
    bool Res = false;
    VM_PRIM(compare, CmpKind::Eq, RF[I->C], RF[I->D], Res);
    if (!Res)
      VM_JUMP(I->E);
    VM_NEXT();
  }
  VM_CASE(NeBr) {
    ++R.Rc.FusedOps;
    bool Res = false;
    VM_PRIM(compare, CmpKind::Ne, RF[I->C], RF[I->D], Res);
    if (!Res)
      VM_JUMP(I->E);
    VM_NEXT();
  }
  VM_CASE(CmpConstBr) {
    ++R.Rc.FusedOps;
    bool Res = false;
    VM_PRIM(compare, static_cast<CmpKind>(I->A), RF[I->C], Consts[I->D], Res);
    if (!Res)
      VM_JUMP(I->E);
    VM_NEXT();
  }
  VM_CASE(CmpJmp) {
    // compare + Jump + the target JumpIfFalse, threaded into one
    // two-way branch. The compare always yields a boolean, so the
    // skipped JumpIfFalse's non-boolean trap was unreachable, and its
    // condition temp is dead on this path (the write is elided).
    ++R.Rc.FusedOps;
    bool Res = false;
    VM_PRIM(compare, static_cast<CmpKind>(I->A), RF[I->C], RF[I->D], Res);
    VM_JUMP(Res ? I->B : I->E);
  }
  VM_CASE(ArithConst) {
    // LoadConst into a dead temp + the arith consuming it; the trap
    // condition (either operand non-integer) is checked exactly as the
    // component arith did, constants included.
    ++R.Rc.FusedOps;
    int64_t V = 0;
    VM_PRIM(checkedArith, static_cast<ArithKind>(I->A), RF[I->C],
            Consts[I->D], V);
    RF[I->B] = Value::makeInt(V);
    VM_NEXT();
  }
  VM_CASE(DecLoadConst) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    VM_STAMP(Sites, "decref");
    ++R.Rc.DecRefs;
    H.decref(RF[I->C]);
    RF[I->B] = Consts[I->E];
    VM_NEXT();
  }
  VM_CASE(DropLoadConst) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    VM_STAMP(Sites, "drop");
    ++R.Rc.Drops;
    H.drop(RF[I->C]);
    RF[I->B] = Consts[I->E];
    VM_NEXT();
  }
  VM_CASE(DropRetConst) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    VM_STAMP(Sites, "drop");
    ++R.Rc.Drops;
    H.drop(RF[I->C]);
    VM_RETURN(Consts[I->E]);
  }
  VM_CASE(Dup2DecLoadConst) {
    ++R.Rc.FusedOps;
    R.Rc.FusedRcOps += 3;
    VM_STAMP(Sites, "dup");
    ++R.Rc.Dups;
    H.dup(RF[I->C]);
    VM_STAMP(Sites2, "dup");
    ++R.Rc.Dups;
    H.dup(RF[I->D]);
    VM_STAMP(Sites3, "decref");
    ++R.Rc.DecRefs;
    H.decref(RF[I->B]);
    RF[I->A] = Consts[I->E];
    VM_NEXT();
  }
  VM_CASE(ConRet) {
    ++R.Rc.FusedOps;
    VM_STAMP(Sites, "con");
    Cell *C = H.alloc(I->A, I->D, CellKind::Ctor);
    if (!C)
      VM_TRAP("out of memory allocating a constructor", TrapKind::OutOfMemory);
    VM_REFRAME();
    VM_FILL(C);
    RF[I->B] = Value::makeRef(C); // live for a clean unwind until returned
    VM_RETURN(RF[I->B]);
  }
  VM_CASE(DropMove) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    VM_STAMP(Sites, "drop");
    ++R.Rc.Drops;
    H.drop(RF[I->C]);
    RF[I->B] = RF[I->D];
    VM_NEXT();
  }
  VM_CASE(ArithConstRet) {
    ++R.Rc.FusedOps;
    int64_t V = 0;
    VM_PRIM(checkedArith, static_cast<ArithKind>(I->A), RF[I->C],
            Consts[I->D], V);
    VM_RETURN(Value::makeInt(V));
  }
  VM_CASE(IsUniqueReuseJmp) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    VM_STAMP(Sites, "is-unique");
    ++R.Rc.IsUniques;
    Value V = RF[I->C];
    if (H.isUnique(V)) {
      RF[I->B] = Value::makeToken(V.Ref); // the fused ReuseAddr
      VM_JUMP(I->D);                      // the fused unique-path Jump
    }
    VM_JUMP(I->E);
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
#undef VM_DISPATCH
#undef VM_RESUME
#undef VM_NEXT
#undef VM_JUMP
#undef VM_TRAP
#undef VM_PRIM
#undef VM_REFRAME
#undef VM_SWITCH_CHUNK
#undef VM_SITE
#undef VM_STAMP
#undef VM_PUSH_FRAME
#undef VM_ENTER
#undef VM_RETURN
#undef VM_GATHER
#undef VM_FILL
#undef VM_TAIL_GATHER
}

void VM::enumerateRoots(const std::function<void(Value)> &Fn) const {
  for (const Value &V : Regs)
    Fn(V);
  Fn(Result);
}

//===- bytecode/VM.cpp - Register bytecode interpreter ------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Dispatch is threaded: every handler ends in its own computed goto
// through the label table (a GCC/Clang extension, like the
// __builtin_*_overflow checks below). The VM_CASE/VM_NEXT/VM_JUMP
// macros carry the control transfer, which is goto-based so handlers
// may dispatch from inside nested loops. Handlers read their operands
// through I, the program counter, which points into the current chunk;
// every dispatch pays one budget compare (see Budget).
//
//===----------------------------------------------------------------------===//

#include "bytecode/VM.h"

#include "gc/MarkSweep.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace perceus;

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

static_assert(alignof(LamExpr) >= 8,
              "a closure's code pointer keeps its low three bits for a tag");

/// Capacity growth is the only out-of-line RegStack path: doubling keeps
/// it amortized to the deepest frame ever reached, after which every
/// reframe is a size update plus the unit-fill.
void RegStack::grow(size_t N) {
  size_t NewCap = Cap ? Cap * 2 : 64;
  if (NewCap < N)
    NewCap = N;
  std::unique_ptr<Word[]> NewMem(new Word[NewCap]);
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
/// divisor must be non-zero, and the exact result must fit the 63-bit
/// range — IntMin / -1 and IntMin % -1 trap too. Returns the trap
/// message, else null with the result in \p Out. Add, subtract and
/// multiply work on the tagged words (2x+1): 2x+1 + 2y = 2(x+y)+1, and
/// 2x * y = 2xy, so the 64-bit overflow flag is exactly the 63-bit edge.
/// The plain handlers pass a constant kind, which folds the switch away.
/// The trap branches here and in compare are [[unlikely]]: inlined, an
/// unmarked one is laid out as the handler's fall-through path (a
/// returned pointer is predicted non-null), which more than doubled the
/// branch-fused compare handlers' hot code.
[[gnu::always_inline]] static inline const char *
checkedArith(ArithKind Kind, Word A, Word B, Word &Out) {
  if (!(A.Bits & B.Bits & 1)) [[unlikely]]
    return "arithmetic on a non-integer";
  if (Kind == ArithKind::Div || Kind == ArithKind::Mod) {
    const bool Div = Kind == ArithKind::Div;
    int64_t X = A.asInt(), Y = B.asInt();
    if (Y == 0) [[unlikely]]
      return Div ? "division by zero" : "modulo by zero";
    if (X == IntMin && Y == -1) [[unlikely]]
      return Div ? "integer overflow in division"
                 : "integer overflow in modulo";
    Out = Word::makeInt(Div ? X / Y : X % Y);
    return nullptr;
  }
  // Tested first, Div and Mod leave the fused handlers' run-time kind a
  // compare chain; with them in the switch GCC emits a jump table.
  int64_t X = static_cast<int64_t>(A.Bits), Y = static_cast<int64_t>(B.Bits);
  int64_t T;
  switch (Kind) {
  case ArithKind::Add:
    if (__builtin_add_overflow(X, Y - 1, &T)) [[unlikely]]
      return "integer overflow in addition";
    break;
  case ArithKind::RSub:
    std::swap(X, Y);
    [[fallthrough]];
  case ArithKind::Sub:
    if (__builtin_sub_overflow(X, Y - 1, &T)) [[unlikely]]
      return "integer overflow in subtraction";
    break;
  default:
    if (__builtin_mul_overflow(X - 1, Y >> 1, &T)) [[unlikely]]
      return "integer overflow in multiplication";
    T |= 1;
    break;
  }
  Out.Bits = static_cast<uint64_t>(T);
  return nullptr;
}

/// The compare primitives, the one definition every compare handler
/// runs: integer order, and equality over two Ints, two Bools or two
/// Enums. Returns the trap message when the operands do not fit the
/// kind, else null with the outcome in \p Out. Tagged integers order as
/// their values do, and equal values have equal words. The hot
/// branch-fused handlers pass a constant kind.
[[gnu::always_inline]] static inline const char *
compare(CmpKind Kind, Word A, Word B, bool &Out) {
  if (Kind == CmpKind::Eq || Kind == CmpKind::Ne) {
    if (!(A.Bits & B.Bits & 1) &&
        (!(A.isBool() || A.isEnum()) || (A.Bits & 0xff) != (B.Bits & 0xff)))
        [[unlikely]]
      return "equality on incompatible or heap values";
    Out = (A == B) == (Kind == CmpKind::Eq);
    return nullptr;
  }
  if (!(A.Bits & B.Bits & 1)) [[unlikely]]
    return "comparison of non-integers";
  int64_t X = static_cast<int64_t>(A.Bits), Y = static_cast<int64_t>(B.Bits);
  switch (Kind) {
  case CmpKind::Lt:
    Out = X < Y;
    break;
  case CmpKind::Le:
    Out = X <= Y;
    break;
  case CmpKind::Gt:
    Out = X > Y;
    break;
  default:
    Out = X >= Y;
    break;
  }
  return nullptr;
}

VM::VM(const CompiledProgram &CP, Heap &H, bool Peephole)
    : CP(CP), H(H), PeepholeTier(Peephole) {
  if (H.mode() == HeapMode::Gc)
    attachCollector(H, [this](const std::function<void(Word)> &Fn) {
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
    std::vector<Word> Roots;
    Roots.reserve(Regs.size() + 1);
    Roots.insert(Roots.end(), Regs.begin(), Regs.end());
    Roots.push_back(Result);
    Freed = H.reclaim(Roots);
  }
  Regs.clear();
  Frames.clear();
  Result = Word::unit();
  Run->UnwoundCells = Freed;
}

/// The chunk a Call or TailCall of \p Callee with \p NArgs arguments
/// enters, with \p Clo set to the closure cell (null for a function
/// reference). Traps and returns null when the callee is not a function
/// or takes another number of arguments.
const Chunk *VM::resolveCallee(Word Callee, uint32_t NArgs, Cell *&Clo) {
  Clo = nullptr;
  if (Callee.isFnRef()) {
    const Chunk *T = &(UseRawChunks ? CP.RawFuncs : CP.Funcs)[Callee.fnId()];
    if (T->NumParams == NArgs)
      return T;
    trap("arity mismatch calling '" +
         std::string(CP.Prog->symbols().name(T->Fn->Name)) + "'");
    return nullptr;
  }
  if (!Callee.isHeap() || Callee.ref()->H.Kind != CellKind::Closure) {
    trap("calling a non-function value");
    return nullptr;
  }
  Clo = Callee.ref();
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
                      Word *RF) {
  if (Sink)
    Sink->setSite(T->Lam, "app", CallSite->loc());
  for (size_t I = 0; I != T->CaptureDst.size(); ++I) {
    Word Cap = Clo->field(1 + I);
    ++Run->Rc.ImplicitDups;
    H.dup(Cap);
    RF[T->CaptureDst[I]] = Cap;
  }
  ++Run->Rc.ImplicitDrops;
  H.drop(Word::makeRef(Clo));
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
  Result = Word::unit();

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
  std::string Bad;
  if (Args.size() != Entry.NumParams)
    Bad = "entry function arity mismatch";
  Regs.reframe(Bad.empty() ? Entry.NumRegs : Args.size(), Args.size());
  for (size_t I = 0; I != Args.size(); ++I) {
    const Value &A = Args[I];
    bool Wide = A.Kind == ValueKind::Int && !fitsInt(A.Int);
    if (Wide && Bad.empty())
      Bad = "entry argument " + std::to_string(A.Int) +
            " is outside the integer range " + IntRangeText;
    Regs[I] = Wide ? Word::unit() : A.encode();
  }
  if (!Bad.empty()) {
    // Ownership of the arguments transferred to us; unwind them.
    trap(std::move(Bad));
    unwind();
    Run = nullptr;
    return R;
  }
  if (Regs.size() > R.MaxLocalsSlots)
    R.MaxLocalsSlots = Regs.size();

  execute(&Entry, R);

  if (!Trapped) {
    R.Ok = true;
    R.Result = Value::decode(Result);
    if (ResultInspector)
      ResultInspector(R.Result);
    // The caller of the entry point owns the result; release heap
    // results so a garbage-free run ends with an empty heap.
    if (Result.isHeap()) {
      if (Sink)
        Sink->setSite(this, "result", SourceLoc{});
      ++R.Rc.ImplicitDrops;
      H.drop(Result);
    }
    Regs.clear();
    Result = Word::unit();
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
  Word *RF = Regs.data();
  const Word *Consts = CP.Consts.data();
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
    Word *W_ = (W);                                                            \
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
    if (I->B) { /* direct: one copy, entries in place skipped */               \
      const uint16_t *L_ = Lists + I->E;                                       \
      for (uint32_t J = 0; J != I->A; ++J)                                     \
        if (L_[J] != J)                                                        \
          RF[J] = RF[L_[J]];                                                   \
      break;                                                                   \
    }                                                                          \
    VM_GATHER(RF + I->C);                                                      \
    for (uint32_t J = 0; J != I->A; ++J) /* forward copy; window >= dst */    \
      RF[J] = RF[I->C + J];                                                    \
  } while (0)
  // Returns Val to the caller's Dst register and resumes the caller, or
  // ends the run from the entry frame.
#define VM_RETURN(Val)                                                         \
  do {                                                                         \
    Word Ret_ = (Val);                                                         \
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
    Word V = RF[I->B];
    if (V == Word::makeBool(false))
      VM_JUMP(I->E);
    if (V != Word::makeBool(true))
      VM_TRAP("if condition is not a boolean", TrapKind::RuntimeError);
    VM_NEXT();
  }
  VM_CASE(MatchOp) {
    Word V = RF[I->B];
    const MatchTable &T = CP.Matches[I->E];
    const MatchArmCode *Default = nullptr;
    for (const MatchArmCode &Arm : T.Arms) {
      bool Matches = false;
      switch (Arm.Kind) {
      case ArmKind::Ctor:
        // Only a value the arm can bind: its own constructor's immediate,
        // or a cell with its tag and one field per binder. A same-tag
        // value of another type falls through.
        if (V.isHeap()) {
          if (V.ref()->H.Kind == CellKind::Ctor)
            Matches = V.ref()->H.Tag == Arm.Tag &&
                      V.ref()->H.Arity == Arm.NumBinders;
        } else if (V.isEnum()) {
          Matches = V == Word::makeEnum(Arm.DataId, Arm.Tag);
        } else {
          VM_TRAP("match on a non-constructor value", TrapKind::RuntimeError);
        }
        break;
      case ArmKind::IntLit:
        if (!V.isInt())
          VM_TRAP("integer pattern on a non-integer value",
                  TrapKind::RuntimeError);
        Matches = V.asInt() == Arm.Lit;
        break;
      case ArmKind::BoolLit:
        if (!V.isBool())
          VM_TRAP("boolean pattern on a non-boolean value",
                  TrapKind::RuntimeError);
        Matches = V.asBool() == (Arm.Lit != 0);
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
          RF[Binders[J]] = V.ref()->field(J);
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
  // A direct tail call (B set) skips the window: its list reads no
  // parameter that an earlier copy wrote.
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
    C->setField(0, Word::makeRaw(LC->Lam));
    for (size_t J = 0; J != NCaps; ++J) // ownership moves in
      C->setField(1 + J, RF[LC->CaptureSrc[J]]);
    RF[I->B] = Word::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(Con) {
    VM_STAMP(Sites, "con");
    Cell *C = H.alloc(I->A, I->D, CellKind::Ctor);
    if (!C)
      VM_TRAP("out of memory allocating a constructor", TrapKind::OutOfMemory);
    VM_REFRAME();
    VM_FILL(C);
    RF[I->B] = Word::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(ConReuse) {
    VM_STAMP(Sites, "con@ru");
    Word Tok = RF[I->C];
    if (!Tok.isToken())
      VM_TRAP("constructor reuse with a non-token", TrapKind::RuntimeError);
    Cell *C = Tok.tok();
    if (C) { // in-place reuse: same memory, fresh identity
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
    RF[I->B] = Word::makeRef(C);
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
    if (Cell *C = RF[I->C].cellOrNull()) // a heap reference or a token
      H.freeMemoryOnly(C);
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
    Word V = RF[I->C];
    if (!V.isHeap())
      VM_TRAP("drop-reuse of a non-heap value", TrapKind::RuntimeError);
    VM_STAMP(Sites, "drop-reuse");
    ++R.Rc.DropReuses;
    ++R.Rc.IsUniques; // the probe below is a real is-unique test
    if (H.isUnique(V)) {
      R.Rc.ImplicitDrops += V.ref()->H.Arity; // dropChildren drops each
      H.dropChildren(V.ref());
      RF[I->D] = Word::makeToken(V.ref());
    } else {
      ++R.Rc.ImplicitDecRefs;
      H.decref(V);
      RF[I->D] = Word::makeToken(nullptr);
    }
    VM_NEXT();
  }
  VM_CASE(ReuseAddr) {
    Word V = RF[I->C];
    if (!V.isHeap())
      VM_TRAP("reuse-addr of a non-heap value", TrapKind::RuntimeError);
    RF[I->B] = Word::makeToken(V.ref());
    VM_NEXT();
  }

  //===--- Primitives -----------------------------------------------------===//
  VM_CASE(Add) {
    Word V;
    VM_PRIM(checkedArith, ArithKind::Add, RF[I->C], RF[I->D], V);
    RF[I->B] = V;
    VM_NEXT();
  }
  VM_CASE(Sub) {
    Word V;
    VM_PRIM(checkedArith, ArithKind::Sub, RF[I->C], RF[I->D], V);
    RF[I->B] = V;
    VM_NEXT();
  }
  VM_CASE(Mul) {
    Word V;
    VM_PRIM(checkedArith, ArithKind::Mul, RF[I->C], RF[I->D], V);
    RF[I->B] = V;
    VM_NEXT();
  }
  VM_CASE(Div) {
    Word V;
    VM_PRIM(checkedArith, ArithKind::Div, RF[I->C], RF[I->D], V);
    RF[I->B] = V;
    VM_NEXT();
  }
  VM_CASE(Mod) {
    Word V;
    VM_PRIM(checkedArith, ArithKind::Mod, RF[I->C], RF[I->D], V);
    RF[I->B] = V;
    VM_NEXT();
  }
  VM_CASE(Neg) {
    Word A = RF[I->C];
    if (!A.isInt())
      VM_TRAP("negation of a non-integer", TrapKind::RuntimeError);
    if (A.asInt() == IntMin)
      VM_TRAP("integer overflow in negation", TrapKind::RuntimeError);
    RF[I->B] = Word::makeInt(-A.asInt());
    VM_NEXT();
  }
  VM_CASE(Cmp) {
    bool Res = false;
    VM_PRIM(compare, static_cast<CmpKind>(I->A), RF[I->C], RF[I->D], Res);
    RF[I->B] = Word::makeBool(Res);
    VM_NEXT();
  }
  VM_CASE(Not) {
    Word A = RF[I->C];
    if (!A.isBool())
      VM_TRAP("negation of a non-boolean", TrapKind::RuntimeError);
    RF[I->B] = Word::makeBool(!A.asBool());
    VM_NEXT();
  }
  VM_CASE(PrintLn) {
    Word A = RF[I->C];
    if (A.isInt())
      R.Output += std::to_string(A.asInt());
    else if (A.isBool())
      R.Output += A.asBool() ? "True" : "False";
    else if (A == Word::unit())
      R.Output += "()";
    else
      VM_TRAP("println of a non-printable value", TrapKind::RuntimeError);
    R.Output += '\n';
    RF[I->B] = Word::unit();
    VM_NEXT();
  }
  VM_CASE(MarkSharedOp) {
    // tshare consumes its argument (the reference is transferred in).
    VM_STAMP(Sites, "tshare");
    H.markShared(RF[I->C]);
    ++R.Rc.ImplicitDrops;
    H.drop(RF[I->C]);
    RF[I->B] = Word::unit();
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
    RF[I->B] = Word::makeRef(C);
    VM_NEXT();
  }
  VM_CASE(RefGet) {
    Word Rv = RF[I->C];
    if (!Rv.isHeap() || Rv.ref()->H.Kind != CellKind::Ref)
      VM_TRAP("deref of a non-reference", TrapKind::RuntimeError);
    Word Out = Rv.ref()->field(0);
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
    Word Rv = RF[I->C];
    if (!Rv.isHeap() || Rv.ref()->H.Kind != CellKind::Ref)
      VM_TRAP("set-ref of a non-reference", TrapKind::RuntimeError);
    Word Old = Rv.ref()->field(0);
    Rv.ref()->setField(0, RF[I->D]); // content ownership moves in
    VM_STAMP(Sites, "ref-set");
    R.Rc.ImplicitDrops += 2;
    H.drop(Old);
    H.drop(Rv); // release the handle
    RF[I->B] = Word::unit();
    VM_NEXT();
  }

  VM_CASE(TrapOp) {
    VM_TRAP(CP.Messages[I->E], TrapKind::RuntimeError);
  }

  //===--- Superinstructions (peephole tier) ------------------------------===//
  // Each handler is the literal concatenation of its component handlers:
  // same heap calls, same counter increments, same telemetry stamps,
  // same trap messages at the same points — one dispatch. Primary sites
  // live in Sites. Dup2, Drop2, Dup3 and Dup2DecLoadConst stamp their
  // later components' sites from Sites2/Sites3, which the peephole pass
  // fills on every chunk holding one of them.

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
    Word V;
    VM_PRIM(checkedArith, static_cast<ArithKind>(I->A), RF[I->C],
            Consts[I->D], V);
    RF[I->B] = V;
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
    RF[I->B] = Word::makeRef(C); // live for a clean unwind until returned
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
    Word V;
    VM_PRIM(checkedArith, static_cast<ArithKind>(I->A), RF[I->C],
            Consts[I->D], V);
    VM_RETURN(V);
  }
  VM_CASE(IsUniqueReuseJmp) {
    ++R.Rc.FusedOps;
    ++R.Rc.FusedRcOps;
    VM_STAMP(Sites, "is-unique");
    ++R.Rc.IsUniques;
    Word V = RF[I->C];
    if (H.isUnique(V)) {
      RF[I->B] = Word::makeToken(V.ref()); // the fused ReuseAddr
      VM_JUMP(I->D);                      // the fused unique-path Jump
    }
    VM_JUMP(I->E);
  }

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

void VM::enumerateRoots(const std::function<void(Word)> &Fn) const {
  for (Word V : Regs)
    Fn(V);
  Fn(Result);
}

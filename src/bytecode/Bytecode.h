//===- bytecode/Bytecode.h - Flat register bytecode -------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat, register-based bytecode for the RC-instrumented IR. The
/// compiler (bytecode/Compiler.h) lowers each function and each lambda
/// body into a Chunk of fixed-width instructions over the frame layout
/// (eval/Layout.h): the layout pass's named slots become the
/// low registers of the frame, and expression temporaries live above
/// them. An instruction reads a variable operand in the variable's own
/// register. Constructors and calls name their operands through a
/// register list in CompiledProgram::RegLists and copy them inside their
/// own dispatch; a call copies its arguments into a window above the
/// caller's live registers, which becomes the callee's parameter region
/// (Lua-style overlapping frames).
///
/// Design constraints, in priority order:
///
///  1. *The instrumented IR's heap semantics, exactly.* The VM issues
///     one heap operation (alloc, dup, drop, decref, is-unique, free,
///     markShared) per RC instruction of the IR, with the IR's telemetry
///     sites, in a fixed evaluation order (callee before arguments,
///     constructor fields before the allocation). So HeapStats,
///     RcInstrCounts, reuse counters and fault-injection behaviour are
///     bit-identical across the raw and peephole tiers, and equal the
///     frozen goldens in tests/bytecode/engine_diff_test.cpp.
///  2. *Dispatch speed.* Every RC instruction, the is-unique branch,
///     a reusing constructor and each primitive is a single opcode;
///     constructor tag/arity are inline immediates resolved at compile
///     time (the "inline cache" — no CtorDecl lookup at run time); calls
///     to statically-known functions skip callee resolution entirely.
///
/// Instructions are 12 bytes: opcode, an 8-bit immediate A, three 16-bit
/// register/immediate fields B/C/D, and a 32-bit extended field E used
/// for jump targets, pool indices and lambda ids. Register indices are
/// frame-relative; a frame holds at most 65535 registers and a program
/// at most 65536 functions, and the compiler reports a program past
/// either limit (CompiledProgram::Error).
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_BYTECODE_BYTECODE_H
#define PERCEUS_BYTECODE_BYTECODE_H

#include "ir/Program.h"
#include "runtime/Value.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perceus {

/// Bytecode operations. Operand conventions are listed per opcode;
/// unnamed fields are unused. "list" is the index in
/// CompiledProgram::RegLists of the instruction's operand registers, one
/// per field or argument; "window" is the first of the contiguous
/// registers a call copies its arguments into. A tail call's "direct"
/// is 1 when its list can be copied straight into parameters 0..A-1 in
/// order (entry J never names a register below J, which an earlier copy
/// wrote), else 0: then it goes through the window.
enum class Op : uint8_t {
  //===--- Moves and constants --------------------------------------------===//
  LoadConst,   ///< B=dst, E=constant-pool index
  Move,        ///< B=dst, C=src

  //===--- Control flow ---------------------------------------------------===//
  Jump,        ///< E=target pc
  JumpIfFalse, ///< B=cond, E=target pc (traps on a non-boolean)
  MatchOp,     ///< B=scrutinee slot, E=match-table index
  Call,        ///< A=nargs, B=dst, C=window, D=callee, E=list
  CallStatic,  ///< A=nargs, B=dst, C=window, D=FuncId, E=list
  TailCall,    ///< A=nargs, B=direct, C=window, D=callee, E=list
  TailCallStatic, ///< A=nargs, B=direct, C=window, D=FuncId, E=list
  Ret,         ///< B=src

  //===--- Heap allocation ------------------------------------------------===//
  MakeClosure, ///< B=dst, E=LamId (captures resolved via the lam chunk)
  Con,         ///< A=arity, B=dst, D=ctor tag, E=list (fields)
  ConReuse,    ///< A=arity, B=dst, C=token slot, D=ctor tag, E=list

  //===--- RC instructions (first-class; see ir/Expr.h) -------------------===//
  Dup,          ///< C=slot
  Drop,         ///< C=slot
  FreeOp,       ///< C=slot (memory-only disposal)
  DecRef,       ///< C=slot
  IsUniqueBr,   ///< C=slot, E=else target (unique path falls through)
  DropReuse,    ///< C=var slot, D=token slot
  ReuseAddr,    ///< B=dst, C=var slot

  //===--- Primitives (one instruction each; fast unboxed paths) ----------===//
  Add,          ///< B=dst, C=lhs, D=rhs (likewise through Mod)
  Sub,
  Mul,
  Div,
  Mod,
  Neg,          ///< B=dst, C=src
  Cmp,          ///< A=CmpKind, B=dst, C=lhs, D=rhs (integer order, or
                ///< Int/Bool/Enum equality)
  Not,          ///< B=dst, C=src
  PrintLn,      ///< B=dst, C=src
  MarkSharedOp, ///< B=dst, C=src (tshare: markShared + consuming drop)
  AbortOp,      ///< traps
  RefNew,       ///< B=dst, C=src
  RefGet,       ///< B=dst, C=src
  RefSet,       ///< B=dst, C=ref reg, D=value reg

  TrapOp,       ///< E=message index (compile-time-known runtime error)

  //===--- Superinstructions (emitted only by bytecode/Peephole.h) --------===//
  // Each fused opcode is semantically the exact concatenation of its
  // component handlers: same heap calls, same counter increments, same
  // telemetry stamps, same trap points. The compiler never emits these;
  // the peephole pass rewrites hot adjacent pairs/triples post-compile.
  // One stays only while some built-in program executes it (the opcode
  // census in tests/bytecode/engine_diff_test.cpp checks this).
  Dup2,          ///< C=slot1, D=slot2
  Drop2,         ///< C=slot1, D=slot2
  Dup3,          ///< C=slot1, D=slot2, E=slot3
  RetConst,      ///< E=constant-pool index
  LtBr,          ///< C=lhs, D=rhs, E=target (branches when the compare
  LeBr,          ///< is false, like JumpIfFalse; the boolean register
  EqBr,          ///< write of the component compare is elided — the
  NeBr,          ///< compiler only ever materializes it into a dead temp;
                 ///< `a > b` and `a >= b` fuse as LtBr/LeBr on b, a)
  CmpConstBr,    ///< A=CmpKind, C=lhs, D=constant-pool index, E=target
  CmpJmp,        ///< A=CmpKind, C=lhs, D=rhs, B=pc when true, E=pc when
                 ///< false. Jump-threads `cmp; Jump L` when L is the
                 ///< JumpIfFalse consuming the compare's dead temp: the
                 ///< loop-rotation shape every while-style recursion
                 ///< compiles into. Skips the target test entirely.
  ArithConst,    ///< A=ArithKind (x+K/x-K/K-x/x*K), B=dst, C=x,
                 ///< D=constant-pool index of K
  DecLoadConst,  ///< C=decref slot, B=dst, E=constant-pool index
  DropLoadConst, ///< C=drop slot, B=dst, E=constant-pool index
  DropRetConst,  ///< C=drop slot, E=constant-pool index
  Dup2DecLoadConst, ///< C=dup1, D=dup2, B=decref slot, A=dst (must fit
                    ///< 8 bits), E=constant-pool index
  ConRet,           ///< A=arity, B=dst, D=ctor tag, E=list — Con, then
                    ///< return the fresh cell
  DropMove,         ///< C=drop slot, B=move dst, D=move src
  ArithConstRet,    ///< A=kind, B=dst, C=x, D=constant-pool index — the
                    ///< ArithConst whose result is immediately returned
  IsUniqueReuseJmp, ///< B=token dst, C=slot, D=pc when unique, E=else
                    ///< target — IsUniqueBr + ReuseAddr + the unique
                    ///< path's Jump
};

/// The compare kind carried in the A field of Cmp, CmpConstBr and
/// CmpJmp: lhs<rhs, lhs<=rhs, lhs>rhs, lhs>=rhs, lhs==rhs, lhs!=rhs.
enum class CmpKind : uint8_t { Lt, Le, Gt, Ge, Eq, Ne };

/// The arithmetic kind carried in the A field of the fused arithmetic
/// opcodes: lhs+rhs, lhs-rhs, rhs-lhs (ArithConst family only: K-x),
/// lhs*rhs. Div and Mod only name the plain handlers' semantics.
enum class ArithKind : uint8_t { Add, Sub, RSub, Mul, Div, Mod };

constexpr size_t NumOpcodes = static_cast<size_t>(Op::IsUniqueReuseJmp) + 1;
/// The superinstructions are the opcodes from Dup2 to the end.
constexpr size_t FirstSuperinstruction = static_cast<size_t>(Op::Dup2);

/// The opcode's name as spelled in the Op enum.
const char *opName(Op O);

/// One fixed-width instruction; see the Op comments for field use.
struct Instr {
  Op O;
  uint8_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint16_t D = 0;
  uint32_t E = 0;
};

/// One arm of a compiled match. Arms keep their source order — the VM
/// scans them in order, including recording a default arm and
/// *continuing* the scan (a later ill-typed arm still traps even when a
/// default exists).
struct MatchArmCode {
  ArmKind Kind = ArmKind::Default;
  uint32_t DataId = 0;     ///< Ctor arms: the constructor's data type
  uint32_t Tag = 0;        ///< Ctor arms: the constructor tag
  int64_t Lit = 0;         ///< IntLit/BoolLit arms
  uint32_t BinderBase = 0; ///< into CompiledProgram::RegLists
  uint32_t NumBinders = 0;
  uint32_t Target = 0;     ///< pc of the arm body
};

struct MatchTable {
  std::vector<MatchArmCode> Arms;
};

/// The compiled body of one function or one lambda.
struct Chunk {
  std::vector<Instr> Code;
  /// Telemetry sites, parallel to Code: the IR node an instruction's
  /// heap events attribute to (null when the instruction reports none).
  /// Only consulted when a StatsSink is installed.
  std::vector<const Expr *> Sites;
  /// Secondary/tertiary telemetry sites for fused instructions whose
  /// components each stamp a site (Dup2, Drop2, Dup3, Dup2DecLoadConst).
  /// Parallel to Code on a peephole chunk holding one of those forms;
  /// empty on every other chunk, which never reads them.
  std::vector<const Expr *> Sites2;
  std::vector<const Expr *> Sites3;
  uint32_t NumRegs = 0;   ///< frame size: named slots + temporaries
  uint32_t NumParams = 0; ///< parameters occupy registers 0..NumParams-1
  /// First expression-temporary register: the layout's named slots occupy
  /// 0..FirstTemp-1. Temporaries above this line are dead outside the
  /// single expression that allocates them (every read is dominated by a
  /// write within that expression), which is what licenses the peephole
  /// pass to elide writes into them when fusing.
  uint32_t FirstTemp = 0;

  //===--- Lambda chunks only ---------------------------------------------===//
  const LamExpr *Lam = nullptr;    ///< the IR node (telemetry site identity)
  std::vector<uint16_t> CaptureSrc;///< capture slots in the enclosing frame
  std::vector<uint16_t> CaptureDst;///< capture slots in this chunk's frame

  //===--- Function chunks only -------------------------------------------===//
  const FunctionDecl *Fn = nullptr; ///< for arity-mismatch trap messages
};

/// A whole compiled program: per-function and per-lambda chunks over
/// shared constant/match/message pools. Read-only after compilation, so
/// one CompiledProgram can back any number of concurrent VMs (the
/// parallel engine compiles once and shares it across workers).
struct CompiledProgram {
  const Program *Prog = nullptr;
  std::vector<Chunk> Funcs; ///< indexed by FuncId
  std::vector<Chunk> Lams;  ///< indexed by LamId
  std::vector<Word> Consts; ///< each constant's tagged word
  std::vector<MatchTable> Matches;
  /// Flat register lists: each match arm's binder slots and each
  /// constructor's or call's operand registers.
  std::vector<uint16_t> RegLists;
  std::vector<std::string> Messages; ///< TrapOp messages
  /// Why the program cannot run, when it is wider than the instruction
  /// fields (a frame past 65535 registers, or more than 65536
  /// functions) or holds an integer literal outside the 63-bit range
  /// (possible only in IR built without the parser); empty otherwise.
  /// The chunks of such a program are garbage: callers report the error
  /// instead of running them.
  std::string Error;

  //===--- Peephole tier (set by bytecode/Peephole.h) ---------------------===//
  /// True once runPeephole has rewritten Funcs/Lams in place. The
  /// pre-peephole chunks are retained: the RC elision in the rewritten
  /// code assumes every heap cell reachable during the run was built by
  /// this program's own constructor sites, which holds for any run whose
  /// entry arguments are all immediates. VM::run checks that at entry and
  /// falls back to the raw tables otherwise (e.g. a parallel run handed a
  /// thread-shared heap segment).
  bool Peepholed = false;
  std::vector<Chunk> RawFuncs;
  std::vector<Chunk> RawLams;
};

} // namespace perceus

#endif // PERCEUS_BYTECODE_BYTECODE_H

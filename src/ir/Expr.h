//===- ir/Expr.h - Core IR expressions --------------------------*- C++-*-===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The expression IR of the linear resource calculus lambda-1 from
/// "Perceus: Garbage Free Reference Counting with Reuse" (Reinking, Xie,
/// de Moura, Leijen; PLDI 2021), Figure 4, extended with the internal
/// reference-counting constructs the paper introduces during compilation
/// (Sections 2.2-2.4):
///
///   dup x; e            DupExpr        increment refcount
///   drop x; e           DropExpr       decrement / recursively free
///   free x; e           FreeExpr       release memory only (drop-spec)
///   decref x; e         DecRefExpr     decrement only (drop-spec)
///   if is-unique(x)     IsUniqueExpr   drop-specialized refcount test
///   val ru=drop-reuse x DropReuseExpr  reuse-token acquisition (2.4)
///   Con@ru(...)         ConExpr w/ token   reuse-allocated constructor
///   &x                  ReuseAddrExpr  the address of x as a token
///   NULL                NullTokenExpr  the empty reuse token
///
/// All nodes are immutable and arena-allocated; passes build rewritten
/// trees rather than mutating in place.
///
//===----------------------------------------------------------------------===//

#ifndef PERCEUS_IR_EXPR_H
#define PERCEUS_IR_EXPR_H

#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/Symbol.h"

#include <cstdint>
#include <span>

namespace perceus {

class Arena;

/// Identifies a constructor within a Program (index into Program ctors).
using CtorId = uint32_t;
/// Identifies a top-level function within a Program.
using FuncId = uint32_t;

constexpr uint32_t InvalidId = ~0u;

/// Kinds of IR expression nodes.
enum class ExprKind : uint8_t {
  Lit,
  Var,
  Global,
  Lam,
  App,
  Let,
  Seq,
  If,
  Match,
  Con,
  Prim,
  // Internal reference-counting forms (the paper's "gray" constructs).
  Dup,
  Drop,
  Free,
  DecRef,
  IsUnique,
  DropReuse,
  ReuseAddr,
  NullToken,
};

/// Primitive operations. All operate on unboxed integers/booleans.
enum class PrimOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Neg,
  Lt,
  Le,
  Gt,
  Ge,
  EqInt,
  NeInt,
  Not,
  PrintLn,       // prints an integer; returns unit
  MarkShared,    // the paper's `tshare`: marks a value thread-shared
  Abort,         // non-exhaustive match / explicit failure; traps
  // First-class mutable reference cells (Section 2.7.3). These are the
  // only source of cycles (Section 2.7.4); breaking cycles is the
  // programmer's responsibility under reference counting.
  RefNew,        // ref(v): allocates a mutable cell holding v
  RefGet,        // deref(r): duplicates and returns the content
  RefSet,        // set-ref(r, v): drops the old content, stores v
};

/// Returns the surface-syntax spelling of \p Op.
const char *primOpName(PrimOp Op);

/// Literal payloads.
enum class LitKind : uint8_t { Int, Bool, Unit };

struct LitValue {
  LitKind Kind = LitKind::Unit;
  int64_t Int = 0;

  static LitValue makeInt(int64_t V) { return {LitKind::Int, V}; }
  static LitValue makeBool(bool V) { return {LitKind::Bool, V ? 1 : 0}; }
  static LitValue makeUnit() { return {LitKind::Unit, 0}; }

  friend bool operator==(const LitValue &A, const LitValue &B) {
    return A.Kind == B.Kind && A.Int == B.Int;
  }
};

//===----------------------------------------------------------------------===//
// Expr base
//===----------------------------------------------------------------------===//

/// Base class of all IR expressions.
///
/// `layoutA`/`layoutB` are scratch annotations owned by the frame-layout
/// pass of the abstract machine (slot indices, list table indices). They
/// are not part of the IR's semantics; a fresh layout run overwrites
/// them. Keeping them inline avoids a hash lookup per interpreted node.
class Expr {
public:
  ExprKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

  uint32_t layoutA() const { return LayoutA; }
  uint32_t layoutB() const { return LayoutB; }
  void setLayout(uint32_t A, uint32_t B) const {
    LayoutA = A;
    LayoutB = B;
  }

  /// A scratch mark owned by the immediacy analysis
  /// (analysis/ImmediateAnalysis.h). It sits in the padding after the
  /// kind byte, so it costs no space.
  uint8_t immMark() const { return ImmMark; }
  void setImmMark(uint8_t M) const { ImmMark = M; }

protected:
  Expr(ExprKind K, SourceLoc Loc) : Kind(K), Loc(Loc) {}

private:
  ExprKind Kind;
  mutable uint8_t ImmMark = 0;
  SourceLoc Loc;
  mutable uint32_t LayoutA = ~0u;
  mutable uint32_t LayoutB = ~0u;
};

/// An integer/boolean/unit literal. Never heap allocated at runtime
/// (value types, Section 2.7.1 of the paper).
class LitExpr : public Expr {
public:
  LitExpr(LitValue V, SourceLoc Loc) : Expr(ExprKind::Lit, Loc), Value(V) {}

  const LitValue &value() const { return Value; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Lit; }

private:
  LitValue Value;
};

/// A local variable occurrence.
class VarExpr : public Expr {
public:
  VarExpr(Symbol Name, SourceLoc Loc) : Expr(ExprKind::Var, Loc), Name(Name) {}

  Symbol name() const { return Name; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Var; }

private:
  Symbol Name;
};

/// A reference to a top-level function. Top-level functions are static
/// (capture nothing) so this is a non-heap value; dup/drop on it are no-ops.
class GlobalExpr : public Expr {
public:
  GlobalExpr(Symbol Name, FuncId Func, SourceLoc Loc)
      : Expr(ExprKind::Global, Loc), Name(Name), Func(Func) {}

  Symbol name() const { return Name; }
  FuncId func() const { return Func; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Global; }

private:
  Symbol Name;
  FuncId Func;
};

/// An anonymous function. `captures()` is the multiset ys of Figure 4's
/// annotated lambda; it is computed by the resolver (= free variables) and
/// preserved by the passes. At runtime a Lam allocates a closure cell
/// holding the captured values.
class LamExpr : public Expr {
public:
  LamExpr(std::span<const Symbol> Params, std::span<const Symbol> Captures,
          const Expr *Body, uint32_t LamId, SourceLoc Loc)
      : Expr(ExprKind::Lam, Loc), Params(Params), Captures(Captures),
        Body(Body), LamId(LamId) {}

  std::span<const Symbol> params() const { return Params; }
  std::span<const Symbol> captures() const { return Captures; }
  const Expr *body() const { return Body; }
  /// A program-unique id used by the frame-layout pass and the machine.
  uint32_t lamId() const { return LamId; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Lam; }

private:
  std::span<const Symbol> Params;
  std::span<const Symbol> Captures;
  const Expr *Body;
  uint32_t LamId;
};

/// N-ary application `f(a1, ..., an)`.
class AppExpr : public Expr {
public:
  AppExpr(const Expr *Fn, std::span<const Expr *const> Args, SourceLoc Loc)
      : Expr(ExprKind::App, Loc), Fn(Fn), Args(Args) {}

  const Expr *fn() const { return Fn; }
  std::span<const Expr *const> args() const { return Args; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::App; }

private:
  const Expr *Fn;
  std::span<const Expr *const> Args;
};

/// `val x = bound; body`.
class LetExpr : public Expr {
public:
  LetExpr(Symbol Name, const Expr *Bound, const Expr *Body, SourceLoc Loc)
      : Expr(ExprKind::Let, Loc), Name(Name), Bound(Bound), Body(Body) {}

  Symbol name() const { return Name; }
  const Expr *bound() const { return Bound; }
  const Expr *body() const { return Body; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Let; }

private:
  Symbol Name;
  const Expr *Bound;
  const Expr *Body;
};

/// `first; second` — evaluate \c first for its effect, discard, continue.
class SeqExpr : public Expr {
public:
  SeqExpr(const Expr *First, const Expr *Second, SourceLoc Loc)
      : Expr(ExprKind::Seq, Loc), First(First), Second(Second) {}

  const Expr *first() const { return First; }
  const Expr *second() const { return Second; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Seq; }

private:
  const Expr *First;
  const Expr *Second;
};

/// `if cond then thenE else elseE` over an unboxed boolean.
class IfExpr : public Expr {
public:
  IfExpr(const Expr *Cond, const Expr *Then, const Expr *Else, SourceLoc Loc)
      : Expr(ExprKind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  const Expr *cond() const { return Cond; }
  const Expr *thenExpr() const { return Then; }
  const Expr *elseExpr() const { return Else; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::If; }

private:
  const Expr *Cond;
  const Expr *Then;
  const Expr *Else;
};

/// What a match arm matches on.
enum class ArmKind : uint8_t { Ctor, IntLit, BoolLit, Default };

/// One arm of a match. For Ctor arms every field has a binder (wildcards
/// are resolved to fresh symbols so drop specialization can name them).
struct MatchArm {
  ArmKind Kind = ArmKind::Default;
  /// For Ctor arms: whether the body uses a binder. Perceus insertion
  /// sets it from the free variables it computes anyway; drop
  /// specialization reads it (perceus/Rewrites.cpp).
  bool BindersUsed = false;
  CtorId Ctor = InvalidId;          // for Ctor arms
  LitValue Lit;                     // for IntLit/BoolLit arms
  std::span<const Symbol> Binders;  // for Ctor arms
  const Expr *Body = nullptr;
};

/// `match x { arms }`. The scrutinee is always a variable: the resolver
/// let-binds non-trivial scrutinees first, which is what makes the smatch
/// rule of Figure 8 directly implementable.
class MatchExpr : public Expr {
public:
  MatchExpr(Symbol Scrutinee, std::span<const MatchArm> Arms, SourceLoc Loc)
      : Expr(ExprKind::Match, Loc), Scrutinee(Scrutinee), Arms(Arms) {}

  Symbol scrutinee() const { return Scrutinee; }
  std::span<const MatchArm> arms() const { return Arms; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Match; }

private:
  Symbol Scrutinee;
  std::span<const MatchArm> Arms;
};

/// A constructor application `C(e1..en)`, optionally carrying a reuse
/// token variable (`Con@ru(...)`, Section 2.4). At runtime, if the token
/// is NULL the cell is allocated fresh; otherwise the token's memory is
/// reused in place.
class ConExpr : public Expr {
public:
  ConExpr(CtorId Ctor, std::span<const Expr *const> Args, Symbol ReuseToken,
          SourceLoc Loc)
      : Expr(ExprKind::Con, Loc), Ctor(Ctor), Args(Args),
        ReuseToken(ReuseToken) {}

  CtorId ctor() const { return Ctor; }
  std::span<const Expr *const> args() const { return Args; }
  /// Invalid symbol when this is a plain (non-reuse) allocation.
  Symbol reuseToken() const { return ReuseToken; }
  bool hasReuseToken() const { return ReuseToken.isValid(); }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Con; }

private:
  CtorId Ctor;
  std::span<const Expr *const> Args;
  Symbol ReuseToken;
};

/// A primitive operation over unboxed values.
class PrimExpr : public Expr {
public:
  PrimExpr(PrimOp Op, std::span<const Expr *const> Args, SourceLoc Loc)
      : Expr(ExprKind::Prim, Loc), Op(Op), Args(Args) {}

  PrimOp op() const { return Op; }
  std::span<const Expr *const> args() const { return Args; }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Prim; }

private:
  PrimOp Op;
  std::span<const Expr *const> Args;
};

//===----------------------------------------------------------------------===//
// Internal reference-counting forms
//===----------------------------------------------------------------------===//

/// Common shape of the unary statement-like RC ops `op x; rest`.
class RcStmtExpr : public Expr {
public:
  Symbol var() const { return Var; }
  const Expr *rest() const { return Rest; }

  static bool classof(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef:
      return true;
    default:
      return false;
    }
  }

protected:
  RcStmtExpr(ExprKind K, Symbol Var, const Expr *Rest, SourceLoc Loc)
      : Expr(K, Loc), Var(Var), Rest(Rest) {}

private:
  Symbol Var;
  const Expr *Rest;
};

/// `dup x; rest`.
class DupExpr : public RcStmtExpr {
public:
  DupExpr(Symbol Var, const Expr *Rest, SourceLoc Loc)
      : RcStmtExpr(ExprKind::Dup, Var, Rest, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Dup; }
};

/// `drop x; rest` — the generic recursive drop.
class DropExpr : public RcStmtExpr {
public:
  DropExpr(Symbol Var, const Expr *Rest, SourceLoc Loc)
      : RcStmtExpr(ExprKind::Drop, Var, Rest, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Drop; }
};

/// `free x; rest` — releases the cell's memory without touching children.
/// Only valid when the cell is unique and its field ownership has been
/// transferred (drop specialization, Section 2.3).
class FreeExpr : public RcStmtExpr {
public:
  FreeExpr(Symbol Var, const Expr *Rest, SourceLoc Loc)
      : RcStmtExpr(ExprKind::Free, Var, Rest, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Free; }
};

/// `decref x; rest` — decrements without the zero check. Only valid on the
/// shared path of an is-unique test (drop specialization, Section 2.3).
class DecRefExpr : public RcStmtExpr {
public:
  DecRefExpr(Symbol Var, const Expr *Rest, SourceLoc Loc)
      : RcStmtExpr(ExprKind::DecRef, Var, Rest, Loc) {}
  static bool classof(const Expr *E) { return E->kind() == ExprKind::DecRef; }
};

/// `if is-unique(x) then thenE else elseE` — expression-valued so the
/// drop-reuse specialization (Figure 1f) can bind its result.
class IsUniqueExpr : public Expr {
public:
  IsUniqueExpr(Symbol Var, const Expr *Then, const Expr *Else, SourceLoc Loc)
      : Expr(ExprKind::IsUnique, Loc), Var(Var), Then(Then), Else(Else) {}

  Symbol var() const { return Var; }
  const Expr *thenExpr() const { return Then; }
  const Expr *elseExpr() const { return Else; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::IsUnique;
  }

private:
  Symbol Var;
  const Expr *Then;
  const Expr *Else;
};

/// `val token = drop-reuse(x); rest` (Section 2.4). At runtime: if x is
/// unique, drop its children and yield its address as a token; otherwise
/// decrement and yield NULL.
class DropReuseExpr : public Expr {
public:
  DropReuseExpr(Symbol Var, Symbol Token, const Expr *Rest, SourceLoc Loc)
      : Expr(ExprKind::DropReuse, Loc), Var(Var), Token(Token), Rest(Rest) {}

  Symbol var() const { return Var; }
  Symbol token() const { return Token; }
  const Expr *rest() const { return Rest; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::DropReuse;
  }

private:
  Symbol Var;
  Symbol Token;
  const Expr *Rest;
};

/// `&x` — x's cell address as a reuse token. Only valid where x is known
/// unique and logically freed (then-branch of a specialized drop-reuse).
class ReuseAddrExpr : public Expr {
public:
  ReuseAddrExpr(Symbol Var, SourceLoc Loc)
      : Expr(ExprKind::ReuseAddr, Loc), Var(Var) {}

  Symbol var() const { return Var; }

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ReuseAddr;
  }

private:
  Symbol Var;
};

/// The NULL reuse token.
class NullTokenExpr : public Expr {
public:
  explicit NullTokenExpr(SourceLoc Loc) : Expr(ExprKind::NullToken, Loc) {}

  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::NullToken;
  }
};

} // namespace perceus

#endif // PERCEUS_IR_EXPR_H

//===- ir/Printer.cpp - IR pretty printer ----------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "support/Casting.h"

#include <cassert>

using namespace perceus;

const char *perceus::primOpName(PrimOp Op) {
  switch (Op) {
  case PrimOp::Add:
    return "+";
  case PrimOp::Sub:
    return "-";
  case PrimOp::Mul:
    return "*";
  case PrimOp::Div:
    return "/";
  case PrimOp::Mod:
    return "%";
  case PrimOp::Neg:
    return "neg";
  case PrimOp::Lt:
    return "<";
  case PrimOp::Le:
    return "<=";
  case PrimOp::Gt:
    return ">";
  case PrimOp::Ge:
    return ">=";
  case PrimOp::EqInt:
    return "==";
  case PrimOp::NeInt:
    return "!=";
  case PrimOp::Not:
    return "!";
  case PrimOp::PrintLn:
    return "println";
  case PrimOp::MarkShared:
    return "tshare";
  case PrimOp::Abort:
    return "abort";
  case PrimOp::RefNew:
    return "ref";
  case PrimOp::RefGet:
    return "deref";
  case PrimOp::RefSet:
    return "set-ref";
  }
  return "?";
}

namespace {

/// Recursive printing helper. Statement-like forms (let, seq, rc ops)
/// print one step per line; small leaves print inline.
class PrinterImpl {
public:
  PrinterImpl(const Program &P) : P(P) {}

  std::string Out;

  void line(unsigned Indent) {
    Out += '\n';
    Out.append(Indent * 2, ' ');
  }

  std::string name(Symbol S) const { return std::string(P.symbols().name(S)); }

  /// Prints an expression inline (used for atoms and call arguments).
  void inlineExpr(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lit: {
      const LitValue &V = cast<LitExpr>(E)->value();
      switch (V.Kind) {
      case LitKind::Int:
        Out += std::to_string(V.Int);
        return;
      case LitKind::Bool:
        Out += V.Int ? "True" : "False";
        return;
      case LitKind::Unit:
        Out += "()";
        return;
      }
      return;
    }
    case ExprKind::Var:
      Out += name(cast<VarExpr>(E)->name());
      return;
    case ExprKind::Global:
      Out += name(cast<GlobalExpr>(E)->name());
      return;
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      // RC chains parenthesize themselves.
      bool NeedParens = !isa<VarExpr>(A->fn()) && !isa<GlobalExpr>(A->fn()) &&
                        !isa<RcStmtExpr>(A->fn());
      if (NeedParens)
        Out += '(';
      inlineExpr(A->fn());
      if (NeedParens)
        Out += ')';
      Out += '(';
      bool First = true;
      for (const Expr *Arg : A->args()) {
        if (!First)
          Out += ", ";
        First = false;
        inlineExpr(Arg);
      }
      Out += ')';
      return;
    }
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      Out += name(P.ctor(C->ctor()).Name);
      if (C->hasReuseToken()) {
        Out += '@';
        Out += name(C->reuseToken());
      }
      if (!C->args().empty()) {
        Out += '(';
        bool First = true;
        for (const Expr *Arg : C->args()) {
          if (!First)
            Out += ", ";
          First = false;
          inlineExpr(Arg);
        }
        Out += ')';
      }
      return;
    }
    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      auto Args = Pr->args();
      if (Args.size() == 2) {
        Out += '(';
        inlineExpr(Args[0]);
        Out += ' ';
        Out += primOpName(Pr->op());
        Out += ' ';
        inlineExpr(Args[1]);
        Out += ')';
        return;
      }
      Out += primOpName(Pr->op());
      Out += '(';
      bool First = true;
      for (const Expr *Arg : Args) {
        if (!First)
          Out += ", ";
        First = false;
        inlineExpr(Arg);
      }
      Out += ')';
      return;
    }
    case ExprKind::ReuseAddr:
      Out += '&';
      Out += name(cast<ReuseAddrExpr>(E)->var());
      return;
    case ExprKind::NullToken:
      Out += "NULL";
      return;
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef: {
      // RC chains in value position print inline: `(dup f; f)`.
      const auto *R = cast<RcStmtExpr>(E);
      const char *Op = E->kind() == ExprKind::Dup    ? "dup "
                       : E->kind() == ExprKind::Drop ? "drop "
                       : E->kind() == ExprKind::Free ? "free "
                                                     : "decref ";
      Out += '(';
      Out += Op;
      Out += name(R->var());
      Out += "; ";
      inlineExpr(R->rest());
      Out += ')';
      return;
    }
    default:
      // A statement-like form in argument position: parenthesize and
      // print it block-style on one logical line.
      Out += "{ ";
      blockExpr(E, /*Indent=*/0, /*SameLine=*/true);
      Out += " }";
      return;
    }
  }

  /// Prints an expression block-style at \p Indent. If \p SameLine, the
  /// first line continues the current line.
  void blockExpr(const Expr *E, unsigned Indent, bool SameLine = false) {
    switch (E->kind()) {
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      Out += "val " + name(L->name()) + " = ";
      if (isInline(L->bound())) {
        inlineExpr(L->bound());
      } else {
        blockExpr(L->bound(), Indent + 1, /*SameLine=*/true);
      }
      Out += ';';
      line(Indent);
      blockExpr(L->body(), Indent, true);
      return;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      if (isInline(S->first())) {
        inlineExpr(S->first());
      } else {
        blockExpr(S->first(), Indent, true);
      }
      Out += ';';
      line(Indent);
      blockExpr(S->second(), Indent, true);
      return;
    }
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef: {
      const auto *R = cast<RcStmtExpr>(E);
      switch (E->kind()) {
      case ExprKind::Dup:
        Out += "dup ";
        break;
      case ExprKind::Drop:
        Out += "drop ";
        break;
      case ExprKind::Free:
        Out += "free ";
        break;
      default:
        Out += "decref ";
        break;
      }
      Out += name(R->var());
      Out += ';';
      line(Indent);
      blockExpr(R->rest(), Indent, true);
      return;
    }
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      Out += "val " + name(D->token()) + " = drop-reuse(" + name(D->var()) +
             ");";
      line(Indent);
      blockExpr(D->rest(), Indent, true);
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      Out += "if ";
      inlineExpr(I->cond());
      printBranchPair(I->thenExpr(), I->elseExpr(), Indent);
      return;
    }
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(E);
      Out += "if is-unique(" + name(U->var()) + ")";
      printBranchPair(U->thenExpr(), U->elseExpr(), Indent);
      return;
    }
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      Out += "match " + name(M->scrutinee()) + " {";
      for (const MatchArm &Arm : M->arms()) {
        line(Indent + 1);
        switch (Arm.Kind) {
        case ArmKind::Ctor: {
          Out += name(P.ctor(Arm.Ctor).Name);
          if (!Arm.Binders.empty()) {
            Out += '(';
            bool First = true;
            for (Symbol B : Arm.Binders) {
              if (!First)
                Out += ", ";
              First = false;
              Out += name(B);
            }
            Out += ')';
          }
          break;
        }
        case ArmKind::IntLit:
          Out += std::to_string(Arm.Lit.Int);
          break;
        case ArmKind::BoolLit:
          Out += Arm.Lit.Int ? "True" : "False";
          break;
        case ArmKind::Default:
          Out += '_';
          break;
        }
        Out += " -> ";
        if (isInline(Arm.Body)) {
          inlineExpr(Arm.Body);
        } else {
          line(Indent + 2);
          blockExpr(Arm.Body, Indent + 2, true);
        }
      }
      line(Indent);
      Out += '}';
      return;
    }
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      Out += "fn[";
      bool First = true;
      for (Symbol C : L->captures()) {
        if (!First)
          Out += ", ";
        First = false;
        Out += name(C);
      }
      Out += "](";
      First = true;
      for (Symbol Pm : L->params()) {
        if (!First)
          Out += ", ";
        First = false;
        Out += name(Pm);
      }
      Out += ") {";
      line(Indent + 1);
      blockExpr(L->body(), Indent + 1, true);
      line(Indent);
      Out += '}';
      return;
    }
    default:
      inlineExpr(E);
      return;
    }
  }

  void printBranchPair(const Expr *Then, const Expr *Else, unsigned Indent) {
    Out += " then {";
    line(Indent + 1);
    blockExpr(Then, Indent + 1, true);
    line(Indent);
    Out += "} else {";
    line(Indent + 1);
    blockExpr(Else, Indent + 1, true);
    line(Indent);
    Out += '}';
  }

  /// True when \p E renders naturally on a single line.
  static bool isInline(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lit:
    case ExprKind::Var:
    case ExprKind::Global:
    case ExprKind::App:
    case ExprKind::Con:
    case ExprKind::Prim:
    case ExprKind::ReuseAddr:
    case ExprKind::NullToken:
      return true;
    default:
      return false;
    }
  }

private:
  const Program &P;
};

} // namespace

std::string perceus::printExpr(const Program &P, const Expr *E,
                               unsigned Indent) {
  PrinterImpl Impl(P);
  Impl.Out.append(Indent * 2, ' ');
  Impl.blockExpr(E, Indent, true);
  return std::move(Impl.Out);
}

std::string perceus::printFunction(const Program &P, FuncId F) {
  const FunctionDecl &Fn = P.function(F);
  PrinterImpl Impl(P);
  Impl.Out += "fun " + Impl.name(Fn.Name) + "(";
  bool First = true;
  for (Symbol Pm : Fn.Params) {
    if (!First)
      Impl.Out += ", ";
    First = false;
    Impl.Out += Impl.name(Pm);
  }
  Impl.Out += ") {";
  Impl.line(1);
  Impl.blockExpr(Fn.Body, 1, true);
  Impl.line(0);
  Impl.Out += "}\n";
  return std::move(Impl.Out);
}

std::string perceus::printProgram(const Program &P) {
  std::string Out;
  for (uint32_t D = 0; D != P.numDatas(); ++D) {
    const DataDecl &Data = P.data(D);
    Out += "type " + std::string(P.symbols().name(Data.Name)) + " { ";
    bool First = true;
    for (CtorId C : Data.Ctors) {
      if (!First)
        Out += "; ";
      First = false;
      const CtorDecl &Ctor = P.ctor(C);
      Out += std::string(P.symbols().name(Ctor.Name));
      if (Ctor.Arity != 0) {
        Out += '/';
        Out += std::to_string(Ctor.Arity);
      }
    }
    Out += " }\n";
  }
  for (uint32_t F = 0; F != P.numFunctions(); ++F) {
    Out += printFunction(P, F);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Structural equality
//===----------------------------------------------------------------------===//

bool perceus::exprEquals(const Expr *A, const Expr *B) {
  if (A == B)
    return true;
  if (!A || !B || A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case ExprKind::Lit:
    return cast<LitExpr>(A)->value() == cast<LitExpr>(B)->value();
  case ExprKind::Var:
    return cast<VarExpr>(A)->name() == cast<VarExpr>(B)->name();
  case ExprKind::Global:
    return cast<GlobalExpr>(A)->func() == cast<GlobalExpr>(B)->func();
  case ExprKind::Lam: {
    const auto *LA = cast<LamExpr>(A);
    const auto *LB = cast<LamExpr>(B);
    if (LA->params().size() != LB->params().size() ||
        LA->captures().size() != LB->captures().size())
      return false;
    for (size_t I = 0; I != LA->params().size(); ++I)
      if (LA->params()[I] != LB->params()[I])
        return false;
    for (size_t I = 0; I != LA->captures().size(); ++I)
      if (LA->captures()[I] != LB->captures()[I])
        return false;
    return exprEquals(LA->body(), LB->body());
  }
  case ExprKind::App: {
    const auto *AA = cast<AppExpr>(A);
    const auto *AB = cast<AppExpr>(B);
    if (AA->args().size() != AB->args().size() ||
        !exprEquals(AA->fn(), AB->fn()))
      return false;
    for (size_t I = 0; I != AA->args().size(); ++I)
      if (!exprEquals(AA->args()[I], AB->args()[I]))
        return false;
    return true;
  }
  case ExprKind::Let: {
    const auto *LA = cast<LetExpr>(A);
    const auto *LB = cast<LetExpr>(B);
    return LA->name() == LB->name() &&
           exprEquals(LA->bound(), LB->bound()) &&
           exprEquals(LA->body(), LB->body());
  }
  case ExprKind::Seq: {
    const auto *SA = cast<SeqExpr>(A);
    const auto *SB = cast<SeqExpr>(B);
    return exprEquals(SA->first(), SB->first()) &&
           exprEquals(SA->second(), SB->second());
  }
  case ExprKind::If: {
    const auto *IA = cast<IfExpr>(A);
    const auto *IB = cast<IfExpr>(B);
    return exprEquals(IA->cond(), IB->cond()) &&
           exprEquals(IA->thenExpr(), IB->thenExpr()) &&
           exprEquals(IA->elseExpr(), IB->elseExpr());
  }
  case ExprKind::Match: {
    const auto *MA = cast<MatchExpr>(A);
    const auto *MB = cast<MatchExpr>(B);
    if (MA->scrutinee() != MB->scrutinee() ||
        MA->arms().size() != MB->arms().size())
      return false;
    for (size_t I = 0; I != MA->arms().size(); ++I) {
      const MatchArm &X = MA->arms()[I];
      const MatchArm &Y = MB->arms()[I];
      if (X.Kind != Y.Kind || X.Ctor != Y.Ctor || !(X.Lit == Y.Lit) ||
          X.Binders.size() != Y.Binders.size())
        return false;
      for (size_t J = 0; J != X.Binders.size(); ++J)
        if (X.Binders[J] != Y.Binders[J])
          return false;
      if (!exprEquals(X.Body, Y.Body))
        return false;
    }
    return true;
  }
  case ExprKind::Con: {
    const auto *CA = cast<ConExpr>(A);
    const auto *CB = cast<ConExpr>(B);
    if (CA->ctor() != CB->ctor() || CA->reuseToken() != CB->reuseToken() ||
        CA->args().size() != CB->args().size())
      return false;
    for (size_t I = 0; I != CA->args().size(); ++I)
      if (!exprEquals(CA->args()[I], CB->args()[I]))
        return false;
    return true;
  }
  case ExprKind::Prim: {
    const auto *PA = cast<PrimExpr>(A);
    const auto *PB = cast<PrimExpr>(B);
    if (PA->op() != PB->op() || PA->args().size() != PB->args().size())
      return false;
    for (size_t I = 0; I != PA->args().size(); ++I)
      if (!exprEquals(PA->args()[I], PB->args()[I]))
        return false;
    return true;
  }
  case ExprKind::Dup:
  case ExprKind::Drop:
  case ExprKind::Free:
  case ExprKind::DecRef: {
    const auto *RA = cast<RcStmtExpr>(A);
    const auto *RB = cast<RcStmtExpr>(B);
    return RA->var() == RB->var() && exprEquals(RA->rest(), RB->rest());
  }
  case ExprKind::IsUnique: {
    const auto *UA = cast<IsUniqueExpr>(A);
    const auto *UB = cast<IsUniqueExpr>(B);
    return UA->var() == UB->var() &&
           exprEquals(UA->thenExpr(), UB->thenExpr()) &&
           exprEquals(UA->elseExpr(), UB->elseExpr());
  }
  case ExprKind::DropReuse: {
    const auto *DA = cast<DropReuseExpr>(A);
    const auto *DB = cast<DropReuseExpr>(B);
    return DA->var() == DB->var() && DA->token() == DB->token() &&
           exprEquals(DA->rest(), DB->rest());
  }
  case ExprKind::ReuseAddr:
    return cast<ReuseAddrExpr>(A)->var() == cast<ReuseAddrExpr>(B)->var();
  case ExprKind::NullToken:
    return true;
  }
  return false;
}

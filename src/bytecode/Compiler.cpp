//===- bytecode/Compiler.cpp - IR-to-bytecode compiler ------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Compiler.h"

#include "support/Casting.h"

#include <cassert>
#include <unordered_map>

using namespace perceus;

namespace {

/// The widths of the 16-bit register and FuncId fields (Bytecode.h).
constexpr uint32_t MaxFrameRegs = 0xffff;
constexpr size_t MaxFunctions = 0x10000;

class Compiler {
public:
  Compiler(const Program &P, const ProgramLayout &L) : P(P), L(L) {}

  CompiledProgram run() {
    CP.Prog = &P;
    if (P.numFunctions() > MaxFunctions) {
      CP.Error = "program has " + std::to_string(P.numFunctions()) +
                 " functions; at most " + std::to_string(MaxFunctions) +
                 " are supported";
      return std::move(CP);
    }
    CP.Funcs.resize(P.numFunctions());
    CP.Lams.resize(P.numLamIds());
    for (FuncId F = 0; F != P.numFunctions(); ++F) {
      const FunctionDecl &Fn = P.function(F);
      Chunk &C = CP.Funcs[F];
      C.Fn = &Fn;
      C.NumParams = static_cast<uint32_t>(Fn.Params.size());
      CurFn = &Fn;
      compileChunk(C, Fn.Body, L.FuncFrameSize[F]);
    }
    return std::move(CP);
  }

private:
  //===--- Emission helpers -----------------------------------------------===//

  /// Register fields are truncated to 16 bits; a frame wider than that
  /// is reported by compileChunk, and its code is never run.
  uint32_t emit(Op O, uint8_t A, uint32_t B, uint32_t C, uint32_t D,
                uint32_t E, const Expr *Site = nullptr) {
    Instr I;
    I.O = O;
    I.A = A;
    I.B = static_cast<uint16_t>(B);
    I.C = static_cast<uint16_t>(C);
    I.D = static_cast<uint16_t>(D);
    I.E = E;
    Ch->Code.push_back(I);
    Ch->Sites.push_back(Site);
    return static_cast<uint32_t>(Ch->Code.size() - 1);
  }

  uint32_t here() const { return static_cast<uint32_t>(Ch->Code.size()); }

  void patch(uint32_t Pc, uint32_t Target) { Ch->Code[Pc].E = Target; }

  uint32_t allocTemps(uint32_t N) {
    uint32_t R = TempTop;
    TempTop += N;
    if (TempTop > Ch->NumRegs)
      Ch->NumRegs = TempTop;
    return R;
  }

  /// Reserves an operand list of \p N registers in the pool. Its entries
  /// are filled in as the operands are compiled; nested lists land after
  /// it, so no list is built anywhere else first.
  uint32_t reserveList(uint32_t N) {
    uint32_t Base = static_cast<uint32_t>(CP.RegLists.size());
    CP.RegLists.resize(Base + N);
    return Base;
  }

  uint32_t constIdx(Value V) {
    uint64_t Key = (uint64_t(V.Kind) << 56) ^ V.Bits;
    auto It = ConstMap.find(Key);
    if (It != ConstMap.end())
      return It->second;
    uint32_t Idx = static_cast<uint32_t>(CP.Consts.size());
    CP.Consts.push_back(V);
    ConstMap.emplace(Key, Idx);
    return Idx;
  }

  uint32_t messageIdx(std::string Msg) {
    CP.Messages.push_back(std::move(Msg));
    return static_cast<uint32_t>(CP.Messages.size() - 1);
  }

  //===--- Chunk compilation ----------------------------------------------===//

  void compileChunk(Chunk &C, const Expr *Body, uint32_t NamedSlots) {
    Chunk *SavedCh = Ch;
    uint32_t SavedTop = TempTop;
    Ch = &C;
    TempTop = NamedSlots;
    C.NumRegs = NamedSlots;
    C.FirstTemp = NamedSlots;
    compileTail(Body);
    if (C.NumRegs > MaxFrameRegs && CP.Error.empty())
      CP.Error = std::string(C.Lam ? "a lambda in function '" : "function '") +
                 std::string(P.symbols().name(CurFn->Name)) + "' has " +
                 std::to_string(C.NumRegs) + " registers; at most " +
                 std::to_string(MaxFrameRegs) + " are supported";
    Ch = SavedCh;
    TempTop = SavedTop;
  }

  /// Compiles the lambda's chunk once (a LamExpr occurs at one syntactic
  /// site, but be tolerant of shared subtrees after rewrites).
  void ensureLamCompiled(const LamExpr *Lm) {
    Chunk &C = CP.Lams[Lm->lamId()];
    if (C.Lam)
      return;
    C.Lam = Lm;
    C.NumParams = static_cast<uint32_t>(Lm->params().size());
    const std::vector<uint32_t> &List = L.SlotLists[Lm->layoutA()];
    size_t NCaps = Lm->captures().size();
    for (size_t I = 0; I != NCaps; ++I)
      C.CaptureSrc.push_back(static_cast<uint16_t>(List[I]));
    for (size_t I = 0; I != NCaps; ++I)
      C.CaptureDst.push_back(static_cast<uint16_t>(List[NCaps + I]));
    compileChunk(C, Lm->body(), Lm->layoutB());
  }

  //===--- Expression compilation -----------------------------------------===//

  /// Compiles \p E in tail position: every path ends in Ret, a tail
  /// call, or a trap. Tail calls are found syntactically; the entry
  /// frame is handled uniformly by replacing it.
  void compileTail(const Expr *E) {
    switch (E->kind()) {
    case ExprKind::App:
      compileCall(cast<AppExpr>(E), 0, /*Tail=*/true);
      return;
    case ExprKind::Let: {
      const auto *Lt = cast<LetExpr>(E);
      compileVal(Lt->bound(), Lt->layoutA());
      compileTail(Lt->body());
      return;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      uint32_t Save = TempTop;
      compileVal(S->first(), allocTemps(1));
      TempTop = Save;
      compileTail(S->second());
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      uint32_t Save = TempTop;
      uint32_t T = operand(I->cond());
      TempTop = Save;
      uint32_t Jf = emit(Op::JumpIfFalse, 0, T, 0, 0, 0);
      compileTail(I->thenExpr());
      patch(Jf, here());
      compileTail(I->elseExpr());
      return;
    }
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(E);
      uint32_t Br = emit(Op::IsUniqueBr, 0, 0, E->layoutA(), 0, 0, E);
      compileTail(U->thenExpr());
      patch(Br, here());
      compileTail(U->elseExpr());
      return;
    }
    case ExprKind::IsNullToken: {
      const auto *N = cast<IsNullTokenExpr>(E);
      uint32_t Br = emit(Op::IsNullTokenBr, 0, 0, E->layoutA(), 0, 0, E);
      compileTail(N->thenExpr());
      patch(Br, here());
      compileTail(N->elseExpr());
      return;
    }
    case ExprKind::Match:
      compileMatch(cast<MatchExpr>(E), 0, /*Tail=*/true);
      return;
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef:
      emitRcStmt(E);
      compileTail(cast<RcStmtExpr>(E)->rest());
      return;
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      emit(Op::DropReuse, 0, 0, E->layoutA(), E->layoutB(), 0, E);
      compileTail(D->rest());
      return;
    }
    case ExprKind::SetField: {
      const auto *S = cast<SetFieldExpr>(E);
      emitSetField(S);
      compileTail(S->rest());
      return;
    }
    default: {
      uint32_t Save = TempTop;
      emit(Op::Ret, 0, operand(E), 0, 0, 0);
      TempTop = Save;
      return;
    }
    }
  }

  /// Compiles \p E so its value lands in register \p Dst. Dst is either
  /// a named slot (layout slots are never reused, so mid-evaluation
  /// writes cannot clobber anything live) or a temporary below every
  /// window this compilation opens.
  void compileVal(const Expr *E, uint32_t Dst) {
    switch (E->kind()) {
    case ExprKind::Lit: {
      const LitValue &V = cast<LitExpr>(E)->value();
      Value C;
      switch (V.Kind) {
      case LitKind::Int:
        C = Value::makeInt(V.Int);
        break;
      case LitKind::Bool:
        C = Value::makeBool(V.Int != 0);
        break;
      case LitKind::Unit:
        C = Value::unit();
        break;
      }
      emit(Op::LoadConst, 0, Dst, 0, 0, constIdx(C));
      return;
    }
    case ExprKind::Var: {
      uint32_t Slot = E->layoutA();
      if (Slot != Dst)
        emit(Op::Move, 0, Dst, Slot, 0, 0);
      return;
    }
    case ExprKind::Global:
      emit(Op::LoadConst, 0, Dst, 0, 0,
           constIdx(Value::makeFnRef(cast<GlobalExpr>(E)->func())));
      return;
    case ExprKind::NullToken:
      emit(Op::LoadConst, 0, Dst, 0, 0, constIdx(Value::makeToken(nullptr)));
      return;
    case ExprKind::Lam: {
      const auto *Lm = cast<LamExpr>(E);
      ensureLamCompiled(Lm);
      emit(Op::MakeClosure, 0, Dst, 0, 0, Lm->lamId(), E);
      return;
    }
    case ExprKind::App:
      compileCall(cast<AppExpr>(E), Dst, /*Tail=*/false);
      return;
    case ExprKind::Let: {
      const auto *Lt = cast<LetExpr>(E);
      compileVal(Lt->bound(), Lt->layoutA());
      compileVal(Lt->body(), Dst);
      return;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      uint32_t Save = TempTop;
      compileVal(S->first(), allocTemps(1));
      TempTop = Save;
      compileVal(S->second(), Dst);
      return;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      uint32_t Save = TempTop;
      uint32_t T = operand(I->cond());
      TempTop = Save;
      uint32_t Jf = emit(Op::JumpIfFalse, 0, T, 0, 0, 0);
      compileVal(I->thenExpr(), Dst);
      uint32_t Je = emit(Op::Jump, 0, 0, 0, 0, 0);
      patch(Jf, here());
      compileVal(I->elseExpr(), Dst);
      patch(Je, here());
      return;
    }
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(E);
      uint32_t Br = emit(Op::IsUniqueBr, 0, 0, E->layoutA(), 0, 0, E);
      compileVal(U->thenExpr(), Dst);
      uint32_t Je = emit(Op::Jump, 0, 0, 0, 0, 0);
      patch(Br, here());
      compileVal(U->elseExpr(), Dst);
      patch(Je, here());
      return;
    }
    case ExprKind::IsNullToken: {
      const auto *N = cast<IsNullTokenExpr>(E);
      uint32_t Br = emit(Op::IsNullTokenBr, 0, 0, E->layoutA(), 0, 0, E);
      compileVal(N->thenExpr(), Dst);
      uint32_t Je = emit(Op::Jump, 0, 0, 0, 0, 0);
      patch(Br, here());
      compileVal(N->elseExpr(), Dst);
      patch(Je, here());
      return;
    }
    case ExprKind::Match:
      compileMatch(cast<MatchExpr>(E), Dst, /*Tail=*/false);
      return;
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      const CtorDecl &D = P.ctor(C->ctor());
      if (D.Arity == 0) {
        emit(Op::LoadConst, 0, Dst, 0, 0,
             constIdx(Value::makeEnum(D.DataId, D.Tag)));
        return;
      }
      assert(C->args().size() == D.Arity && "constructor arity mismatch");
      uint32_t Save = TempTop;
      uint32_t List = reserveList(D.Arity);
      for (uint32_t I = 0; I != D.Arity; ++I)
        CP.RegLists[List + I] = static_cast<uint16_t>(operand(C->args()[I]));
      emit(C->hasReuseToken() ? Op::ConReuse : Op::Con,
           static_cast<uint8_t>(D.Arity), Dst,
           C->hasReuseToken() ? E->layoutA() : 0, D.Tag, List, E);
      TempTop = Save;
      return;
    }
    case ExprKind::Prim:
      compilePrim(cast<PrimExpr>(E), Dst);
      return;
    case ExprKind::Dup:
    case ExprKind::Drop:
    case ExprKind::Free:
    case ExprKind::DecRef:
      emitRcStmt(E);
      compileVal(cast<RcStmtExpr>(E)->rest(), Dst);
      return;
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      emit(Op::DropReuse, 0, 0, E->layoutA(), E->layoutB(), 0, E);
      compileVal(D->rest(), Dst);
      return;
    }
    case ExprKind::ReuseAddr:
      emit(Op::ReuseAddr, 0, Dst, E->layoutA(), 0, 0);
      return;
    case ExprKind::SetField: {
      const auto *S = cast<SetFieldExpr>(E);
      emitSetField(S);
      compileVal(S->rest(), Dst);
      return;
    }
    case ExprKind::TokenValue: {
      const auto *T = cast<TokenValueExpr>(E);
      emit(Op::TokenValue, 0, Dst, E->layoutA(), P.ctor(T->ctor()).Tag, 0, E);
      return;
    }
    }
    assert(false && "unhandled expression kind");
  }

  void emitRcStmt(const Expr *E) {
    Op O;
    switch (E->kind()) {
    case ExprKind::Dup:
      O = Op::Dup;
      break;
    case ExprKind::Drop:
      O = Op::Drop;
      break;
    case ExprKind::Free:
      O = Op::FreeOp;
      break;
    default:
      O = Op::DecRef;
      break;
    }
    emit(O, 0, 0, E->layoutA(), 0, 0, E);
  }

  /// Compiles operand \p E of an instruction and returns the register
  /// the instruction reads it from. Leading dup/drop/decref/free
  /// statements are emitted in order; a variable that remains is read in
  /// its own slot. Anything else is evaluated into \p Home, or into a
  /// fresh temporary (live until the caller resets TempTop) when \p Home
  /// is NoHome.
  static constexpr uint32_t NoHome = ~0u;
  uint32_t operand(const Expr *E, uint32_t Home = NoHome) {
    for (; isa<RcStmtExpr>(E); E = cast<RcStmtExpr>(E)->rest())
      emitRcStmt(E);
    if (E->kind() == ExprKind::Var)
      return E->layoutA();
    if (Home == NoHome)
      Home = allocTemps(1);
    compileVal(E, Home);
    return Home;
  }

  void emitSetField(const SetFieldExpr *S) {
    uint32_t Save = TempTop;
    uint32_t V = operand(S->value());
    emit(Op::SetField, static_cast<uint8_t>(S->index()), 0, S->layoutA(), V,
         0);
    TempTop = Save;
  }

  /// The callee is evaluated before the arguments. The window above every
  /// live register becomes the callee's parameter region: the call copies
  /// its operand list into it, and a computed argument is evaluated
  /// straight into its window slot.
  void compileCall(const AppExpr *A, uint32_t Dst, bool Tail) {
    uint32_t N = static_cast<uint32_t>(A->args().size());
    const auto *G = dyn_cast<GlobalExpr>(A->fn());
    bool Static = G && P.function(G->func()).Params.size() == N;
    uint32_t Save = TempTop;
    uint32_t Callee = Static ? G->func() : operand(A->fn());
    uint32_t W = allocTemps(N);
    uint32_t List = reserveList(N);
    for (uint32_t I = 0; I != N; ++I)
      CP.RegLists[List + I] =
          static_cast<uint16_t>(operand(A->args()[I], W + I));
    Op O = Static ? (Tail ? Op::TailCallStatic : Op::CallStatic)
                  : (Tail ? Op::TailCall : Op::Call);
    emit(O, static_cast<uint8_t>(N), Dst, W, Callee, List, A);
    TempTop = Save;
  }

  void compileMatch(const MatchExpr *M, uint32_t Dst, bool Tail) {
    uint32_t TableIdx = static_cast<uint32_t>(CP.Matches.size());
    CP.Matches.emplace_back();
    emit(Op::MatchOp, 0, M->layoutA(), 0, 0, TableIdx);

    // Build the arm table in source order; the VM scans it in order.
    const std::vector<uint32_t> &Binders = L.SlotLists[M->layoutB()];
    size_t Offset = 0;
    {
      MatchTable &T = CP.Matches[TableIdx];
      for (const MatchArm &Arm : M->arms()) {
        MatchArmCode AC;
        AC.Kind = Arm.Kind;
        if (Arm.Kind == ArmKind::Ctor) {
          AC.DataId = P.ctor(Arm.Ctor).DataId;
          AC.Tag = P.ctor(Arm.Ctor).Tag;
        }
        AC.Lit = Arm.Lit.Int;
        AC.BinderBase = static_cast<uint32_t>(CP.RegLists.size());
        AC.NumBinders = static_cast<uint32_t>(Arm.Binders.size());
        for (size_t I = 0; I != Arm.Binders.size(); ++I)
          CP.RegLists.push_back(
              static_cast<uint16_t>(Binders[Offset + I]));
        Offset += Arm.Binders.size();
        T.Arms.push_back(AC);
      }
    }

    std::vector<uint32_t> JoinJumps;
    for (size_t I = 0; I != M->arms().size(); ++I) {
      CP.Matches[TableIdx].Arms[I].Target = here();
      if (Tail) {
        compileTail(M->arms()[I].Body);
      } else {
        compileVal(M->arms()[I].Body, Dst);
        JoinJumps.push_back(emit(Op::Jump, 0, 0, 0, 0, 0));
      }
    }
    for (uint32_t J : JoinJumps)
      patch(J, here());
  }

  void compilePrim(const PrimExpr *Pr, uint32_t Dst) {
    uint32_t N = static_cast<uint32_t>(Pr->args().size());
    uint32_t Save = TempTop;
    // Every argument is evaluated, in order, even past the two operand
    // registers an ill-formed arity would need (it then traps).
    uint32_t X = 0, Y = 0;
    for (uint32_t I = 0; I != N; ++I) {
      uint32_t R = operand(Pr->args()[I]);
      if (I == 0)
        X = R;
      else if (I == 1)
        Y = R;
    }

    switch (Pr->op()) {
    case PrimOp::Add:
    case PrimOp::Sub:
    case PrimOp::Mul:
    case PrimOp::Div:
    case PrimOp::Mod: {
      if (N != 2) {
        emit(Op::TrapOp, 0, 0, 0, 0,
             messageIdx("arithmetic primitive arity"));
        break;
      }
      Op O = Pr->op() == PrimOp::Add   ? Op::Add
             : Pr->op() == PrimOp::Sub ? Op::Sub
             : Pr->op() == PrimOp::Mul ? Op::Mul
             : Pr->op() == PrimOp::Div ? Op::Div
                                       : Op::Mod;
      emit(O, 0, Dst, X, Y, 0);
      break;
    }
    case PrimOp::Neg:
      emit(Op::Neg, 0, Dst, X, 0, 0);
      break;
    case PrimOp::Lt:
    case PrimOp::Le:
    case PrimOp::Gt:
    case PrimOp::Ge:
    case PrimOp::EqInt:
    case PrimOp::NeInt: {
      CmpKind K = Pr->op() == PrimOp::Lt   ? CmpKind::Lt
                  : Pr->op() == PrimOp::Le ? CmpKind::Le
                  : Pr->op() == PrimOp::Gt ? CmpKind::Gt
                  : Pr->op() == PrimOp::Ge ? CmpKind::Ge
                  : Pr->op() == PrimOp::EqInt ? CmpKind::Eq
                                              : CmpKind::Ne;
      emit(Op::Cmp, static_cast<uint8_t>(K), Dst, X, Y, 0);
      break;
    }
    case PrimOp::Not:
      emit(Op::Not, 0, Dst, X, 0, 0);
      break;
    case PrimOp::PrintLn:
      emit(Op::PrintLn, 0, Dst, X, 0, 0);
      break;
    case PrimOp::MarkShared:
      emit(Op::MarkSharedOp, 0, Dst, X, 0, 0, Pr);
      break;
    case PrimOp::Abort:
      emit(Op::AbortOp, 0, 0, 0, 0, 0);
      break;
    case PrimOp::RefNew:
      emit(Op::RefNew, 0, Dst, X, 0, 0, Pr);
      break;
    case PrimOp::RefGet:
      emit(Op::RefGet, 0, Dst, X, 0, 0, Pr);
      break;
    case PrimOp::RefSet:
      emit(Op::RefSet, 0, Dst, X, Y, 0, Pr);
      break;
    }
    TempTop = Save;
  }

  const Program &P;
  const ProgramLayout &L;
  CompiledProgram CP;
  Chunk *Ch = nullptr;
  const FunctionDecl *CurFn = nullptr; ///< names a frame past the limit
  uint32_t TempTop = 0;
  std::unordered_map<uint64_t, uint32_t> ConstMap;
};

} // namespace

CompiledProgram perceus::compileProgram(const Program &P,
                                        const ProgramLayout &Layout) {
  return Compiler(P, Layout).run();
}

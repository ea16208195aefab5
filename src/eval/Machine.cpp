//===- eval/Machine.cpp - The abstract machine --------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Machine.h"

#include "support/Casting.h"
#include "support/Telemetry.h"

using namespace perceus;

Machine::Machine(const Program &P, const ProgramLayout &Layout, Heap &H)
    : P(P), Layout(Layout), H(H) {}

const char *perceus::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::Ok:
    return "ok";
  case TrapKind::OutOfMemory:
    return "out-of-memory";
  case TrapKind::OutOfFuel:
    return "out-of-fuel";
  case TrapKind::StackOverflow:
    return "stack-overflow";
  case TrapKind::RuntimeError:
    return "runtime-error";
  case TrapKind::Deadline:
    return "deadline";
  }
  return "unknown";
}

void Machine::trap(std::string Msg, TrapKind Kind) {
  Trapped = true;
  Run->Ok = false;
  Run->Trap = Kind;
  Run->Error = std::move(Msg);
}

/// The clean-unwind path: a trap abandons the run, so every value still
/// held by a live frame, the operand stack, or the result register is
/// garbage. Reclaim all of it so the garbage-free guarantee holds on the
/// error path too (the fault sweep asserts Heap::empty() after every
/// injected failure). Slots may be stale — ownership already moved, or
/// the cell already freed — which Heap::reclaim tolerates by design.
void Machine::unwind() {
  size_t Freed;
  if (H.mode() == HeapMode::Gc) {
    // Tracing mode: no roots survive the trap, everything is garbage.
    Freed = H.reclaimAll();
  } else {
    std::vector<Value> Roots;
    Roots.reserve(Locals.size() + Operands.size() + 1);
    Roots.insert(Roots.end(), Locals.begin(), Locals.end());
    Roots.insert(Roots.end(), Operands.begin(), Operands.end());
    Roots.push_back(Result);
    Freed = H.reclaim(Roots);
  }
  Locals.clear();
  Operands.clear();
  Konts.clear();
  CurBase = 0;
  Code = nullptr;
  Result = Value::unit();
  Run->UnwoundCells = Freed;
}

RunResult Machine::run(FuncId F, std::vector<Value> Args) {
  RunResult R;
  Run = &R;
  Sink = H.statsSink();
  Trapped = false;
  CallDepth = 0;
  if (DeadlineMs)
    DeadlineAt = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(DeadlineMs);
  SafepointArmed = DeadlineMs != 0 || H.sharedCoalescingEnabled();
  if (SafepointArmed)
    SafepointCountdown = DeadlineCheckInterval;
  Locals.clear();
  Operands.clear();
  Konts.clear();
  Result = Value::unit();

  const FunctionDecl &Fn = P.function(F);
  if (Args.size() != Fn.Params.size()) {
    trap("entry function arity mismatch");
    // Ownership of the arguments transferred to us; unwind them.
    for (Value V : Args)
      Operands.push_back(V);
    unwind();
    Run = nullptr;
    return R;
  }
  CurBase = 0;
  Locals.resize(Layout.FuncFrameSize[F]);
  for (size_t I = 0; I != Args.size(); ++I)
    Locals[I] = Args[I];
  Code = Fn.Body;

  while (!Trapped) {
    if (!step())
      break;
  }

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
  } else {
    unwind();
  }
  Run = nullptr;
  return R;
}

/// One machine transition. Returns false when the run completed.
bool Machine::step() {
  if (Code) {
    ++Run->Steps;
    if (StepLimit && Run->Steps > StepLimit) {
      trap("step limit exceeded (out of fuel)", TrapKind::OutOfFuel);
      return false;
    }
    if (SafepointArmed && --SafepointCountdown == 0) {
      SafepointCountdown = DeadlineCheckInterval;
      // Safepoint: every SharedFlushSafepointStride-th one publishes the
      // buffered shared-count deltas (bounded staleness for other
      // workers; see Engine.h for why not every safepoint), then the
      // deadline clock read.
      if (++SafepointsSeen % SharedFlushSafepointStride == 0)
        H.flushSharedDeltas();
      if (DeadlineMs && std::chrono::steady_clock::now() >= DeadlineAt) {
        trap("wall-clock deadline exceeded", TrapKind::Deadline);
        return false;
      }
    }
    if (Locals.size() > Run->MaxLocalsSlots)
      Run->MaxLocalsSlots = Locals.size();
    const Expr *E = Code;
    switch (E->kind()) {
    case ExprKind::Lit: {
      const LitValue &V = cast<LitExpr>(E)->value();
      switch (V.Kind) {
      case LitKind::Int:
        Result = Value::makeInt(V.Int);
        break;
      case LitKind::Bool:
        Result = Value::makeBool(V.Int != 0);
        break;
      case LitKind::Unit:
        Result = Value::unit();
        break;
      }
      Code = nullptr;
      return true;
    }
    case ExprKind::Var:
      Result = local(E->layoutA());
      Code = nullptr;
      return true;
    case ExprKind::Global:
      Result = Value::makeFnRef(cast<GlobalExpr>(E)->func());
      Code = nullptr;
      return true;
    case ExprKind::Lam: {
      const auto *L = cast<LamExpr>(E);
      size_t NCaps = L->captures().size();
      const std::vector<uint32_t> &List = Layout.SlotLists[E->layoutA()];
      if (Sink)
        Sink->setSite(E, "lambda", E->loc());
      Cell *C = H.alloc(static_cast<uint32_t>(NCaps + 1), 0,
                        CellKind::Closure);
      if (!C) {
        trap("out of memory allocating a closure", TrapKind::OutOfMemory);
        return false;
      }
      C->setField(0, Value::makeRaw(L));
      for (size_t I = 0; I != NCaps; ++I) // ownership moves into the closure
        C->setField(1 + I, local(List[I]));
      Result = Value::makeRef(C);
      Code = nullptr;
      return true;
    }
    case ExprKind::App: {
      const auto *A = cast<AppExpr>(E);
      Kont K;
      K.Kind = Kont::K::Args;
      K.Node = E;
      K.Next = 1; // component 0 (the callee) is evaluated first
      K.Base = Operands.size();
      Konts.push_back(K);
      Code = A->fn();
      return true;
    }
    case ExprKind::Let: {
      const auto *L = cast<LetExpr>(E);
      // Superinstruction: the drop-reuse specialized form
      //   val ru = if is-unique(x) then {rc ops; &v} else {rc ops; NULL}
      // executes in one dispatch.
      if (const auto *U = dyn_cast<IsUniqueExpr>(L->bound())) {
        if (Sink)
          Sink->setSite(U, "is-unique", U->loc());
        ++Run->Rc.IsUniques;
        const Expr *Branch = H.isUnique(local(U->layoutA()))
                                 ? U->thenExpr()
                                 : U->elseExpr();
        Value Tok;
        if (tryRunRcChainToToken(Branch, Tok)) {
          local(L->layoutA()) = Tok;
          Code = L->body();
          return true;
        }
      }
      Kont K;
      K.Kind = Kont::K::Let;
      K.Node = E;
      Konts.push_back(K);
      Code = L->bound();
      return true;
    }
    case ExprKind::Seq: {
      const auto *S = cast<SeqExpr>(E);
      // Superinstruction: a drop-specialized statement
      //   if is-unique(x) then {rc ops; ()} else {rc ops; ()}; rest
      // executes in one dispatch, like the straight-line code a compiler
      // would emit for it.
      if (const auto *U = dyn_cast<IsUniqueExpr>(S->first())) {
        if (Sink)
          Sink->setSite(U, "is-unique", U->loc());
        ++Run->Rc.IsUniques;
        const Expr *Branch = H.isUnique(local(U->layoutA()))
                                 ? U->thenExpr()
                                 : U->elseExpr();
        if (const Expr *Rest = tryRunRcChainToUnit(Branch)) {
          (void)Rest;
          Code = S->second();
          return true;
        }
        // Unusual branch shape: evaluate generically.
      }
      Kont K;
      K.Kind = Kont::K::Seq;
      K.Node = S->second();
      Konts.push_back(K);
      Code = S->first();
      return true;
    }
    case ExprKind::If: {
      const auto *I = cast<IfExpr>(E);
      Kont K;
      K.Kind = Kont::K::If;
      K.Node = E;
      Konts.push_back(K);
      Code = I->cond();
      return true;
    }
    case ExprKind::Match: {
      const auto *M = cast<MatchExpr>(E);
      Value V = local(E->layoutA());
      const std::vector<uint32_t> &Binders = Layout.SlotLists[E->layoutB()];
      size_t Offset = 0;
      const MatchArm *Default = nullptr;
      size_t DefaultOffset = 0;
      for (const MatchArm &Arm : M->arms()) {
        bool Matches = false;
        switch (Arm.Kind) {
        case ArmKind::Ctor: {
          const CtorDecl &C = P.ctor(Arm.Ctor);
          if (V.Kind == ValueKind::Enum)
            Matches = V.enumTag() == C.Tag;
          else if (V.Kind == ValueKind::HeapRef &&
                   V.Ref->H.Kind == CellKind::Ctor)
            Matches = V.Ref->H.Tag == C.Tag;
          else if (V.Kind != ValueKind::Enum &&
                   V.Kind != ValueKind::HeapRef) {
            trap("match on a non-constructor value");
            return false;
          }
          break;
        }
        case ArmKind::IntLit:
          if (V.Kind != ValueKind::Int) {
            trap("integer pattern on a non-integer value");
            return false;
          }
          Matches = V.Int == Arm.Lit.Int;
          break;
        case ArmKind::BoolLit:
          if (V.Kind != ValueKind::Bool) {
            trap("boolean pattern on a non-boolean value");
            return false;
          }
          Matches = (V.Int != 0) == (Arm.Lit.Int != 0);
          break;
        case ArmKind::Default:
          Default = &Arm;
          DefaultOffset = Offset;
          break;
        }
        if (Matches) {
          for (size_t I = 0; I != Arm.Binders.size(); ++I)
            Locals[CurBase + Binders[Offset + I]] = V.Ref->field(I);
          Code = Arm.Body;
          return true;
        }
        Offset += Arm.Binders.size();
      }
      if (Default) {
        (void)DefaultOffset;
        Code = Default->Body;
        return true;
      }
      trap("non-exhaustive match");
      return false;
    }
    case ExprKind::Con: {
      const auto *C = cast<ConExpr>(E);
      const CtorDecl &D = P.ctor(C->ctor());
      if (D.Arity == 0) {
        Result = Value::makeEnum(D.DataId, D.Tag);
        Code = nullptr;
        return true;
      }
      Kont K;
      K.Kind = Kont::K::Args;
      K.Node = E;
      K.Next = 1;
      K.Base = Operands.size();
      Konts.push_back(K);
      Code = C->args()[0];
      return true;
    }
    case ExprKind::Prim: {
      const auto *Pr = cast<PrimExpr>(E);
      if (Pr->args().empty()) {
        finishPrim(Pr, Operands.size());
        return !Trapped;
      }
      Kont K;
      K.Kind = Kont::K::Args;
      K.Node = E;
      K.Next = 1;
      K.Base = Operands.size();
      Konts.push_back(K);
      Code = Pr->args()[0];
      return true;
    }

    //===--- RC instructions ------------------------------------------------//
    case ExprKind::Dup:
      if (Sink)
        Sink->setSite(E, "dup", E->loc());
      ++Run->Rc.Dups;
      H.dup(local(E->layoutA()));
      Code = cast<DupExpr>(E)->rest();
      return true;
    case ExprKind::Drop:
      if (Sink)
        Sink->setSite(E, "drop", E->loc());
      ++Run->Rc.Drops;
      H.drop(local(E->layoutA()));
      Code = cast<DropExpr>(E)->rest();
      return true;
    case ExprKind::Free: {
      // `free` is memory-only disposal, not an RC operation: it never
      // reaches the heap's dup/drop/decref API, so it stays outside the
      // HeapStats classification invariant (tracked in Rc.Frees only).
      if (Sink)
        Sink->setSite(E, "free", E->loc());
      ++Run->Rc.Frees;
      Value V = local(E->layoutA());
      if (V.Kind == ValueKind::HeapRef) {
        H.freeMemoryOnly(V.Ref);
      } else if (V.Kind == ValueKind::Token) {
        if (V.Tok)
          H.freeMemoryOnly(V.Tok);
      }
      Code = cast<FreeExpr>(E)->rest();
      return true;
    }
    case ExprKind::DecRef:
      if (Sink)
        Sink->setSite(E, "decref", E->loc());
      ++Run->Rc.DecRefs;
      H.decref(local(E->layoutA()));
      Code = cast<DecRefExpr>(E)->rest();
      return true;
    case ExprKind::IsUnique: {
      const auto *U = cast<IsUniqueExpr>(E);
      if (Sink)
        Sink->setSite(E, "is-unique", E->loc());
      ++Run->Rc.IsUniques;
      Code = H.isUnique(local(E->layoutA())) ? U->thenExpr() : U->elseExpr();
      return true;
    }
    case ExprKind::DropReuse: {
      const auto *D = cast<DropReuseExpr>(E);
      Value V = local(E->layoutA());
      if (V.Kind != ValueKind::HeapRef) {
        trap("drop-reuse of a non-heap value");
        return false;
      }
      if (Sink)
        Sink->setSite(E, "drop-reuse", E->loc());
      ++Run->Rc.DropReuses;
      ++Run->Rc.IsUniques; // the probe below is a real is-unique test
      if (H.isUnique(V)) {
        Run->Rc.ImplicitDrops += V.Ref->H.Arity; // dropChildren drops each
        H.dropChildren(V.Ref);
        local(E->layoutB()) = Value::makeToken(V.Ref);
      } else {
        ++Run->Rc.ImplicitDecRefs;
        H.decref(V);
        local(E->layoutB()) = Value::makeToken(nullptr);
      }
      Code = D->rest();
      return true;
    }
    case ExprKind::ReuseAddr: {
      Value V = local(E->layoutA());
      if (V.Kind != ValueKind::HeapRef) {
        trap("reuse-addr of a non-heap value");
        return false;
      }
      Result = Value::makeToken(V.Ref);
      Code = nullptr;
      return true;
    }
    case ExprKind::NullToken:
      Result = Value::makeToken(nullptr);
      Code = nullptr;
      return true;
    case ExprKind::IsNullToken: {
      const auto *N = cast<IsNullTokenExpr>(E);
      Value V = local(E->layoutA());
      if (V.Tok == nullptr) {
        // The reuse-specialized fresh path: the pairing missed.
        ++Run->ReuseMisses;
        if (Sink) {
          Sink->setSite(E, "is-null-token", E->loc());
          Sink->record(RcEvent::ReuseMiss, 0);
        }
        Code = N->thenExpr();
      } else {
        Code = N->elseExpr();
      }
      return true;
    }
    case ExprKind::SetField: {
      const auto *S = cast<SetFieldExpr>(E);
      Kont K;
      K.Kind = Kont::K::SetField;
      K.Node = E;
      Konts.push_back(K);
      Code = S->value();
      return true;
    }
    case ExprKind::TokenValue: {
      const auto *T = cast<TokenValueExpr>(E);
      Value V = local(E->layoutA());
      if (V.Kind != ValueKind::Token || !V.Tok) {
        trap("token value of a null or non-token");
        return false;
      }
      Cell *C = V.Tok;
      C->H.Tag = static_cast<uint8_t>(P.ctor(T->ctor()).Tag);
      C->H.Kind = CellKind::Ctor;
      ++Run->ReuseHits;
      if (Sink) {
        Sink->setSite(E, "token-value", E->loc());
        Sink->record(RcEvent::ReuseHit, Cell::allocSize(C->H.Arity));
      }
      Result = Value::makeRef(C);
      Code = nullptr;
      return true;
    }
    }
    trap("unhandled expression kind");
    return false;
  }

  // Apply phase: feed Result to the top continuation.
  if (Konts.empty())
    return false; // run complete
  Kont K = Konts.back();
  switch (K.Kind) {
  case Kont::K::Ret:
    Konts.pop_back();
    Locals.resize(K.FrameStart);
    CurBase = K.Base;
    --CallDepth;
    return true;
  case Kont::K::Let: {
    Konts.pop_back();
    const auto *L = cast<LetExpr>(K.Node);
    local(L->layoutA()) = Result;
    Code = L->body();
    return true;
  }
  case Kont::K::Seq:
    Konts.pop_back();
    Code = K.Node;
    return true;
  case Kont::K::If: {
    Konts.pop_back();
    const auto *I = cast<IfExpr>(K.Node);
    if (Result.Kind != ValueKind::Bool) {
      trap("if condition is not a boolean");
      return false;
    }
    Code = Result.asBool() ? I->thenExpr() : I->elseExpr();
    return true;
  }
  case Kont::K::SetField: {
    Konts.pop_back();
    const auto *S = cast<SetFieldExpr>(K.Node);
    Value Tok = local(S->layoutA());
    if (Tok.Kind != ValueKind::Token || !Tok.Tok) {
      trap("field assignment through a null token");
      return false;
    }
    Tok.Tok->setField(S->index(), Result);
    Code = S->rest();
    return true;
  }
  case Kont::K::Args:
    finishArgs(K);
    return !Trapped;
  }
  return false;
}

/// Collects the just-produced value and either evaluates the next
/// component or completes the application/constructor/primitive.
void Machine::finishArgs(const Kont &K) {
  Operands.push_back(Result);
  Kont &Top = Konts.back();
  const Expr *Node = K.Node;
  switch (Node->kind()) {
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(Node);
    size_t Total = 1 + A->args().size();
    if (Top.Next < Total) {
      Code = A->args()[Top.Next - 1];
      ++Top.Next;
      return;
    }
    size_t Base = Top.Base;
    Konts.pop_back();
    doCall(Base, Node->loc());
    return;
  }
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(Node);
    if (Top.Next < C->args().size()) {
      Code = C->args()[Top.Next];
      ++Top.Next;
      return;
    }
    size_t Base = Top.Base;
    Konts.pop_back();
    finishCon(C, Base);
    return;
  }
  case ExprKind::Prim: {
    const auto *Pr = cast<PrimExpr>(Node);
    if (Top.Next < Pr->args().size()) {
      Code = Pr->args()[Top.Next];
      ++Top.Next;
      return;
    }
    size_t Base = Top.Base;
    Konts.pop_back();
    finishPrim(Pr, Base);
    return;
  }
  default:
    trap("corrupt argument continuation");
  }
}

void Machine::doCall(size_t OperandBase, SourceLoc Loc) {
  Value Callee = Operands[OperandBase];
  size_t NArgs = Operands.size() - OperandBase - 1;

  const Expr *Body = nullptr;
  uint32_t FrameSize = 0;
  const LamExpr *Lam = nullptr;
  Cell *Closure = nullptr;

  if (Callee.Kind == ValueKind::FnRef) {
    const FunctionDecl &Fn = P.function(Callee.fnId());
    if (Fn.Params.size() != NArgs) {
      trap("arity mismatch calling '" +
           std::string(P.symbols().name(Fn.Name)) + "'");
      return;
    }
    Body = Fn.Body;
    FrameSize = Layout.FuncFrameSize[Callee.fnId()];
  } else if (Callee.Kind == ValueKind::HeapRef &&
             Callee.Ref->H.Kind == CellKind::Closure) {
    Closure = Callee.Ref;
    Lam = static_cast<const LamExpr *>(Closure->field(0).rawPtr());
    if (Lam->params().size() != NArgs) {
      trap("arity mismatch calling a closure");
      return;
    }
    Body = Lam->body();
    FrameSize = Lam->layoutB();
  } else {
    trap("calling a non-function value");
    return;
  }

  // Tail call: the continuation is this frame's return — reuse it.
  bool Tail = !Konts.empty() && Konts.back().Kind == Kont::K::Ret;
  size_t NewBase;
  if (Tail) {
    ++Run->TailCalls;
    NewBase = Konts.back().FrameStart;
    // Keep the frame's Ret continuation; replace the frame itself.
  } else {
    if (CallDepthLimit && CallDepth >= CallDepthLimit) {
      trap("call depth limit exceeded (stack overflow)",
           TrapKind::StackOverflow);
      return;
    }
    ++CallDepth;
    if (CallDepth > Run->MaxCallDepth)
      Run->MaxCallDepth = CallDepth;
    Kont K;
    K.Kind = Kont::K::Ret;
    K.Base = CurBase;
    K.FrameStart = Locals.size();
    Konts.push_back(K);
    NewBase = K.FrameStart;
  }

  // Bind arguments (params occupy slots 0..n-1), then captures.
  // Copy args aside first: a tail call shrinks the locals the operands
  // do not live in, but the operand stack itself must be popped before
  // we touch Locals to keep sizes consistent.
  size_t ArgStart = OperandBase + 1;
  if (Tail) {
    Locals.resize(NewBase);
  }
  Locals.resize(NewBase + FrameSize);
  for (size_t I = 0; I != NArgs; ++I)
    Locals[NewBase + I] = Operands[ArgStart + I];
  CurBase = NewBase;
  Operands.resize(OperandBase);

  if (Lam) {
    // Rule (app_r): dup the captured environment, then drop the closure.
    if (Sink)
      Sink->setSite(Lam, "app", Loc);
    const std::vector<uint32_t> &List = Layout.SlotLists[Lam->layoutA()];
    size_t NCaps = Lam->captures().size();
    const uint32_t *Targets = List.data() + NCaps;
    for (size_t I = 0; I != NCaps; ++I) {
      Value Cap = Closure->field(1 + I);
      ++Run->Rc.ImplicitDups;
      H.dup(Cap);
      Locals[NewBase + Targets[I]] = Cap;
    }
    ++Run->Rc.ImplicitDrops;
    H.drop(Value::makeRef(Closure));
  }

  Code = Body;
}

void Machine::finishCon(const ConExpr *C, size_t OperandBase) {
  const CtorDecl &D = P.ctor(C->ctor());
  Cell *Cl = nullptr;
  if (Sink)
    Sink->setSite(C, C->hasReuseToken() ? "con@ru" : "con", C->loc());
  if (C->hasReuseToken()) {
    Value Tok = local(C->layoutA());
    if (Tok.Kind != ValueKind::Token) {
      trap("constructor reuse with a non-token");
      return;
    }
    if (Tok.Tok) {
      Cl = Tok.Tok; // in-place reuse: same memory, fresh identity
      assert(Cl->H.Arity == D.Arity && "reuse token arity mismatch");
      Cl->H.Rc.store(1, std::memory_order_relaxed);
      Cl->H.Tag = static_cast<uint8_t>(D.Tag);
      Cl->H.Kind = CellKind::Ctor;
      ++Run->ReuseHits;
      if (Sink)
        Sink->record(RcEvent::ReuseHit, Cell::allocSize(D.Arity));
    } else {
      ++Run->ReuseMisses;
      if (Sink)
        Sink->record(RcEvent::ReuseMiss, 0);
    }
  }
  if (!Cl) {
    Cl = H.alloc(D.Arity, D.Tag, CellKind::Ctor);
    if (!Cl) {
      // The field values stay on the operand stack for the unwind.
      trap("out of memory allocating a constructor", TrapKind::OutOfMemory);
      return;
    }
  }
  for (uint32_t I = 0; I != D.Arity; ++I)
    Cl->setField(I, Operands[OperandBase + I]);
  Operands.resize(OperandBase);
  Result = Value::makeRef(Cl);
  Code = nullptr;
}

void Machine::finishPrim(const PrimExpr *Pr, size_t OperandBase) {
  size_t N = Operands.size() - OperandBase;
  auto arg = [&](size_t I) { return Operands[OperandBase + I]; };
  auto intArg = [&](size_t I, bool &OkFlag) {
    if (arg(I).Kind != ValueKind::Int) {
      OkFlag = false;
      return int64_t(0);
    }
    return arg(I).Int;
  };

  bool OkArgs = true;
  Value Out = Value::unit();
  switch (Pr->op()) {
  case PrimOp::Add:
  case PrimOp::Sub:
  case PrimOp::Mul:
  case PrimOp::Div:
  case PrimOp::Mod: {
    if (N != 2) {
      trap("arithmetic primitive arity");
      return;
    }
    int64_t A = intArg(0, OkArgs);
    int64_t B = intArg(1, OkArgs);
    if (!OkArgs) {
      trap("arithmetic on a non-integer");
      return;
    }
    switch (Pr->op()) {
    case PrimOp::Add:
      Out = Value::makeInt(A + B);
      break;
    case PrimOp::Sub:
      Out = Value::makeInt(A - B);
      break;
    case PrimOp::Mul:
      Out = Value::makeInt(A * B);
      break;
    case PrimOp::Div:
      if (B == 0) {
        trap("division by zero");
        return;
      }
      if (A == INT64_MIN && B == -1) {
        trap("integer overflow in division");
        return;
      }
      Out = Value::makeInt(A / B);
      break;
    default:
      if (B == 0) {
        trap("modulo by zero");
        return;
      }
      if (A == INT64_MIN && B == -1) {
        trap("integer overflow in modulo");
        return;
      }
      Out = Value::makeInt(A % B);
      break;
    }
    break;
  }
  case PrimOp::Neg: {
    int64_t A = intArg(0, OkArgs);
    if (!OkArgs) {
      trap("negation of a non-integer");
      return;
    }
    if (A == INT64_MIN) {
      trap("integer overflow in negation");
      return;
    }
    Out = Value::makeInt(-A);
    break;
  }
  case PrimOp::Lt:
  case PrimOp::Le:
  case PrimOp::Gt:
  case PrimOp::Ge: {
    int64_t A = intArg(0, OkArgs);
    int64_t B = intArg(1, OkArgs);
    if (!OkArgs) {
      trap("comparison of non-integers");
      return;
    }
    bool R = false;
    switch (Pr->op()) {
    case PrimOp::Lt:
      R = A < B;
      break;
    case PrimOp::Le:
      R = A <= B;
      break;
    case PrimOp::Gt:
      R = A > B;
      break;
    default:
      R = A >= B;
      break;
    }
    Out = Value::makeBool(R);
    break;
  }
  case PrimOp::EqInt:
  case PrimOp::NeInt: {
    Value A = arg(0);
    Value B = arg(1);
    bool Eq;
    if (A.Kind == ValueKind::Int && B.Kind == ValueKind::Int)
      Eq = A.Int == B.Int;
    else if (A.Kind == ValueKind::Bool && B.Kind == ValueKind::Bool)
      Eq = (A.Int != 0) == (B.Int != 0);
    else if (A.Kind == ValueKind::Enum && B.Kind == ValueKind::Enum)
      Eq = A.Bits == B.Bits;
    else {
      trap("equality on incompatible or heap values");
      return;
    }
    Out = Value::makeBool(Pr->op() == PrimOp::EqInt ? Eq : !Eq);
    break;
  }
  case PrimOp::Not: {
    if (arg(0).Kind != ValueKind::Bool) {
      trap("negation of a non-boolean");
      return;
    }
    Out = Value::makeBool(!arg(0).asBool());
    break;
  }
  case PrimOp::PrintLn: {
    if (arg(0).Kind == ValueKind::Int)
      Run->Output += std::to_string(arg(0).Int);
    else if (arg(0).Kind == ValueKind::Bool)
      Run->Output += arg(0).asBool() ? "True" : "False";
    else if (arg(0).Kind == ValueKind::Unit)
      Run->Output += "()";
    else {
      trap("println of a non-printable value");
      return;
    }
    Run->Output += '\n';
    break;
  }
  case PrimOp::MarkShared: {
    // tshare consumes its argument (the reference is transferred in).
    if (Sink)
      Sink->setSite(Pr, "tshare", Pr->loc());
    H.markShared(arg(0));
    ++Run->Rc.ImplicitDrops;
    H.drop(arg(0));
    break;
  }
  case PrimOp::Abort:
    trap("abort: non-exhaustive match or explicit failure");
    return;
  case PrimOp::RefNew: {
    // Ownership of the content moves into the cell.
    if (Sink)
      Sink->setSite(Pr, "ref-new", Pr->loc());
    Cell *C = H.alloc(1, 0, CellKind::Ref);
    if (!C) {
      trap("out of memory allocating a reference", TrapKind::OutOfMemory);
      return;
    }
    C->setField(0, arg(0));
    Out = Value::makeRef(C);
    break;
  }
  case PrimOp::RefGet: {
    Value R = arg(0);
    if (R.Kind != ValueKind::HeapRef || R.Ref->H.Kind != CellKind::Ref) {
      trap("deref of a non-reference");
      return;
    }
    Out = R.Ref->field(0);
    // The paper's read: dup the content, then release the handle. (Our
    // machine is single-threaded; Section 2.7.3's dup/write race needs
    // the atomic path only under concurrent mutation.)
    if (Sink)
      Sink->setSite(Pr, "ref-get", Pr->loc());
    ++Run->Rc.ImplicitDups;
    H.dup(Out);
    ++Run->Rc.ImplicitDrops;
    H.drop(R);
    break;
  }
  case PrimOp::RefSet: {
    Value R = arg(0);
    if (R.Kind != ValueKind::HeapRef || R.Ref->H.Kind != CellKind::Ref) {
      trap("set-ref of a non-reference");
      return;
    }
    Value Old = R.Ref->field(0);
    R.Ref->setField(0, arg(1)); // content ownership moves in
    if (Sink)
      Sink->setSite(Pr, "ref-set", Pr->loc());
    Run->Rc.ImplicitDrops += 2;
    H.drop(Old);
    H.drop(R); // release the handle
    break;
  }
  }
  Operands.resize(OperandBase);
  Result = Out;
  Code = nullptr;
}

/// If \p E is a chain of RC statements ending in the unit literal,
/// executes the chain and returns the terminal; otherwise returns null
/// without side effects (the shape is validated before execution).
const Expr *Machine::tryRunRcChainToUnit(const Expr *E) {
  const Expr *T = E;
  while (isa<RcStmtExpr>(T))
    T = cast<RcStmtExpr>(T)->rest();
  const auto *L = dyn_cast<LitExpr>(T);
  if (!L || L->value().Kind != LitKind::Unit)
    return nullptr;
  runRcChain(E, T);
  return T;
}

/// Like tryRunRcChainToUnit but for chains ending in `&v` or `NULL`
/// (the drop-reuse specialized branches); yields the token value.
bool Machine::tryRunRcChainToToken(const Expr *E, Value &Tok) {
  const Expr *T = E;
  while (isa<RcStmtExpr>(T))
    T = cast<RcStmtExpr>(T)->rest();
  if (const auto *R = dyn_cast<ReuseAddrExpr>(T)) {
    runRcChain(E, T);
    Value V = local(R->layoutA());
    if (V.Kind != ValueKind::HeapRef) {
      trap("reuse-addr of a non-heap value");
      return false;
    }
    Tok = Value::makeToken(V.Ref);
    return true;
  }
  if (isa<NullTokenExpr>(T)) {
    runRcChain(E, T);
    Tok = Value::makeToken(nullptr);
    return true;
  }
  return false;
}

/// Executes the RC statements from \p E up to (excluding) \p End.
void Machine::runRcChain(const Expr *E, const Expr *End) {
  while (E != End) {
    const auto *R = cast<RcStmtExpr>(E);
    Value V = local(R->layoutA());
    switch (E->kind()) {
    case ExprKind::Dup:
      if (Sink)
        Sink->setSite(E, "dup", E->loc());
      ++Run->Rc.Dups;
      H.dup(V);
      break;
    case ExprKind::Drop:
      if (Sink)
        Sink->setSite(E, "drop", E->loc());
      ++Run->Rc.Drops;
      H.drop(V);
      break;
    case ExprKind::DecRef:
      if (Sink)
        Sink->setSite(E, "decref", E->loc());
      ++Run->Rc.DecRefs;
      H.decref(V);
      break;
    default: // Free
      if (Sink)
        Sink->setSite(E, "free", E->loc());
      ++Run->Rc.Frees;
      if (V.Kind == ValueKind::HeapRef)
        H.freeMemoryOnly(V.Ref);
      else if (V.Kind == ValueKind::Token && V.Tok)
        H.freeMemoryOnly(V.Tok);
      break;
    }
    E = R->rest();
  }
}

void Machine::enumerateRoots(const std::function<void(Value)> &Fn) const {
  for (const Value &V : Locals)
    Fn(V);
  for (const Value &V : Operands)
    Fn(V);
  if (!Code)
    Fn(Result);
}

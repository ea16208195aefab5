//===- calculus/TermMachine.cpp - Figure 7 heap semantics ---------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Conventions (documented divergences from the literal Figure 7 rules):
//
//  * (match_r) in the paper dups the fields and drops the scrutinee at
//    runtime because the Figure 8 translation emits neither. Our
//    compiler-oriented insertion emits those operations *explicitly*
//    (Figure 1b), so this machine's match only substitutes the binders —
//    the combined behaviour is identical, and it keeps one convention
//    across the term machine and the production abstract machine.
//
//  * The garbage-free audit follows Theorem 4: a state is audited only
//    when its redex is not a reference-counting instruction, and
//    reachability starts from the free variables of the *erased* term
//    (reuse tokens count as references: the token deliberately keeps the
//    dead cell's memory reachable until its paired allocation).
//
//===----------------------------------------------------------------------===//

#include "calculus/TermMachine.h"

#include "calculus/SubstEval.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "support/Casting.h"

#include <cstdio>
#include <set>

using namespace perceus;

namespace {

/// Values of the term machine: variables (heap locations) and literals.
/// (The NULL token literal is *not* a value: it reduces to the machine's
/// distinguished NULL-token variable so it can substitute into token
/// positions, which hold symbols.)
bool isVal(const Expr *E) {
  return E->kind() == ExprKind::Var || E->kind() == ExprKind::Lit;
}

Symbol valSym(const Expr *E) {
  if (const auto *V = dyn_cast<VarExpr>(E))
    return V->name();
  return Symbol();
}

/// Free variables of the erased term (see the file comment): RC
/// instruction operands do not count; token uses do.
void erasedFv(const Expr *E, std::set<Symbol> &Out,
              std::set<Symbol> Bound = {}) {
  auto Use = [&](Symbol X) {
    if (X.isValid() && !Bound.count(X))
      Out.insert(X);
  };
  switch (E->kind()) {
  case ExprKind::Lit:
  case ExprKind::Global:
  case ExprKind::NullToken:
    return;
  case ExprKind::Var:
    Use(cast<VarExpr>(E)->name());
    return;
  case ExprKind::Lam: {
    const auto *L = cast<LamExpr>(E);
    std::set<Symbol> Inner = Bound;
    for (Symbol Pm : L->params())
      Inner.insert(Pm);
    erasedFv(L->body(), Out, Inner);
    return;
  }
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    erasedFv(A->fn(), Out, Bound);
    for (const Expr *Arg : A->args())
      erasedFv(Arg, Out, Bound);
    return;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    erasedFv(L->bound(), Out, Bound);
    Bound.insert(L->name());
    erasedFv(L->body(), Out, Bound);
    return;
  }
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    erasedFv(S->first(), Out, Bound);
    erasedFv(S->second(), Out, Bound);
    return;
  }
  case ExprKind::If: {
    const auto *I = cast<IfExpr>(E);
    erasedFv(I->cond(), Out, Bound);
    erasedFv(I->thenExpr(), Out, Bound);
    erasedFv(I->elseExpr(), Out, Bound);
    return;
  }
  case ExprKind::Match: {
    const auto *M = cast<MatchExpr>(E);
    Use(M->scrutinee());
    for (const MatchArm &Arm : M->arms()) {
      std::set<Symbol> Inner = Bound;
      for (Symbol B : Arm.Binders)
        Inner.insert(B);
      erasedFv(Arm.Body, Out, Inner);
    }
    return;
  }
  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    if (C->hasReuseToken())
      Use(C->reuseToken());
    for (const Expr *Arg : C->args())
      erasedFv(Arg, Out, Bound);
    return;
  }
  case ExprKind::Prim: {
    for (const Expr *Arg : cast<PrimExpr>(E)->args())
      erasedFv(Arg, Out, Bound);
    return;
  }
  // Erased RC instructions: the operand does not count.
  case ExprKind::Dup:
  case ExprKind::Drop:
  case ExprKind::Free:
  case ExprKind::DecRef:
    erasedFv(cast<RcStmtExpr>(E)->rest(), Out, Bound);
    return;
  case ExprKind::DropReuse: {
    const auto *D = cast<DropReuseExpr>(E);
    Bound.insert(D->token());
    erasedFv(D->rest(), Out, Bound);
    return;
  }
  case ExprKind::IsUnique: {
    const auto *U = cast<IsUniqueExpr>(E);
    erasedFv(U->thenExpr(), Out, Bound);
    erasedFv(U->elseExpr(), Out, Bound);
    return;
  }
  case ExprKind::ReuseAddr:
    Use(cast<ReuseAddrExpr>(E)->var());
    return;
  }
}

/// The kind of the unique redex of \p E (or Var when \p E is a value).
ExprKind peekRedex(const Expr *E) {
  if (isVal(E))
    return ExprKind::Var;
  switch (E->kind()) {
  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    if (!isVal(A->fn()))
      return peekRedex(A->fn());
    for (const Expr *Arg : A->args())
      if (!isVal(Arg))
        return peekRedex(Arg);
    return ExprKind::App;
  }
  case ExprKind::Con: {
    for (const Expr *Arg : cast<ConExpr>(E)->args())
      if (!isVal(Arg))
        return peekRedex(Arg);
    return ExprKind::Con;
  }
  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    if (!isVal(L->bound()))
      return peekRedex(L->bound());
    return ExprKind::Let;
  }
  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    if (!isVal(S->first()))
      return peekRedex(S->first());
    return ExprKind::Seq;
  }
  default:
    return E->kind();
  }
}

/// Is auditing skipped for this redex? Theorem 4 excludes states whose
/// redex is a dup/drop; our statement encoding spreads the specialized
/// RC instructions over several administrative steps (the unit-valued
/// is-unique statement, the Seq that discards it, the let that binds a
/// reuse token, the `&x` that computes it, the NULL literal), so the
/// whole administrative family is excluded. This is conservative but loses nothing: these steps do not
/// allocate, so a genuinely garbage state persists to the next audited
/// redex (application, allocation, or match) unless an intervening —
/// legitimately pending — RC instruction frees it, which is exactly the
/// case the theorem's proviso exists for.
bool isRcRedex(ExprKind K) {
  switch (K) {
  case ExprKind::Dup:
  case ExprKind::Drop:
  case ExprKind::Free:
  case ExprKind::DecRef:
  case ExprKind::DropReuse:
  case ExprKind::IsUnique:
  case ExprKind::Seq:
  case ExprKind::Let:
  case ExprKind::ReuseAddr:
  case ExprKind::NullToken:
    return true;
  default:
    return false;
  }
}

} // namespace

std::string TermMachine::name(Symbol S) const {
  return std::string(P.symbols().name(S));
}

Symbol TermMachine::allocCon(CtorId C, std::vector<Symbol> Fields) {
  Symbol L = P.symbols().fresh("loc");
  HeapEntry &E = H[L];
  E.Rc = 1;
  E.IsClosure = false;
  E.Ctor = C;
  E.Fields = std::move(Fields);
  return L;
}

Symbol TermMachine::allocClosure(const Expr *Lam, std::vector<Symbol> Env) {
  Symbol L = P.symbols().fresh("loc");
  HeapEntry &E = H[L];
  E.Rc = 1;
  E.IsClosure = true;
  E.Lam = Lam;
  E.Fields = std::move(Env);
  return L;
}

TermRunResult TermMachine::run(const Expr *E) {
  TermRunResult R;
  Run = &R;
  H.clear();
  if (!NullTok.isValid())
    NullTok = P.symbols().fresh("NULL-token");

  const Expr *Cur = E;
  while (!isVal(Cur)) {
    if (R.Steps >= StepLimit) {
      R.Error = "step limit exceeded";
      Run = nullptr;
      return R;
    }
    if (Trace) {
      fprintf(stderr, "--- step %llu (heap %zu)\n%s\n",
              (unsigned long long)R.Steps, H.size(),
              printExpr(P, Cur).c_str());
    }
    if (Audit && !isRcRedex(peekRedex(Cur)))
      auditState(Cur);
    bool Progress = false;
    bool AtRcOp = false;
    Cur = step(Cur, Progress, AtRcOp);
    if (!Cur) {
      Run = nullptr;
      return R; // Error already set
    }
    ++R.Steps;
    if (H.size() > R.MaxHeapCells)
      R.MaxHeapCells = H.size();
  }

  R.Ok = true;
  R.Value = valSym(Cur);
  if (Audit)
    auditExactCounts(R.Value);
  Run = nullptr;
  return R;
}

/// Appendix D.3: at a quiescent (final-value) state the reference count
/// of every live location equals the number of actual references to it —
/// one from the result variable, plus one per heap field that stores it.
void TermMachine::auditExactCounts(Symbol Value) {
  std::map<Symbol, int> Refs;
  if (Value.isValid())
    Refs[Value] += 1;
  for (const auto &[Loc, Entry] : H)
    for (Symbol F : Entry.Fields)
      if (F.isValid())
        Refs[F] += 1;
  for (const auto &[Loc, Entry] : H) {
    int Expected = Refs.count(Loc) ? Refs.at(Loc) : 0;
    if (Entry.Rc != Expected && Run->AuditFailures.size() < 16)
      Run->AuditFailures.push_back(
          "final state: location '" + name(Loc) + "' has rc " +
          std::to_string(Entry.Rc) + " but " + std::to_string(Expected) +
          " actual reference(s)");
  }
}

/// One reduction at the redex of \p E.
const Expr *TermMachine::step(const Expr *E, bool &Progress, bool &AtRcOp) {
  IRBuilder B(P);
  auto fail = [&](std::string Msg) -> const Expr * {
    Run->Error = std::move(Msg);
    return nullptr;
  };

  switch (E->kind()) {
  case ExprKind::Lam: {
    // (lam_r): allocate a closure holding the annotated environment ys.
    const auto *L = cast<LamExpr>(E);
    std::vector<Symbol> Env(L->captures().begin(), L->captures().end());
    for (Symbol Y : Env)
      if (!H.count(Y))
        return fail("closure captures unbound location '" + name(Y) + "'");
    return B.var(allocClosure(L, std::move(Env)));
  }

  case ExprKind::Con: {
    const auto *C = cast<ConExpr>(E);
    // Descend into the leftmost non-value argument.
    for (size_t I = 0; I != C->args().size(); ++I) {
      if (isVal(C->args()[I]))
        continue;
      const Expr *Arg = step(C->args()[I], Progress, AtRcOp);
      if (!Arg)
        return nullptr;
      std::vector<const Expr *> Args(C->args().begin(), C->args().end());
      Args[I] = Arg;
      return B.con(C->ctor(),
                   std::span<const Expr *const>(Args.data(), Args.size()),
                   C->reuseToken(), E->loc());
    }
    // (con_r), possibly with a reuse token.
    std::vector<Symbol> Fields;
    for (const Expr *Arg : C->args()) {
      Symbol S = valSym(Arg);
      if (!S.isValid())
        return fail("literal constructor field in the pure calculus");
      Fields.push_back(S);
    }
    if (C->hasReuseToken() && C->reuseToken() != NullTok) {
      Symbol Tok = C->reuseToken();
      auto It = H.find(Tok);
      if (It == H.end())
        return fail("reuse of a freed token cell");
      if (It->second.Rc != 1)
        return fail("reuse of a non-unique cell");
      It->second.IsClosure = false;
      It->second.Ctor = C->ctor();
      It->second.Fields = std::move(Fields);
      return B.var(Tok);
    }
    return B.var(allocCon(C->ctor(), std::move(Fields)));
  }

  case ExprKind::App: {
    const auto *A = cast<AppExpr>(E);
    if (!isVal(A->fn())) {
      const Expr *Fn = step(A->fn(), Progress, AtRcOp);
      if (!Fn)
        return nullptr;
      return B.app(Fn, A->args(), E->loc());
    }
    for (size_t I = 0; I != A->args().size(); ++I) {
      if (isVal(A->args()[I]))
        continue;
      const Expr *Arg = step(A->args()[I], Progress, AtRcOp);
      if (!Arg)
        return nullptr;
      std::vector<const Expr *> Args(A->args().begin(), A->args().end());
      Args[I] = Arg;
      return B.app(A->fn(),
                   std::span<const Expr *const>(Args.data(), Args.size()),
                   E->loc());
    }
    // (app_r): dup ys; drop f; body[params := args].
    Symbol F = valSym(A->fn());
    auto It = H.find(F);
    if (It == H.end() || !It->second.IsClosure)
      return fail("application of a non-closure");
    const auto *L = cast<LamExpr>(It->second.Lam);
    if (L->params().size() != A->args().size())
      return fail("arity mismatch in application");
    // Resolve the closure's stored environment against the lambda's
    // annotation: substitute captures first, then parameters.
    const Expr *Body = L->body();
    assert(It->second.Fields.size() == L->captures().size());
    for (size_t I = 0; I != L->captures().size(); ++I)
      if (L->captures()[I] != It->second.Fields[I])
        Body = substitute(P, Body, L->captures()[I],
                          B.var(It->second.Fields[I]));
    for (size_t I = 0; I != A->args().size(); ++I)
      Body = substitute(P, Body, L->params()[I], A->args()[I]);
    Body = B.drop(F, Body);
    std::vector<Symbol> Ys = It->second.Fields;
    for (size_t I = Ys.size(); I-- > 0;)
      Body = B.dup(Ys[I], Body);
    return Body;
  }

  case ExprKind::Let: {
    const auto *L = cast<LetExpr>(E);
    if (!isVal(L->bound())) {
      const Expr *Bound = step(L->bound(), Progress, AtRcOp);
      if (!Bound)
        return nullptr;
      return B.let(L->name(), Bound, L->body(), E->loc());
    }
    // (bind_r).
    return substitute(P, L->body(), L->name(), L->bound());
  }

  case ExprKind::Seq: {
    const auto *S = cast<SeqExpr>(E);
    if (!isVal(S->first())) {
      const Expr *First = step(S->first(), Progress, AtRcOp);
      if (!First)
        return nullptr;
      return B.seq(First, S->second(), E->loc());
    }
    return S->second(); // discard a unit-ish value
  }

  case ExprKind::Match: {
    const auto *M = cast<MatchExpr>(E);
    auto It = H.find(M->scrutinee());
    if (It == H.end() || It->second.IsClosure)
      return fail("match on a non-constructor location");
    for (const MatchArm &Arm : M->arms()) {
      bool Hit = Arm.Kind == ArmKind::Default ||
                 (Arm.Kind == ArmKind::Ctor && Arm.Ctor == It->second.Ctor);
      if (!Hit)
        continue;
      const Expr *Body = Arm.Body;
      for (size_t I = 0; I != Arm.Binders.size(); ++I)
        Body = substitute(P, Body, Arm.Binders[I],
                          IRBuilder(P).var(It->second.Fields[I]));
      return Body;
    }
    return fail("non-exhaustive match in the term machine");
  }

  //===--- RC instructions --------------------------------------------------//
  case ExprKind::Dup: {
    AtRcOp = true;
    const auto *D = cast<DupExpr>(E);
    auto It = H.find(D->var());
    if (It == H.end())
      return fail("dup of unbound location '" + name(D->var()) + "'");
    ++It->second.Rc; // (dup_r)
    return D->rest();
  }

  case ExprKind::Drop: {
    AtRcOp = true;
    const auto *D = cast<DropExpr>(E);
    std::vector<const Expr *> Pending;
    Symbol X = D->var();
    auto It = H.find(X);
    if (It == H.end())
      return fail("drop of unbound location '" + name(X) + "'");
    if (It->second.Rc > 1) {
      --It->second.Rc; // (drop_r)
      return D->rest();
    }
    // (dlam_r)/(dcon_r): free the entry, then drop its children.
    std::vector<Symbol> Ys = std::move(It->second.Fields);
    H.erase(It);
    IRBuilder B2(P);
    const Expr *Rest = D->rest();
    for (size_t I = Ys.size(); I-- > 0;)
      Rest = B2.drop(Ys[I], Rest);
    return Rest;
  }

  case ExprKind::Free: {
    AtRcOp = true;
    const auto *F = cast<FreeExpr>(E);
    if (F->var() == NullTok)
      return F->rest();
    auto It = H.find(F->var());
    if (It == H.end())
      return fail("free of unbound location '" + name(F->var()) + "'");
    if (It->second.Rc != 1)
      return fail("free of a shared cell '" + name(F->var()) + "'");
    // Field ownership was transferred (explicit child drops or binder
    // transfer); release the cell only.
    H.erase(It);
    return F->rest();
  }

  case ExprKind::DecRef: {
    AtRcOp = true;
    const auto *D = cast<DecRefExpr>(E);
    auto It = H.find(D->var());
    if (It == H.end())
      return fail("decref of unbound location");
    if (It->second.Rc <= 1)
      return fail("decref would free '" + name(D->var()) + "'");
    --It->second.Rc;
    return D->rest();
  }

  case ExprKind::IsUnique: {
    AtRcOp = true;
    const auto *U = cast<IsUniqueExpr>(E);
    auto It = H.find(U->var());
    if (It == H.end())
      return fail("is-unique on unbound location");
    return It->second.Rc == 1 ? U->thenExpr() : U->elseExpr();
  }

  case ExprKind::DropReuse: {
    AtRcOp = true;
    const auto *D = cast<DropReuseExpr>(E);
    auto It = H.find(D->var());
    if (It == H.end())
      return fail("drop-reuse of unbound location");
    if (It->second.Rc > 1) {
      --It->second.Rc;
      return substitute(P, D->rest(), D->token(),
                        IRBuilder(P).var(NullTok));
    }
    // Unique: the cell becomes a token (fields transferred out and
    // dropped explicitly); the token is the location itself.
    std::vector<Symbol> Ys = std::move(It->second.Fields);
    It->second.Fields.clear();
    const Expr *Rest =
        substitute(P, D->rest(), D->token(), IRBuilder(P).var(D->var()));
    IRBuilder B2(P);
    for (size_t I = Ys.size(); I-- > 0;)
      Rest = B2.drop(Ys[I], Rest);
    return Rest;
  }

  case ExprKind::NullToken:
    return IRBuilder(P).var(NullTok);

  case ExprKind::ReuseAddr: {
    const auto *R = cast<ReuseAddrExpr>(E);
    auto It = H.find(R->var());
    if (It == H.end())
      return fail("reuse-addr of unbound location");
    if (It->second.Rc != 1)
      return fail("reuse-addr of a shared cell");
    // Ownership of every field transfers to the pattern binders.
    It->second.Fields.clear();
    return IRBuilder(P).var(R->var());
  }

  default:
    return fail("unsupported form in the term machine");
  }
}

void TermMachine::auditState(const Expr *E) {
  // Reachability (Definition 1) from the erased term.
  std::set<Symbol> Roots;
  erasedFv(E, Roots);
  std::set<Symbol> Reached;
  std::vector<Symbol> Work;
  for (Symbol R : Roots)
    if (H.count(R) && Reached.insert(R).second)
      Work.push_back(R);
  while (!Work.empty()) {
    Symbol X = Work.back();
    Work.pop_back();
    for (Symbol F : H.at(X).Fields)
      if (F.isValid() && H.count(F) && Reached.insert(F).second)
        Work.push_back(F);
  }
  for (const auto &[Loc, Entry] : H) {
    if (!Reached.count(Loc) && Run->AuditFailures.size() < 16)
      Run->AuditFailures.push_back(
          "step " + std::to_string(Run->Steps) + ": heap location '" +
          name(Loc) + "' (rc " + std::to_string(Entry.Rc) +
          ") is unreachable — the state is not garbage free");
    if (Entry.Rc <= 0 && Run->AuditFailures.size() < 16)
      Run->AuditFailures.push_back("step " + std::to_string(Run->Steps) +
                                   ": non-positive reference count on '" +
                                   name(Loc) + "'");
  }
}

const Expr *TermMachine::readback(Symbol X) const {
  IRBuilder B(const_cast<Program &>(P));
  auto It = H.find(X);
  if (It == H.end())
    return B.unit();
  const HeapEntry &E = It->second;
  if (E.IsClosure)
    return E.Lam;
  std::vector<const Expr *> Args;
  for (Symbol F : E.Fields)
    Args.push_back(readback(F));
  return B.con(E.Ctor,
               std::span<const Expr *const>(Args.data(), Args.size()));
}

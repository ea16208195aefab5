//===- lang/Resolver.cpp - Surface to core IR lowering ----------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Resolver.h"

#include "analysis/FreeVars.h"
#include "ir/Builder.h"
#include "lang/Parser.h"
#include "support/Casting.h"

#include <algorithm>

using namespace perceus;

namespace {

/// What a limit diagnostic names, built only when one is reported.
auto named(const char *Kind, std::string_view Name) {
  return [=] { return Kind + (" '" + std::string(Name) + "'"); };
}
auto unnamed(const char *Kind) {
  return [=] { return std::string(Kind); };
}

class ResolverImpl {
public:
  ResolverImpl(const SModule &M, Program &P, DiagnosticEngine &Diags)
      : M(M), P(P), B(P), Diags(Diags) {
    Interned.resize(M.Names.size());
    UsedBinder.resize(M.Names.size());
    Scope.reserve(64);
  }

  bool run() {
    declareTypes();
    declareFunctions();
    if (Diags.hasErrors())
      return false;
    for (const SFunDecl &F : M.Funs)
      resolveFunction(F);
    return !Diags.hasErrors();
  }

private:
  //===--- Names ------------------------------------------------------------//
  //
  // Scopes and the binder-name set work on the module's NameIds. Two
  // binder names the resolver makes up ("match-scrutinee" and the
  // fallback "field") and any field name not spelled in the module get
  // ids past the module's, so a source name with the same spelling still
  // shares its id.

  std::string_view spelling(NameId N) const {
    return N < M.Names.size() ? M.Names.name(N) : Extra[N - M.Names.size()];
  }

  NameId idOf(std::string_view Text) {
    NameId N = M.Names.find(Text);
    if (N != NoName)
      return N;
    for (size_t I = 0; I != Extra.size(); ++I)
      if (Extra[I] == Text)
        return static_cast<NameId>(M.Names.size() + I);
    Extra.push_back(Text);
    Interned.emplace_back();
    UsedBinder.push_back(false);
    return static_cast<NameId>(M.Names.size() + Extra.size() - 1);
  }

  /// The program symbol spelled like \p N. Interning is idempotent, so
  /// the cache changes no symbol id.
  Symbol internName(NameId N) {
    if (!Interned[N])
      Interned[N] = P.symbols().intern(spelling(N));
    return Interned[N];
  }

  //===--- Declarations ----------------------------------------------------//

  void declareTypes() {
    for (const STypeDecl &T : M.Types) {
      Symbol TypeName = P.symbols().intern(T.Name);
      if (P.findData(TypeName) != InvalidId) {
        Diags.error(T.Loc, "duplicate type '" + std::string(T.Name) + "'");
        continue;
      }
      uint32_t DataId = P.addData(TypeName);
      overLimit(T.Loc, T.Ctors.size(), MaxTypeCtors, named("type", T.Name),
                "constructors");
      for (const SCtorDecl &C : T.Ctors) {
        Symbol CtorName = P.symbols().intern(C.Name);
        if (P.findCtor(CtorName) != InvalidId) {
          Diags.error(C.Loc,
                      "duplicate constructor '" + std::string(C.Name) + "'");
          continue;
        }
        overLimit(C.Loc, C.Fields.size(), MaxCellFields,
                  named("constructor", C.Name), "fields");
        std::vector<Symbol> Fields;
        Fields.reserve(C.Fields.size());
        for (NameId F : C.Fields)
          Fields.push_back(internName(F));
        P.addCtor(DataId, CtorName, static_cast<uint32_t>(C.Fields.size()),
                  std::move(Fields));
      }
    }
  }

  void declareFunctions() {
    for (const SFunDecl &F : M.Funs) {
      Symbol Name = P.symbols().intern(F.Name);
      if (P.findFunction(Name) != InvalidId) {
        Diags.error(F.Loc, "duplicate function '" + std::string(F.Name) + "'");
        continue;
      }
      overLimit(F.Loc, F.ParamIds.size(), MaxCallArgs,
                named("function", F.Name), "parameters");
      std::vector<Symbol> Params;
      Params.reserve(F.ParamIds.size());
      for (size_t I = 0; I != F.ParamIds.size(); ++I) {
        NameId Pm = F.ParamIds[I];
        if (std::find(F.ParamIds.begin(), F.ParamIds.begin() + I, Pm) !=
            F.ParamIds.begin() + I)
          Diags.error(F.Loc,
                      "duplicate parameter '" + std::string(spelling(Pm)) +
                          "'");
        Params.push_back(makeBinder(Pm));
      }
      P.addFunction(Name, std::move(Params));
    }
  }

  /// Reports \p N \p Items on what \p What() names when the runtime
  /// encodes at most \p Max of them (the limits in ir/Program.h). Returns
  /// true then. \p What runs only then, so a compile within the limits
  /// builds no message.
  template <typename WhatFn>
  bool overLimit(SourceLoc Loc, size_t N, uint32_t Max, WhatFn What,
                 const char *Items) {
    if (N <= Max)
      return false;
    Diags.error(Loc, What() + " has " + std::to_string(N) + " " + Items +
                         "; at most " + std::to_string(Max) +
                         " are supported");
    return true;
  }

  //===--- Scope management -------------------------------------------------//

  /// A binder symbol: the bare name on first use, a fresh dotted name on
  /// any later use (keeping program-wide binder uniqueness while keeping
  /// the common case readable, e.g. the Figure 1 goldens).
  Symbol makeBinder(NameId Name) {
    if (!UsedBinder[Name]) {
      UsedBinder[Name] = true;
      return internName(Name);
    }
    return P.symbols().fresh(spelling(Name));
  }

  struct ScopeEntry {
    NameId Name;
    Symbol Sym;
  };

  void pushScope(NameId Name, Symbol Sym) { Scope.push_back({Name, Sym}); }
  void popScope(size_t Mark) { Scope.resize(Mark); }
  size_t scopeMark() const { return Scope.size(); }

  Symbol lookupLocal(NameId Name) const {
    for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
      if (It->Name == Name)
        return It->Sym;
    return Symbol();
  }

  //===--- Working lists ----------------------------------------------------//
  //
  // The IRBuilder copies every list it is handed into the program's arena,
  // so the resolver builds its argument lists, pattern rows and arms in a
  // working arena of its own that lives as long as one resolveModule.

  template <typename T> std::span<T> work(size_t N) {
    return {Work.allocateArray<T>(N), N};
  }

  std::span<const Expr *const>
  resolveAll(std::span<const SExpr *const> Es) {
    std::span<const Expr *> Out = work<const Expr *>(Es.size());
    for (size_t I = 0; I != Es.size(); ++I)
      Out[I] = resolveExpr(*Es[I]);
    return Out;
  }

  //===--- Functions --------------------------------------------------------//

  void resolveFunction(const SFunDecl &F) {
    FuncId Id = P.findFunction(P.symbols().intern(F.Name));
    if (Id == InvalidId)
      return; // duplicate reported earlier
    const FunctionDecl &Fn = P.function(Id);
    Fun = &F;
    Bodies = 0;
    BodyBudget = uint64_t(MatchBodiesPerArm) * F.MatchArms + MatchBodiesSlack;
    size_t Mark = scopeMark();
    for (size_t I = 0; I != F.ParamIds.size(); ++I)
      pushScope(F.ParamIds[I], Fn.Params[I]);
    const Expr *Body = resolveExpr(*F.Body);
    popScope(Mark);
    P.setBody(Id, Body);
  }

  //===--- Expressions ------------------------------------------------------//

  const Expr *resolveExpr(const SExpr &E) {
    switch (E.Kind) {
    case SExpr::K::IntLit:
      return B.litInt(E.Int, E.Loc);
    case SExpr::K::BoolLit:
      return B.litBool(E.Int != 0, E.Loc);
    case SExpr::K::Unit:
      return B.unit(E.Loc);
    case SExpr::K::Var: {
      if (Symbol S = lookupLocal(E.Id))
        return B.var(S, E.Loc);
      FuncId F = P.findFunction(internName(E.Id));
      if (F != InvalidId)
        return B.global(F, E.Loc);
      Diags.error(E.Loc, "unknown variable '" + std::string(E.Name) + "'");
      return B.unit(E.Loc);
    }
    case SExpr::K::Ctor:
      return resolveCtorApp(E);
    case SExpr::K::Call:
      return resolveCall(E);
    case SExpr::K::Binop:
      return resolveBinop(E);
    case SExpr::K::Unop:
      return resolveUnop(E);
    case SExpr::K::If: {
      const Expr *Cond = resolveExpr(*E.A);
      const Expr *Then = resolveExpr(*E.B);
      const Expr *Else = resolveExpr(*E.C);
      return B.iff(Cond, Then, Else, E.Loc);
    }
    case SExpr::K::Match:
      return resolveMatch(E);
    case SExpr::K::Lambda:
      return resolveLambda(E);
    case SExpr::K::Block:
      return resolveBlock(E, 0);
    }
    return B.unit(E.Loc);
  }

  const Expr *resolveBlock(const SExpr &E, size_t Index) {
    assert(Index < E.Stmts.size());
    const SStmt &S = E.Stmts[Index];
    bool Last = Index + 1 == E.Stmts.size();
    if (S.IsVal) {
      const Expr *Bound = resolveExpr(*S.E);
      Symbol X = makeBinder(S.Id);
      size_t Mark = scopeMark();
      pushScope(S.Id, X);
      const Expr *Body = Last ? B.unit(S.Loc) : resolveBlock(E, Index + 1);
      popScope(Mark);
      return B.let(X, Bound, Body, S.Loc);
    }
    const Expr *First = resolveExpr(*S.E);
    if (Last)
      return First;
    return B.seq(First, resolveBlock(E, Index + 1), S.Loc);
  }

  const Expr *resolveCtorApp(const SExpr &E) {
    CtorId C = P.findCtor(internName(E.Id));
    if (C == InvalidId) {
      Diags.error(E.Loc, "unknown constructor '" + std::string(E.Name) + "'");
      return B.unit(E.Loc);
    }
    const CtorDecl &D = P.ctor(C);
    if (E.Args.size() != D.Arity) {
      Diags.error(E.Loc, "constructor '" + std::string(E.Name) + "' expects " +
                             std::to_string(D.Arity) + " argument(s), got " +
                             std::to_string(E.Args.size()));
      return B.unit(E.Loc);
    }
    return B.con(C, resolveAll(E.Args), Symbol(), E.Loc);
  }

  const Expr *resolveCall(const SExpr &E) {
    if (overLimit(E.Loc, E.Args.size(), MaxCallArgs, unnamed("call"),
                  "arguments"))
      return B.unit(E.Loc);
    // Builtins take precedence unless shadowed by a local.
    if (E.A->Kind == SExpr::K::Var && !lookupLocal(E.A->Id)) {
      std::string_view Name = E.A->Name;
      if (Name == "println" || Name == "tshare" || Name == "abort" ||
          Name == "ref" || Name == "deref" || Name == "set-ref") {
        PrimOp Op = Name == "println"  ? PrimOp::PrintLn
                    : Name == "tshare" ? PrimOp::MarkShared
                    : Name == "ref"    ? PrimOp::RefNew
                    : Name == "deref"  ? PrimOp::RefGet
                    : Name == "set-ref" ? PrimOp::RefSet
                                        : PrimOp::Abort;
        unsigned Want = Name == "abort" ? 0 : (Name == "set-ref" ? 2 : 1);
        if (E.Args.size() != Want) {
          Diags.error(E.Loc, "'" + std::string(Name) + "' expects " +
                                 std::to_string(Want) + " argument(s)");
          return B.unit(E.Loc);
        }
        return B.prim(Op, resolveAll(E.Args), E.Loc);
      }
      FuncId F = P.findFunction(internName(E.A->Id));
      if (F != InvalidId &&
          P.function(F).Params.size() != E.Args.size()) {
        Diags.error(E.Loc, "function '" + std::string(Name) + "' expects " +
                               std::to_string(P.function(F).Params.size()) +
                               " argument(s), got " +
                               std::to_string(E.Args.size()));
        return B.unit(E.Loc);
      }
    }
    const Expr *Fn = resolveExpr(*E.A);
    return B.app(Fn, resolveAll(E.Args), E.Loc);
  }
  const Expr *resolveBinop(const SExpr &E) {
    // Short-circuiting boolean operators become conditionals.
    if (E.Op == TokKind::AndAnd) {
      return B.iff(resolveExpr(*E.A), resolveExpr(*E.B), B.litBool(false),
                   E.Loc);
    }
    if (E.Op == TokKind::OrOr) {
      return B.iff(resolveExpr(*E.A), B.litBool(true), resolveExpr(*E.B),
                   E.Loc);
    }
    PrimOp Op;
    switch (E.Op) {
    case TokKind::Plus:
      Op = PrimOp::Add;
      break;
    case TokKind::Minus:
      Op = PrimOp::Sub;
      break;
    case TokKind::Star:
      Op = PrimOp::Mul;
      break;
    case TokKind::Slash:
      Op = PrimOp::Div;
      break;
    case TokKind::Percent:
      Op = PrimOp::Mod;
      break;
    case TokKind::Lt:
      Op = PrimOp::Lt;
      break;
    case TokKind::Le:
      Op = PrimOp::Le;
      break;
    case TokKind::Gt:
      Op = PrimOp::Gt;
      break;
    case TokKind::Ge:
      Op = PrimOp::Ge;
      break;
    case TokKind::EqEq:
      Op = PrimOp::EqInt;
      break;
    case TokKind::NotEq:
      Op = PrimOp::NeInt;
      break;
    default:
      Diags.error(E.Loc, "unsupported binary operator");
      return B.unit(E.Loc);
    }
    return B.prim(Op, {resolveExpr(*E.A), resolveExpr(*E.B)}, E.Loc);
  }

  const Expr *resolveUnop(const SExpr &E) {
    if (E.Op == TokKind::Bang)
      return B.prim(PrimOp::Not, {resolveExpr(*E.A)}, E.Loc);
    // Unary minus: fold into literals, otherwise negate.
    if (E.A->Kind == SExpr::K::IntLit)
      return B.litInt(-E.A->Int, E.Loc);
    return B.prim(PrimOp::Neg, {resolveExpr(*E.A)}, E.Loc);
  }

  const Expr *resolveLambda(const SExpr &E) {
    if (overLimit(E.Loc, E.Params.size(), MaxCallArgs, unnamed("lambda"),
                  "parameters"))
      return B.unit(E.Loc);
    std::span<Symbol> Params = work<Symbol>(E.Params.size());
    size_t Mark = scopeMark();
    for (size_t I = 0; I != E.Params.size(); ++I) {
      Params[I] = makeBinder(E.Params[I]);
      pushScope(E.Params[I], Params[I]);
    }
    const Expr *Body = resolveExpr(*E.A);
    popScope(Mark);
    // Captures: free variables of the body minus the parameters
    // (Figure 4: lambda_ys x. e with ys = fv(lambda)), in symbol order.
    const VarSet &Free = FV.freeVars(Body);
    std::span<Symbol> Captures = work<Symbol>(Free.size());
    size_t NumCaptures = 0;
    for (Symbol X : Free)
      if (std::find(Params.begin(), Params.end(), X) == Params.end())
        Captures[NumCaptures++] = X;
    // A closure cell holds the code pointer plus one field per capture.
    overLimit(E.Loc, NumCaptures, MaxCellFields - 1, unnamed("lambda"),
              "captured variables");
    return B.lam(Params, Captures.first(NumCaptures), Body, E.Loc);
  }

  //===--- Pattern-matrix compilation ---------------------------------------//
  //
  // A row is one arm still in play: a pattern per remaining column, the
  // variable patterns already matched against a scrutinee (bound when the
  // row's body is reached), and the body. Rows, their pattern arrays and
  // their bindings live in the working arena; a specialized row shares
  // its parent's bindings unless it adds one.

  struct Binding {
    NameId Name;
    Symbol Sym;
  };

  struct Row {
    std::span<const SPat *const> Pats; // parallel to the variable list
    std::span<const Binding> Bindings;
    const SExpr *Body = nullptr;
  };

  static bool isRefutable(const SPat *Pat) {
    return Pat->Kind == SPat::K::Ctor || Pat->Kind == SPat::K::Int ||
           Pat->Kind == SPat::K::Bool;
  }

  const SPat *wildPat() {
    static SPat Wild; // Kind defaults to Wild
    return &Wild;
  }

  /// \p R without column \p Col, with \p Inner spliced in its place, and
  /// with \p Pat bound to \p ScrutVar if it is a variable pattern.
  Row specialize(const Row &R, size_t Col, std::span<const SPat *const> Inner,
                 Symbol ScrutVar) {
    const SPat *Pat = R.Pats[Col];
    Row NR;
    NR.Body = R.Body;
    NR.Bindings = R.Bindings;
    if (Pat->Kind == SPat::K::Var) {
      std::span<Binding> Bs = work<Binding>(R.Bindings.size() + 1);
      std::copy(R.Bindings.begin(), R.Bindings.end(), Bs.begin());
      Bs.back() = {Pat->Id, ScrutVar};
      NR.Bindings = Bs;
    }
    std::span<const SPat *> Pats =
        work<const SPat *>(R.Pats.size() - 1 + Inner.size());
    auto Out = std::copy(R.Pats.begin(), R.Pats.begin() + Col, Pats.begin());
    Out = std::copy(Inner.begin(), Inner.end(), Out);
    std::copy(R.Pats.begin() + Col + 1, R.Pats.end(), Out);
    NR.Pats = Pats;
    return NR;
  }

  /// \p Vars with column \p Col replaced by \p Inner.
  std::span<const Symbol> spliceVars(std::span<const Symbol> Vars, size_t Col,
                                     std::span<const Symbol> Inner) {
    std::span<Symbol> Out = work<Symbol>(Vars.size() - 1 + Inner.size());
    auto It = std::copy(Vars.begin(), Vars.begin() + Col, Out.begin());
    It = std::copy(Inner.begin(), Inner.end(), It);
    std::copy(Vars.begin() + Col + 1, Vars.end(), It);
    return Out;
  }

  const Expr *resolveMatch(const SExpr &E) {
    const Expr *Scrut = resolveExpr(*E.A);
    std::span<Row> Rows = work<Row>(E.Arms.size());
    for (size_t I = 0; I != E.Arms.size(); ++I)
      Rows[I] = {{&E.Arms[I].Pat, 1}, {}, E.Arms[I].Body};
    // The smatch rule needs a variable scrutinee; let-bind otherwise.
    if (const auto *V = dyn_cast<VarExpr>(Scrut)) {
      Symbol X = V->name();
      return compileMatch({&X, 1}, Rows, E.Loc);
    }
    if (ScrutineeName == NoName)
      ScrutineeName = idOf("match-scrutinee");
    Symbol Tmp = makeBinder(ScrutineeName);
    size_t Mark = scopeMark();
    pushScope(NoName, Tmp); // unnamed: unreachable from source code
    const Expr *Inner = compileMatch({&Tmp, 1}, Rows, E.Loc);
    popScope(Mark);
    return B.let(Tmp, Scrut, Inner, E.Loc);
  }

  const Expr *compileMatch(std::span<const Symbol> Vars,
                           std::span<const Row> Rows, SourceLoc Loc) {
    if (Rows.empty())
      return B.prim(PrimOp::Abort, {}, Loc);
    if (Bodies > BodyBudget)
      return B.unit(Loc); // reported once; the function is an error

    // If the first row is irrefutable it wins: bind its variables and
    // resolve its body, unless that passes the function's budget.
    const Row &First = Rows.front();
    assert(First.Pats.size() == Vars.size() && "ragged pattern matrix");
    if (std::none_of(First.Pats.begin(), First.Pats.end(), isRefutable)) {
      if (++Bodies > BodyBudget) {
        Diags.error(Loc, "function '" + std::string(Fun->Name) +
                             "' expands its " + std::to_string(Fun->MatchArms) +
                             " match arms to more than " +
                             std::to_string(BodyBudget) + " bodies; at most " +
                             std::to_string(MatchBodiesPerArm) +
                             " per arm plus " +
                             std::to_string(MatchBodiesSlack) +
                             " are supported");
        return B.unit(Loc);
      }
      size_t Mark = scopeMark();
      for (const Binding &Bind : First.Bindings)
        pushScope(Bind.Name, Bind.Sym);
      for (size_t I = 0; I != Vars.size(); ++I)
        if (First.Pats[I]->Kind == SPat::K::Var)
          pushScope(First.Pats[I]->Id, Vars[I]);
      const Expr *Body = resolveExpr(*First.Body);
      popScope(Mark);
      return Body;
    }

    // Pick the leftmost column where the first row is refutable.
    size_t Col = 0;
    while (!isRefutable(First.Pats[Col]))
      ++Col;
    Symbol ScrutVar = Vars[Col];

    // Literal column?
    if (First.Pats[Col]->Kind == SPat::K::Int ||
        First.Pats[Col]->Kind == SPat::K::Bool)
      return compileLiteralColumn(Vars, Rows, Col, Loc);

    // Constructor column: determine the data type.
    const SPat *FirstPat = First.Pats[Col];
    CtorId FirstCtor = P.findCtor(internName(FirstPat->Id));
    if (FirstCtor == InvalidId) {
      Diags.error(FirstPat->Loc, "unknown constructor '" +
                                     std::string(FirstPat->Name) +
                                     "' in pattern");
      return B.unit(Loc);
    }
    uint32_t DataId = P.ctor(FirstCtor).DataId;
    const DataDecl &Data = P.data(DataId);

    // Gather which constructors appear in this column, in data-decl order.
    std::span<bool> Appears = work<bool>(Data.Ctors.size());
    std::fill(Appears.begin(), Appears.end(), false);
    bool HasIrrefutableRow = false;
    for (const Row &R : Rows) {
      const SPat *Pat = R.Pats[Col];
      if (Pat->Kind == SPat::K::Ctor) {
        CtorId C = P.findCtor(internName(Pat->Id));
        if (C == InvalidId || P.ctor(C).DataId != DataId) {
          Diags.error(Pat->Loc, "constructor '" + std::string(Pat->Name) +
                                    "' does not belong to type '" +
                                    std::string(P.symbols().name(Data.Name)) +
                                    "'");
          return B.unit(Loc);
        }
        if (P.ctor(C).Arity != Pat->Sub.size()) {
          Diags.error(Pat->Loc, "pattern arity mismatch for '" +
                                    std::string(Pat->Name) + "'");
          return B.unit(Loc);
        }
        Appears[P.ctor(C).Tag] = true;
      } else if (Pat->Kind == SPat::K::Var || Pat->Kind == SPat::K::Wild) {
        HasIrrefutableRow = true;
      } else {
        Diags.error(Pat->Loc, "mixed literal and constructor patterns");
        return B.unit(Loc);
      }
    }

    bool AllCovered =
        std::find(Appears.begin(), Appears.end(), false) == Appears.end();

    std::span<MatchArm> Arms = work<MatchArm>(Data.Ctors.size() + 1);
    size_t NumArms = 0;
    for (size_t T = 0; T != Data.Ctors.size(); ++T) {
      if (!Appears[T])
        continue;
      CtorId C = Data.Ctors[T];
      const CtorDecl &CD = P.ctor(C);

      // Name the fresh binders after the first matching row's variable
      // subpatterns (so `Cons(x, xx)` produces binders `x`, `xx`), falling
      // back to declared field names.
      const SPat *NamePat = nullptr;
      for (const Row &R : Rows)
        if (R.Pats[Col]->Kind == SPat::K::Ctor &&
            P.findCtor(internName(R.Pats[Col]->Id)) == C) {
          NamePat = R.Pats[Col];
          break;
        }
      std::span<Symbol> Binders = work<Symbol>(CD.Arity);
      for (uint32_t I = 0; I != CD.Arity; ++I) {
        NameId BaseName;
        if (NamePat && NamePat->Sub[I]->Kind == SPat::K::Var)
          BaseName = NamePat->Sub[I]->Id;
        else if (I < CD.FieldNames.size() && CD.FieldNames[I].isValid())
          BaseName = idOf(P.symbols().name(CD.FieldNames[I]));
        else
          BaseName = idOf("field");
        Binders[I] = makeBinder(BaseName);
      }

      // Specialized submatrix: rows of this constructor contribute their
      // subpatterns, irrefutable rows one wildcard per field.
      std::span<const SPat *> Wilds = work<const SPat *>(CD.Arity);
      std::fill(Wilds.begin(), Wilds.end(), wildPat());
      std::span<Row> SubRows = work<Row>(Rows.size());
      size_t NumSubRows = 0;
      for (const Row &R : Rows) {
        const SPat *Pat = R.Pats[Col];
        if (Pat->Kind == SPat::K::Ctor) {
          if (P.findCtor(internName(Pat->Id)) != C)
            continue; // this row cannot match this constructor
          SubRows[NumSubRows++] = specialize(R, Col, Pat->Sub, ScrutVar);
        } else { // Var or Wild: matches any constructor
          SubRows[NumSubRows++] = specialize(R, Col, Wilds, ScrutVar);
        }
      }

      const Expr *Body = compileMatch(spliceVars(Vars, Col, Binders),
                                      SubRows.first(NumSubRows), Loc);
      Arms[NumArms++] = B.ctorArm(C, Binders, Body);
    }

    if (!AllCovered) {
      // Default arm: rows with an irrefutable pattern in this column.
      if (!HasIrrefutableRow) {
        Arms[NumArms++] = B.defaultArm(B.prim(PrimOp::Abort, {}, Loc));
      } else {
        std::span<Row> SubRows = work<Row>(Rows.size());
        size_t NumSubRows = 0;
        for (const Row &R : Rows)
          if (R.Pats[Col]->Kind != SPat::K::Ctor)
            SubRows[NumSubRows++] = specialize(R, Col, {}, ScrutVar);
        Arms[NumArms++] = B.defaultArm(compileMatch(
            spliceVars(Vars, Col, {}), SubRows.first(NumSubRows), Loc));
      }
    }

    return B.match(ScrutVar, Arms.first(NumArms), Loc);
  }

  const Expr *compileLiteralColumn(std::span<const Symbol> Vars,
                                   std::span<const Row> Rows, size_t Col,
                                   SourceLoc Loc) {
    Symbol ScrutVar = Vars[Col];
    bool IsBool = Rows.front().Pats[Col]->Kind == SPat::K::Bool;

    // Distinct literal values in first-occurrence order.
    std::span<int64_t> Values = work<int64_t>(Rows.size());
    size_t NumValues = 0;
    bool HasIrrefutableRow = false;
    for (const Row &R : Rows) {
      const SPat *Pat = R.Pats[Col];
      if (Pat->Kind == SPat::K::Var || Pat->Kind == SPat::K::Wild) {
        HasIrrefutableRow = true;
        continue;
      }
      if ((IsBool && Pat->Kind != SPat::K::Bool) ||
          (!IsBool && Pat->Kind != SPat::K::Int)) {
        Diags.error(Pat->Loc, "mixed literal pattern kinds");
        return B.unit(Loc);
      }
      if (std::find(Values.begin(), Values.begin() + NumValues, Pat->Int) ==
          Values.begin() + NumValues)
        Values[NumValues++] = Pat->Int;
    }

    std::span<const Symbol> SubVars = spliceVars(Vars, Col, {});

    auto subRowsFor = [&](int64_t Value, bool ForDefault) {
      std::span<Row> SubRows = work<Row>(Rows.size());
      size_t N = 0;
      for (const Row &R : Rows) {
        const SPat *Pat = R.Pats[Col];
        bool RowMatches;
        if (Pat->Kind == SPat::K::Var || Pat->Kind == SPat::K::Wild)
          RowMatches = true;
        else
          RowMatches = !ForDefault && Pat->Int == Value;
        if (RowMatches)
          SubRows[N++] = specialize(R, Col, {}, ScrutVar);
      }
      return std::span<const Row>(SubRows.first(N));
    };

    std::span<MatchArm> Arms = work<MatchArm>(NumValues + 1);
    size_t NumArms = 0;
    for (int64_t V : Values.first(NumValues)) {
      const Expr *Body = compileMatch(SubVars, subRowsFor(V, false), Loc);
      Arms[NumArms++] = IsBool ? B.boolArm(V != 0, Body) : B.intArm(V, Body);
    }
    // Bool matches covering both values need no default.
    bool Covered = IsBool && NumValues == 2;
    if (!Covered) {
      const Expr *Body = HasIrrefutableRow
                             ? compileMatch(SubVars, subRowsFor(0, true), Loc)
                             : B.prim(PrimOp::Abort, {}, Loc);
      Arms[NumArms++] = B.defaultArm(Body);
    }
    return B.match(ScrutVar, Arms.first(NumArms), Loc);
  }

  const SModule &M;
  Program &P;
  IRBuilder B;
  DiagnosticEngine &Diags;
  /// One memo for the module: an enclosing lambda reuses the sets of the
  /// lambdas nested in its body.
  FreeVarAnalysis FV;
  Arena Work; ///< the working lists below; freed with the resolver
  std::vector<ScopeEntry> Scope;
  /// Spellings of the ids past the module's: literals, or names that
  /// the program's symbol table keeps for longer than the resolver runs.
  std::vector<std::string_view> Extra;
  std::vector<Symbol> Interned;    ///< by NameId; invalid until interned
  std::vector<bool> UsedBinder;    ///< by NameId: some binder has the name
  NameId ScrutineeName = NoName;
  /// The function being resolved, the match-arm bodies resolved in it so
  /// far, and how many it may resolve (ir/Program.h).
  const SFunDecl *Fun = nullptr;
  uint64_t Bodies = 0;
  uint64_t BodyBudget = 0;
};

} // namespace

bool perceus::resolveModule(const SModule &M, Program &P,
                            DiagnosticEngine &Diags) {
  return ResolverImpl(M, P, Diags).run();
}

bool perceus::compileSource(std::string_view Source, Program &P,
                            DiagnosticEngine &Diags) {
  SModule M = parseModule(Source, Diags);
  if (Diags.hasErrors())
    return false;
  return resolveModule(M, P, Diags);
}

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

#include <unordered_map>
#include <unordered_set>

using namespace perceus;

namespace {

class ResolverImpl {
public:
  ResolverImpl(const SModule &M, Program &P, DiagnosticEngine &Diags)
      : M(M), P(P), B(P), Diags(Diags) {}

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
  //===--- Declarations ----------------------------------------------------//

  void declareTypes() {
    for (const STypeDecl &T : M.Types) {
      Symbol TypeName = P.symbols().intern(T.Name);
      if (P.findData(TypeName) != InvalidId) {
        Diags.error(T.Loc, "duplicate type '" + T.Name + "'");
        continue;
      }
      uint32_t DataId = P.addData(TypeName);
      overLimit(T.Loc, T.Ctors.size(), MaxTypeCtors, "type '" + T.Name + "'",
                "constructors");
      for (const SCtorDecl &C : T.Ctors) {
        Symbol CtorName = P.symbols().intern(C.Name);
        if (P.findCtor(CtorName) != InvalidId) {
          Diags.error(C.Loc, "duplicate constructor '" + C.Name + "'");
          continue;
        }
        overLimit(C.Loc, C.Fields.size(), MaxCellFields,
                  "constructor '" + C.Name + "'", "fields");
        std::vector<Symbol> Fields;
        for (const std::string &F : C.Fields)
          Fields.push_back(P.symbols().intern(F));
        P.addCtor(DataId, CtorName, static_cast<uint32_t>(C.Fields.size()),
                  std::move(Fields));
      }
    }
  }

  void declareFunctions() {
    for (const SFunDecl &F : M.Funs) {
      Symbol Name = P.symbols().intern(F.Name);
      if (P.findFunction(Name) != InvalidId) {
        Diags.error(F.Loc, "duplicate function '" + F.Name + "'");
        continue;
      }
      overLimit(F.Loc, F.Params.size(), MaxCallArgs,
                "function '" + F.Name + "'", "parameters");
      std::vector<Symbol> Params;
      std::unordered_set<std::string> Seen;
      for (const std::string &Pm : F.Params) {
        if (!Seen.insert(Pm).second)
          Diags.error(F.Loc, "duplicate parameter '" + Pm + "'");
        Params.push_back(makeBinder(Pm));
      }
      P.addFunction(Name, std::move(Params));
    }
  }

  /// Reports \p What having \p N \p Items when the runtime encodes at
  /// most \p Max of them (the limits in ir/Program.h). Returns true then.
  bool overLimit(SourceLoc Loc, size_t N, uint32_t Max,
                 const std::string &What, const char *Items) {
    if (N <= Max)
      return false;
    Diags.error(Loc, What + " has " + std::to_string(N) + " " + Items +
                         "; at most " + std::to_string(Max) +
                         " are supported");
    return true;
  }

  //===--- Scope management -------------------------------------------------//

  /// A binder symbol: the bare name on first use, a fresh dotted name on
  /// any later use (keeping program-wide binder uniqueness while keeping
  /// the common case readable, e.g. the Figure 1 goldens).
  Symbol makeBinder(const std::string &Name) {
    if (UsedBinderNames.insert(Name).second)
      return P.symbols().intern(Name);
    return P.symbols().fresh(Name);
  }

  struct ScopeEntry {
    std::string Name;
    Symbol Sym;
  };

  void pushScope(const std::string &Name, Symbol Sym) {
    Scope.push_back({Name, Sym});
  }
  void popScope(size_t Mark) { Scope.resize(Mark); }
  size_t scopeMark() const { return Scope.size(); }

  Symbol lookupLocal(const std::string &Name) const {
    for (auto It = Scope.rbegin(); It != Scope.rend(); ++It)
      if (It->Name == Name)
        return It->Sym;
    return Symbol();
  }

  //===--- Functions --------------------------------------------------------//

  void resolveFunction(const SFunDecl &F) {
    FuncId Id = P.findFunction(P.symbols().intern(F.Name));
    if (Id == InvalidId)
      return; // duplicate reported earlier
    const FunctionDecl &Fn = P.function(Id);
    size_t Mark = scopeMark();
    for (size_t I = 0; I != F.Params.size(); ++I)
      pushScope(F.Params[I], Fn.Params[I]);
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
      if (Symbol S = lookupLocal(E.Name))
        return B.var(S, E.Loc);
      FuncId F = P.findFunction(P.symbols().intern(E.Name));
      if (F != InvalidId)
        return B.global(F, E.Loc);
      Diags.error(E.Loc, "unknown variable '" + E.Name + "'");
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
      Symbol X = makeBinder(S.Name);
      size_t Mark = scopeMark();
      pushScope(S.Name, X);
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
    CtorId C = P.findCtor(P.symbols().intern(E.Name));
    if (C == InvalidId) {
      Diags.error(E.Loc, "unknown constructor '" + E.Name + "'");
      return B.unit(E.Loc);
    }
    const CtorDecl &D = P.ctor(C);
    if (E.Args.size() != D.Arity) {
      Diags.error(E.Loc, "constructor '" + E.Name + "' expects " +
                             std::to_string(D.Arity) + " argument(s), got " +
                             std::to_string(E.Args.size()));
      return B.unit(E.Loc);
    }
    std::vector<const Expr *> Args;
    for (const SExprPtr &A : E.Args)
      Args.push_back(resolveExpr(*A));
    return B.con(C, std::span<const Expr *const>(Args.data(), Args.size()),
                 Symbol(), E.Loc);
  }

  const Expr *resolveCall(const SExpr &E) {
    if (overLimit(E.Loc, E.Args.size(), MaxCallArgs, "call", "arguments"))
      return B.unit(E.Loc);
    // Builtins take precedence unless shadowed by a local.
    if (E.A->Kind == SExpr::K::Var && !lookupLocal(E.A->Name)) {
      const std::string &Name = E.A->Name;
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
          Diags.error(E.Loc, "'" + Name + "' expects " +
                                 std::to_string(Want) + " argument(s)");
          return B.unit(E.Loc);
        }
        std::vector<const Expr *> Args;
        for (const SExprPtr &A : E.Args)
          Args.push_back(resolveExpr(*A));
        return B.prim(Op,
                      std::span<const Expr *const>(Args.data(), Args.size()),
                      E.Loc);
      }
      FuncId F = P.findFunction(P.symbols().intern(Name));
      if (F != InvalidId &&
          P.function(F).Params.size() != E.Args.size()) {
        Diags.error(E.Loc, "function '" + Name + "' expects " +
                               std::to_string(P.function(F).Params.size()) +
                               " argument(s), got " +
                               std::to_string(E.Args.size()));
        return B.unit(E.Loc);
      }
    }
    const Expr *Fn = resolveExpr(*E.A);
    std::vector<const Expr *> Args;
    for (const SExprPtr &A : E.Args)
      Args.push_back(resolveExpr(*A));
    return B.app(Fn, std::span<const Expr *const>(Args.data(), Args.size()),
                 E.Loc);
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
    if (overLimit(E.Loc, E.Params.size(), MaxCallArgs, "lambda", "parameters"))
      return B.unit(E.Loc);
    std::vector<Symbol> Params;
    size_t Mark = scopeMark();
    for (const std::string &Pm : E.Params) {
      Symbol S = makeBinder(Pm);
      Params.push_back(S);
      pushScope(Pm, S);
    }
    const Expr *Body = resolveExpr(*E.A);
    popScope(Mark);
    // Captures: free variables of the body minus the parameters
    // (Figure 4: lambda_ys x. e with ys = fv(lambda)).
    FreeVarAnalysis FV;
    VarSet Free = FV.freeVars(Body);
    for (Symbol Pm : Params)
      Free.erase(Pm);
    std::vector<Symbol> Captures(Free.begin(), Free.end());
    // A closure cell holds the code pointer plus one field per capture.
    overLimit(E.Loc, Captures.size(), MaxCellFields - 1, "lambda",
              "captured variables");
    return B.lam(std::span<const Symbol>(Params.data(), Params.size()),
                 std::span<const Symbol>(Captures.data(), Captures.size()),
                 Body, E.Loc);
  }

  //===--- Pattern-matrix compilation ---------------------------------------//

  struct Row {
    std::vector<const SPat *> Pats; // parallel to the variable vector
    const SExpr *Body = nullptr;
    std::vector<ScopeEntry> Bindings; // accumulated var-pattern aliases
    SourceLoc Loc;
  };

  static bool isRefutable(const SPat *Pat) {
    return Pat->Kind == SPat::K::Ctor || Pat->Kind == SPat::K::Int ||
           Pat->Kind == SPat::K::Bool;
  }

  const SPat *wildPat() {
    static SPat Wild; // Kind defaults to Wild
    return &Wild;
  }

  const Expr *resolveMatch(const SExpr &E) {
    const Expr *Scrut = resolveExpr(*E.A);
    std::vector<Row> Rows;
    for (const SMatchArm &Arm : E.Arms) {
      Row R;
      R.Pats.push_back(Arm.Pat.get());
      R.Body = Arm.Body.get();
      R.Loc = Arm.Pat->Loc;
      Rows.push_back(std::move(R));
    }
    // The smatch rule needs a variable scrutinee; let-bind otherwise.
    if (const auto *V = dyn_cast<VarExpr>(Scrut))
      return compileMatch({V->name()}, std::move(Rows), E.Loc);
    Symbol Tmp = makeBinder("match-scrutinee");
    size_t Mark = scopeMark();
    pushScope("", Tmp); // unnamed: unreachable from source code
    const Expr *Inner = compileMatch({Tmp}, std::move(Rows), E.Loc);
    popScope(Mark);
    return B.let(Tmp, Scrut, Inner, E.Loc);
  }

  const Expr *compileMatch(std::vector<Symbol> Vars, std::vector<Row> Rows,
                           SourceLoc Loc) {
    if (Rows.empty())
      return B.prim(PrimOp::Abort, {}, Loc);

    // If the first row is irrefutable it wins: bind its variables and
    // resolve its body.
    Row &First = Rows.front();
    assert(First.Pats.size() == Vars.size() && "ragged pattern matrix");
    bool Irrefutable = true;
    for (const SPat *Pat : First.Pats)
      if (isRefutable(Pat)) {
        Irrefutable = false;
        break;
      }
    if (Irrefutable) {
      size_t Mark = scopeMark();
      for (const ScopeEntry &Bind : First.Bindings)
        pushScope(Bind.Name, Bind.Sym);
      for (size_t I = 0; I != Vars.size(); ++I)
        if (First.Pats[I]->Kind == SPat::K::Var)
          pushScope(First.Pats[I]->Name, Vars[I]);
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
    CtorId FirstCtor =
        P.findCtor(P.symbols().intern(First.Pats[Col]->Name));
    if (FirstCtor == InvalidId) {
      Diags.error(First.Pats[Col]->Loc,
                  "unknown constructor '" + First.Pats[Col]->Name +
                      "' in pattern");
      return B.unit(Loc);
    }
    uint32_t DataId = P.ctor(FirstCtor).DataId;
    const DataDecl &Data = P.data(DataId);

    // Gather which constructors appear in this column, in data-decl order.
    std::vector<bool> Appears(Data.Ctors.size(), false);
    bool HasIrrefutableRow = false;
    for (Row &R : Rows) {
      const SPat *Pat = R.Pats[Col];
      if (Pat->Kind == SPat::K::Ctor) {
        CtorId C = P.findCtor(P.symbols().intern(Pat->Name));
        if (C == InvalidId || P.ctor(C).DataId != DataId) {
          Diags.error(Pat->Loc, "constructor '" + Pat->Name +
                                    "' does not belong to type '" +
                                    std::string(P.symbols().name(Data.Name)) +
                                    "'");
          return B.unit(Loc);
        }
        if (P.ctor(C).Arity != Pat->Sub.size()) {
          Diags.error(Pat->Loc,
                      "pattern arity mismatch for '" + Pat->Name + "'");
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

    bool AllCovered = true;
    for (size_t T = 0; T != Appears.size(); ++T)
      if (!Appears[T])
        AllCovered = false;

    std::vector<MatchArm> Arms;
    for (size_t T = 0; T != Data.Ctors.size(); ++T) {
      if (!Appears[T])
        continue;
      CtorId C = Data.Ctors[T];
      const CtorDecl &CD = P.ctor(C);

      // Name the fresh binders after the first matching row's variable
      // subpatterns (so `Cons(x, xx)` produces binders `x`, `xx`), falling
      // back to declared field names.
      std::vector<Symbol> Binders;
      const SPat *NamePat = nullptr;
      for (Row &R : Rows)
        if (R.Pats[Col]->Kind == SPat::K::Ctor &&
            P.findCtor(P.symbols().intern(R.Pats[Col]->Name)) == C) {
          NamePat = R.Pats[Col];
          break;
        }
      for (uint32_t I = 0; I != CD.Arity; ++I) {
        std::string BaseName;
        if (NamePat && NamePat->Sub[I]->Kind == SPat::K::Var)
          BaseName = NamePat->Sub[I]->Name;
        else if (I < CD.FieldNames.size() && CD.FieldNames[I].isValid())
          BaseName = std::string(P.symbols().name(CD.FieldNames[I]));
        else
          BaseName = "field";
        Binders.push_back(makeBinder(BaseName));
      }

      // Specialized submatrix.
      std::vector<Symbol> SubVars;
      SubVars.insert(SubVars.end(), Vars.begin(), Vars.begin() + Col);
      SubVars.insert(SubVars.end(), Binders.begin(), Binders.end());
      SubVars.insert(SubVars.end(), Vars.begin() + Col + 1, Vars.end());

      std::vector<Row> SubRows;
      for (Row &R : Rows) {
        const SPat *Pat = R.Pats[Col];
        Row NR;
        NR.Body = R.Body;
        NR.Bindings = R.Bindings;
        NR.Loc = R.Loc;
        NR.Pats.insert(NR.Pats.end(), R.Pats.begin(), R.Pats.begin() + Col);
        if (Pat->Kind == SPat::K::Ctor) {
          if (P.findCtor(P.symbols().intern(Pat->Name)) != C)
            continue; // this row cannot match this constructor
          for (const SPatPtr &Sub : Pat->Sub)
            NR.Pats.push_back(Sub.get());
        } else { // Var or Wild: matches any constructor
          if (Pat->Kind == SPat::K::Var)
            NR.Bindings.push_back({Pat->Name, ScrutVar});
          for (uint32_t I = 0; I != CD.Arity; ++I)
            NR.Pats.push_back(wildPat());
        }
        NR.Pats.insert(NR.Pats.end(), R.Pats.begin() + Col + 1,
                       R.Pats.end());
        SubRows.push_back(std::move(NR));
      }

      const Expr *Body = compileMatch(SubVars, std::move(SubRows), Loc);
      Arms.push_back(
          B.ctorArm(C, std::span<const Symbol>(Binders.data(),
                                               Binders.size()),
                    Body));
    }

    if (!AllCovered) {
      // Default arm: rows with an irrefutable pattern in this column.
      std::vector<Symbol> SubVars;
      SubVars.insert(SubVars.end(), Vars.begin(), Vars.begin() + Col);
      SubVars.insert(SubVars.end(), Vars.begin() + Col + 1, Vars.end());
      std::vector<Row> SubRows;
      for (Row &R : Rows) {
        const SPat *Pat = R.Pats[Col];
        if (Pat->Kind == SPat::K::Ctor)
          continue;
        Row NR;
        NR.Body = R.Body;
        NR.Bindings = R.Bindings;
        NR.Loc = R.Loc;
        if (Pat->Kind == SPat::K::Var)
          NR.Bindings.push_back({Pat->Name, ScrutVar});
        NR.Pats.insert(NR.Pats.end(), R.Pats.begin(), R.Pats.begin() + Col);
        NR.Pats.insert(NR.Pats.end(), R.Pats.begin() + Col + 1,
                       R.Pats.end());
        SubRows.push_back(std::move(NR));
      }
      if (!HasIrrefutableRow) {
        Arms.push_back(B.defaultArm(B.prim(PrimOp::Abort, {}, Loc)));
      } else {
        Arms.push_back(
            B.defaultArm(compileMatch(SubVars, std::move(SubRows), Loc)));
      }
    }

    return B.match(ScrutVar,
                   std::span<const MatchArm>(Arms.data(), Arms.size()), Loc);
  }

  const Expr *compileLiteralColumn(std::vector<Symbol> &Vars,
                                   std::vector<Row> &Rows, size_t Col,
                                   SourceLoc Loc) {
    Symbol ScrutVar = Vars[Col];
    bool IsBool = Rows.front().Pats[Col]->Kind == SPat::K::Bool;

    // Distinct literal values in first-occurrence order.
    std::vector<int64_t> Values;
    bool HasIrrefutableRow = false;
    for (Row &R : Rows) {
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
      if (std::find(Values.begin(), Values.end(), Pat->Int) == Values.end())
        Values.push_back(Pat->Int);
    }

    std::vector<Symbol> SubVars;
    SubVars.insert(SubVars.end(), Vars.begin(), Vars.begin() + Col);
    SubVars.insert(SubVars.end(), Vars.begin() + Col + 1, Vars.end());

    auto subRowsFor = [&](int64_t Value, bool ForDefault) {
      std::vector<Row> SubRows;
      for (Row &R : Rows) {
        const SPat *Pat = R.Pats[Col];
        bool RowMatches;
        if (Pat->Kind == SPat::K::Var || Pat->Kind == SPat::K::Wild)
          RowMatches = true;
        else
          RowMatches = !ForDefault && Pat->Int == Value;
        if (!RowMatches)
          continue;
        Row NR;
        NR.Body = R.Body;
        NR.Bindings = R.Bindings;
        NR.Loc = R.Loc;
        if (Pat->Kind == SPat::K::Var)
          NR.Bindings.push_back({Pat->Name, ScrutVar});
        NR.Pats.insert(NR.Pats.end(), R.Pats.begin(), R.Pats.begin() + Col);
        NR.Pats.insert(NR.Pats.end(), R.Pats.begin() + Col + 1,
                       R.Pats.end());
        SubRows.push_back(std::move(NR));
      }
      return SubRows;
    };

    std::vector<MatchArm> Arms;
    for (int64_t V : Values) {
      const Expr *Body = compileMatch(SubVars, subRowsFor(V, false), Loc);
      Arms.push_back(IsBool ? B.boolArm(V != 0, Body) : B.intArm(V, Body));
    }
    // Bool matches covering both values need no default.
    bool Covered = IsBool && Values.size() == 2;
    if (!Covered) {
      const Expr *Body = HasIrrefutableRow
                             ? compileMatch(SubVars, subRowsFor(0, true), Loc)
                             : B.prim(PrimOp::Abort, {}, Loc);
      Arms.push_back(B.defaultArm(Body));
    }
    return B.match(ScrutVar,
                   std::span<const MatchArm>(Arms.data(), Arms.size()), Loc);
  }

  const SModule &M;
  Program &P;
  IRBuilder B;
  DiagnosticEngine &Diags;
  std::vector<ScopeEntry> Scope;
  std::unordered_set<std::string> UsedBinderNames;
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

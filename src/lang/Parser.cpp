//===- lang/Parser.cpp - Surface language parser -----------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "ir/Program.h"

#include <cassert>
#include <cstring>

using namespace perceus;

namespace {

class ParserImpl {
public:
  ParserImpl(SModule &M, std::vector<Token> Toks, DiagnosticEngine &Diags)
      : M(M), Toks(std::move(Toks)), Diags(Diags) {}

  void parse() {
    internNames();
    while (!at(TokKind::Eof)) {
      if (at(TokKind::KwType)) {
        M.Types.push_back(parseTypeDecl());
      } else if (at(TokKind::KwFun)) {
        M.Funs.push_back(parseFunDecl());
      } else {
        error("expected 'type' or 'fun' at top level");
        recoverToDecl();
      }
    }
  }

private:
  //===--- Names and lists -------------------------------------------------//

  static bool isName(TokKind K) {
    return K == TokKind::Ident || K == TokKind::CtorIdent;
  }

  /// Gives every identifier token its NameId up front, in token order.
  void internNames() {
    size_t Idents = 0;
    for (const Token &T : Toks)
      Idents += isName(T.Kind);
    M.Names.reserve(Idents);
    TokName.resize(Toks.size(), NoName);
    for (size_t I = 0; I != Toks.size(); ++I)
      if (isName(Toks[I].Kind))
        TokName[I] = M.Names.intern(Toks[I].Text);
  }

  struct Name {
    std::string_view Text;
    NameId Id;
  };

  /// Consumes the current token as a name. Where an identifier was
  /// expected but is missing, the token found stands in (after the
  /// diagnostic), spelling and all.
  Name takeName(TokKind K, const char *Context) {
    size_t At = Pos;
    std::string_view Text = expect(K, Context).Text;
    NameId Id = TokName[At] != NoName ? TokName[At] : M.Names.intern(Text);
    return {Text, Id};
  }

  /// Copies the items pushed on \p Stack since \p Mark into the arena and
  /// pops them. Lists nest, so every list of one item type shares a stack.
  template <typename T>
  std::span<const T> takeList(std::vector<T> &Stack, size_t Mark) {
    size_t N = Stack.size() - Mark;
    std::span<const T> L(M.Mem.copyArray(Stack.data() + Mark, N), N);
    Stack.resize(Mark);
    return L;
  }

  //===--- Token plumbing --------------------------------------------------//

  const Token &cur() const { return Toks[Pos]; }
  bool at(TokKind K) const { return cur().Kind == K; }

  Token advance() { return Toks[Pos == Toks.size() - 1 ? Pos : Pos++]; }

  bool accept(TokKind K) {
    if (!at(K))
      return false;
    advance();
    return true;
  }

  Token expect(TokKind K, const char *Context) {
    if (at(K))
      return advance();
    error(std::string("expected ") + tokKindName(K) + " " + Context +
          ", found " + tokKindName(cur().Kind));
    return cur();
  }

  void error(std::string Msg) {
    if (!TooDeep)
      Diags.error(cur().Loc, std::move(Msg));
  }

  void recoverToDecl() {
    while (!at(TokKind::Eof) && !at(TokKind::KwFun) && !at(TokKind::KwType))
      advance();
  }

  //===--- Nesting budget --------------------------------------------------//
  //
  // Every stage after the parser recurses over the tree, so its depth is
  // native stack. Depth counts the levels open where the parser stands:
  // one per block, if, lambda, parenthesis, unary operator, and
  // constructor or call argument list; two per match and per nested
  // pattern, which pattern compilation turns into two recursive steps
  // each; and one per term of a chain the parser builds in a loop (a
  // binary operator, a block statement after the first, a call in
  // `f(a)(b)`), counted from that term on. Past MaxExprDepth the parser
  // reports once and jumps to the end of input, so every open level
  // unwinds without descending.

  /// Restores the depth when the construct that raised it ends.
  class DepthScope {
  public:
    explicit DepthScope(ParserImpl &P) : P(P), Saved(P.Depth) {}
    ~DepthScope() { P.Depth = Saved; }

  private:
    ParserImpl &P;
    uint32_t Saved;
  };

  /// Opens \p Levels more levels; false (after the one diagnostic) past
  /// the budget.
  bool deeper(uint32_t Levels = 1) {
    Depth += Levels;
    if (Depth <= MaxExprDepth)
      return true;
    if (!TooDeep) {
      error("expression nests " + std::to_string(Depth) + " levels; at most " +
            std::to_string(MaxExprDepth) + " are supported");
      TooDeep = true;
      Pos = Toks.size() - 1; // the Eof token
    }
    return false;
  }

  SExpr *makeExpr(SExpr::K Kind, SourceLoc Loc) {
    SExpr *E = M.Mem.make<SExpr>();
    E->Kind = Kind;
    E->Loc = Loc;
    return E;
  }

  //===--- Declarations ----------------------------------------------------//

  STypeDecl parseTypeDecl() {
    STypeDecl D;
    D.Loc = cur().Loc;
    expect(TokKind::KwType, "to begin a type declaration");
    // Type names are lowercase in the paper's programs ("type list"),
    // but uppercase is accepted too.
    if (at(TokKind::Ident) || at(TokKind::CtorIdent)) {
      D.Name = advance().Text;
    } else {
      error("expected a type name");
    }
    expect(TokKind::LBrace, "to begin the constructor list");
    size_t CtorMark = CtorStack.size();
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      if (accept(TokKind::Semi))
        continue;
      if (!at(TokKind::CtorIdent)) {
        error("expected a constructor name");
        advance();
        continue;
      }
      SCtorDecl C;
      C.Loc = cur().Loc;
      C.Name = advance().Text;
      if (accept(TokKind::LParen)) {
        size_t Mark = NameStack.size();
        if (!at(TokKind::RParen)) {
          do {
            // Field entries are `name` or `name : type`; types are
            // accepted and ignored (the core language is untyped).
            NameStack.push_back(takeName(TokKind::Ident, "as a field name").Id);
            skipOptionalTypeAnnotation();
          } while (accept(TokKind::Comma));
        }
        C.Fields = takeList(NameStack, Mark);
        expect(TokKind::RParen, "to close the field list");
      }
      CtorStack.push_back(C);
    }
    D.Ctors = takeList(CtorStack, CtorMark);
    expect(TokKind::RBrace, "to close the type declaration");
    return D;
  }

  /// Accepts and discards `: ident` / `: Ctor` style annotations.
  void skipOptionalTypeAnnotation() {
    // The lexer has no ':' token; annotations are not part of the core
    // grammar. Kept as a hook for future extension.
  }

  SFunDecl parseFunDecl() {
    SFunDecl D;
    D.Loc = cur().Loc;
    expect(TokKind::KwFun, "to begin a function");
    D.Name = expect(TokKind::Ident, "as the function name").Text;
    expect(TokKind::LParen, "to begin the parameter list");
    size_t Mark = NameStack.size();
    if (!at(TokKind::RParen)) {
      do {
        NameStack.push_back(takeName(TokKind::Ident, "as a parameter name").Id);
      } while (accept(TokKind::Comma));
    }
    D.ParamIds = takeList(NameStack, Mark);
    D.Params.reserve(D.ParamIds.size());
    for (NameId Pm : D.ParamIds)
      D.Params.emplace_back(M.Names.name(Pm));
    expect(TokKind::RParen, "to close the parameter list");
    uint32_t ArmsBefore = MatchArms;
    D.Body = parseBlock();
    D.MatchArms = MatchArms - ArmsBefore;
    return D;
  }

  //===--- Expressions -----------------------------------------------------//

  SExpr *parseBlock() {
    SourceLoc Loc = cur().Loc;
    DepthScope Scope(*this);
    deeper();
    expect(TokKind::LBrace, "to begin a block");
    SExpr *B = makeExpr(SExpr::K::Block, Loc);
    size_t Mark = StmtStack.size();
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      if (accept(TokKind::Semi))
        continue;
      // Each statement nests the rest of the block (a let or a sequence).
      if (StmtStack.size() != Mark && !deeper())
        break;
      SStmt S;
      S.Loc = cur().Loc;
      if (accept(TokKind::KwVal)) {
        S.IsVal = true;
        Name X = takeName(TokKind::Ident, "as the binding name");
        S.Name = X.Text;
        S.Id = X.Id;
        expect(TokKind::Assign, "after the binding name");
      }
      S.E = parseExpr();
      StmtStack.push_back(S);
    }
    expect(TokKind::RBrace, "to close the block");
    if (StmtStack.size() == Mark) {
      SStmt S;
      S.Loc = Loc;
      S.E = makeExpr(SExpr::K::Unit, Loc);
      StmtStack.push_back(S);
    }
    B->Stmts = takeList(StmtStack, Mark);
    return B;
  }

  SExpr *parseExpr() {
    if (at(TokKind::KwIf))
      return parseIf();
    if (at(TokKind::KwMatch))
      return parseMatch();
    if (at(TokKind::KwFn))
      return parseLambda();
    return parseBinary(0);
  }

  SExpr *parseIf() {
    SourceLoc Loc = cur().Loc;
    DepthScope Scope(*this);
    deeper();
    expect(TokKind::KwIf, "to begin an if");
    SExpr *E = makeExpr(SExpr::K::If, Loc);
    E->A = parseExpr();
    if (at(TokKind::LBrace)) {
      E->B = parseBlock();
    } else {
      expect(TokKind::KwThen, "after the if condition");
      E->B = parseExpr();
    }
    if (accept(TokKind::KwElif)) {
      // Desugar `elif` to a nested if by rewinding one token is awkward;
      // instead build the nested if directly.
      --Pos; // step back onto 'elif'
      Toks[Pos].Kind = TokKind::KwIf;
      E->C = parseIf();
      return E;
    }
    if (accept(TokKind::KwElse)) {
      E->C = at(TokKind::LBrace) ? parseBlock() : parseExpr();
    } else {
      E->C = makeExpr(SExpr::K::Unit, Loc);
    }
    return E;
  }

  SExpr *parseMatch() {
    SourceLoc Loc = cur().Loc;
    DepthScope Scope(*this);
    deeper(2);
    expect(TokKind::KwMatch, "to begin a match");
    SExpr *E = makeExpr(SExpr::K::Match, Loc);
    // Scrutinee: parenthesized or bare expression.
    if (accept(TokKind::LParen)) {
      E->A = parseExpr();
      expect(TokKind::RParen, "to close the scrutinee");
    } else {
      E->A = parseBinary(0);
    }
    expect(TokKind::LBrace, "to begin the match arms");
    size_t Mark = ArmStack.size();
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      if (accept(TokKind::Semi) || accept(TokKind::Comma))
        continue;
      SMatchArm Arm;
      Arm.Pat = parsePattern();
      expect(TokKind::Arrow, "after the pattern");
      Arm.Body = at(TokKind::LBrace) ? parseBlock() : parseExpr();
      ArmStack.push_back(Arm);
      ++MatchArms;
    }
    E->Arms = takeList(ArmStack, Mark);
    expect(TokKind::RBrace, "to close the match");
    if (E->Arms.empty())
      error("match must have at least one arm");
    return E;
  }

  SPat *parsePattern() {
    SPat *P = M.Mem.make<SPat>();
    P->Loc = cur().Loc;
    switch (cur().Kind) {
    case TokKind::CtorIdent: {
      P->Kind = SPat::K::Ctor;
      P->Id = TokName[Pos];
      P->Name = advance().Text;
      if (accept(TokKind::LParen)) {
        DepthScope Scope(*this);
        size_t Mark = PatStack.size();
        if (deeper(2) && !at(TokKind::RParen)) {
          do {
            PatStack.push_back(parsePattern());
          } while (accept(TokKind::Comma));
        }
        P->Sub = takeList(PatStack, Mark);
        expect(TokKind::RParen, "to close the pattern");
      }
      return P;
    }
    case TokKind::Ident:
      P->Kind = SPat::K::Var;
      P->Id = TokName[Pos];
      P->Name = advance().Text;
      return P;
    case TokKind::Underscore:
      P->Kind = SPat::K::Wild;
      advance();
      return P;
    case TokKind::IntLit:
      P->Kind = SPat::K::Int;
      P->Int = advance().IntValue;
      return P;
    case TokKind::Minus: {
      advance();
      P->Kind = SPat::K::Int;
      // The lexer keeps literals within IntMax, so this cannot overflow.
      P->Int = -expect(TokKind::IntLit, "after '-' in a pattern").IntValue;
      return P;
    }
    case TokKind::KwTrue:
      P->Kind = SPat::K::Bool;
      P->Int = 1;
      advance();
      return P;
    case TokKind::KwFalse:
      P->Kind = SPat::K::Bool;
      P->Int = 0;
      advance();
      return P;
    default:
      error(std::string("expected a pattern, found ") +
            tokKindName(cur().Kind));
      advance();
      return P;
    }
  }

  /// Operator precedence, higher binds tighter. Returns -1 for
  /// non-operators.
  static int precedenceOf(TokKind K) {
    switch (K) {
    case TokKind::OrOr:
      return 1;
    case TokKind::AndAnd:
      return 2;
    case TokKind::EqEq:
    case TokKind::NotEq:
      return 3;
    case TokKind::Lt:
    case TokKind::Le:
    case TokKind::Gt:
    case TokKind::Ge:
      return 4;
    case TokKind::Plus:
    case TokKind::Minus:
      return 5;
    case TokKind::Star:
    case TokKind::Slash:
    case TokKind::Percent:
      return 6;
    default:
      return -1;
    }
  }

  SExpr *parseBinary(int MinPrec) {
    DepthScope Scope(*this);
    SExpr *Lhs = parseUnary();
    for (;;) {
      int Prec = precedenceOf(cur().Kind);
      if (Prec < 0 || Prec < MinPrec)
        return Lhs;
      Token Op = advance();
      if (!deeper()) // the new node holds the chain so far
        return Lhs;
      SExpr *Rhs = parseBinary(Prec + 1);
      SExpr *E = makeExpr(SExpr::K::Binop, Op.Loc);
      E->Op = Op.Kind;
      E->A = Lhs;
      E->B = Rhs;
      Lhs = E;
    }
  }

  SExpr *parseUnary() {
    if (at(TokKind::Bang) || at(TokKind::Minus)) {
      DepthScope Scope(*this);
      if (!deeper())
        return makeExpr(SExpr::K::Unit, cur().Loc);
      Token Op = advance();
      SExpr *E = makeExpr(SExpr::K::Unop, Op.Loc);
      E->Op = Op.Kind;
      E->A = parseUnary();
      return E;
    }
    return parsePostfix();
  }

  /// Parses `expr, expr, ...` up to (not including) the closing ')'.
  std::span<const SExpr *const> parseArgs() {
    size_t Mark = ExprStack.size();
    if (!at(TokKind::RParen)) {
      do {
        ExprStack.push_back(parseExpr());
      } while (accept(TokKind::Comma));
    }
    return takeList(ExprStack, Mark);
  }

  SExpr *parsePostfix() {
    DepthScope Scope(*this);
    SExpr *E = parsePrimary();
    while (at(TokKind::LParen)) {
      if (!deeper())
        return E;
      SourceLoc Loc = cur().Loc;
      advance();
      SExpr *Call = makeExpr(SExpr::K::Call, Loc);
      Call->A = E;
      Call->Args = parseArgs();
      expect(TokKind::RParen, "to close the argument list");
      E = Call;
    }
    return E;
  }

  SExpr *parsePrimary() {
    SourceLoc Loc = cur().Loc;
    switch (cur().Kind) {
    case TokKind::IntLit: {
      SExpr *E = makeExpr(SExpr::K::IntLit, Loc);
      E->Int = advance().IntValue;
      return E;
    }
    case TokKind::KwTrue: {
      advance();
      SExpr *E = makeExpr(SExpr::K::BoolLit, Loc);
      E->Int = 1;
      return E;
    }
    case TokKind::KwFalse: {
      advance();
      SExpr *E = makeExpr(SExpr::K::BoolLit, Loc);
      E->Int = 0;
      return E;
    }
    case TokKind::Ident: {
      SExpr *E = makeExpr(SExpr::K::Var, Loc);
      E->Id = TokName[Pos];
      E->Name = advance().Text;
      return E;
    }
    case TokKind::CtorIdent: {
      SExpr *E = makeExpr(SExpr::K::Ctor, Loc);
      E->Id = TokName[Pos];
      E->Name = advance().Text;
      if (at(TokKind::LParen)) {
        advance();
        DepthScope Scope(*this);
        if (deeper())
          E->Args = parseArgs();
        expect(TokKind::RParen, "to close the constructor arguments");
      }
      return E;
    }
    case TokKind::LParen: {
      advance();
      if (accept(TokKind::RParen))
        return makeExpr(SExpr::K::Unit, Loc);
      DepthScope Scope(*this);
      if (!deeper())
        return makeExpr(SExpr::K::Unit, Loc);
      SExpr *E = parseExpr();
      expect(TokKind::RParen, "to close the parenthesized expression");
      return E;
    }
    case TokKind::LBrace:
      return parseBlock();
    case TokKind::KwIf:
      return parseIf();
    case TokKind::KwMatch:
      return parseMatch();
    case TokKind::KwFn:
      return parseLambda();
    default:
      error(std::string("expected an expression, found ") +
            tokKindName(cur().Kind));
      advance();
      return makeExpr(SExpr::K::Unit, Loc);
    }
  }

  SExpr *parseLambda() {
    SourceLoc Loc = cur().Loc;
    DepthScope Scope(*this);
    deeper();
    expect(TokKind::KwFn, "to begin a lambda");
    SExpr *E = makeExpr(SExpr::K::Lambda, Loc);
    expect(TokKind::LParen, "to begin the lambda parameters");
    size_t Mark = NameStack.size();
    if (!at(TokKind::RParen)) {
      do {
        NameStack.push_back(
            takeName(TokKind::Ident, "as a lambda parameter").Id);
      } while (accept(TokKind::Comma));
    }
    E->Params = takeList(NameStack, Mark);
    expect(TokKind::RParen, "to close the lambda parameters");
    E->A = at(TokKind::LBrace) ? parseBlock() : parseExpr();
    return E;
  }

  SModule &M;
  std::vector<Token> Toks;
  std::vector<NameId> TokName; ///< per token: its NameId, or NoName
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Depth = 0;   ///< levels open where the parser stands
  bool TooDeep = false; ///< the budget was exceeded; parsing has stopped
  uint32_t MatchArms = 0; ///< match arms parsed so far
  // The open lists, innermost on top (see takeList).
  std::vector<const SExpr *> ExprStack;
  std::vector<const SPat *> PatStack;
  std::vector<SStmt> StmtStack;
  std::vector<SMatchArm> ArmStack;
  std::vector<SCtorDecl> CtorStack;
  std::vector<NameId> NameStack;
};

} // namespace

SModule perceus::parseModule(std::string_view Source,
                             DiagnosticEngine &Diags) {
  SModule M;
  // One slab for the source copy and the whole tree: the built-in
  // programs take 9-16 arena bytes per source byte.
  M.Mem.reserve(Source.size() * 16 + 1024);
  char *Copy = M.Mem.allocateArray<char>(Source.size());
  if (!Source.empty())
    std::memcpy(Copy, Source.data(), Source.size());
  std::string_view Src(Copy, Source.size());
  ParserImpl(M, lex(Src, Diags), Diags).parse();
  return M;
}

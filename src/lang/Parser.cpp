//===- lang/Parser.cpp - Surface language parser -----------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "ir/Program.h"

#include <cassert>

using namespace perceus;

namespace {

class ParserImpl {
public:
  ParserImpl(std::vector<Token> Toks, DiagnosticEngine &Diags)
      : Toks(std::move(Toks)), Diags(Diags) {}

  SModule parse() {
    SModule M;
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
    return M;
  }

private:
  //===--- Token plumbing --------------------------------------------------//

  const Token &cur() const { return Toks[Pos]; }
  bool at(TokKind K) const { return cur().Kind == K; }
  bool atAhead(TokKind K, size_t N) const {
    return Pos + N < Toks.size() && Toks[Pos + N].Kind == K;
  }

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

  SExprPtr makeExpr(SExpr::K Kind, SourceLoc Loc) {
    auto E = std::make_unique<SExpr>();
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
      D.Name = std::string(advance().Text);
    } else {
      error("expected a type name");
    }
    expect(TokKind::LBrace, "to begin the constructor list");
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
      C.Name = std::string(advance().Text);
      if (accept(TokKind::LParen)) {
        if (!at(TokKind::RParen)) {
          do {
            // Field entries are `name` or `name : type`; types are
            // accepted and ignored (the core language is untyped).
            Token F = expect(TokKind::Ident, "as a field name");
            C.Fields.push_back(std::string(F.Text));
            skipOptionalTypeAnnotation();
          } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, "to close the field list");
      }
      D.Ctors.push_back(std::move(C));
    }
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
    D.Name =
        std::string(expect(TokKind::Ident, "as the function name").Text);
    expect(TokKind::LParen, "to begin the parameter list");
    if (!at(TokKind::RParen)) {
      do {
        Token Pm = expect(TokKind::Ident, "as a parameter name");
        D.Params.push_back(std::string(Pm.Text));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "to close the parameter list");
    D.Body = parseBlock();
    return D;
  }

  //===--- Expressions -----------------------------------------------------//

  SExprPtr parseBlock() {
    SourceLoc Loc = cur().Loc;
    DepthScope Scope(*this);
    deeper();
    expect(TokKind::LBrace, "to begin a block");
    auto B = makeExpr(SExpr::K::Block, Loc);
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      if (accept(TokKind::Semi))
        continue;
      // Each statement nests the rest of the block (a let or a sequence).
      if (!B->Stmts.empty() && !deeper())
        break;
      SStmt S;
      S.Loc = cur().Loc;
      if (accept(TokKind::KwVal)) {
        S.IsVal = true;
        S.Name = std::string(
            expect(TokKind::Ident, "as the binding name").Text);
        expect(TokKind::Assign, "after the binding name");
        S.E = parseExpr();
      } else {
        S.E = parseExpr();
      }
      B->Stmts.push_back(std::move(S));
    }
    expect(TokKind::RBrace, "to close the block");
    if (B->Stmts.empty()) {
      SStmt S;
      S.Loc = Loc;
      S.E = makeExpr(SExpr::K::Unit, Loc);
      B->Stmts.push_back(std::move(S));
    }
    return B;
  }

  SExprPtr parseExpr() {
    if (at(TokKind::KwIf))
      return parseIf();
    if (at(TokKind::KwMatch))
      return parseMatch();
    if (at(TokKind::KwFn))
      return parseLambda();
    return parseBinary(0);
  }

  SExprPtr parseIf() {
    SourceLoc Loc = cur().Loc;
    DepthScope Scope(*this);
    deeper();
    expect(TokKind::KwIf, "to begin an if");
    auto E = makeExpr(SExpr::K::If, Loc);
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

  SExprPtr parseMatch() {
    SourceLoc Loc = cur().Loc;
    DepthScope Scope(*this);
    deeper(2);
    expect(TokKind::KwMatch, "to begin a match");
    auto E = makeExpr(SExpr::K::Match, Loc);
    // Scrutinee: parenthesized or bare expression.
    if (accept(TokKind::LParen)) {
      E->A = parseExpr();
      expect(TokKind::RParen, "to close the scrutinee");
    } else {
      E->A = parseBinary(0);
    }
    expect(TokKind::LBrace, "to begin the match arms");
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      if (accept(TokKind::Semi) || accept(TokKind::Comma))
        continue;
      SMatchArm Arm;
      Arm.Pat = parsePattern();
      expect(TokKind::Arrow, "after the pattern");
      Arm.Body = at(TokKind::LBrace) ? parseBlock() : parseExpr();
      E->Arms.push_back(std::move(Arm));
    }
    expect(TokKind::RBrace, "to close the match");
    if (E->Arms.empty())
      error("match must have at least one arm");
    return E;
  }

  SPatPtr parsePattern() {
    auto P = std::make_unique<SPat>();
    P->Loc = cur().Loc;
    switch (cur().Kind) {
    case TokKind::CtorIdent: {
      P->Kind = SPat::K::Ctor;
      P->Name = std::string(advance().Text);
      if (accept(TokKind::LParen)) {
        DepthScope Scope(*this);
        if (deeper(2) && !at(TokKind::RParen)) {
          do {
            P->Sub.push_back(parsePattern());
          } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen, "to close the pattern");
      }
      return P;
    }
    case TokKind::Ident:
      P->Kind = SPat::K::Var;
      P->Name = std::string(advance().Text);
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

  SExprPtr parseBinary(int MinPrec) {
    DepthScope Scope(*this);
    SExprPtr Lhs = parseUnary();
    for (;;) {
      int Prec = precedenceOf(cur().Kind);
      if (Prec < 0 || Prec < MinPrec)
        return Lhs;
      Token Op = advance();
      if (!deeper()) // the new node holds the chain so far
        return Lhs;
      SExprPtr Rhs = parseBinary(Prec + 1);
      auto E = makeExpr(SExpr::K::Binop, Op.Loc);
      E->Op = Op.Kind;
      E->A = std::move(Lhs);
      E->B = std::move(Rhs);
      Lhs = std::move(E);
    }
  }

  SExprPtr parseUnary() {
    if (at(TokKind::Bang) || at(TokKind::Minus)) {
      DepthScope Scope(*this);
      if (!deeper())
        return makeExpr(SExpr::K::Unit, cur().Loc);
      Token Op = advance();
      auto E = makeExpr(SExpr::K::Unop, Op.Loc);
      E->Op = Op.Kind;
      E->A = parseUnary();
      return E;
    }
    return parsePostfix();
  }

  SExprPtr parsePostfix() {
    DepthScope Scope(*this);
    SExprPtr E = parsePrimary();
    while (at(TokKind::LParen)) {
      if (!deeper())
        return E;
      SourceLoc Loc = cur().Loc;
      advance();
      auto Call = makeExpr(SExpr::K::Call, Loc);
      Call->A = std::move(E);
      if (!at(TokKind::RParen)) {
        do {
          Call->Args.push_back(parseExpr());
        } while (accept(TokKind::Comma));
      }
      expect(TokKind::RParen, "to close the argument list");
      E = std::move(Call);
    }
    return E;
  }

  SExprPtr parsePrimary() {
    SourceLoc Loc = cur().Loc;
    switch (cur().Kind) {
    case TokKind::IntLit: {
      auto E = makeExpr(SExpr::K::IntLit, Loc);
      E->Int = advance().IntValue;
      return E;
    }
    case TokKind::KwTrue: {
      advance();
      auto E = makeExpr(SExpr::K::BoolLit, Loc);
      E->Int = 1;
      return E;
    }
    case TokKind::KwFalse: {
      advance();
      auto E = makeExpr(SExpr::K::BoolLit, Loc);
      E->Int = 0;
      return E;
    }
    case TokKind::Ident: {
      auto E = makeExpr(SExpr::K::Var, Loc);
      E->Name = std::string(advance().Text);
      return E;
    }
    case TokKind::CtorIdent: {
      auto E = makeExpr(SExpr::K::Ctor, Loc);
      E->Name = std::string(advance().Text);
      if (at(TokKind::LParen)) {
        advance();
        DepthScope Scope(*this);
        if (deeper() && !at(TokKind::RParen)) {
          do {
            E->Args.push_back(parseExpr());
          } while (accept(TokKind::Comma));
        }
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
      SExprPtr E = parseExpr();
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

  SExprPtr parseLambda() {
    SourceLoc Loc = cur().Loc;
    DepthScope Scope(*this);
    deeper();
    expect(TokKind::KwFn, "to begin a lambda");
    auto E = makeExpr(SExpr::K::Lambda, Loc);
    expect(TokKind::LParen, "to begin the lambda parameters");
    if (!at(TokKind::RParen)) {
      do {
        Token Pm = expect(TokKind::Ident, "as a lambda parameter");
        E->Params.push_back(std::string(Pm.Text));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen, "to close the lambda parameters");
    E->A = at(TokKind::LBrace) ? parseBlock() : parseExpr();
    return E;
  }

  std::vector<Token> Toks;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Depth = 0;   ///< levels open where the parser stands
  bool TooDeep = false; ///< the budget was exceeded; parsing has stopped
};

} // namespace

SModule perceus::parseModule(std::string_view Source,
                             DiagnosticEngine &Diags) {
  std::vector<Token> Toks = lex(Source, Diags);
  return ParserImpl(std::move(Toks), Diags).parse();
}

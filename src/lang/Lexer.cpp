//===- lang/Lexer.cpp - Surface language lexer ------------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include "runtime/Value.h"

#include <array>
#include <cstdint>
#include <string>
#include <utility>

using namespace perceus;

const char *perceus::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof:
    return "end of input";
  case TokKind::Ident:
    return "identifier";
  case TokKind::CtorIdent:
    return "constructor name";
  case TokKind::IntLit:
    return "integer literal";
  case TokKind::KwFun:
    return "'fun'";
  case TokKind::KwType:
    return "'type'";
  case TokKind::KwVal:
    return "'val'";
  case TokKind::KwMatch:
    return "'match'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwThen:
    return "'then'";
  case TokKind::KwElif:
    return "'elif'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwFn:
    return "'fn'";
  case TokKind::KwTrue:
    return "'True'";
  case TokKind::KwFalse:
    return "'False'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Arrow:
    return "'->'";
  case TokKind::Assign:
    return "'='";
  case TokKind::Underscore:
    return "'_'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Ge:
    return "'>='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'!='";
  case TokKind::Bang:
    return "'!'";
  case TokKind::AndAnd:
    return "'&&'";
  case TokKind::OrOr:
    return "'||'";
  }
  return "?";
}

namespace {

/// Character classes, by byte. A table instead of <cctype>: the locale
/// calls cost a function call per character, and identifiers are ASCII
/// in every locale here.
enum : uint8_t {
  CDigit = 1,      // 0-9
  CUpper = 2,      // A-Z
  CLower = 4,      // a-z
  CUnderscore = 8, // _
  CPrime = 16,     // '
  CSpace = 32,     // space, tab, CR, LF
};

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  for (int C = '0'; C <= '9'; ++C)
    T[C] = CDigit;
  for (int C = 'A'; C <= 'Z'; ++C)
    T[C] = CUpper;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = CLower;
  T['_'] = CUnderscore;
  T['\''] = CPrime;
  T[' '] = T['\t'] = T['\r'] = T['\n'] = CSpace;
  return T;
}

constexpr std::array<uint8_t, 256> CharClasses = makeCharClasses();

bool is(char C, uint8_t Classes) {
  return (CharClasses[uint8_t(C)] & Classes) != 0;
}
bool isIdentStart(char C) { return is(C, CUpper | CLower | CUnderscore); }
bool isIdentCont(char C) {
  return is(C, CDigit | CUpper | CLower | CUnderscore | CPrime);
}

/// The keyword spelled \p Text, or Ident if it is none.
TokKind keywordKind(std::string_view Text) {
  static constexpr std::pair<std::string_view, TokKind> Keywords[] = {
      {"_", TokKind::Underscore},  {"fun", TokKind::KwFun},
      {"type", TokKind::KwType},   {"val", TokKind::KwVal},
      {"match", TokKind::KwMatch}, {"if", TokKind::KwIf},
      {"then", TokKind::KwThen},   {"elif", TokKind::KwElif},
      {"else", TokKind::KwElse},   {"fn", TokKind::KwFn},
      {"True", TokKind::KwTrue},   {"False", TokKind::KwFalse}};
  for (auto [Spelling, Kind] : Keywords)
    if (Text == Spelling)
      return Kind;
  return TokKind::Ident;
}

class LexerImpl {
public:
  LexerImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Src(Source), Diags(Diags) {}

  std::vector<Token> run() {
    std::vector<Token> Toks;
    // The built-in programs lex to one token per 4.3-8.5 source bytes.
    Toks.reserve(Src.size() / 4 + 8);
    for (;;) {
      skipTrivia();
      Token T = next();
      Toks.push_back(T);
      if (T.Kind == TokKind::Eof)
        break;
    }
    return Toks;
  }

private:
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }

  /// Steps over one character that may be a newline.
  void advance() {
    if (Src[Pos++] == '\n') {
      ++Line;
      LineStart = Pos;
    }
  }

  /// Columns count bytes from the start of the line, 1-based.
  SourceLoc locAt(size_t At) const {
    return {Line, static_cast<uint32_t>(At - LineStart + 1)};
  }

  void skipTrivia() {
    for (;;) {
      char C = peek();
      if (is(C, CSpace)) {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        SourceLoc Start = locAt(Pos);
        Pos += 2;
        unsigned Depth = 1;
        while (Pos < Src.size() && Depth != 0) {
          if (peek() == '/' && peek(1) == '*') {
            Pos += 2;
            ++Depth;
          } else if (peek() == '*' && peek(1) == '/') {
            Pos += 2;
            --Depth;
          } else {
            advance();
          }
        }
        if (Depth != 0)
          Diags.error(Start, "unterminated block comment");
        continue;
      }
      return;
    }
  }

  Token make(TokKind K, SourceLoc Loc, size_t Start) {
    Token T;
    T.Kind = K;
    T.Loc = Loc;
    T.Text = Src.substr(Start, Pos - Start);
    return T;
  }

  /// Lexes `Src[Pos - 1]...` as an integer literal. Values past IntMax,
  /// the top of the VM's 63-bit integers, are one diagnostic at the
  /// literal, not a wrapped value.
  Token lexInt(SourceLoc Loc, size_t Start) {
    int64_t V = Src[Start] - '0';
    bool Overflow = false;
    while (is(peek(), CDigit)) {
      int64_t Digit = Src[Pos++] - '0';
      Overflow |= __builtin_mul_overflow(V, 10, &V) ||
                  __builtin_add_overflow(V, Digit, &V);
    }
    Token T = make(TokKind::IntLit, Loc, Start);
    if (Overflow || V > IntMax) {
      Diags.error(Loc, "integer literal is out of range (at most " +
                           std::to_string(IntMax) + ")");
      V = 0;
    }
    T.IntValue = V;
    return T;
  }

  Token next() {
    for (;;) {
      SourceLoc Loc = locAt(Pos);
      size_t Start = Pos;
      if (Pos >= Src.size())
        return make(TokKind::Eof, Loc, Start);

      char C = Src[Pos];
      advance();

      if (is(C, CDigit))
        return lexInt(Loc, Start);

      if (isIdentStart(C)) {
        // Identifiers may contain single dashes between alphanumerics
        // ("bal-left", "is-red"), as in the paper's Koka programs.
        for (;;) {
          if (isIdentCont(peek())) {
            ++Pos;
            continue;
          }
          if (peek() == '-' && isIdentStart(peek(1))) {
            Pos += 2;
            continue;
          }
          break;
        }
        TokKind K = keywordKind(Src.substr(Start, Pos - Start));
        if (K == TokKind::Ident && is(C, CUpper))
          K = TokKind::CtorIdent;
        return make(K, Loc, Start);
      }

      switch (C) {
      case '(':
        return make(TokKind::LParen, Loc, Start);
      case ')':
        return make(TokKind::RParen, Loc, Start);
      case '{':
        return make(TokKind::LBrace, Loc, Start);
      case '}':
        return make(TokKind::RBrace, Loc, Start);
      case ',':
        return make(TokKind::Comma, Loc, Start);
      case ';':
        return make(TokKind::Semi, Loc, Start);
      case '+':
        return make(TokKind::Plus, Loc, Start);
      case '*':
        return make(TokKind::Star, Loc, Start);
      case '/':
        return make(TokKind::Slash, Loc, Start);
      case '%':
        return make(TokKind::Percent, Loc, Start);
      case '-':
        return pair('>', TokKind::Arrow, TokKind::Minus, Loc, Start);
      case '<':
        return pair('=', TokKind::Le, TokKind::Lt, Loc, Start);
      case '>':
        return pair('=', TokKind::Ge, TokKind::Gt, Loc, Start);
      case '=':
        return pair('=', TokKind::EqEq, TokKind::Assign, Loc, Start);
      case '!':
        return pair('=', TokKind::NotEq, TokKind::Bang, Loc, Start);
      case '&':
        if (peek() == '&') {
          ++Pos;
          return make(TokKind::AndAnd, Loc, Start);
        }
        break;
      case '|':
        if (peek() == '|') {
          ++Pos;
          return make(TokKind::OrOr, Loc, Start);
        }
        break;
      default:
        break;
      }
      // One diagnostic per stray character: skip the trivia after it, as
      // run() does before every token.
      Diags.error(Loc, std::string("unexpected character '") + C + "'");
      skipTrivia();
    }
  }

  /// A two-character operator when \p Second follows, else \p Single.
  Token pair(char Second, TokKind Double, TokKind Single, SourceLoc Loc,
             size_t Start) {
    if (peek() != Second)
      return make(Single, Loc, Start);
    ++Pos;
    return make(Double, Loc, Start);
  }

  std::string_view Src;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  size_t LineStart = 0; ///< offset of the current line's first byte
  uint32_t Line = 1;
};

} // namespace

std::vector<Token> perceus::lex(std::string_view Source,
                                DiagnosticEngine &Diags) {
  return LexerImpl(Source, Diags).run();
}

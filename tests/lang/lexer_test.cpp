//===- tests/lang/lexer_test.cpp - Lexer unit tests ----------------------------===//
//
// Part of the perceus-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <gtest/gtest.h>

using namespace perceus;

namespace {

std::vector<TokKind> kindsOf(std::string_view Src) {
  DiagnosticEngine D;
  std::vector<TokKind> Out;
  for (const Token &T : lex(Src, D))
    Out.push_back(T.Kind);
  EXPECT_FALSE(D.hasErrors()) << D.str();
  return Out;
}

TEST(Lexer, EmptyInput) {
  EXPECT_EQ(kindsOf(""), (std::vector<TokKind>{TokKind::Eof}));
  EXPECT_EQ(kindsOf("   \n\t "), (std::vector<TokKind>{TokKind::Eof}));
}

TEST(Lexer, KeywordsAndIdentifiers) {
  auto K = kindsOf("fun type val match if then elif else fn True False x Xy _");
  std::vector<TokKind> Want = {
      TokKind::KwFun,   TokKind::KwType, TokKind::KwVal,
      TokKind::KwMatch, TokKind::KwIf,   TokKind::KwThen,
      TokKind::KwElif,  TokKind::KwElse, TokKind::KwFn,
      TokKind::KwTrue,  TokKind::KwFalse, TokKind::Ident,
      TokKind::CtorIdent, TokKind::Underscore, TokKind::Eof};
  EXPECT_EQ(K, Want);
}

TEST(Lexer, DashedIdentifiers) {
  DiagnosticEngine D;
  auto T = lex("bal-left is-red a - b", D);
  ASSERT_EQ(T.size(), 6u);
  EXPECT_EQ(T[0].Text, "bal-left");
  EXPECT_EQ(T[1].Text, "is-red");
  EXPECT_EQ(T[2].Text, "a");
  EXPECT_EQ(T[3].Kind, TokKind::Minus);
  EXPECT_EQ(T[4].Text, "b");
}

TEST(Lexer, IntLiterals) {
  DiagnosticEngine D;
  auto T = lex("0 42 1000000", D);
  EXPECT_EQ(T[0].IntValue, 0);
  EXPECT_EQ(T[1].IntValue, 42);
  EXPECT_EQ(T[2].IntValue, 1000000);
}

TEST(Lexer, Operators) {
  auto K = kindsOf("+ - * / % < <= > >= == != = ! && || ->");
  std::vector<TokKind> Want = {
      TokKind::Plus,  TokKind::Minus,  TokKind::Star,  TokKind::Slash,
      TokKind::Percent, TokKind::Lt,   TokKind::Le,    TokKind::Gt,
      TokKind::Ge,    TokKind::EqEq,   TokKind::NotEq, TokKind::Assign,
      TokKind::Bang,  TokKind::AndAnd, TokKind::OrOr,  TokKind::Arrow,
      TokKind::Eof};
  EXPECT_EQ(K, Want);
}

TEST(Lexer, Punctuation) {
  auto K = kindsOf("( ) { } , ;");
  std::vector<TokKind> Want = {TokKind::LParen, TokKind::RParen,
                               TokKind::LBrace, TokKind::RBrace,
                               TokKind::Comma,  TokKind::Semi, TokKind::Eof};
  EXPECT_EQ(K, Want);
}

TEST(Lexer, LineComments) {
  auto K = kindsOf("a // comment to end of line\nb");
  EXPECT_EQ(K, (std::vector<TokKind>{TokKind::Ident, TokKind::Ident,
                                     TokKind::Eof}));
}

TEST(Lexer, NestedBlockComments) {
  auto K = kindsOf("a /* one /* nested */ still */ b");
  EXPECT_EQ(K, (std::vector<TokKind>{TokKind::Ident, TokKind::Ident,
                                     TokKind::Eof}));
}

TEST(Lexer, UnterminatedBlockCommentIsAnError) {
  DiagnosticEngine D;
  lex("a /* oops", D);
  EXPECT_TRUE(D.hasErrors());
}

TEST(Lexer, UnknownCharacterIsAnError) {
  DiagnosticEngine D;
  auto T = lex("a $ b", D);
  EXPECT_TRUE(D.hasErrors());
  // Lexing continues past the error.
  EXPECT_EQ(T.size(), 3u);
}

TEST(Lexer, OneStrayCharacterIsOneDiagnostic) {
  // The trivia after a stray character is skipped, not reported: one
  // diagnostic each, whatever follows it.
  for (const char *Src : {"fun main() { 1 $ }", "fun main() { 1 $  }",
                          "fun main() { 1 $\n}", "fun main() { 1 $// c\n}",
                          "fun main() { 1 $ /* c */ }"}) {
    DiagnosticEngine D;
    auto T = lex(Src, D);
    EXPECT_EQ(D.str(), "1:16: error: unexpected character '$'\n") << Src;
    EXPECT_EQ(T.size(), 8u) << Src; // fun main ( ) { 1 } Eof
  }
  DiagnosticEngine D;
  lex("fun main() { 1 $$ }", D);
  EXPECT_EQ(D.str(), "1:16: error: unexpected character '$'\n"
                     "1:17: error: unexpected character '$'\n");
}

TEST(Lexer, TracksLineAndColumn) {
  DiagnosticEngine D;
  auto T = lex("a\n  b", D);
  EXPECT_EQ(T[0].Loc.Line, 1u);
  EXPECT_EQ(T[0].Loc.Col, 1u);
  EXPECT_EQ(T[1].Loc.Line, 2u);
  EXPECT_EQ(T[1].Loc.Col, 3u);
}

TEST(Lexer, PrimesInIdentifiers) {
  DiagnosticEngine D;
  auto T = lex("x' foo'bar", D);
  EXPECT_EQ(T[0].Text, "x'");
  EXPECT_EQ(T[1].Text, "foo'bar");
}

} // namespace

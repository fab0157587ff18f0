//===-- tests/LexerTest.cpp - Lexer unit tests --------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include "support/Diagnostic.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace eoe;
using namespace eoe::lang;

namespace {

std::vector<Token> lex(std::string_view Src) {
  DiagnosticEngine Diags;
  Lexer L(Src, Diags);
  std::vector<Token> Toks = L.lexAll();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Toks;
}

TEST(LexerTest, EmptyInputYieldsOnlyEof) {
  std::vector<Token> Toks = lex("");
  ASSERT_EQ(Toks.size(), 1u);
  EXPECT_TRUE(Toks[0].is(TokenKind::EndOfFile));
}

TEST(LexerTest, KeywordsAndIdentifiers) {
  std::vector<Token> Toks = lex("var fn if else while break continue return "
                                "print input foo _bar x9");
  std::vector<TokenKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokenKind> Expected = {
      TokenKind::KwVar,      TokenKind::KwFn,       TokenKind::KwIf,
      TokenKind::KwElse,     TokenKind::KwWhile,    TokenKind::KwBreak,
      TokenKind::KwContinue, TokenKind::KwReturn,   TokenKind::KwPrint,
      TokenKind::KwInput,    TokenKind::Identifier, TokenKind::Identifier,
      TokenKind::Identifier, TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
  EXPECT_EQ(Toks[10].Text, "foo");
  EXPECT_EQ(Toks[11].Text, "_bar");
  EXPECT_EQ(Toks[12].Text, "x9");
}

TEST(LexerTest, IntegerLiterals) {
  std::vector<Token> Toks = lex("0 42 123456789");
  ASSERT_EQ(Toks.size(), 4u);
  EXPECT_EQ(Toks[0].Value, 0);
  EXPECT_EQ(Toks[1].Value, 42);
  EXPECT_EQ(Toks[2].Value, 123456789);
}

TEST(LexerTest, CharacterLiterals) {
  std::vector<Token> Toks = lex("'a' '\\n' '\\\\' '\\0'");
  ASSERT_EQ(Toks.size(), 5u);
  EXPECT_EQ(Toks[0].Value, 'a');
  EXPECT_TRUE(Toks[0].is(TokenKind::IntLiteral));
  EXPECT_EQ(Toks[1].Value, '\n');
  EXPECT_EQ(Toks[2].Value, '\\');
  EXPECT_EQ(Toks[3].Value, 0);
}

TEST(LexerTest, TwoCharOperators) {
  std::vector<Token> Toks = lex("== != <= >= && || = < > !");
  std::vector<TokenKind> Kinds;
  for (const Token &T : Toks)
    Kinds.push_back(T.Kind);
  std::vector<TokenKind> Expected = {
      TokenKind::EqEq,   TokenKind::NotEq,     TokenKind::LessEq,
      TokenKind::GreaterEq, TokenKind::AmpAmp, TokenKind::PipePipe,
      TokenKind::Assign, TokenKind::Less,      TokenKind::Greater,
      TokenKind::Bang,   TokenKind::EndOfFile};
  EXPECT_EQ(Kinds, Expected);
}

TEST(LexerTest, CommentsAreSkipped) {
  std::vector<Token> Toks = lex("x // the rest is ignored == != \n y");
  ASSERT_EQ(Toks.size(), 3u);
  EXPECT_EQ(Toks[0].Text, "x");
  EXPECT_EQ(Toks[1].Text, "y");
}

TEST(LexerTest, LocationsTrackLinesAndColumns) {
  std::vector<Token> Toks = lex("a\n  b");
  EXPECT_EQ(Toks[0].Loc.Line, 1u);
  EXPECT_EQ(Toks[0].Loc.Col, 1u);
  EXPECT_EQ(Toks[1].Loc.Line, 2u);
  EXPECT_EQ(Toks[1].Loc.Col, 3u);
}

TEST(LexerTest, UnknownCharacterIsAnError) {
  DiagnosticEngine Diags;
  Lexer L("x @ y", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, LoneAmpersandIsAnError) {
  DiagnosticEngine Diags;
  Lexer L("a & b", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, IdentifiersMayBeginWithAKeyword) {
  std::vector<Token> Toks = lex("iff whilex var_ returned");
  ASSERT_EQ(Toks.size(), 5u);
  const char *Names[] = {"iff", "whilex", "var_", "returned"};
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_TRUE(Toks[I].is(TokenKind::Identifier)) << Names[I];
    EXPECT_EQ(Toks[I].Text, Names[I]);
  }
}

TEST(LexerTest, AllSixWhitespaceBytesSeparateTokens) {
  std::vector<Token> Toks = lex("a b\tc\nd\ve\ff\rg");
  ASSERT_EQ(Toks.size(), 8u);
  for (size_t I = 0; I < 7; ++I)
    EXPECT_EQ(Toks[I].Text, std::string(1, static_cast<char>('a' + I)));
  // Only \n starts a line; each other byte is one column.
  EXPECT_EQ(Toks[2].Loc.Line, 1u);
  EXPECT_EQ(Toks[2].Loc.Col, 5u);
  EXPECT_EQ(Toks[3].Loc.Line, 2u);
  EXPECT_EQ(Toks[3].Loc.Col, 1u);
  EXPECT_EQ(Toks[6].Loc.Line, 2u);
  EXPECT_EQ(Toks[6].Loc.Col, 7u);
}

TEST(LexerTest, NonAsciiByteIsAnError) {
  DiagnosticEngine Diags;
  Lexer L("x \xC3\xA9 y", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(LexerTest, TextViewsTheSourceBuffer) {
  std::string Src = "var total = count;";
  std::vector<Token> Toks = lex(Src);
  ASSERT_EQ(Toks.size(), 6u);
  EXPECT_EQ(Toks[0].Text.data(), Src.data());
  EXPECT_EQ(Toks[1].Text.data(), Src.data() + 4);
  EXPECT_EQ(Toks[3].Text.data(), Src.data() + 12);
  EXPECT_EQ(Toks[3].Text.size(), 5u);
}

TEST(LexerTest, LargestLiteralIsInt64Max) {
  std::vector<Token> Toks = lex("9223372036854775807");
  ASSERT_EQ(Toks.size(), 2u);
  EXPECT_TRUE(Toks[0].is(TokenKind::IntLiteral));
  EXPECT_EQ(Toks[0].Value, INT64_MAX);
}

TEST(LexerTest, LiteralAboveInt64MaxIsAnError) {
  for (const char *Src : {"print(9223372036854775808);",
                          "print(99999999999999999999);"}) {
    DiagnosticEngine Diags;
    Lexer L(Src, Diags);
    L.lexAll();
    EXPECT_TRUE(Diags.hasErrors()) << Src;
    EXPECT_NE(Diags.str().find("integer literal too large"), std::string::npos)
        << Diags.str();
  }
}

TEST(LexerTest, UnterminatedCharLiteralIsAnError) {
  DiagnosticEngine Diags;
  Lexer L("'a", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace

//===-- lang/Lexer.cpp - Siml lexer -----------------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include "support/Diagnostic.h"

#include <algorithm>
#include <limits>

using namespace eoe;
using namespace eoe::lang;

const char *lang::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwFn:
    return "'fn'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwBreak:
    return "'break'";
  case TokenKind::KwContinue:
    return "'continue'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwPrint:
    return "'print'";
  case TokenKind::KwInput:
    return "'input'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Bang:
    return "'!'";
  case TokenKind::Unknown:
    return "unknown token";
  }
  return "?";
}

Lexer::Lexer(std::string_view Source, DiagnosticEngine &Diags)
    : Source(Source), Diags(Diags) {}

namespace {

// Character classes of the C locale, tested directly: bytes past ASCII
// are in none of them.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || isDigit(C); }
/// Space, \t, \n, \v, \f and \r.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

/// The keyword spelled \p Text, or Identifier; one comparison per keyword
/// of that length.
TokenKind keywordKind(std::string_view Text) {
  switch (Text.size()) {
  case 2:
    if (Text == "fn")
      return TokenKind::KwFn;
    if (Text == "if")
      return TokenKind::KwIf;
    break;
  case 3:
    if (Text == "var")
      return TokenKind::KwVar;
    break;
  case 4:
    if (Text == "else")
      return TokenKind::KwElse;
    break;
  case 5:
    if (Text == "while")
      return TokenKind::KwWhile;
    if (Text == "break")
      return TokenKind::KwBreak;
    if (Text == "print")
      return TokenKind::KwPrint;
    if (Text == "input")
      return TokenKind::KwInput;
    break;
  case 6:
    if (Text == "return")
      return TokenKind::KwReturn;
    break;
  case 8:
    if (Text == "continue")
      return TokenKind::KwContinue;
    break;
  }
  return TokenKind::Identifier;
}

} // namespace

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  do
    Tokens.push_back(next());
  while (!Tokens.back().is(TokenKind::EndOfFile));
  return Tokens;
}

char Lexer::peek(size_t Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    LineStart = Pos;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = Source[Pos];
    if (isSpace(C)) {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      // The comment ends at its newline, which the next pass consumes.
      Pos = std::min(Source.find('\n', Pos), Source.size());
      continue;
    }
    return;
  }
}

Token Lexer::lexIdentifierOrKeyword(SourceLoc Loc) {
  size_t Start = Pos;
  while (!atEnd() && isIdentChar(Source[Pos]))
    ++Pos;
  Token T;
  T.Text = Source.substr(Start, Pos - Start);
  T.Kind = keywordKind(T.Text);
  T.Loc = Loc;
  return T;
}

Token Lexer::lexNumber(SourceLoc Loc) {
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  int64_t Value = 0;
  bool TooLarge = false;
  while (!atEnd() && isDigit(Source[Pos])) {
    int Digit = Source[Pos++] - '0';
    TooLarge = TooLarge || Value > (Max - Digit) / 10;
    if (!TooLarge)
      Value = Value * 10 + Digit;
  }

  Token T;
  T.Kind = TokenKind::IntLiteral;
  T.Loc = Loc;
  T.Value = Value;
  if (TooLarge) {
    Diags.error(Loc, "integer literal too large");
    T.Kind = TokenKind::Unknown;
    T.Value = 0;
  }
  return T;
}

Token Lexer::lexCharLiteral(SourceLoc Loc) {
  // Opening quote already consumed by the caller.
  Token T;
  T.Kind = TokenKind::IntLiteral;
  T.Loc = Loc;
  if (atEnd()) {
    Diags.error(Loc, "unterminated character literal");
    T.Kind = TokenKind::Unknown;
    return T;
  }
  char C = advance();
  if (C == '\\' && !atEnd()) {
    char Esc = advance();
    switch (Esc) {
    case 'n':
      C = '\n';
      break;
    case 't':
      C = '\t';
      break;
    case '0':
      C = '\0';
      break;
    case '\\':
      C = '\\';
      break;
    case '\'':
      C = '\'';
      break;
    default:
      Diags.error(Loc, std::string("unknown escape '\\") + Esc + "'");
      break;
    }
  }
  T.Value = static_cast<unsigned char>(C);
  if (atEnd() || advance() != '\'') {
    Diags.error(Loc, "expected closing ' in character literal");
    T.Kind = TokenKind::Unknown;
  }
  return T;
}

Token Lexer::next() {
  skipTrivia();
  SourceLoc Loc = here();
  Token T;
  T.Loc = Loc;
  if (atEnd()) {
    T.Kind = TokenKind::EndOfFile;
    return T;
  }

  char C = Source[Pos];
  if (isIdentStart(C))
    return lexIdentifierOrKeyword(Loc);
  if (isDigit(C))
    return lexNumber(Loc);

  ++Pos; // Not a newline: skipTrivia consumed those.
  switch (C) {
  case '\'':
    return lexCharLiteral(Loc);
  case '(':
    T.Kind = TokenKind::LParen;
    return T;
  case ')':
    T.Kind = TokenKind::RParen;
    return T;
  case '{':
    T.Kind = TokenKind::LBrace;
    return T;
  case '}':
    T.Kind = TokenKind::RBrace;
    return T;
  case '[':
    T.Kind = TokenKind::LBracket;
    return T;
  case ']':
    T.Kind = TokenKind::RBracket;
    return T;
  case ';':
    T.Kind = TokenKind::Semicolon;
    return T;
  case ',':
    T.Kind = TokenKind::Comma;
    return T;
  case '+':
    T.Kind = TokenKind::Plus;
    return T;
  case '-':
    T.Kind = TokenKind::Minus;
    return T;
  case '*':
    T.Kind = TokenKind::Star;
    return T;
  case '/':
    T.Kind = TokenKind::Slash;
    return T;
  case '%':
    T.Kind = TokenKind::Percent;
    return T;
  case '=':
    if (peek() == '=') {
      advance();
      T.Kind = TokenKind::EqEq;
    } else {
      T.Kind = TokenKind::Assign;
    }
    return T;
  case '!':
    if (peek() == '=') {
      advance();
      T.Kind = TokenKind::NotEq;
    } else {
      T.Kind = TokenKind::Bang;
    }
    return T;
  case '<':
    if (peek() == '=') {
      advance();
      T.Kind = TokenKind::LessEq;
    } else {
      T.Kind = TokenKind::Less;
    }
    return T;
  case '>':
    if (peek() == '=') {
      advance();
      T.Kind = TokenKind::GreaterEq;
    } else {
      T.Kind = TokenKind::Greater;
    }
    return T;
  case '&':
    if (peek() == '&') {
      advance();
      T.Kind = TokenKind::AmpAmp;
      return T;
    }
    break;
  case '|':
    if (peek() == '|') {
      advance();
      T.Kind = TokenKind::PipePipe;
      return T;
    }
    break;
  default:
    break;
  }
  Diags.error(Loc, std::string("unexpected character '") + C + "'");
  T.Kind = TokenKind::Unknown;
  return T;
}

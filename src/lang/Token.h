//===-- lang/Token.h - Siml tokens -------------------------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds produced by the Siml lexer.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_LANG_TOKEN_H
#define EOE_LANG_TOKEN_H

#include "support/Diagnostic.h"

#include <cstdint>
#include <string_view>

namespace eoe {
namespace lang {

/// Every lexical token category of Siml.
enum class TokenKind {
  EndOfFile,
  Identifier,
  IntLiteral,
  // Keywords.
  KwVar,
  KwFn,
  KwIf,
  KwElse,
  KwWhile,
  KwBreak,
  KwContinue,
  KwReturn,
  KwPrint,
  KwInput,
  // Punctuation and operators.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semicolon,
  Comma,
  Assign,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  EqEq,
  NotEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,
  AmpAmp,
  PipePipe,
  Bang,
  // Lexer error placeholder.
  Unknown
};

/// Returns a human-readable name for \p Kind, used in parse errors.
const char *tokenKindName(TokenKind Kind);

/// One lexed token. Text is the spelling of an identifier or keyword, a
/// view into the lexed source: the source must outlive the token (the
/// parser copies names into the AST). Value is a literal's value.
struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  SourceLoc Loc;
  std::string_view Text;
  int64_t Value = 0;

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace lang
} // namespace eoe

#endif // EOE_LANG_TOKEN_H

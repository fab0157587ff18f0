//===-- lang/Lexer.h - Siml lexer --------------------------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for Siml. Supports // line comments, decimal integer
/// literals up to INT64_MAX, and character literals ('a' lexes as the
/// character code, so workload sources can compare input bytes readably).
/// Tokens view the source buffer instead of copying their spelling, so the
/// buffer must outlive them; lexing allocates only the token vector.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_LANG_LEXER_H
#define EOE_LANG_LEXER_H

#include "lang/Token.h"

#include <string_view>
#include <vector>

namespace eoe {
class DiagnosticEngine;

namespace lang {

/// Turns a Siml source buffer into a token stream.
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticEngine &Diags);

  /// Lexes the entire buffer; the result always ends with EndOfFile.
  std::vector<Token> lexAll();

private:
  Token next();
  char peek(size_t Ahead = 0) const;
  char advance();
  bool atEnd() const { return Pos >= Source.size(); }
  SourceLoc here() const {
    return {Line, static_cast<uint32_t>(Pos - LineStart + 1)};
  }
  void skipTrivia();
  Token lexIdentifierOrKeyword(SourceLoc Loc);
  Token lexNumber(SourceLoc Loc);
  Token lexCharLiteral(SourceLoc Loc);

  std::string_view Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  size_t LineStart = 0; // offset of the current line's first byte
};

} // namespace lang
} // namespace eoe

#endif // EOE_LANG_LEXER_H

//===-- lang/Parser.cpp - Siml parser ---------------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"
#include "lang/Sema.h"
#include "support/Diagnostic.h"

#include <cassert>

using namespace eoe;
using namespace eoe::lang;

namespace {

/// Binary operator precedence; higher binds tighter. Returns -1 for tokens
/// that are not binary operators.
int binaryPrecedence(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return 1;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::EqEq:
  case TokenKind::NotEq:
    return 3;
  case TokenKind::Less:
  case TokenKind::LessEq:
  case TokenKind::Greater:
  case TokenKind::GreaterEq:
    return 4;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 5;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 6;
  default:
    return -1;
  }
}

BinaryOp binaryOpFor(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return BinaryOp::Or;
  case TokenKind::AmpAmp:
    return BinaryOp::And;
  case TokenKind::EqEq:
    return BinaryOp::Eq;
  case TokenKind::NotEq:
    return BinaryOp::Ne;
  case TokenKind::Less:
    return BinaryOp::Lt;
  case TokenKind::LessEq:
    return BinaryOp::Le;
  case TokenKind::Greater:
    return BinaryOp::Gt;
  case TokenKind::GreaterEq:
    return BinaryOp::Ge;
  case TokenKind::Plus:
    return BinaryOp::Add;
  case TokenKind::Minus:
    return BinaryOp::Sub;
  case TokenKind::Star:
    return BinaryOp::Mul;
  case TokenKind::Slash:
    return BinaryOp::Div;
  case TokenKind::Percent:
    return BinaryOp::Mod;
  default:
    assert(false && "not a binary operator token");
    return BinaryOp::Add;
  }
}

} // namespace

Parser::Parser(std::vector<Token> Toks, DiagnosticEngine &Diags)
    : Tokens(std::move(Toks)), Diags(Diags) {
  assert(!Tokens.empty() && Tokens.back().is(TokenKind::EndOfFile) &&
         "token stream must end with EndOfFile");
}

const Token &Parser::peek(size_t Ahead) const {
  size_t Index = Pos + Ahead;
  if (Index >= Tokens.size())
    Index = Tokens.size() - 1;
  return Tokens[Index];
}

const Token &Parser::advance() {
  const Token &T = Tokens[Pos];
  if (Pos + 1 < Tokens.size())
    ++Pos;
  return T;
}

bool Parser::accept(TokenKind Kind) {
  if (!check(Kind))
    return false;
  advance();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  Diags.error(peek().Loc, std::string("expected ") + tokenKindName(Kind) +
                              " " + Context + ", found " +
                              tokenKindName(peek().Kind));
  return false;
}

void Parser::synchronizeToStmt() {
  while (!check(TokenKind::EndOfFile)) {
    if (accept(TokenKind::Semicolon))
      return;
    if (check(TokenKind::RBrace))
      return;
    advance();
  }
}

std::unique_ptr<Program> Parser::parseProgram() {
  Prog = std::make_unique<Program>();
  while (!check(TokenKind::EndOfFile)) {
    parseTopLevel();
    if (Diags.errorCount() > 20)
      break; // Avoid error cascades on hopeless inputs.
  }
  return std::move(Prog);
}

void Parser::parseTopLevel() {
  if (check(TokenKind::KwVar)) {
    parseGlobalDecl();
    return;
  }
  if (check(TokenKind::KwFn)) {
    parseFunction();
    return;
  }
  Diags.error(peek().Loc, std::string("expected 'var' or 'fn' at top level, "
                                      "found ") +
                              tokenKindName(peek().Kind));
  advance();
}

void Parser::parseGlobalDecl() {
  Stmt *S = parseVarDecl();
  if (!S)
    return; // A declaration without a name; the error is reported.
  auto *Decl = cast<VarDeclStmt>(S);
  int64_t Unused;
  if (Decl->init() && !evaluateConstant(Decl->init(), Unused))
    Diags.error(Decl->loc(), "global initializer must be a constant");
  Prog->addGlobal(Decl);
}

void Parser::parseFunction() {
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::KwFn, "to start a function");
  std::string Name(peek().Text);
  if (!expect(TokenKind::Identifier, "as function name"))
    return;

  std::vector<std::string> Params;
  expect(TokenKind::LParen, "after function name");
  if (!check(TokenKind::RParen)) {
    do {
      if (check(TokenKind::Identifier)) {
        Params.emplace_back(peek().Text);
        advance();
      } else {
        Diags.error(peek().Loc, "expected parameter name");
        break;
      }
    } while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "after parameters");

  Function *F = Prog->createFunction(Loc, std::move(Name), std::move(Params));
  F->setBody(parseBlock());
}

std::vector<Stmt *> Parser::parseBlock() {
  std::vector<Stmt *> Body;
  if (!expect(TokenKind::LBrace, "to open a block"))
    return Body;
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    if (Stmt *S = parseStatement())
      Body.push_back(S);
    else
      synchronizeToStmt();
    if (Diags.errorCount() > 20)
      break;
  }
  expect(TokenKind::RBrace, "to close a block");
  return Body;
}

Stmt *Parser::parseStatement() {
  SourceLoc Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::KwVar:
    return parseVarDecl();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwBreak: {
    advance();
    expect(TokenKind::Semicolon, "after 'break'");
    return Prog->createStmt<BreakStmt>(Loc);
  }
  case TokenKind::KwContinue: {
    advance();
    expect(TokenKind::Semicolon, "after 'continue'");
    return Prog->createStmt<ContinueStmt>(Loc);
  }
  case TokenKind::KwReturn: {
    advance();
    Expr *Value = nullptr;
    if (!check(TokenKind::Semicolon))
      Value = parseExpr();
    expect(TokenKind::Semicolon, "after 'return'");
    return Prog->createStmt<ReturnStmt>(Loc, Value);
  }
  case TokenKind::KwPrint: {
    advance();
    expect(TokenKind::LParen, "after 'print'");
    std::vector<Expr *> Args;
    if (!check(TokenKind::RParen)) {
      do {
        if (Expr *E = parseExpr())
          Args.push_back(E);
        else
          return nullptr;
      } while (accept(TokenKind::Comma));
    }
    expect(TokenKind::RParen, "after print arguments");
    expect(TokenKind::Semicolon, "after print statement");
    return Prog->createStmt<PrintStmt>(Loc, std::move(Args));
  }
  case TokenKind::Identifier:
    return parseAssignOrCall();
  default:
    Diags.error(Loc, std::string("expected a statement, found ") +
                         tokenKindName(peek().Kind));
    return nullptr;
  }
}

Stmt *Parser::parseVarDecl() {
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::KwVar, "to start a declaration");
  std::string Name(peek().Text);
  if (!expect(TokenKind::Identifier, "as variable name"))
    return nullptr;

  int64_t ArraySize = 0;
  Expr *Init = nullptr;
  if (accept(TokenKind::LBracket)) {
    if (check(TokenKind::IntLiteral)) {
      ArraySize = peek().Value;
      advance();
      if (ArraySize <= 0)
        Diags.error(Loc, "array size must be positive");
    } else {
      Diags.error(peek().Loc, "array size must be an integer literal");
    }
    expect(TokenKind::RBracket, "after array size");
  } else if (accept(TokenKind::Assign)) {
    Init = parseExpr();
  }
  expect(TokenKind::Semicolon, "after declaration");
  return Prog->createStmt<VarDeclStmt>(Loc, std::move(Name), ArraySize, Init);
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::KwIf, "to start an if");
  expect(TokenKind::LParen, "after 'if'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  std::vector<Stmt *> Then = parseBlock();
  std::vector<Stmt *> Else;
  if (accept(TokenKind::KwElse)) {
    if (check(TokenKind::KwIf)) {
      if (Stmt *Nested = parseIf())
        Else.push_back(Nested);
    } else {
      Else = parseBlock();
    }
  }
  return Prog->createStmt<IfStmt>(Loc, Cond, std::move(Then), std::move(Else));
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = peek().Loc;
  expect(TokenKind::KwWhile, "to start a while");
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  std::vector<Stmt *> Body = parseBlock();
  return Prog->createStmt<WhileStmt>(Loc, Cond, std::move(Body));
}

Stmt *Parser::parseAssignOrCall() {
  SourceLoc Loc = peek().Loc;
  std::string Name(advance().Text);

  if (check(TokenKind::LParen)) {
    std::vector<Expr *> Args = parseCallArgs();
    expect(TokenKind::Semicolon, "after call statement");
    CallExpr *Call =
        Prog->createExpr<CallExpr>(Loc, std::move(Name), std::move(Args));
    return Prog->createStmt<CallStmtNode>(Loc, Call);
  }

  if (accept(TokenKind::LBracket)) {
    Expr *Index = parseExpr();
    expect(TokenKind::RBracket, "after array index");
    expect(TokenKind::Assign, "in array assignment");
    Expr *Value = parseExpr();
    expect(TokenKind::Semicolon, "after assignment");
    return Prog->createStmt<ArrayAssignStmt>(Loc, std::move(Name), Index,
                                             Value);
  }

  if (!expect(TokenKind::Assign, "in assignment"))
    return nullptr;
  Expr *Value = parseExpr();
  expect(TokenKind::Semicolon, "after assignment");
  return Prog->createStmt<AssignStmt>(Loc, std::move(Name), Value);
}

std::vector<Expr *> Parser::parseCallArgs() {
  std::vector<Expr *> Args;
  expect(TokenKind::LParen, "to open argument list");
  if (!check(TokenKind::RParen)) {
    do {
      if (Expr *E = parseExpr())
        Args.push_back(E);
      else
        break;
    } while (accept(TokenKind::Comma));
  }
  expect(TokenKind::RParen, "to close argument list");
  return Args;
}

Expr *Parser::parseExpr() { return parseBinaryRHS(0, parseUnary()); }

Expr *Parser::parseBinaryRHS(int MinPrec, Expr *LHS) {
  if (!LHS)
    return nullptr;
  while (true) {
    int Prec = binaryPrecedence(peek().Kind);
    if (Prec < 0 || Prec < MinPrec)
      return LHS;
    TokenKind OpTok = peek().Kind;
    SourceLoc Loc = peek().Loc;
    advance();
    Expr *RHS = parseUnary();
    if (!RHS)
      return nullptr;
    int NextPrec = binaryPrecedence(peek().Kind);
    if (NextPrec > Prec)
      RHS = parseBinaryRHS(Prec + 1, RHS);
    if (!RHS)
      return nullptr;
    LHS = Prog->createExpr<BinaryExpr>(Loc, binaryOpFor(OpTok), LHS, RHS);
  }
}

Expr *Parser::parseUnary() {
  SourceLoc Loc = peek().Loc;
  if (accept(TokenKind::Minus)) {
    Expr *Sub = parseUnary();
    return Sub ? Prog->createExpr<UnaryExpr>(Loc, UnaryOp::Neg, Sub) : nullptr;
  }
  if (accept(TokenKind::Bang)) {
    Expr *Sub = parseUnary();
    return Sub ? Prog->createExpr<UnaryExpr>(Loc, UnaryOp::Not, Sub) : nullptr;
  }
  return parsePrimary();
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = peek().Loc;
  switch (peek().Kind) {
  case TokenKind::IntLiteral: {
    int64_t Value = advance().Value;
    return Prog->createExpr<IntLitExpr>(Loc, Value);
  }
  case TokenKind::KwInput: {
    advance();
    expect(TokenKind::LParen, "after 'input'");
    expect(TokenKind::RParen, "after 'input('");
    return Prog->createExpr<InputExpr>(Loc);
  }
  case TokenKind::LParen: {
    advance();
    Expr *Inner = parseExpr();
    expect(TokenKind::RParen, "to close parenthesized expression");
    return Inner;
  }
  case TokenKind::Identifier: {
    std::string Name(advance().Text);
    if (check(TokenKind::LParen)) {
      std::vector<Expr *> Args = parseCallArgs();
      return Prog->createExpr<CallExpr>(Loc, std::move(Name), std::move(Args));
    }
    if (accept(TokenKind::LBracket)) {
      Expr *Index = parseExpr();
      expect(TokenKind::RBracket, "after array index");
      return Prog->createExpr<ArrayRefExpr>(Loc, std::move(Name), Index);
    }
    return Prog->createExpr<VarRefExpr>(Loc, std::move(Name));
  }
  default:
    Diags.error(Loc, std::string("expected an expression, found ") +
                         tokenKindName(peek().Kind));
    return nullptr;
  }
}

std::unique_ptr<Program> lang::parseAndCheck(std::string_view Source,
                                             DiagnosticEngine &Diags) {
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  if (Diags.hasErrors())
    return nullptr;
  Parser P(std::move(Tokens), Diags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  if (Diags.hasErrors())
    return nullptr;
  Sema S(*Prog, Diags);
  S.run();
  if (Diags.hasErrors())
    return nullptr;
  return Prog;
}

//===-- tests/ParserTest.cpp - Parser unit tests ------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "lang/Lexer.h"
#include "lang/PrettyPrinter.h"
#include "support/Diagnostic.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::lang;
using eoe::test::parseOrDie;

namespace {

/// Parses (without Sema) and returns the program; fails the test on error.
std::unique_ptr<Program> parseOnly(std::string_view Src) {
  DiagnosticEngine Diags;
  Lexer L(Src, Diags);
  Parser P(L.lexAll(), Diags);
  auto Prog = P.parseProgram();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Prog;
}

TEST(ParserTest, MinimalProgram) {
  auto Prog = parseOrDie("fn main() { print(1); }");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->functions().size(), 1u);
  EXPECT_EQ(Prog->functions()[0]->name(), "main");
  ASSERT_EQ(Prog->functions()[0]->body().size(), 1u);
  EXPECT_EQ(Prog->functions()[0]->body()[0]->kind(), Stmt::Kind::Print);
}

TEST(ParserTest, GlobalDeclarations) {
  auto Prog = parseOrDie("var g = 3; var buf[16]; fn main() { print(g); }");
  ASSERT_TRUE(Prog);
  ASSERT_EQ(Prog->globals().size(), 2u);
  EXPECT_EQ(Prog->globals()[0]->name(), "g");
  EXPECT_FALSE(Prog->globals()[0]->isArray());
  EXPECT_EQ(Prog->globals()[1]->arraySize(), 16);
}

TEST(ParserTest, PrecedenceReflectedInTree) {
  auto Prog = parseOnly("fn main() { var x = 1 + 2 * 3; }");
  auto *Decl = cast<VarDeclStmt>(Prog->functions()[0]->body()[0]);
  EXPECT_EQ(exprToString(Decl->init()), "(1 + (2 * 3))");
}

TEST(ParserTest, ComparisonBindsLooserThanArithmetic) {
  auto Prog = parseOnly("fn main() { var x = 1 + 2 < 3 * 4; }");
  auto *Decl = cast<VarDeclStmt>(Prog->functions()[0]->body()[0]);
  EXPECT_EQ(exprToString(Decl->init()), "((1 + 2) < (3 * 4))");
}

TEST(ParserTest, LogicalOperatorsBindLoosest) {
  auto Prog = parseOnly("fn main() { var x = a == 1 && b < 2 || c; }");
  auto *Decl = cast<VarDeclStmt>(Prog->functions()[0]->body()[0]);
  EXPECT_EQ(exprToString(Decl->init()), "(((a == 1) && (b < 2)) || c)");
}

TEST(ParserTest, UnaryOperators) {
  auto Prog = parseOnly("fn main() { var x = -a + !b; }");
  auto *Decl = cast<VarDeclStmt>(Prog->functions()[0]->body()[0]);
  EXPECT_EQ(exprToString(Decl->init()), "(-(a) + !(b))");
}

TEST(ParserTest, IfElseChain) {
  auto Prog = parseOnly("fn main() { if (a) { x = 1; } else if (b) { x = 2; }"
                        " else { x = 3; } }");
  auto *If = cast<IfStmt>(Prog->functions()[0]->body()[0]);
  ASSERT_EQ(If->elseBody().size(), 1u);
  EXPECT_EQ(If->elseBody()[0]->kind(), Stmt::Kind::If);
}

TEST(ParserTest, WhileWithBreakContinue) {
  auto Prog = parseOnly(
      "fn main() { while (1) { if (a) { break; } continue; } }");
  auto *W = cast<WhileStmt>(Prog->functions()[0]->body()[0]);
  ASSERT_EQ(W->body().size(), 2u);
  EXPECT_EQ(W->body()[1]->kind(), Stmt::Kind::Continue);
}

TEST(ParserTest, CallsAsStatementsAndExpressions) {
  auto Prog = parseOrDie("fn helper(a, b) { return a + b; }\n"
                         "fn main() { helper(1, 2); var x = helper(3, 4); }");
  ASSERT_TRUE(Prog);
  const auto &Body = Prog->function(Prog->findFunction("main"))->body();
  EXPECT_EQ(Body[0]->kind(), Stmt::Kind::CallStmt);
  auto *Decl = cast<VarDeclStmt>(Body[1]);
  EXPECT_EQ(Decl->init()->kind(), Expr::Kind::Call);
}

TEST(ParserTest, ArrayReadAndWrite) {
  auto Prog = parseOnly("fn main() { var a[4]; a[0] = 1; var x = a[0] + 1; }");
  const auto &Body = Prog->functions()[0]->body();
  EXPECT_EQ(Body[1]->kind(), Stmt::Kind::ArrayAssign);
}

TEST(ParserTest, StatementIdsAreDense) {
  auto Prog = parseOnly("fn main() { x = 1; y = 2; z = 3; }");
  for (StmtId I = 0; I < Prog->statements().size(); ++I)
    EXPECT_EQ(Prog->statement(I)->id(), I);
}

TEST(ParserTest, ExpressionIdsAreDense) {
  auto Prog = parseOnly("fn main() { x = 1 + 2 * 3; }");
  for (ExprId I = 0; I < Prog->expressions().size(); ++I)
    EXPECT_EQ(Prog->expression(I)->id(), I);
}

TEST(ParserTest, MissingSemicolonIsAnError) {
  DiagnosticEngine Diags;
  Lexer L("fn main() { x = 1 }", Diags);
  Parser P(L.lexAll(), Diags);
  P.parseProgram();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, TopLevelGarbageIsAnError) {
  DiagnosticEngine Diags;
  Lexer L("notakeyword", Diags);
  Parser P(L.lexAll(), Diags);
  P.parseProgram();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, GlobalDeclarationWithoutANameIsAnError) {
  DiagnosticEngine Diags;
  Lexer L("var = 1; fn main() { print(1); }", Diags);
  Parser P(L.lexAll(), Diags);
  P.parseProgram();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, NegativeArraySizeIsAnError) {
  DiagnosticEngine Diags;
  Lexer L("fn main() { var a[0]; }", Diags);
  Parser P(L.lexAll(), Diags);
  P.parseProgram();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ParserTest, RoundTripThroughPrettyPrinter) {
  const char *Src = "var g = 1;\n"
                    "fn add(a, b) { return a + b; }\n"
                    "fn main() { var i = 0; while (i < 3) { if (i % 2 == 0) {"
                    " print(add(g, i)); } i = i + 1; } }";
  auto Prog = parseOrDie(Src);
  ASSERT_TRUE(Prog);
  std::string Printed = programToString(*Prog);
  auto Reparsed = parseOrDie(Printed);
  ASSERT_TRUE(Reparsed);
  EXPECT_EQ(programToString(*Reparsed), Printed);
}

} // namespace

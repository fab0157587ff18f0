//===-- tests/SemaTest.cpp - Semantic checker unit tests ----------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include "support/Diagnostic.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::lang;
using eoe::test::parseOrDie;

namespace {

bool failsSema(std::string_view Src) {
  DiagnosticEngine Diags;
  return lang::parseAndCheck(Src, Diags) == nullptr;
}

TEST(SemaTest, ResolvesLocalsAndGlobals) {
  auto Prog = parseOrDie("var g = 7; fn main() { var x = g; print(x); }");
  ASSERT_TRUE(Prog);
  const VarInfo &G = Prog->variable(Prog->globals()[0]->var());
  EXPECT_TRUE(G.isGlobal());
  EXPECT_EQ(G.Name, "g");
  const Function *Main = Prog->function(Prog->mainFunction());
  EXPECT_EQ(Main->frameSlots(), 1u);
}

TEST(SemaTest, FrameLayoutCountsArrays) {
  auto Prog =
      parseOrDie("fn main() { var a[10]; var x = 0; var b[5]; print(x); }");
  ASSERT_TRUE(Prog);
  EXPECT_EQ(Prog->function(Prog->mainFunction())->frameSlots(), 16u);
}

TEST(SemaTest, ParamsGetSlots) {
  auto Prog = parseOrDie("fn f(a, b) { return a + b; }\n"
                         "fn main() { print(f(1, 2)); }");
  ASSERT_TRUE(Prog);
  const Function *F = Prog->function(Prog->findFunction("f"));
  ASSERT_EQ(F->params().size(), 2u);
  EXPECT_EQ(Prog->variable(F->params()[0]).Slot, 0u);
  EXPECT_EQ(Prog->variable(F->params()[1]).Slot, 1u);
}

TEST(SemaTest, InnerScopesShadowOuter) {
  auto Prog = parseOrDie(
      "fn main() { var x = 1; if (1) { var x = 2; print(x); } print(x); }");
  ASSERT_TRUE(Prog);
  // Two distinct variables named x.
  int Count = 0;
  for (const VarInfo &V : Prog->variables())
    if (V.Name == "x")
      ++Count;
  EXPECT_EQ(Count, 2);
}

/// The declaration that the variable printed by the print at \p Line
/// resolves to.
StmtId printedDecl(const Program &Prog, uint32_t Line) {
  const auto *P = cast<PrintStmt>(Prog.statement(Prog.statementAtLine(Line)));
  return Prog.variable(cast<VarRefExpr>(P->args()[0])->var()).Decl;
}

TEST(SemaTest, ShadowingThreeScopesDeepResolvesInnermost) {
  auto Prog = parseOrDie("fn main() {\n"
                         "var x = 1;\n"
                         "if (1) {\n"
                         "var x = 2;\n"
                         "while (x < 3) {\n"
                         "var x = 3;\n"
                         "print(x);\n"
                         "x = 4;\n"
                         "break;\n"
                         "}\n"
                         "print(x);\n"
                         "}\n"
                         "print(x);\n"
                         "}");
  ASSERT_TRUE(Prog);
  StmtId Outer = Prog->statementAtLine(2);
  StmtId Middle = Prog->statementAtLine(4);
  StmtId Inner = Prog->statementAtLine(6);
  EXPECT_EQ(printedDecl(*Prog, 7), Inner);
  const auto *Assign =
      cast<AssignStmt>(Prog->statement(Prog->statementAtLine(8)));
  EXPECT_EQ(Prog->variable(Assign->var()).Decl, Inner);
  // The while condition reads the middle x, declared before the loop.
  const auto *While =
      cast<WhileStmt>(Prog->statement(Prog->statementAtLine(5)));
  const auto *Cond = cast<BinaryExpr>(While->cond());
  EXPECT_EQ(Prog->variable(cast<VarRefExpr>(Cond->lhs())->var()).Decl, Middle);
  // Each outer binding comes back as the block that shadowed it closes.
  EXPECT_EQ(printedDecl(*Prog, 11), Middle);
  EXPECT_EQ(printedDecl(*Prog, 13), Outer);
}

TEST(SemaTest, SameNameInSiblingBlocksIsNotADuplicate) {
  auto Prog = parseOrDie("fn main() {\n"
                         "if (1) {\n"
                         "var y = 1;\n"
                         "print(y);\n"
                         "} else {\n"
                         "var y = 2;\n"
                         "print(y);\n"
                         "}\n"
                         "while (0) {\n"
                         "var y = 3;\n"
                         "print(y);\n"
                         "}\n"
                         "}");
  ASSERT_TRUE(Prog);
  EXPECT_EQ(printedDecl(*Prog, 4), Prog->statementAtLine(3));
  EXPECT_EQ(printedDecl(*Prog, 7), Prog->statementAtLine(6));
  EXPECT_EQ(printedDecl(*Prog, 11), Prog->statementAtLine(10));
}

TEST(SemaTest, ScopeEndsWithBlock) {
  EXPECT_TRUE(failsSema(
      "fn main() { if (1) { var x = 2; } print(x); }"));
}

TEST(SemaTest, UnknownVariableIsAnError) {
  EXPECT_TRUE(failsSema("fn main() { print(nope); }"));
}

TEST(SemaTest, UnknownFunctionIsAnError) {
  EXPECT_TRUE(failsSema("fn main() { nope(); }"));
}

TEST(SemaTest, ArityMismatchIsAnError) {
  EXPECT_TRUE(failsSema("fn f(a) { return a; } fn main() { f(1, 2); }"));
}

TEST(SemaTest, BreakOutsideLoopIsAnError) {
  EXPECT_TRUE(failsSema("fn main() { break; }"));
}

TEST(SemaTest, ContinueOutsideLoopIsAnError) {
  EXPECT_TRUE(failsSema("fn main() { if (1) { continue; } }"));
}

TEST(SemaTest, BreakInsideLoopIsAccepted) {
  EXPECT_FALSE(failsSema("fn main() { while (1) { break; } }"));
}

TEST(SemaTest, ArrayUsedAsScalarIsAnError) {
  EXPECT_TRUE(failsSema("fn main() { var a[3]; a = 1; }"));
}

TEST(SemaTest, ScalarIndexedIsAnError) {
  EXPECT_TRUE(failsSema("fn main() { var x = 0; x[0] = 1; }"));
}

TEST(SemaTest, DuplicateLocalIsAnError) {
  EXPECT_TRUE(failsSema("fn main() { var x = 1; var x = 2; }"));
}

TEST(SemaTest, DuplicateGlobalIsAnError) {
  EXPECT_TRUE(failsSema("var g; var g; fn main() { print(1); }"));
}

TEST(SemaTest, DuplicateFunctionIsAnError) {
  EXPECT_TRUE(failsSema("fn f() { return 0; } fn f() { return 1; }\n"
                        "fn main() { print(1); }"));
}

TEST(SemaTest, MissingMainIsAnError) {
  EXPECT_TRUE(failsSema("fn helper() { return 0; }"));
}

TEST(SemaTest, MainWithParamsIsAnError) {
  EXPECT_TRUE(failsSema("fn main(x) { print(x); }"));
}

TEST(SemaTest, GlobalWithNonConstantInitIsAnError) {
  EXPECT_TRUE(failsSema("var g = 1 + 2; fn main() { print(g); }"));
}

TEST(SemaTest, ArrayInitializerIsAnError) {
  EXPECT_TRUE(failsSema("fn main() { var a[3] = 1; }"));
}

} // namespace

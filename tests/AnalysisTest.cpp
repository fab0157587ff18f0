//===-- tests/AnalysisTest.cpp - CFG / dominators / control dependence --------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/ControlDependence.h"
#include "analysis/Dominators.h"
#include "analysis/StaticAnalysis.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace eoe;
using namespace eoe::analysis;
using eoe::test::parseOrDie;

namespace {

/// Convenience: true if Parents contains (Pred, Branch).
bool hasParent(std::span<const ControlDependence::Parent> Parents,
               StmtId Pred, bool Branch) {
  for (const auto &P : Parents)
    if (P.Pred == Pred && P.Branch == Branch)
      return true;
  return false;
}

/// Immediate dominators of a graph given as adjacency lists.
std::vector<uint32_t>
idoms(uint32_t Root, const std::vector<std::vector<uint32_t>> &Succs,
      const std::vector<std::vector<uint32_t>> &Preds) {
  return computeImmediateDominators(
      static_cast<uint32_t>(Succs.size()), Root,
      [&](uint32_t N) -> const std::vector<uint32_t> & { return Succs[N]; },
      [&](uint32_t N) -> const std::vector<uint32_t> & { return Preds[N]; });
}

TEST(CFGTest, StraightLineChains) {
  auto Prog = parseOrDie("fn main() { var x = 1; x = 2; print(x); }");
  ASSERT_TRUE(Prog);
  CFG G = CFG::build(*Prog, *Prog->functions()[0]);
  // Entry, Exit, 3 statements.
  EXPECT_EQ(G.size(), 5u);
  uint32_t N = G.succs(CFG::EntryNode)[0];
  EXPECT_EQ(Prog->statement(G.node(N).Stmt)->kind(),
            lang::Stmt::Kind::VarDecl);
  // The chain ends at Exit.
  uint32_t Last = N;
  while (!G.succs(Last).empty() && G.succs(Last)[0] != CFG::ExitNode)
    Last = G.succs(Last)[0];
  EXPECT_EQ(G.succs(Last)[0], CFG::ExitNode);
}

TEST(CFGTest, IfHasTwoSuccessors) {
  auto Prog = parseOrDie(
      "fn main() { var c = 0; if (c) { print(1); } else { print(2); } }");
  ASSERT_TRUE(Prog);
  CFG G = CFG::build(*Prog, *Prog->functions()[0]);
  StmtId IfStmtId = Prog->statementAtLine(1); // all on line 1; find the if
  // Locate the if node by kind instead.
  (void)IfStmtId;
  uint32_t IfNode = InvalidId;
  for (uint32_t I = 0; I < G.size(); ++I)
    if (isValidId(G.node(I).Stmt) &&
        Prog->statement(G.node(I).Stmt)->kind() == lang::Stmt::Kind::If)
      IfNode = I;
  ASSERT_NE(IfNode, InvalidId);
  EXPECT_TRUE(G.isBranch(IfNode));
  EXPECT_NE(G.branchTarget(IfNode, true), G.branchTarget(IfNode, false));
}

TEST(CFGTest, WhileLoopHasBackEdge) {
  auto Prog = parseOrDie(
      "fn main() { var i = 0; while (i < 3) { i = i + 1; } print(i); }");
  ASSERT_TRUE(Prog);
  CFG G = CFG::build(*Prog, *Prog->functions()[0]);
  uint32_t WhileNode = InvalidId, BodyNode = InvalidId;
  for (uint32_t I = 0; I < G.size(); ++I) {
    if (!isValidId(G.node(I).Stmt))
      continue;
    auto K = Prog->statement(G.node(I).Stmt)->kind();
    if (K == lang::Stmt::Kind::While)
      WhileNode = I;
    if (K == lang::Stmt::Kind::Assign)
      BodyNode = I;
  }
  ASSERT_NE(WhileNode, InvalidId);
  ASSERT_NE(BodyNode, InvalidId);
  EXPECT_EQ(G.branchTarget(WhileNode, true), BodyNode);
  EXPECT_EQ(G.succs(BodyNode)[0], WhileNode);
}

TEST(CFGTest, BreakJumpsPastLoop) {
  auto Prog = parseOrDie("fn main() { while (1) { break; } print(1); }");
  ASSERT_TRUE(Prog);
  CFG G = CFG::build(*Prog, *Prog->functions()[0]);
  uint32_t BreakNode = InvalidId, PrintNode = InvalidId;
  for (uint32_t I = 0; I < G.size(); ++I) {
    if (!isValidId(G.node(I).Stmt))
      continue;
    auto K = Prog->statement(G.node(I).Stmt)->kind();
    if (K == lang::Stmt::Kind::Break)
      BreakNode = I;
    if (K == lang::Stmt::Kind::Print)
      PrintNode = I;
  }
  ASSERT_NE(BreakNode, InvalidId);
  EXPECT_EQ(G.succs(BreakNode)[0], PrintNode);
}

TEST(CFGTest, ReturnJumpsToExit) {
  auto Prog = parseOrDie("fn main() { return 1; }");
  ASSERT_TRUE(Prog);
  CFG G = CFG::build(*Prog, *Prog->functions()[0]);
  uint32_t Ret = G.succs(CFG::EntryNode)[0];
  EXPECT_EQ(G.succs(Ret)[0], CFG::ExitNode);
}

TEST(CFGTest, PredsMirrorSuccs) {
  auto Prog = parseOrDie("fn f(n) {\n"
                         "var i = 0;\n"
                         "while (i < n) {\n"
                         "if (i == 2) {\n"
                         "i = i + 1;\n"
                         "continue;\n"
                         "}\n"
                         "if (i > 5) {\n"
                         "break;\n"
                         "}\n"
                         "if (i == 7) {\n"
                         "return i;\n"
                         "}\n"
                         "i = i + 1;\n"
                         "}\n"
                         "return 0;\n"
                         "}\n"
                         "fn main() { print(f(3)); }");
  ASSERT_TRUE(Prog);
  CFG G = CFG::build(*Prog, *Prog->functions()[0]);
  std::multiset<std::pair<uint32_t, uint32_t>> FromSuccs, FromPreds;
  for (uint32_t N = 0; N < G.size(); ++N) {
    for (uint32_t S : G.succs(N))
      FromSuccs.insert({N, S});
    for (uint32_t P : G.preds(N))
      FromPreds.insert({P, N});
    EXPECT_TRUE(std::is_sorted(G.preds(N).begin(), G.preds(N).end())) << N;
  }
  EXPECT_EQ(FromSuccs, FromPreds);
  EXPECT_TRUE(G.preds(CFG::EntryNode).empty());

  auto NodeAt = [&](uint32_t Line) {
    StmtId S = Prog->statementAtLine(Line);
    for (uint32_t N = 0; N < G.size(); ++N)
      if (G.node(N).Stmt == S)
        return N;
    return InvalidId;
  };
  auto HasPred = [&](uint32_t N, uint32_t P) {
    std::span<const uint32_t> Preds = G.preds(N);
    return std::find(Preds.begin(), Preds.end(), P) != Preds.end();
  };
  uint32_t Loop = NodeAt(3);
  EXPECT_TRUE(HasPred(Loop, NodeAt(6)));  // continue
  EXPECT_TRUE(HasPred(Loop, NodeAt(14))); // the back edge
  EXPECT_TRUE(HasPred(NodeAt(16), NodeAt(9))); // break
  EXPECT_TRUE(HasPred(NodeAt(16), Loop));      // the loop's exit
  EXPECT_TRUE(HasPred(CFG::ExitNode, NodeAt(12)));
  EXPECT_TRUE(HasPred(CFG::ExitNode, NodeAt(16)));
}

TEST(DominatorsTest, DiamondGraph) {
  //      0
  //    /   \.
  //   1     2
  //    \   /
  //      3
  std::vector<std::vector<uint32_t>> Succs = {{1, 2}, {3}, {3}, {}};
  std::vector<std::vector<uint32_t>> Preds = {{}, {0}, {0}, {1, 2}};
  auto IDom = idoms(0, Succs, Preds);
  EXPECT_EQ(IDom[0], 0u);
  EXPECT_EQ(IDom[1], 0u);
  EXPECT_EQ(IDom[2], 0u);
  EXPECT_EQ(IDom[3], 0u);
  EXPECT_TRUE(dominates(IDom, 0, 3, 0));
  EXPECT_FALSE(dominates(IDom, 1, 3, 0));
}

TEST(DominatorsTest, ChainGraph) {
  std::vector<std::vector<uint32_t>> Succs = {{1}, {2}, {3}, {}};
  std::vector<std::vector<uint32_t>> Preds = {{}, {0}, {1}, {2}};
  auto IDom = idoms(0, Succs, Preds);
  EXPECT_EQ(IDom[3], 2u);
  EXPECT_EQ(IDom[2], 1u);
  EXPECT_TRUE(dominates(IDom, 1, 3, 0));
}

TEST(DominatorsTest, LoopGraph) {
  // 0 -> 1 -> 2 -> 1, 2 -> 3
  std::vector<std::vector<uint32_t>> Succs = {{1}, {2}, {1, 3}, {}};
  std::vector<std::vector<uint32_t>> Preds = {{}, {0, 2}, {1}, {2}};
  auto IDom = idoms(0, Succs, Preds);
  EXPECT_EQ(IDom[1], 0u);
  EXPECT_EQ(IDom[2], 1u);
  EXPECT_EQ(IDom[3], 2u);
}

TEST(DominatorsTest, UnreachableNodesGetInvalid) {
  std::vector<std::vector<uint32_t>> Succs = {{1}, {}, {1}};
  std::vector<std::vector<uint32_t>> Preds = {{}, {0, 2}, {}};
  auto IDom = idoms(0, Succs, Preds);
  EXPECT_EQ(IDom[2], InvalidId);
}

TEST(ControlDependenceTest, ThenBranchDependsOnIf) {
  auto Prog = parseOrDie("fn main() {\n"
                         "var c = 0;\n"
                         "if (c) {\n"
                         "print(1);\n"
                         "}\n"
                         "print(2);\n"
                         "}");
  ASSERT_TRUE(Prog);
  StaticAnalysis SA(*Prog);
  StmtId If = Prog->statementAtLine(3);
  StmtId Print1 = Prog->statementAtLine(4);
  StmtId Print2 = Prog->statementAtLine(6);
  EXPECT_TRUE(hasParent(SA.cdParents(Print1), If, true));
  EXPECT_TRUE(SA.cdParents(Print2).empty());
  // Region query: print(1) is guarded by (if, true) but not (if, false).
  EXPECT_TRUE(SA.cdRegionContains(If, true, Print1));
  EXPECT_FALSE(SA.cdRegionContains(If, false, Print1));
}

TEST(ControlDependenceTest, ElseBranchDependsOnIfFalse) {
  auto Prog = parseOrDie("fn main() {\n"
                         "var c = 0;\n"
                         "if (c) {\n"
                         "print(1);\n"
                         "} else {\n"
                         "print(2);\n"
                         "}\n"
                         "}");
  ASSERT_TRUE(Prog);
  StaticAnalysis SA(*Prog);
  StmtId If = Prog->statementAtLine(3);
  StmtId Print2 = Prog->statementAtLine(6);
  EXPECT_TRUE(hasParent(SA.cdParents(Print2), If, false));
}

TEST(ControlDependenceTest, LoopBodyAndLoopSelfDependence) {
  auto Prog = parseOrDie("fn main() {\n"
                         "var i = 0;\n"
                         "while (i < 3) {\n"
                         "i = i + 1;\n"
                         "}\n"
                         "print(i);\n"
                         "}");
  ASSERT_TRUE(Prog);
  StaticAnalysis SA(*Prog);
  StmtId While = Prog->statementAtLine(3);
  StmtId Body = Prog->statementAtLine(4);
  StmtId After = Prog->statementAtLine(6);
  EXPECT_TRUE(hasParent(SA.cdParents(Body), While, true));
  // The loop predicate re-tests itself: classic self control dependence.
  EXPECT_TRUE(hasParent(SA.cdParents(While), While, true));
  EXPECT_TRUE(SA.cdParents(After).empty());
}

TEST(ControlDependenceTest, StatementsAfterConditionalBreak) {
  auto Prog = parseOrDie("fn main() {\n"
                         "var i = 0;\n"
                         "var c = 0;\n"
                         "while (i < 3) {\n"
                         "if (c) {\n"
                         "break;\n"
                         "}\n"
                         "i = i + 1;\n"
                         "}\n"
                         "print(i);\n"
                         "}");
  ASSERT_TRUE(Prog);
  StaticAnalysis SA(*Prog);
  StmtId If = Prog->statementAtLine(5);
  StmtId Inc = Prog->statementAtLine(8);
  StmtId While = Prog->statementAtLine(4);
  // i = i + 1 executes only when the break condition is false.
  EXPECT_TRUE(hasParent(SA.cdParents(Inc), If, false));
  // The next loop test also depends on not breaking.
  EXPECT_TRUE(hasParent(SA.cdParents(While), If, false));
}

TEST(StaticAnalysisTest, DefsIndexAndReachability) {
  auto Prog = parseOrDie("var g = 0;\n"
                         "fn main() {\n"
                         "g = 1;\n"
                         "print(g);\n"
                         "g = 2;\n"
                         "}");
  ASSERT_TRUE(Prog);
  StaticAnalysis SA(*Prog);
  VarId G = Prog->globals()[0]->var();
  // Three defs: the global decl, and the two assignments.
  EXPECT_EQ(SA.defsOfVar(G).size(), 3u);
  StmtId A1 = Prog->statementAtLine(3);
  StmtId P = Prog->statementAtLine(4);
  StmtId A2 = Prog->statementAtLine(5);
  EXPECT_TRUE(SA.mayReach(A1, P));
  EXPECT_FALSE(SA.mayReach(A2, P));
  EXPECT_EQ(SA.definedVar(A1), G);
  EXPECT_EQ(SA.definedVar(P), InvalidId);
}

TEST(StaticAnalysisTest, LoopMakesStatementsMutuallyReachable) {
  auto Prog = parseOrDie("fn main() {\n"
                         "var i = 0;\n"
                         "while (i < 3) {\n"
                         "var a = 1;\n"
                         "var b = 2;\n"
                         "i = i + 1;\n"
                         "}\n"
                         "}");
  ASSERT_TRUE(Prog);
  StaticAnalysis SA(*Prog);
  StmtId A = Prog->statementAtLine(4);
  StmtId B = Prog->statementAtLine(5);
  EXPECT_TRUE(SA.mayReach(A, B));
  EXPECT_TRUE(SA.mayReach(B, A)); // around the back edge
  EXPECT_TRUE(SA.mayReach(A, A)); // on a cycle
}

TEST(StaticAnalysisTest, FunctionOfMapsStatements) {
  auto Prog = parseOrDie("fn f() { return 1; }\n"
                         "fn main() { print(f()); }");
  ASSERT_TRUE(Prog);
  StaticAnalysis SA(*Prog);
  FuncId F = Prog->findFunction("f");
  FuncId Main = Prog->findFunction("main");
  EXPECT_EQ(SA.statementCount(F), 1u);
  EXPECT_EQ(SA.statementCount(Main), 1u);
}

} // namespace

//===-- tests/DepGraphTest.cpp - Dynamic dependence graph tests ---------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "ddg/DepGraph.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::ddg;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

TEST(DepGraphTest, BackwardClosureFollowsDataDeps) {
  const char *Src = "fn main() {\n"
                    "var a = 1;\n"
                    "var b = 2;\n"
                    "var c = a + 1;\n"
                    "print(c);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  DepGraph G(T);
  TraceIdx Print = S.instanceAtLine(T, 5);
  auto Member = G.backwardClosure({Print}, DepGraph::ClosureOptions());
  EXPECT_TRUE(Member[S.instanceAtLine(T, 2)]);  // a
  EXPECT_FALSE(Member[S.instanceAtLine(T, 3)]); // b is unrelated
  EXPECT_TRUE(Member[S.instanceAtLine(T, 4)]);  // c
  EXPECT_TRUE(Member[Print]);
}

TEST(DepGraphTest, BackwardClosureFollowsControlDeps) {
  const char *Src = "fn main() {\n"
                    "var c = 1;\n"
                    "if (c) {\n"
                    "print(9);\n"
                    "}\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  DepGraph G(T);
  TraceIdx Print = S.instanceAtLine(T, 4);
  auto Member = G.backwardClosure({Print}, DepGraph::ClosureOptions());
  EXPECT_TRUE(Member[S.instanceAtLine(T, 3)]); // the if predicate
  EXPECT_TRUE(Member[S.instanceAtLine(T, 2)]); // c feeds the predicate

  DepGraph::ClosureOptions NoControl;
  NoControl.Control = false;
  auto DataOnly = G.backwardClosure({Print}, NoControl);
  EXPECT_FALSE(DataOnly[S.instanceAtLine(T, 3)]);
}

TEST(DepGraphTest, ImplicitEdgesExtendTheClosure) {
  const char *Src = "fn main() {\n"
                    "var flag = 0;\n"
                    "var out = 5;\n"
                    "if (flag) {\n"
                    "out = 6;\n"
                    "}\n"
                    "print(out);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  DepGraph G(T);
  TraceIdx Print = S.instanceAtLine(T, 7);
  TraceIdx If = S.instanceAtLine(T, 4);

  auto Before = G.backwardClosure({Print}, DepGraph::ClosureOptions());
  EXPECT_FALSE(Before[If]) << "print(out) must not reach the untaken if";

  // The implicit dependence the paper's technique would verify: print's
  // use of out implicitly depends on the if.
  G.addImplicitEdge(Print, If, /*Strong=*/true);
  auto After = G.backwardClosure({Print}, DepGraph::ClosureOptions());
  EXPECT_TRUE(After[If]);
  EXPECT_TRUE(After[S.instanceAtLine(T, 2)]) << "flag feeds the predicate";

  DepGraph::ClosureOptions NoImplicit;
  NoImplicit.Implicit = false;
  auto Suppressed = G.backwardClosure({Print}, NoImplicit);
  EXPECT_FALSE(Suppressed[If]);
}

TEST(DepGraphTest, DuplicateImplicitEdgesCollapse) {
  Session S("fn main() { var x = 1; var y = 2; print(x); }");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  DepGraph G(T);
  G.addImplicitEdge(2, 1, false);
  G.addImplicitEdge(0, 1, false);
  G.addImplicitEdge(2, 0, false);
  G.addImplicitEdge(2, 1, true);
  ASSERT_EQ(G.implicitEdges().size(), 3u);
  EXPECT_TRUE(G.implicitEdges()[0].Strong) << "strength upgrades";
  // A use's predicates come in the order their edges were added.
  auto Preds = G.implicitPredsOf(2);
  EXPECT_EQ(std::vector<TraceIdx>(Preds.begin(), Preds.end()),
            (std::vector<TraceIdx>{1, 0}));
  EXPECT_TRUE(G.implicitPredsOf(1).empty());
}

/// Expects \p Member and \p Depth to be the backward closure of \p Seeds
/// over the graph's current edges.
void expectClosure(const DepGraph &G, const std::vector<TraceIdx> &Seeds,
                   const std::vector<bool> &Member,
                   const std::vector<uint32_t> &Depth) {
  std::vector<uint32_t> FreshDepth;
  EXPECT_EQ(Member,
            G.backwardClosure(Seeds, DepGraph::ClosureOptions(), &FreshDepth));
  EXPECT_EQ(Depth, FreshDepth);
}

TEST(DepGraphTest, ExtendingAClosureEqualsRecomputingIt) {
  const char *Src = "fn main() {\n"
                    "var f = 0;\n"   // 2
                    "var g = 0;\n"   // 3
                    "var x = 1;\n"   // 4
                    "if (f) {\n"     // 5
                    "x = 3;\n"
                    "}\n"
                    "if (g) {\n"     // 8
                    "x = 4;\n"
                    "}\n"
                    "print(x);\n"    // 11
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  DepGraph G(T);
  TraceIdx Print = S.instanceAtLine(T, 11);
  TraceIdx IfF = S.instanceAtLine(T, 5), IfG = S.instanceAtLine(T, 8);
  std::vector<uint32_t> Depth;
  std::vector<bool> Member =
      G.backwardClosure({Print}, DepGraph::ClosureOptions(), &Depth);
  std::vector<bool> Plain = Member;

  // Two edges in one extension. The first one's use enters the closure
  // only through the second, and its predicate runs after its use.
  G.addImplicitEdge(IfF, IfG, false);
  G.addImplicitEdge(Print, IfF, false);
  G.extendBackwardClosure(Member, &Depth, 0);
  G.extendBackwardClosure(Plain, nullptr, 0);
  expectClosure(G, {Print}, Member, Depth);
  EXPECT_EQ(Plain, Member);
  EXPECT_EQ(Depth[IfG], 2u);
  EXPECT_EQ(Depth[S.instanceAtLine(T, 3)], 3u);

  // A shortcut to a member lowers its depth and its predecessors'.
  G.addImplicitEdge(Print, IfG, false);
  G.extendBackwardClosure(Member, &Depth, 2);
  expectClosure(G, {Print}, Member, Depth);
  EXPECT_EQ(Depth[IfG], 1u);
  EXPECT_EQ(Depth[S.instanceAtLine(T, 3)], 2u);
}

TEST(DepGraphTest, DepthMeasuresDependenceDistance) {
  const char *Src = "fn main() {\n"
                    "var a = 1;\n"
                    "var b = a + 1;\n"
                    "var c = b + 1;\n"
                    "print(c);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  DepGraph G(T);
  TraceIdx Print = S.instanceAtLine(T, 5);
  std::vector<uint32_t> Depth;
  G.backwardClosure({Print}, DepGraph::ClosureOptions(), &Depth);
  EXPECT_EQ(Depth[Print], 0u);
  EXPECT_EQ(Depth[S.instanceAtLine(T, 4)], 1u);
  EXPECT_EQ(Depth[S.instanceAtLine(T, 3)], 2u);
  EXPECT_EQ(Depth[S.instanceAtLine(T, 2)], 3u);
}

TEST(DepGraphTest, ForwardClosureIsConverseOfBackward) {
  const char *Src = "fn main() {\n"
                    "var a = 1;\n"
                    "var b = a + 1;\n"
                    "var c = 7;\n"
                    "print(b, c);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  DepGraph G(T);
  TraceIdx DefA = S.instanceAtLine(T, 2);
  auto Fwd = G.forwardClosure({DefA}, DepGraph::ClosureOptions());
  EXPECT_TRUE(Fwd[S.instanceAtLine(T, 3)]);
  EXPECT_TRUE(Fwd[S.instanceAtLine(T, 5)]);
  EXPECT_FALSE(Fwd[S.instanceAtLine(T, 4)]);

  // Converse check across all pairs: i in Fwd(j) <=> j in Bwd(i).
  for (TraceIdx I = 0; I < T.size(); ++I) {
    auto Bwd = G.backwardClosure({I}, DepGraph::ClosureOptions());
    EXPECT_EQ(Fwd[I], Bwd[DefA]) << "instance " << I;
  }
}

TEST(DepGraphTest, StatsCountStaticAndDynamic) {
  const char *Src = "fn main() {\n"
                    "var i = 0;\n"
                    "var s = 0;\n"
                    "while (i < 3) {\n"
                    "s = s + i;\n"
                    "i = i + 1;\n"
                    "}\n"
                    "print(s);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  DepGraph G(T);
  TraceIdx Print = S.instanceAtLine(T, 8);
  auto Member = G.backwardClosure({Print}, DepGraph::ClosureOptions());
  SliceStats Stats = G.stats(Member);
  // Unique statements: both decls, while, both assigns, print = 6.
  EXPECT_EQ(Stats.StaticStmts, 6u);
  // Instances: decls(2) + the three taken while tests (the exiting fourth
  // test governs nothing in the slice) + s-assign x3 + i-assign x2 (the
  // third increment never feeds the printed sum) + print = 11.
  EXPECT_EQ(Stats.DynamicInstances, 11u);
}

} // namespace

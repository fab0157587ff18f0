//===-- tests/VizTest.cpp - GraphViz export tests -------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "viz/Dot.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

const char *Src = "fn main() {\n"
                  "var c = 1;\n"
                  "if (c) {\n"
                  "print(7);\n"
                  "}\n"
                  "print(8);\n"
                  "}";

TEST(VizTest, CfgDotHasBranchLabelsAndShapes) {
  Session S(Src);
  ASSERT_TRUE(S.valid());
  FuncId Main = S.Prog->mainFunction();
  std::string Dot =
      viz::cfgToDot(*S.Prog, S.SA->cfg(Main), *S.Prog->function(Main));
  EXPECT_NE(Dot.find("digraph cfg_main"), std::string::npos);
  EXPECT_NE(Dot.find("ENTRY main"), std::string::npos);
  EXPECT_NE(Dot.find("shape=diamond"), std::string::npos);
  EXPECT_NE(Dot.find("[label=\"T\"]"), std::string::npos);
  EXPECT_NE(Dot.find("[label=\"F\"]"), std::string::npos);
  EXPECT_NE(Dot.find("if (c)"), std::string::npos);
}

TEST(VizTest, RegionTreeDotNestsBodyUnderPredicate) {
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  align::RegionTree Tree(T);
  std::string Dot = viz::regionTreeToDot(*S.Prog, T, Tree);
  TraceIdx If = S.instanceAtLine(T, 3);
  TraceIdx Print7 = S.instanceAtLine(T, 4);
  std::string Edge = "i";
  Edge += std::to_string(If) + " -> i" + std::to_string(Print7);
  EXPECT_NE(Dot.find(Edge), std::string::npos);
  EXPECT_NE(Dot.find("(T)"), std::string::npos) << "branch outcome shown";
}

TEST(VizTest, RegionTreeDotTruncatesLongTraces) {
  Session S("fn main() {\n"
            "var i = 0;\n"
            "while (i < 50) {\n"
            "i = i + 1;\n"
            "}\n"
            "}");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  align::RegionTree Tree(T);
  std::string Dot = viz::regionTreeToDot(*S.Prog, T, Tree, /*MaxNodes=*/10);
  EXPECT_NE(Dot.find("more instances"), std::string::npos);
}

TEST(VizTest, DepGraphDotShowsAllThreeEdgeKinds) {
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  ddg::DepGraph G(T);
  TraceIdx If = S.instanceAtLine(T, 3);
  TraceIdx Print8 = S.instanceAtLine(T, 6);
  G.addImplicitEdge(Print8, If, /*Strong=*/true);

  std::string Dot = viz::depGraphToDot(*S.Prog, G);
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos) << "control edge";
  EXPECT_NE(Dot.find("color=red"), std::string::npos) << "implicit edge";
  EXPECT_NE(Dot.find("strong id"), std::string::npos);
  // Data edge: the if uses c.
  TraceIdx DefC = S.instanceAtLine(T, 2);
  std::string DataEdge = "i";
  DataEdge += std::to_string(If) + " -> i" + std::to_string(DefC) + ";";
  EXPECT_NE(Dot.find(DataEdge), std::string::npos);
}

TEST(VizTest, DepGraphDotRespectsFilter) {
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  ddg::DepGraph G(T);
  std::vector<bool> Only(T.size(), false);
  std::string Dot = viz::depGraphToDot(*S.Prog, G, &Only);
  EXPECT_NE(Dot.find("no instances selected"), std::string::npos);
}

TEST(VizTest, LabelsEscapeQuotes) {
  // No quotes in Siml source, but backslash-safety is cheap to pin down:
  // the label of print('\'') contains an escaped numeric literal only.
  Session S("fn main() { print('\\''); }");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  align::RegionTree Tree(T);
  std::string Dot = viz::regionTreeToDot(*S.Prog, T, Tree);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
}

} // namespace

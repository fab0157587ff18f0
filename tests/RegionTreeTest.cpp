//===-- tests/RegionTreeTest.cpp - Region decomposition tests -----------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "align/RegionTree.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::align;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

std::vector<TraceIdx> childrenOf(const RegionTree &Tree, TraceIdx Head) {
  std::span<const TraceIdx> Kids = Tree.children(Head);
  return {Kids.begin(), Kids.end()};
}

TEST(RegionTreeTest, TopLevelStatementsAreRoots) {
  Session S("fn main() { var a = 1; var b = 2; print(a + b); }");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  RegionTree Tree(T);
  EXPECT_EQ(Tree.children(InvalidId).size(), T.size());
  for (TraceIdx I = 0; I < T.size(); ++I)
    EXPECT_EQ(Tree.depth(I), 0u);
}

TEST(RegionTreeTest, IfBodyNestsUnderPredicate) {
  const char *Src = "fn main() {\n"
                    "var c = 1;\n"
                    "if (c) {\n"
                    "print(1);\n"
                    "print(2);\n"
                    "}\n"
                    "print(3);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  RegionTree Tree(T);
  TraceIdx If = S.instanceAtLine(T, 3);
  TraceIdx P1 = S.instanceAtLine(T, 4);
  TraceIdx P2 = S.instanceAtLine(T, 5);
  TraceIdx P3 = S.instanceAtLine(T, 7);

  EXPECT_EQ(childrenOf(Tree, If), (std::vector<TraceIdx>{P1, P2}));
  EXPECT_TRUE(Tree.inRegion(P1, If));
  EXPECT_TRUE(Tree.inRegion(If, If));
  EXPECT_FALSE(Tree.inRegion(P3, If));
  EXPECT_EQ(Tree.regionSize(If), 3u);
}

TEST(RegionTreeTest, LoopIterationsNestLikeThePaper) {
  // Mirrors the paper's region [6,7,8,11,12,6]: each while test's region
  // contains its body and the *next* while test.
  const char *Src = "fn main() {\n"
                    "var i = 0;\n"
                    "while (i < 2) {\n"
                    "i = i + 1;\n"
                    "}\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  RegionTree Tree(T);
  TraceIdx W1 = S.instanceAtLine(T, 3, 1);
  TraceIdx W2 = S.instanceAtLine(T, 3, 2);
  TraceIdx W3 = S.instanceAtLine(T, 3, 3);
  TraceIdx I1 = S.instanceAtLine(T, 4, 1);

  EXPECT_EQ(childrenOf(Tree, W1), (std::vector<TraceIdx>{I1, W2}));
  EXPECT_TRUE(Tree.inRegion(W3, W1)) << "whole loop nests in iteration 1";
  EXPECT_TRUE(Tree.inRegion(W3, W2));
  EXPECT_FALSE(Tree.inRegion(W1, W2));
  EXPECT_EQ(Tree.depth(W3), 2u);
}

TEST(RegionTreeTest, CalleeBodyFormsSubregionOfCall) {
  const char *Src = "fn f() {\n"
                    "print(1);\n"
                    "return 0;\n"
                    "}\n"
                    "fn main() {\n"
                    "f();\n"
                    "print(2);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  RegionTree Tree(T);
  TraceIdx Call = S.instanceAtLine(T, 6);
  TraceIdx InnerPrint = S.instanceAtLine(T, 2);
  TraceIdx OuterPrint = S.instanceAtLine(T, 7);
  EXPECT_TRUE(Tree.inRegion(InnerPrint, Call));
  EXPECT_FALSE(Tree.inRegion(OuterPrint, Call));
}

TEST(RegionTreeTest, SubtreesAreContiguousTraceIntervals) {
  const char *Src = "fn fib(n) {\n"
                    "if (n < 2) { return n; }\n"
                    "return fib(n - 1) + fib(n - 2);\n"
                    "}\n"
                    "fn main() {\n"
                    "var i = 0;\n"
                    "while (i < 4) {\n"
                    "print(fib(i));\n"
                    "i = i + 1;\n"
                    "}\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  RegionTree Tree(T);
  // For every head, the set {x : inRegion(x, head)} must be an interval
  // starting at head. This is the structural property the aligner's
  // positional sibling walk relies on.
  for (TraceIdx Head = 0; Head < T.size(); ++Head) {
    size_t Count = 0;
    TraceIdx Last = Head;
    for (TraceIdx I = 0; I < T.size(); ++I) {
      if (Tree.inRegion(I, Head)) {
        ++Count;
        Last = I;
      }
    }
    EXPECT_EQ(Count, Tree.regionSize(Head));
    EXPECT_EQ(Last - Head + 1, Count) << "region " << Head << " not contiguous";
  }
}

TEST(RegionTreeTest, ChildrenAreInExecutionOrder) {
  const char *Src = "fn main() {\n"
                    "var c = 1;\n"
                    "if (c) {\n"
                    "print(1);\n"
                    "print(2);\n"
                    "print(3);\n"
                    "}\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  RegionTree Tree(T);
  TraceIdx If = S.instanceAtLine(T, 3);
  const auto Kids = Tree.children(If);
  ASSERT_EQ(Kids.size(), 3u);
  EXPECT_TRUE(Kids[0] < Kids[1] && Kids[1] < Kids[2]);
}

// A tree indexing the steps from some index on is the whole tree cut
// there: the same parents and regions of indexed heads, and for a head
// before the cut (or the virtual region) its children from the cut on.
TEST(RegionTreeTest, SuffixTreeIsTheWholeTreeCut) {
  const char *Src = "fn fib(n) {\n"
                    "if (n < 2) { return n; }\n"
                    "return fib(n - 1) + fib(n - 2);\n"
                    "}\n"
                    "fn main() {\n"
                    "var i = 0;\n"
                    "while (i < 4) {\n"
                    "print(fib(i));\n"
                    "i = i + 1;\n"
                    "}\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  RegionTree Whole(T);
  ResumedTrace Run = ResumedTrace::view(T);
  for (TraceIdx From : {TraceIdx(0), TraceIdx(7), TraceIdx(T.size() / 2),
                        TraceIdx(T.size() - 1)}) {
    RegionTree Cut(Run, From);
    EXPECT_EQ(Cut.regionSize(InvalidId), T.size() - From);
    for (TraceIdx Head = 0; Head < T.size(); ++Head) {
      std::vector<TraceIdx> Want;
      for (TraceIdx C : Whole.children(Head))
        if (C >= From)
          Want.push_back(C);
      EXPECT_EQ(childrenOf(Cut, Head), Want) << "head " << Head;
      if (Head < From)
        continue;
      EXPECT_EQ(Cut.parent(Head), Whole.parent(Head));
      EXPECT_EQ(Cut.regionSize(Head), Whole.regionSize(Head));
      for (TraceIdx I = 0; I < T.size(); ++I)
        EXPECT_EQ(Cut.inRegion(I, Head), Whole.inRegion(I, Head))
            << "node " << I << " head " << Head << " from " << From;
    }
    std::vector<TraceIdx> Top;
    for (TraceIdx C : Whole.children(InvalidId))
      if (C >= From)
        Top.push_back(C);
    EXPECT_EQ(childrenOf(Cut, InvalidId), Top);
  }
}

} // namespace

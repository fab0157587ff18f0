//===-- tests/TraceTest.cpp - Dependence recording tests ----------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Trace.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

TEST(MemLocTest, EncodingRoundTrips) {
  MemLoc G = MemLoc::global(7);
  EXPECT_TRUE(G.isGlobal());
  EXPECT_EQ(G.slot(), 7u);

  MemLoc F = MemLoc::frame(123, 4);
  EXPECT_FALSE(F.isGlobal());
  EXPECT_EQ(F.frameSerial(), 123u);
  EXPECT_EQ(F.slot(), 4u);
  EXPECT_FALSE(F.isRetVal());

  MemLoc R = MemLoc::retVal(123);
  EXPECT_TRUE(R.isRetVal());
  EXPECT_EQ(R.frameSerial(), 123u);
  EXPECT_NE(F.Raw, R.Raw);
}

TEST(TraceTest, DataDependenceLinksDefToUse) {
  const char *Src = "fn main() {\n"
                    "var x = 5;\n"
                    "var y = x + 1;\n"
                    "print(y);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();

  TraceIdx DefX = S.instanceAtLine(T, 2);
  TraceIdx DefY = S.instanceAtLine(T, 3);
  TraceIdx Print = S.instanceAtLine(T, 4);
  ASSERT_NE(DefX, InvalidId);
  ASSERT_NE(DefY, InvalidId);
  ASSERT_NE(Print, InvalidId);

  ASSERT_EQ(T.uses(DefY).size(), 1u);
  EXPECT_EQ(T.uses(DefY)[0].Def, DefX);
  EXPECT_EQ(T.uses(DefY)[0].Value, 5);
  ASSERT_EQ(T.uses(Print).size(), 1u);
  EXPECT_EQ(T.uses(Print)[0].Def, DefY);
}

TEST(TraceTest, RedefinitionKillsOldDef) {
  const char *Src = "fn main() {\n"
                    "var x = 1;\n"
                    "x = 2;\n"
                    "print(x);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  TraceIdx Print = S.instanceAtLine(T, 4);
  EXPECT_EQ(T.uses(Print)[0].Def, S.instanceAtLine(T, 3));
}

TEST(TraceTest, ArrayElementsTrackedIndividually) {
  const char *Src = "fn main() {\n"
                    "var a[4];\n"
                    "a[0] = 10;\n"
                    "a[1] = 20;\n"
                    "print(a[1]);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  TraceIdx Print = S.instanceAtLine(T, 5);
  // Uses: the element load (index is a literal, no load for it).
  ASSERT_EQ(T.uses(Print).size(), 1u);
  EXPECT_EQ(T.uses(Print)[0].Def, S.instanceAtLine(T, 4));
  EXPECT_EQ(T.uses(Print)[0].Value, 20);
}

TEST(TraceTest, IndexExpressionLoadsAreUsesToo) {
  const char *Src = "fn main() {\n"
                    "var a[4];\n"
                    "var i = 2;\n"
                    "a[i] = 7;\n"
                    "print(a[2]);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  TraceIdx Store = S.instanceAtLine(T, 4);
  // The store uses i (the index).
  ASSERT_EQ(T.uses(Store).size(), 1u);
  EXPECT_EQ(T.uses(Store)[0].Def, S.instanceAtLine(T, 3));
}

TEST(TraceTest, CallLinksArgsParamsAndReturn) {
  const char *Src = "fn double(n) {\n"
                    "return n * 2;\n"
                    "}\n"
                    "fn main() {\n"
                    "var x = 3;\n"
                    "var y = double(x);\n"
                    "print(y);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  TraceIdx DefX = S.instanceAtLine(T, 5);
  TraceIdx CallY = S.instanceAtLine(T, 6);
  TraceIdx Ret = S.instanceAtLine(T, 2);

  // The call-site instance uses x and the callee's return value.
  auto Call = T.uses(CallY);
  ASSERT_EQ(Call.size(), 2u);
  EXPECT_EQ(Call[0].Def, DefX);   // argument evaluation
  EXPECT_EQ(Call[1].Def, Ret);    // return value
  EXPECT_TRUE(Call[1].Loc.isRetVal());

  // The return instance uses the parameter, defined by the call site.
  auto RetUses = T.uses(Ret);
  ASSERT_EQ(RetUses.size(), 1u);
  EXPECT_EQ(RetUses[0].Def, CallY);
}

TEST(TraceTest, DynamicControlParentsFormLoopNesting) {
  const char *Src = "fn main() {\n"
                    "var i = 0;\n"
                    "while (i < 2) {\n"
                    "i = i + 1;\n"
                    "}\n"
                    "print(i);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();

  TraceIdx W1 = S.instanceAtLine(T, 3, 1);
  TraceIdx W2 = S.instanceAtLine(T, 3, 2);
  TraceIdx W3 = S.instanceAtLine(T, 3, 3);
  TraceIdx Inc1 = S.instanceAtLine(T, 4, 1);
  TraceIdx Inc2 = S.instanceAtLine(T, 4, 2);
  TraceIdx Print = S.instanceAtLine(T, 6);

  // Each iteration nests in the previous one (paper Definition 3).
  EXPECT_EQ(T.step(Inc1).CdParent, W1);
  EXPECT_EQ(T.step(W2).CdParent, W1);
  EXPECT_EQ(T.step(Inc2).CdParent, W2);
  EXPECT_EQ(T.step(W3).CdParent, W2);
  // Top-level statements have no parent in main.
  EXPECT_EQ(T.step(W1).CdParent, InvalidId);
  EXPECT_EQ(T.step(Print).CdParent, InvalidId);
}

TEST(TraceTest, CalleeTopLevelHangsOffCallSite) {
  const char *Src = "fn f() {\n"
                    "print(1);\n"
                    "return 0;\n"
                    "}\n"
                    "fn main() {\n"
                    "f();\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  TraceIdx Call = S.instanceAtLine(T, 6);
  TraceIdx P = S.instanceAtLine(T, 2);
  EXPECT_EQ(T.step(P).CdParent, Call);
}

TEST(TraceTest, BranchOutcomesRecorded) {
  const char *Src = "fn main() {\n"
                    "var c = 1;\n"
                    "if (c) {\n"
                    "print(1);\n"
                    "}\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  TraceIdx If = S.instanceAtLine(T, 3);
  EXPECT_TRUE(T.step(If).isPredicateInstance());
  EXPECT_TRUE(T.step(If).branch());
  TraceIdx Print = S.instanceAtLine(T, 4);
  EXPECT_FALSE(T.step(Print).isPredicateInstance());
  EXPECT_EQ(T.step(Print).CdParent, If);
}

TEST(TraceTest, OutputEventsCarryStepAndArgPositions) {
  const char *Src = "fn main() { print(10, 20); print(30); }";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  ASSERT_EQ(T.Outputs.size(), 3u);
  EXPECT_EQ(T.Outputs[0].Value, 10);
  EXPECT_EQ(T.Outputs[0].ArgNo, 0u);
  EXPECT_EQ(T.Outputs[1].ArgNo, 1u);
  EXPECT_EQ(T.Outputs[0].Step, T.Outputs[1].Step);
  EXPECT_NE(T.Outputs[0].Step, T.Outputs[2].Step);
}

TEST(TraceTest, InstanceNumbersCountOccurrences) {
  const char *Src = "fn main() {\n"
                    "var i = 0;\n"
                    "while (i < 3) {\n"
                    "i = i + 1;\n"
                    "}\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  StmtId Inc = S.stmtAtLine(4);
  uint32_t Expected = 1;
  for (TraceIdx I = 0; I < T.size(); ++I) {
    if (T.step(I).Stmt == Inc) {
      EXPECT_EQ(T.step(I).InstanceNo, Expected++);
    }
  }
  EXPECT_EQ(Expected, 4u);
}

} // namespace

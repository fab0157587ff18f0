//===-- tests/ProfilerTest.cpp - Profiling unit tests -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Profiler.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

TEST(ProfilerTest, UnionGraphAccumulatesAcrossRuns) {
  const char *Src = "fn main() {\n"
                    "var p = input();\n" // 2
                    "var x = 1;\n"       // 3
                    "if (p) {\n"
                    "x = 2;\n"           // 5
                    "}\n"
                    "print(x);\n"        // 7
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());

  // Find the load expression of x at the print.
  ExecutionTrace T = S.run({1});
  TraceIdx Print = S.instanceAtLine(T, 7);
  ExprId Load = T.uses(Print)[0].LoadExpr;

  Profile OnlyFalse = profileTestSuite(*S.Interp, *S.Prog, {{0}});
  EXPECT_TRUE(OnlyFalse.UnionDeps.contains(S.stmtAtLine(3), Load));
  EXPECT_FALSE(OnlyFalse.UnionDeps.contains(S.stmtAtLine(5), Load));

  Profile Both = profileTestSuite(*S.Interp, *S.Prog, {{0}, {1}});
  EXPECT_TRUE(Both.UnionDeps.contains(S.stmtAtLine(3), Load));
  EXPECT_TRUE(Both.UnionDeps.contains(S.stmtAtLine(5), Load));
  EXPECT_EQ(Both.Runs, 2u);
}

TEST(ProfilerTest, ValueProfileRecordsDistinctValues) {
  const char *Src = "fn main() {\n"
                    "var v = input() * 2;\n" // 2
                    "print(v);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  Profile P = profileTestSuite(*S.Interp, *S.Prog,
                               {{1}, {2}, {3}, {3}, {1}});
  StmtId Def = S.stmtAtLine(2);
  EXPECT_EQ(P.Values.rangeSize(Def), 3u) << "distinct values only";
  EXPECT_TRUE(P.Values.values(Def).count(2));
  EXPECT_TRUE(P.Values.values(Def).count(4));
  EXPECT_TRUE(P.Values.values(Def).count(6));
}

TEST(ProfilerTest, EmptyRangeReportsOne) {
  Session S("fn main() { print(1); }");
  ASSERT_TRUE(S.valid());
  Profile P = profileTestSuite(*S.Interp, *S.Prog, {});
  EXPECT_EQ(P.Values.rangeSize(0), 1u)
      << "guards logarithmic confidence formulas";
  EXPECT_EQ(P.Runs, 0u);
}

TEST(ProfilerTest, DefinesSomethingQuery) {
  const char *Src = "fn main() {\n"
                    "var a = 1;\n" // 2: used below
                    "var b = 2;\n" // 3: never used
                    "print(a);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  Profile P = profileTestSuite(*S.Interp, *S.Prog, {{}});
  EXPECT_TRUE(P.UnionDeps.definesSomething(S.stmtAtLine(2)));
  EXPECT_FALSE(P.UnionDeps.definesSomething(S.stmtAtLine(3)));
}

} // namespace

//===-- tests/SlicingTest.cpp - DS / RS / PD unit tests -----------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "slicing/DynamicSlicer.h"
#include "slicing/Invertibility.h"
#include "slicing/OutputVerdicts.h"
#include "slicing/PotentialDeps.h"
#include "slicing/RelevantSlicer.h"

#include "ddg/DepGraph.h"
#include "interp/Profiler.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::interp;
using namespace eoe::slicing;
using eoe::test::Session;

namespace {

/// The paper's Figure 1 (gzip) scenario, faithfully miniaturized. The
/// root cause is line 7: save_orig_name is wrongly computed as 0, so the
/// branches at lines 11 (S4) and 16 (S7) are silently not taken and
/// flags reaches the output as 0 instead of 32.
const char *Figure1Src = "var flags = 0;\n"          // 1
                         "var save_orig_name = 0;\n" // 2
                         "var outbuf[32];\n"         // 3
                         "var outcnt = 0;\n"         // 4
                         "fn main() {\n"             // 5
                         "var opt_name = input();\n" // 6
                         "save_orig_name = 0;\n"     // 7  <- root cause (S1)
                         "var method = 8;\n"         // 8
                         "outbuf[outcnt] = method;\n"// 9  (S3)
                         "outcnt = outcnt + 1;\n"    // 10
                         "if (save_orig_name) {\n"   // 11 (S4)
                         "flags = flags + 32;\n"     // 12 (S5)
                         "}\n"                       // 13
                         "outbuf[outcnt] = flags;\n" // 14 (S6)
                         "outcnt = outcnt + 1;\n"    // 15
                         "if (save_orig_name) {\n"   // 16 (S7)
                         "outbuf[outcnt] = opt_name;\n" // 17 (S8)
                         "outcnt = outcnt + 1;\n"    // 18
                         "}\n"                       // 19
                         "print(outbuf[0]);\n"       // 20 (S9, correct: 8)
                         "print(outbuf[1]);\n"       // 21 (S10, wrong: 0)
                         "}\n";

/// Expected outputs of the fixed gzip (save_orig_name = 1): [8, 32].
const std::vector<int64_t> Figure1Expected = {8, 32};

struct Figure1 {
  Session S{Figure1Src};
  ExecutionTrace T;
  std::unique_ptr<ddg::DepGraph> G;
  OutputVerdicts V;

  Figure1() {
    EXPECT_TRUE(S.valid());
    T = S.run({1});
    G = std::make_unique<ddg::DepGraph>(T);
    auto Diff = diffOutputs(T, Figure1Expected);
    EXPECT_TRUE(Diff.has_value());
    V = *Diff;
  }
};

TEST(OutputVerdictsTest, FirstMismatchSplitsOutputs) {
  Figure1 F;
  EXPECT_EQ(F.V.WrongOutput, 1u);
  EXPECT_EQ(F.V.CorrectOutputs, (std::vector<size_t>{0}));
  EXPECT_EQ(F.V.ExpectedValue, 32);
}

TEST(OutputVerdictsTest, NoMismatchMeansNoFailure) {
  Session S("fn main() { print(1, 2); }");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  EXPECT_FALSE(diffOutputs(T, {1, 2}).has_value());
  EXPECT_TRUE(diffOutputs(T, {1, 3}).has_value());
}

TEST(DynamicSlicerTest, Figure1SliceMissesTheRootCause) {
  Figure1 F;
  SliceResult DS = sliceOfWrongOutput(*F.G, F.V);
  // The paper: DS = {S2, S3, S6, S10} -- the flags chain, but not the
  // assignment to save_orig_name, and not the untaken predicates.
  EXPECT_TRUE(DS.containsStmt(F.T, F.S.stmtAtLine(14))); // S6
  EXPECT_TRUE(DS.containsStmt(F.T, F.S.stmtAtLine(21))); // S10
  EXPECT_FALSE(DS.containsStmt(F.T, F.S.stmtAtLine(7))) // root cause
      << "dynamic slicing must miss execution omission errors";
  EXPECT_FALSE(DS.containsStmt(F.T, F.S.stmtAtLine(11))); // S4 untaken
  EXPECT_FALSE(DS.containsStmt(F.T, F.S.stmtAtLine(12))); // S5 omitted
}

TEST(PotentialDepsTest, Figure1PDSetsMatchThePaper) {
  Figure1 F;
  PotentialDepAnalyzer PD(*F.S.SA, F.T);

  // PD(flags@S6) = { S4 }: the use of flags at line 14.
  TraceIdx S6 = F.S.instanceAtLine(F.T, 14);
  const UseRecord *FlagsUse = nullptr;
  for (const UseRecord &U : F.T.uses(S6))
    if (F.S.Prog->variable(U.Var).Name == "flags")
      FlagsUse = &U;
  ASSERT_NE(FlagsUse, nullptr);
  std::vector<TraceIdx> PDFlags = PD.compute(S6, *FlagsUse, false);
  ASSERT_EQ(PDFlags.size(), 1u);
  EXPECT_EQ(F.T.step(PDFlags[0]).Stmt, F.S.stmtAtLine(11)); // S4

  // PD(outbuf[1]@S10) = { S7 }: the conservative false candidate the
  // paper blames on static analysis (the S8 store may alias outbuf[1]).
  TraceIdx S10 = F.S.instanceAtLine(F.T, 21);
  ASSERT_EQ(F.T.uses(S10).size(), 1u);
  std::vector<TraceIdx> PDOut = PD.compute(S10, F.T.uses(S10)[0], false);
  ASSERT_EQ(PDOut.size(), 1u);
  EXPECT_EQ(F.T.step(PDOut[0]).Stmt, F.S.stmtAtLine(16)); // S7
}

TEST(PotentialDepsTest, ConditionIIIExcludesKilledBranchDefs) {
  // The paper's three-line example: the def reaching the use occurs
  // *after* the predicate, so the predicate is not in PD.
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var x = 0;\n"
                    "if (p) {\n"
                    "x = 1;\n"
                    "}\n"
                    "x = 2;\n"
                    "print(x);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  PotentialDepAnalyzer PD(*S.SA, T);
  TraceIdx Print = S.instanceAtLine(T, 8);
  EXPECT_TRUE(PD.compute(Print, T.uses(Print)[0], false).empty());
}

TEST(PotentialDepsTest, WithoutTheKillThePredicateQualifies) {
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var x = 0;\n"
                    "if (p) {\n"
                    "x = 1;\n"
                    "}\n"
                    "print(x);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  PotentialDepAnalyzer PD(*S.SA, T);
  TraceIdx Print = S.instanceAtLine(T, 7);
  std::vector<TraceIdx> Out = PD.compute(Print, T.uses(Print)[0], false);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(T.step(Out[0]).Stmt, S.stmtAtLine(4));
}

TEST(PotentialDepsTest, ConditionIIExcludesControlAncestors) {
  const char *Src = "fn main() {\n"
                    "var p = 1;\n"
                    "var x = 0;\n"
                    "if (p) {\n"
                    "x = 1;\n"      // also a def of x on the true side
                    "print(x);\n"   // use control dependent on the if
                    "}\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  PotentialDepAnalyzer PD(*S.SA, T);
  TraceIdx Print = S.instanceAtLine(T, 6);
  EXPECT_TRUE(PD.compute(Print, T.uses(Print)[0], false).empty());
}

TEST(PotentialDepsTest, LoopsYieldOneInstancePerIterationUnlessDeduped) {
  const char *Src = "fn main() {\n"
                    "var x = 0;\n"
                    "var i = 0;\n"
                    "while (i < 10) {\n"
                    "if (i == 99) {\n"
                    "x = 1;\n"
                    "}\n"
                    "i = i + 1;\n"
                    "}\n"
                    "print(x);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  PotentialDepAnalyzer PD(*S.SA, T);
  TraceIdx Print = S.instanceAtLine(T, 10);
  std::vector<TraceIdx> All = PD.compute(Print, T.uses(Print)[0], false);
  // Every iteration's if qualifies, plus the final (false-taking) while
  // test: switching it would run one more iteration containing the def.
  EXPECT_EQ(All.size(), 11u);
  std::vector<TraceIdx> One = PD.compute(Print, T.uses(Print)[0], true);
  ASSERT_EQ(One.size(), 2u) << "one instance per static predicate";
  EXPECT_EQ(One[0], All[0]) << "dedup keeps the closest instance";
}

TEST(PotentialDepsTest, UnionBackendRequiresAnExercisedFlow) {
  const char *Src = "fn main() {\n"
                    "var p = input();\n"
                    "var x = 0;\n"
                    "if (p) {\n"
                    "x = 1;\n"
                    "}\n"
                    "print(x);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({0}); // failing-style run: branch untaken

  TraceIdx Print = S.instanceAtLine(T, 7);
  const UseRecord &Use = T.uses(Print)[0];

  // Profile that never took the branch: the union graph lacks the flow.
  Profile Cold = profileTestSuite(*S.Interp, *S.Prog, {{0}, {0}});
  PotentialDepAnalyzer PDCold(*S.SA, T, PotentialDepAnalyzer::Backend::UnionGraph,
                              &Cold.UnionDeps);
  EXPECT_TRUE(PDCold.compute(Print, Use, false).empty());

  // Profile that exercised it: the candidate appears.
  Profile Warm = profileTestSuite(*S.Interp, *S.Prog, {{0}, {1}});
  PotentialDepAnalyzer PDWarm(*S.SA, T, PotentialDepAnalyzer::Backend::UnionGraph,
                              &Warm.UnionDeps);
  EXPECT_EQ(PDWarm.compute(Print, Use, false).size(), 1u);

  // The static backend needs no profile at all.
  PotentialDepAnalyzer PDStatic(*S.SA, T);
  EXPECT_EQ(PDStatic.compute(Print, Use, false).size(), 1u);
}

TEST(RelevantSlicerTest, Figure1RelevantSliceCapturesTheRootCause) {
  Figure1 F;
  PotentialDepAnalyzer PD(*F.S.SA, F.T);
  RelevantSliceResult RS = relevantSliceOfWrongOutput(*F.G, PD, F.V);
  SliceResult DS = sliceOfWrongOutput(*F.G, F.V);

  EXPECT_TRUE(RS.Slice.containsStmt(F.T, F.S.stmtAtLine(7)))
      << "RS must capture the execution omission root cause";
  EXPECT_TRUE(RS.Slice.containsStmt(F.T, F.S.stmtAtLine(11))); // S4
  EXPECT_TRUE(RS.Slice.containsStmt(F.T, F.S.stmtAtLine(16)))
      << "the false potential dependence S7 -> S10 inflates RS";
  EXPECT_GT(RS.Slice.Stats.StaticStmts, DS.Stats.StaticStmts);
  EXPECT_GE(RS.PotentialEdges, 2u);
}

TEST(RelevantSlicerTest, DynamicSizeExplodesWithLoopIterations) {
  // Section 2's discussion: a predicate executed N times contributes N
  // instances to the relevant slice but only 1 static statement.
  const char *Src = "fn main() {\n"
                    "var x = 0;\n"
                    "var i = 0;\n"
                    "while (i < 50) {\n"
                    "if (i == 99) {\n"
                    "x = 1;\n"
                    "}\n"
                    "i = i + 1;\n"
                    "}\n"
                    "print(x);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  ddg::DepGraph G(T);
  PotentialDepAnalyzer PD(*S.SA, T);

  auto Diff = diffOutputs(T, {1});
  ASSERT_TRUE(Diff.has_value());
  SliceResult DS = sliceOfWrongOutput(G, *Diff);
  RelevantSliceResult RS = relevantSliceOfWrongOutput(G, PD, *Diff);

  // DS: print + decl of x only (x's def never re-assigned; the loop does
  // not feed it). RS: additionally all 50 if instances and their whole
  // control/data support.
  EXPECT_LE(DS.Stats.DynamicInstances, 3u);
  EXPECT_GE(RS.Slice.Stats.DynamicInstances,
            DS.Stats.DynamicInstances + 50);
  EXPECT_GE(RS.Slice.Stats.StaticStmts, DS.Stats.StaticStmts + 2);
}

TEST(InvertibilityTest, AddSubNegChainsAreInvertible) {
  Session S("fn main() {\n"
            "var a = 1;\n"
            "var b = -(a + 3) - 2;\n"
            "print(b);\n"
            "}");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  TraceIdx DefB = S.instanceAtLine(T, 3);
  ASSERT_NE(DefB, InvalidId);
  const lang::Expr *Root = valueRoot(S.Prog->statement(T.step(DefB).Stmt));
  ASSERT_NE(Root, nullptr);
  ASSERT_EQ(T.uses(DefB).size(), 1u);
  EXPECT_TRUE(invertiblePath(Root, T.uses(DefB)[0].LoadExpr));
}

TEST(InvertibilityTest, ManyToOneOpsAreNot) {
  const char *Src = "fn main() {\n"
                    "var a = 5;\n"
                    "var m = a % 2;\n"
                    "var d = a / 2;\n"
                    "var c = a < 3;\n"
                    "var t = a * 0;\n"
                    "var s = a * 3;\n"
                    "print(m + d + c + t + s);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  auto CheckLine = [&](uint32_t Line, bool Expect) {
    TraceIdx I = S.instanceAtLine(T, Line);
    ASSERT_NE(I, InvalidId);
    const lang::Expr *Root = valueRoot(S.Prog->statement(T.step(I).Stmt));
    ASSERT_NE(Root, nullptr);
    ASSERT_EQ(T.uses(I).size(), 1u);
    EXPECT_EQ(invertiblePath(Root, T.uses(I)[0].LoadExpr), Expect)
        << "line " << Line;
  };
  CheckLine(3, false); // %
  CheckLine(4, false); // /
  CheckLine(5, false); // <
  CheckLine(6, false); // * 0
  CheckLine(7, true);  // * 3 (nonzero constant)
}

} // namespace

//===-- tests/ConfidenceTest.cpp - Confidence analysis tests ------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "slicing/Confidence.h"

#include "ddg/DepGraph.h"
#include "interp/Profiler.h"
#include "slicing/Pruning.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace eoe;
using namespace eoe::interp;
using namespace eoe::slicing;
using eoe::test::Session;

namespace {

/// The paper's Figure 4: 10: a=1; 20: b=a%2; 30: c=a+2; 40: print(b)
/// (correct); 41: print(c) (wrong).
struct Figure4 {
  Session S{"fn main() {\n"
            "var a = input();\n" // 2  ("10: a = 1")
            "var b = a % 2;\n"   // 3  ("20")
            "var c = a + 2;\n"   // 4  ("30")
            "print(b);\n"        // 5  ("40": correct)
            "print(c);\n"        // 6  ("41": wrong)
            "}"};
  ExecutionTrace T;
  std::unique_ptr<ddg::DepGraph> G;
  OutputVerdicts V;
  Profile Prof{0};

  Figure4() : Prof(0) {
    EXPECT_TRUE(S.valid());
    // Value profile over several runs so 'a' has a nontrivial range.
    Prof = profileTestSuite(*S.Interp, *S.Prog, {{1}, {3}, {5}, {7}, {9}});
    T = S.run({1});
    G = std::make_unique<ddg::DepGraph>(T);
    V.CorrectOutputs = {0};
    V.WrongOutput = 1;
    V.ExpectedValue = 999; // The scenario says c is wrong.
  }
};

TEST(ConfidenceTest, Figure4Confidences) {
  Figure4 F;
  ConfidenceAnalysis CA(*F.S.Prog, *F.G, &F.Prof.Values, F.V);

  TraceIdx DefA = F.S.instanceAtLine(F.T, 2);
  TraceIdx DefB = F.S.instanceAtLine(F.T, 3);
  TraceIdx DefC = F.S.instanceAtLine(F.T, 4);

  // 20 (b = a % 2): printed correct, copy at the print: confidence 1.
  EXPECT_TRUE(CA.inferredCorrect(DefB));
  EXPECT_DOUBLE_EQ(CA.confidence(DefB), 1.0);

  // 30 (c = a + 2): reaches only the wrong output: confidence 0.
  EXPECT_FALSE(CA.inferredCorrect(DefC));
  EXPECT_DOUBLE_EQ(CA.confidence(DefC), 0.0);

  // 10 (a): reaches a correct output but through the many-to-one %:
  // strictly between 0 and 1.
  EXPECT_FALSE(CA.inferredCorrect(DefA));
  EXPECT_GT(CA.confidence(DefA), 0.0);
  EXPECT_LT(CA.confidence(DefA), 1.0);
}

TEST(ConfidenceTest, PrunedSliceDropsConfidenceOneAndRanksSuspicionFirst) {
  Figure4 F;
  ConfidenceAnalysis CA(*F.S.Prog, *F.G, &F.Prof.Values, F.V);
  const std::vector<TraceIdx> &Ranked = CA.prunedSlice();

  TraceIdx DefB = F.S.instanceAtLine(F.T, 3);
  TraceIdx DefC = F.S.instanceAtLine(F.T, 4);
  EXPECT_EQ(std::count(Ranked.begin(), Ranked.end(), DefB), 0)
      << "confidence-1 instances are pruned";
  auto PosC = std::find(Ranked.begin(), Ranked.end(), DefC);
  ASSERT_NE(PosC, Ranked.end());
  TraceIdx DefA = F.S.instanceAtLine(F.T, 2);
  auto PosA = std::find(Ranked.begin(), Ranked.end(), DefA);
  ASSERT_NE(PosA, Ranked.end());
  EXPECT_LT(PosC - Ranked.begin(), PosA - Ranked.begin())
      << "zero-confidence c ranks more suspicious than mid-confidence a";
}

TEST(ConfidenceTest, CorrectnessPropagatesThroughInvertibleChains) {
  const char *Src = "fn main() {\n"
                    "var a = input();\n"  // 2
                    "var b = a + 1;\n"    // 3
                    "var c = b - 2;\n"    // 4
                    "var bad = a % 3;\n"  // 5
                    "print(c);\n"         // 6  correct
                    "print(bad);\n"       // 7  wrong
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({10});
  ddg::DepGraph G(T);
  OutputVerdicts V;
  V.CorrectOutputs = {0};
  V.WrongOutput = 1;
  V.ExpectedValue = 0;
  ConfidenceAnalysis CA(*S.Prog, G, nullptr, V);
  // The whole a -> b -> c chain is invertible and ends in a correct
  // output, so even a's definition is verified.
  EXPECT_TRUE(CA.inferredCorrect(S.instanceAtLine(T, 2)));
  EXPECT_TRUE(CA.inferredCorrect(S.instanceAtLine(T, 3)));
  EXPECT_TRUE(CA.inferredCorrect(S.instanceAtLine(T, 4)));
}

TEST(ConfidenceTest, BenignMarksPruneAndPropagate) {
  const char *Src = "fn main() {\n"
                    "var a = input();\n" // 2
                    "var b = a + 1;\n"   // 3
                    "var c = b % 2;\n"   // 4
                    "print(c);\n"        // 5  wrong (no correct outputs)
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({4});
  ddg::DepGraph G(T);
  OutputVerdicts V;
  V.WrongOutput = 0;
  V.ExpectedValue = 1;
  ConfidenceAnalysis CA(*S.Prog, G, nullptr, V);

  TraceIdx DefA = S.instanceAtLine(T, 2);
  TraceIdx DefB = S.instanceAtLine(T, 3);
  EXPECT_FALSE(CA.inferredCorrect(DefB));

  // The user vouches for b: b becomes correct, and through the
  // invertible +1 so does a.
  ConfidenceAnalysis Marked(*S.Prog, G, nullptr, V,
                            ConfidenceAnalysis::Options(), {DefB});
  EXPECT_TRUE(Marked.inferredCorrect(DefB));
  EXPECT_TRUE(Marked.inferredCorrect(DefA));
}

TEST(ConfidenceTest, PredicateWithVerifiedInputsIsNotSanitized) {
  const char *Src = "fn main() {\n"
                    "var a = input();\n"  // 2
                    "var x = 0;\n"        // 3
                    "if (a > 3) {\n"      // 4
                    "x = a % 5;\n"        // 5
                    "}\n"
                    "print(a);\n"         // 7 correct
                    "print(x);\n"         // 8 wrong
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({10});
  ddg::DepGraph G(T);
  OutputVerdicts V;
  V.CorrectOutputs = {0};
  V.WrongOutput = 1;
  V.ExpectedValue = 3;
  ConfidenceAnalysis CA(*S.Prog, G, nullptr, V);
  // a is printed correct, so the predicate's only input is verified --
  // but the predicate could itself be the fault (a mutated condition
  // computes a wrong branch from correct inputs), so it must NOT be
  // inferred correct from its inputs alone.
  EXPECT_FALSE(CA.inferredCorrect(S.instanceAtLine(T, 4)));
  EXPECT_FALSE(CA.inferredCorrect(S.instanceAtLine(T, 5)));
  // The print of a, by contrast, emitted a verified value.
  EXPECT_TRUE(CA.inferredCorrect(S.instanceAtLine(T, 7)));
}

TEST(ConfidenceTest, Figure5ImplicitDependentsSanitizeTheirPredicate) {
  const char *Src = "fn main() {\n"
                    "var p = input();\n"  // 2
                    "var t = 1;\n"        // 3
                    "var u = 2;\n"        // 4
                    "if (p) {\n"          // 5
                    "t = 5;\n"
                    "u = 6;\n"
                    "}\n"
                    "print(t);\n"         // 9  correct
                    "print(u);\n"         // 10 wrong
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({0});
  ddg::DepGraph G(T);
  OutputVerdicts V;
  V.CorrectOutputs = {0};
  V.WrongOutput = 1;
  V.ExpectedValue = 99;

  TraceIdx If = S.instanceAtLine(T, 5);
  TraceIdx PrintT = S.instanceAtLine(T, 9);

  // Without edges the predicate is not even in the wrong slice; add the
  // verified implicit edges print(t) <- if and print(u) <- if.
  TraceIdx PrintU = S.instanceAtLine(T, 10);
  G.addImplicitEdge(PrintU, If, false);

  ConfidenceAnalysis::Options NoProp;
  NoProp.PropagateAcrossImplicit = false;
  ConfidenceAnalysis CANoProp(*S.Prog, G, nullptr, V, NoProp);
  EXPECT_FALSE(CANoProp.inferredCorrect(If));

  // Figure 5: once the dependence if -> print(t) is also verified and
  // print(t) is known correct, the predicate is sanitized.
  G.addImplicitEdge(PrintT, If, false);
  ConfidenceAnalysis CAProp(*S.Prog, G, nullptr, V, ConfidenceAnalysis::Options());
  // print(t) instance: all its used values are verified correct.
  EXPECT_TRUE(CAProp.inferredCorrect(PrintT));
  EXPECT_FALSE(CAProp.inferredCorrect(If))
      << "print(u) is still corrupted, so the predicate stays";

  // If *all* implicit dependents are correct, the predicate is pruned.
  ddg::DepGraph G2(T);
  G2.addImplicitEdge(PrintT, If, false);
  ConfidenceAnalysis CA2(*S.Prog, G2, nullptr, V, ConfidenceAnalysis::Options());
  EXPECT_TRUE(CA2.inferredCorrect(If));
}

/// Expects \p Live to equal an analysis built from scratch over the same
/// graph with the same marks and pins.
void expectSameAsFresh(const ConfidenceAnalysis &Live, const Session &S,
                       const ddg::DepGraph &G, const OutputVerdicts &V,
                       const std::vector<TraceIdx> &Marks,
                       const std::set<TraceIdx> &Pins) {
  ConfidenceAnalysis Fresh(*S.Prog, G, nullptr, V,
                           ConfidenceAnalysis::Options(), Marks, Pins);
  EXPECT_EQ(Live.prunedSlice(), Fresh.prunedSlice());
  EXPECT_EQ(Live.wrongOutputSlice(), Fresh.wrongOutputSlice());
  for (TraceIdx I = 0; I < G.trace().size(); ++I) {
    EXPECT_EQ(Live.inferredCorrect(I), Fresh.inferredCorrect(I))
        << "instance " << I;
    EXPECT_EQ(Live.confidence(I), Fresh.confidence(I)) << "instance " << I;
  }
}

TEST(ConfidenceTest, IncrementalAnswersMatchRecomputeFromScratch) {
  const char *Src = "fn main() {\n"
                    "var p = input();\n"   // 2
                    "var t = 1;\n"         // 3
                    "var u = 2;\n"         // 4
                    "var w = 0;\n"         // 5
                    "if (p) {\n"           // 6
                    "t = 5;\n"
                    "u = 6;\n"
                    "}\n"
                    "var a = t + 1;\n"     // 10
                    "var b = u % 3;\n"     // 11
                    "print(a + b + w);\n"  // 12 wrong
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({0});
  ddg::DepGraph G(T);
  OutputVerdicts V;
  V.WrongOutput = 0;
  V.ExpectedValue = 6;
  TraceIdx DefT = S.instanceAtLine(T, 3), DefU = S.instanceAtLine(T, 4);
  TraceIdx DefW = S.instanceAtLine(T, 5), If = S.instanceAtLine(T, 6);
  TraceIdx DefA = S.instanceAtLine(T, 10), DefB = S.instanceAtLine(T, 11);
  // The omitted branch would have changed both a and b.
  G.addImplicitEdge(DefA, If, false);
  G.addImplicitEdge(DefB, If, false);

  ConfidenceAnalysis CA(*S.Prog, G, nullptr, V);
  std::vector<TraceIdx> Marks;
  std::set<TraceIdx> Pins;
  ASSERT_NE(std::find(CA.prunedSlice().begin(), CA.prunedSlice().end(), If),
            CA.prunedSlice().end());

  // A pin on a candidate changes nothing.
  std::vector<TraceIdx> Before = CA.prunedSlice();
  CA.markCorrupted(DefW);
  Pins.insert(DefW);
  EXPECT_EQ(CA.prunedSlice(), Before);
  expectSameAsFresh(CA, S, G, V, Marks, Pins);

  // Vouching for a verifies t through the invertible + 1; the ranking
  // loses exactly those two and keeps its order. One implicit dependent
  // is not enough to sanitize the predicate.
  CA.markBenign(DefA);
  Marks.push_back(DefA);
  EXPECT_TRUE(CA.inferredCorrect(DefA));
  EXPECT_TRUE(CA.inferredCorrect(DefT));
  EXPECT_FALSE(CA.inferredCorrect(If));
  std::erase_if(Before, [&](TraceIdx I) { return I == DefA || I == DefT; });
  EXPECT_EQ(CA.prunedSlice(), Before);
  expectSameAsFresh(CA, S, G, V, Marks, Pins);

  // Vouching for b too (u stays unverified: % is many-to-one) leaves
  // every implicit dependent of the predicate correct: Figure 5
  // sanitizes it.
  CA.markBenign(DefB);
  Marks.push_back(DefB);
  EXPECT_FALSE(CA.inferredCorrect(DefU));
  EXPECT_TRUE(CA.inferredCorrect(If));
  EXPECT_EQ(std::count(CA.prunedSlice().begin(), CA.prunedSlice().end(), If),
            0);
  expectSameAsFresh(CA, S, G, V, Marks, Pins);

  // Pinning the still-unverified u is free; pinning the inferred-correct
  // t withdraws that inference and puts t back among the candidates.
  CA.markCorrupted(DefU);
  Pins.insert(DefU);
  expectSameAsFresh(CA, S, G, V, Marks, Pins);
  CA.markCorrupted(DefT);
  Pins.insert(DefT);
  EXPECT_FALSE(CA.inferredCorrect(DefT));
  EXPECT_TRUE(CA.inferredCorrect(If));
  EXPECT_EQ(std::count(CA.prunedSlice().begin(), CA.prunedSlice().end(),
                       DefT),
            1);
  expectSameAsFresh(CA, S, G, V, Marks, Pins);
}

/// A guard both of whose stores feed the wrong output, without a
/// correct output, for the update() tests.
struct SilencedGuard {
  Session S{"fn main() {\n"
            "var p = input();\n"   // 2
            "var t = 1;\n"         // 3
            "var u = 2;\n"         // 4
            "if (p) {\n"           // 5
            "t = 5;\n"
            "u = 6;\n"
            "}\n"
            "var a = t + 1;\n"     // 9
            "var b = u % 3;\n"     // 10
            "print(a + b);\n"      // 11 wrong
            "}"};
  ExecutionTrace T;
  std::unique_ptr<ddg::DepGraph> G;
  OutputVerdicts V;
  TraceIdx DefP, If, DefA, DefB;

  SilencedGuard() {
    EXPECT_TRUE(S.valid());
    T = S.run({0});
    G = std::make_unique<ddg::DepGraph>(T);
    V.WrongOutput = 0;
    V.ExpectedValue = 6;
    DefP = S.instanceAtLine(T, 2);
    If = S.instanceAtLine(T, 5);
    DefA = S.instanceAtLine(T, 9);
    DefB = S.instanceAtLine(T, 10);
  }
};

TEST(ConfidenceTest, UpdateSanitizesWhenEveryNewDependentIsCorrect) {
  SilencedGuard F;
  ConfidenceAnalysis CA(*F.S.Prog, *F.G, nullptr, F.V);
  CA.markBenign(F.DefA);
  ASSERT_TRUE(CA.inferredCorrect(F.DefA));
  EXPECT_FALSE(CA.wrongOutputSlice()[F.If]);

  // The guard's one dependent is correct before its edge arrives, so no
  // answer will ever sanitize the guard: the update has to.
  F.G->addImplicitEdge(F.DefA, F.If, false);
  CA.update();
  EXPECT_TRUE(CA.wrongOutputSlice()[F.If]);
  EXPECT_TRUE(CA.inferredCorrect(F.If));
  const std::vector<TraceIdx> &Ranked = CA.prunedSlice();
  EXPECT_EQ(std::count(Ranked.begin(), Ranked.end(), F.If), 0);
  EXPECT_EQ(std::count(Ranked.begin(), Ranked.end(), F.DefP), 1)
      << "the guard's input joins the slice through the new edge";
  expectSameAsFresh(CA, F.S, *F.G, F.V, {F.DefA}, {});
}

TEST(ConfidenceTest, UpdateWithdrawsASanitizationForADependentNotCorrect) {
  SilencedGuard F;
  F.G->addImplicitEdge(F.DefA, F.If, false);
  ConfidenceAnalysis CA(*F.S.Prog, *F.G, nullptr, F.V,
                        ConfidenceAnalysis::Options(), {F.DefA});
  ASSERT_TRUE(CA.inferredCorrect(F.If));

  // b is not correct: once it implicitly depends on the guard too, the
  // guard no longer has only correct dependents.
  F.G->addImplicitEdge(F.DefB, F.If, false);
  CA.update();
  EXPECT_FALSE(CA.inferredCorrect(F.If));
  const std::vector<TraceIdx> &Ranked = CA.prunedSlice();
  EXPECT_EQ(std::count(Ranked.begin(), Ranked.end(), F.If), 1);
  expectSameAsFresh(CA, F.S, *F.G, F.V, {F.DefA}, {});
}

TEST(PruningTest, OracleLoopReachesMinimalSlice) {
  // The oracle declares everything benign except the c-chain: pruning
  // must converge with the corrupted chain only.
  const char *Src = "fn main() {\n"
                    "var a = input();\n" // 2
                    "var c = a % 4;\n"   // 3   (corrupted per oracle)
                    "var d = a % 5;\n"   // 4   (benign per oracle)
                    "print(c + d);\n"    // 5   wrong
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({7});
  ddg::DepGraph G(T);
  OutputVerdicts V;
  V.WrongOutput = 0;
  V.ExpectedValue = 42;
  ConfidenceAnalysis CA(*S.Prog, G, nullptr, V);

  struct ChainOracle : Oracle {
    Session &S;
    ExecutionTrace &T;
    explicit ChainOracle(Session &S, ExecutionTrace &T) : S(S), T(T) {}
    bool isBenign(TraceIdx I) override {
      StmtId Stmt = T.step(I).Stmt;
      return Stmt == S.stmtAtLine(4); // only d's def is benign
    }
    bool isRootCause(StmtId) override {
      return false; // Root never recognized: run to the minimal slice.
    }
  } O(S, T);

  PruneState State;
  std::vector<TraceIdx> Minimal = pruneSlicing(CA, O, State);
  EXPECT_EQ(State.UserPrunings, 1u);
  // d's def is gone; c's def remains.
  TraceIdx DefD = S.instanceAtLine(T, 4);
  TraceIdx DefC = S.instanceAtLine(T, 3);
  EXPECT_EQ(std::count(Minimal.begin(), Minimal.end(), DefD), 0);
  EXPECT_EQ(std::count(Minimal.begin(), Minimal.end(), DefC), 1);
}

TEST(PruningTest, SessionStopsWhenRootCauseBecomesVisible) {
  // When the root cause already sits in the pruned slice, the programmer
  // recognizes it immediately: no benign answers are recorded.
  const char *Src = "fn main() {\n"
                    "var a = input();\n" // 2
                    "var c = a % 4;\n"   // 3   (the root cause)
                    "var d = a % 5;\n"   // 4
                    "print(c + d);\n"    // 5   wrong
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({7});
  ddg::DepGraph G(T);
  OutputVerdicts V;
  V.WrongOutput = 0;
  V.ExpectedValue = 42;
  ConfidenceAnalysis CA(*S.Prog, G, nullptr, V);

  struct RootOracle : Oracle {
    Session &S;
    explicit RootOracle(Session &S) : S(S) {}
    bool isBenign(TraceIdx) override { return true; }
    bool isRootCause(StmtId Stmt) override {
      return Stmt == S.stmtAtLine(3);
    }
  } O(S);

  PruneState State;
  std::vector<TraceIdx> Ranked = pruneSlicing(CA, O, State);
  EXPECT_EQ(State.UserPrunings, 0u);
  EXPECT_EQ(std::count(Ranked.begin(), Ranked.end(), S.instanceAtLine(T, 3)),
            1);
}

} // namespace

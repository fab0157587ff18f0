//===-- tests/LocateFaultTest.cpp - Algorithm 2 end-to-end tests --------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"

#include "support/Stats.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;
using namespace eoe::slicing;
using eoe::test::Session;

namespace {

/// Oracle that knows the root cause statement and optionally a
/// failure-inducing chain (instances outside it are benign) -- the
/// paper's evaluation protocol.
class TestOracle : public Oracle {
public:
  TestOracle(StmtId Root, const std::vector<bool> *Chain = nullptr)
      : Root(Root), Chain(Chain) {}

  bool isBenign(TraceIdx I) override {
    return Chain && !(*Chain)[I];
  }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
  const std::vector<bool> *Chain;
};

/// TestOracle that counts its questions and answers corrupted past
/// \p Cap of them, so a session that keeps asking ends instead of
/// hanging the test.
class CappedOracle : public TestOracle {
public:
  CappedOracle(StmtId Root, const std::vector<bool> *Chain, size_t Cap)
      : TestOracle(Root, Chain), Cap(Cap) {}

  bool isBenign(TraceIdx I) override {
    return ++Questions <= Cap && TestOracle::isBenign(I);
  }

  size_t Questions = 0;

private:
  size_t Cap;
};

/// Figure 1 (gzip) as in SlicingTest, kept in sync.
const char *Figure1Src = "var flags = 0;\n"          // 1
                         "var save_orig_name = 0;\n" // 2
                         "var outbuf[32];\n"         // 3
                         "var outcnt = 0;\n"         // 4
                         "fn main() {\n"             // 5
                         "var opt_name = input();\n" // 6
                         "save_orig_name = 0;\n"     // 7  <- root cause
                         "var method = 8;\n"         // 8
                         "outbuf[outcnt] = method;\n"// 9
                         "outcnt = outcnt + 1;\n"    // 10
                         "if (save_orig_name) {\n"   // 11 (S4)
                         "flags = flags + 32;\n"     // 12 (S5)
                         "}\n"
                         "outbuf[outcnt] = flags;\n" // 14 (S6)
                         "outcnt = outcnt + 1;\n"    // 15
                         "if (save_orig_name) {\n"   // 16 (S7)
                         "outbuf[outcnt] = opt_name;\n" // 17
                         "outcnt = outcnt + 1;\n"    // 18
                         "}\n"
                         "print(outbuf[0]);\n"       // 20 (correct)
                         "print(outbuf[1]);\n"       // 21 (wrong)
                         "}\n";

TEST(LocateFaultTest, Figure1EndToEnd) {
  Session S(Figure1Src);
  ASSERT_TRUE(S.valid());
  DebugSession D(*S.Prog, /*FailingInput=*/{1}, /*Expected=*/{8, 32},
                 /*TestSuite=*/{{1}, {2}});
  ASSERT_TRUE(D.hasFailure());

  StmtId Root = S.stmtAtLine(7);
  TestOracle O(Root);
  LocateReport R = D.locate(O);

  EXPECT_TRUE(R.RootCauseFound);
  EXPECT_GE(R.ExpandedEdges, 1u);
  EXPECT_GE(R.StrongEdges, 1u) << "S4 -> S6 is a strong implicit dep";
  EXPECT_GE(R.Iterations, 1u);
  EXPECT_LE(R.Iterations, 3u) << "the paper locates gzip in one expansion";

  // The added edge's predicate is S4 (line 11), not the false S7.
  bool SawS4 = false;
  for (const auto &E : D.graph().implicitEdges()) {
    EXPECT_NE(D.trace().step(E.Pred).Stmt, S.stmtAtLine(16))
        << "the false potential dependence S7 must be rejected";
    if (D.trace().step(E.Pred).Stmt == S.stmtAtLine(11))
      SawS4 = true;
  }
  EXPECT_TRUE(SawS4);

  // The final pruned slice contains the root cause and S4.
  bool HasRoot = false, HasS4 = false;
  for (TraceIdx I : R.FinalPrunedSlice) {
    if (D.trace().step(I).Stmt == Root)
      HasRoot = true;
    if (D.trace().step(I).Stmt == S.stmtAtLine(11))
      HasS4 = true;
  }
  EXPECT_TRUE(HasRoot);
  EXPECT_TRUE(HasS4);
}

TEST(LocateFaultTest, DynamicSliceAloneMissesWhatLocateFinds) {
  Session S(Figure1Src);
  ASSERT_TRUE(S.valid());
  DebugSession D(*S.Prog, {1}, {8, 32}, {});
  ASSERT_TRUE(D.hasFailure());
  StmtId Root = S.stmtAtLine(7);
  EXPECT_FALSE(D.dynamicSlice().containsStmt(D.trace(), Root));
  EXPECT_TRUE(D.relevantSlice().Slice.containsStmt(D.trace(), Root));
}

TEST(LocateFaultTest, FailureChainLinksRootToFailure) {
  Session S(Figure1Src);
  ASSERT_TRUE(S.valid());
  DebugSession D(*S.Prog, {1}, {8, 32}, {});
  ASSERT_TRUE(D.hasFailure());
  StmtId Root = S.stmtAtLine(7);
  TestOracle O(Root);
  LocateReport R = D.locate(O);
  ASSERT_TRUE(R.RootCauseFound);

  std::vector<bool> Chain = D.failureChain(Root);
  // OS contains the root cause, S4, S6, and the wrong output.
  auto StmtInChain = [&](uint32_t Line) {
    StmtId Id = S.stmtAtLine(Line);
    for (TraceIdx I = 0; I < D.trace().size(); ++I)
      if (Chain[I] && D.trace().step(I).Stmt == Id)
        return true;
    return false;
  };
  EXPECT_TRUE(StmtInChain(7));
  EXPECT_TRUE(StmtInChain(11));
  EXPECT_TRUE(StmtInChain(14));
  EXPECT_TRUE(StmtInChain(21));
  EXPECT_FALSE(StmtInChain(16)) << "S7 is not on the failure chain";

  // IPS should be close to OS (the paper's near-optimality claim).
  size_t ChainSize = std::count(Chain.begin(), Chain.end(), true);
  EXPECT_LE(R.IPSStats.DynamicInstances, ChainSize + 8);
}

TEST(LocateFaultTest, OracleChainProtocolCountsPrunings) {
  Session S(Figure1Src);
  ASSERT_TRUE(S.valid());

  // Phase A: locate with a root-only oracle to discover the implicit
  // edges, then derive OS.
  DebugSession DA(*S.Prog, {1}, {8, 32}, {{1}, {2}});
  ASSERT_TRUE(DA.hasFailure());
  StmtId Root = S.stmtAtLine(7);
  TestOracle OA(Root);
  ASSERT_TRUE(DA.locate(OA).RootCauseFound);
  std::vector<bool> Chain = DA.failureChain(Root);

  // Phase B: fresh session, oracle answers by the chain (the paper's
  // "instances not in OS were selected ... as being benign").
  DebugSession DB(*S.Prog, {1}, {8, 32}, {{1}, {2}});
  ASSERT_TRUE(DB.hasFailure());
  TestOracle OB(Root, &Chain);
  LocateReport R = DB.locate(OB);
  EXPECT_TRUE(R.RootCauseFound);
  // Everything in the final IPS lies on the chain or was added by the
  // expansion; prunings stay small.
  EXPECT_LE(R.UserPrunings, 10u);
}

TEST(LocateFaultTest, ReportCountsOnlyItsOwnCallWhenRegistryIsShared) {
  // Sessions sharing one registry (FaultRunner's phases, a bench over
  // many faults) share the verifier's counters: each report must still
  // describe its own call, exactly as if it had run alone.
  Session S(Figure1Src);
  ASSERT_TRUE(S.valid());
  StmtId Root = S.stmtAtLine(7);
  auto Locate = [&](support::StatsRegistry *Stats) {
    DebugSession::Config C;
    C.Opt.Exec.Stats = Stats;
    DebugSession D(*S.Prog, {1}, {8, 32}, {{1}, {2}}, C);
    TestOracle O(Root);
    return D.locate(O);
  };
  LocateReport Alone = Locate(nullptr);
  ASSERT_GT(Alone.Verifications, 0u);
  ASSERT_GT(Alone.Reexecutions, 0u);

  support::StatsRegistry Shared;
  Locate(&Shared);
  LocateReport Second = Locate(&Shared);
  EXPECT_EQ(Second.Verifications, Alone.Verifications);
  EXPECT_EQ(Second.Reexecutions, Alone.Reexecutions);
  EXPECT_EQ(Second.Iterations, Alone.Iterations);
  EXPECT_EQ(Second.ExpandedEdges, Alone.ExpandedEdges);
  EXPECT_EQ(Second.FinalPrunedSlice, Alone.FinalPrunedSlice);
  EXPECT_EQ(Shared.counter("verify.verifications").get(),
            2 * Alone.Verifications)
      << "the registry itself keeps the running total";
}

TEST(LocateFaultTest, NoFalseRootWhenProgramHasNoOmissionPath) {
  // A program whose failure is a plain value error: the wrong constant
  // flows directly to the output. locate() must find it in the pruned
  // slice with zero expansions.
  const char *Src = "fn main() {\n"
                    "var x = 3;\n"  // 2 <- root cause (should be 4)
                    "var y = x * 2;\n"
                    "print(y);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  DebugSession D(*S.Prog, {}, {8}, {});
  ASSERT_TRUE(D.hasFailure());
  TestOracle O(S.stmtAtLine(2));
  LocateReport R = D.locate(O);
  EXPECT_TRUE(R.RootCauseFound);
  EXPECT_EQ(R.Iterations, 0u);
  EXPECT_EQ(R.ExpandedEdges, 0u);
}

TEST(LocateFaultTest, ReportsFailureWhenRootIsUnreachable) {
  // The "root cause" the oracle demands is never executed and has no
  // implicit path to the failure: the procedure must terminate and
  // report failure instead of looping.
  const char *Src = "fn dead() {\n"
                    "return 1;\n"  // 2: never executed
                    "}\n"
                    "fn main() {\n"
                    "var x = 3;\n"
                    "print(x);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  StmtId Root = S.stmtAtLine(2);
  DebugSession D(*S.Prog, {}, {4}, {});
  ASSERT_TRUE(D.hasFailure());
  TestOracle O(Root);
  LocateReport R = D.locate(O);
  EXPECT_FALSE(R.RootCauseFound);

  // Phase B of the evaluation protocol: the failure chain is the
  // fallback. No instance of the root cause executed, so it holds exactly
  // the wrong output, which the oracle then never calls benign. Each
  // instance must be asked about at most once.
  std::vector<bool> Chain = D.failureChain(Root);
  ASSERT_EQ(std::count(Chain.begin(), Chain.end(), true), 1);
  EXPECT_TRUE(Chain[D.trace().Outputs.at(D.verdicts().WrongOutput).Step]);
  DebugSession DB(*S.Prog, {}, {4}, {});
  ASSERT_TRUE(DB.hasFailure());
  constexpr size_t Cap = 1000;
  CappedOracle OB(Root, &Chain, Cap);
  EXPECT_FALSE(DB.locate(OB).RootCauseFound);
  EXPECT_LE(OB.Questions, DB.trace().size())
      << "the session asked the same question again";
}

/// A fault no single switch can expose: the correct program initializes
/// t = 1, which opens both guards on the way to x. Switching only the
/// outer `if (g)` leaves the inner `if (t)` closed (x stays 0);
/// switching only `if (t)` at line 4 changes g, not x directly -- and
/// `if (t)` at line 9 never executes in the failing run, so it is not a
/// candidate.
TEST(LocateFaultTest, SingleSwitchCannotExposeATwoGuardOmission) {
  const char *Src = "var t = 0;\n"   // 1  <- root cause (correct: 1)
                    "var g = 0;\n"   // 2
                    "fn main() {\n"  // 3
                    "if (t) {\n"     // 4  opens g
                    "g = 1;\n"       // 5
                    "}\n"            // 6
                    "var x = 0;\n"   // 7
                    "if (g) {\n"     // 8  outer guard of x
                    "if (t) {\n"     // 9  inner guard of x
                    "x = 1;\n"       // 10
                    "}\n"            // 11
                    "}\n"            // 12
                    "print(x);\n"    // 13 wrong: 0, expected 1
                    "}\n";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  DebugSession D(*S.Prog, {}, {1}, {});
  ASSERT_TRUE(D.hasFailure());
  // Every single-switch verdict is NOT_ID, so the procedure runs out of
  // verifiable dependences.
  TestOracle O(S.stmtAtLine(1));
  LocateReport R = D.locate(O);
  EXPECT_FALSE(R.RootCauseFound);
  EXPECT_EQ(R.ExpandedEdges, 0u);
}

TEST(LocateFaultTest, FanoutAblationVerifiesFewerEdges) {
  Session S(Figure1Src);
  ASSERT_TRUE(S.valid());
  StmtId Root = S.stmtAtLine(7);

  DebugSession::Config WithFanout;
  DebugSession DFan(*S.Prog, {1}, {8, 32}, {{1}}, WithFanout);
  ASSERT_TRUE(DFan.hasFailure());
  TestOracle O1(Root);
  LocateReport RFan = DFan.locate(O1);

  DebugSession::Config NoFanout;
  NoFanout.Locate.VerifyFanout = false;
  DebugSession DNo(*S.Prog, {1}, {8, 32}, {{1}}, NoFanout);
  ASSERT_TRUE(DNo.hasFailure());
  TestOracle O2(Root);
  LocateReport RNo = DNo.locate(O2);

  EXPECT_TRUE(RFan.RootCauseFound);
  EXPECT_TRUE(RNo.RootCauseFound);
  EXPECT_LE(RNo.Verifications, RFan.Verifications);
}

} // namespace

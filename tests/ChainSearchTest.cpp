//===-- tests/ChainSearchTest.cpp - Multi-switch chain tests ------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/ChainSearch.h"
#include "core/DebugSession.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;
using namespace eoe::slicing;
using eoe::test::Session;

namespace {

/// Oracle that only knows the root cause statement.
class RootOracle : public Oracle {
public:
  explicit RootOracle(StmtId Root) : Root(Root) {}
  bool isBenign(TraceIdx) override { return false; }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
};

/// A fault no single switch can expose: the correct program initializes
/// t = 1, which opens BOTH guards on the way to x. Switching only the
/// outer `if (g)` leaves the inner `if (t)` closed (x stays 0); switching
/// only `if (t)` at line 4 changes g, not x directly -- and `if (t)` at
/// line 9 never executes in the failing run, so it is not a candidate.
/// Only the chain [if(g), if(t)@9] forces x = 1 and reproduces the
/// expected output.
const char *ChainSrc = "var t = 0;\n"   // 1  <- root cause (correct: 1)
                       "var g = 0;\n"   // 2
                       "fn main() {\n"  // 3
                       "if (t) {\n"     // 4  p: opens g
                       "g = 1;\n"       // 5
                       "}\n"            // 6
                       "var x = 0;\n"   // 7
                       "if (g) {\n"     // 8  q: outer guard of x
                       "if (t) {\n"     // 9  r: inner guard of x
                       "x = 1;\n"       // 10
                       "}\n"            // 11
                       "}\n"            // 12
                       "print(x);\n"    // 13 wrong: 0, expected 1
                       "}\n";

struct ChainFixture {
  Session S;
  support::StatsRegistry Reg;
  std::unique_ptr<DebugSession> D;

  explicit ChainFixture(unsigned ChainDepth, unsigned ChainBudget = 32)
      : S(ChainSrc) {
    EXPECT_TRUE(S.valid());
    DebugSession::Config C;
    C.Opt.Reuse.ChainDepth = ChainDepth;
    C.Opt.Reuse.ChainBudget = ChainBudget;
    C.Opt.Exec.Stats = &Reg;
    D = std::make_unique<DebugSession>(*S.Prog, /*FailingInput=*/
                                       std::vector<int64_t>{},
                                       /*Expected=*/std::vector<int64_t>{1},
                                       /*TestSuite=*/
                                       std::vector<std::vector<int64_t>>{}, C);
    EXPECT_TRUE(D->hasFailure());
  }

  LocateReport locate() {
    RootOracle O(S.stmtAtLine(1));
    return D->locate(O);
  }
};

TEST(ChainSearchTest, SingleSwitchCannotLocate) {
  // The reference configuration (chains off): every single-switch verdict
  // is NOT_ID, so the procedure runs out of verifiable dependences.
  ChainFixture F(/*ChainDepth=*/1);
  LocateReport R = F.locate();
  EXPECT_FALSE(R.RootCauseFound);
  EXPECT_EQ(R.ExpandedEdges, 0u);
  EXPECT_EQ(F.Reg.counter("verify.chain.runs").get(), 0u);
}

TEST(ChainSearchTest, DepthTwoChainLocates) {
  ChainFixture F(/*ChainDepth=*/2);
  LocateReport R = F.locate();
  EXPECT_TRUE(R.RootCauseFound);
  EXPECT_GE(R.StrongEdges, 1u) << "the [q, r] chain reproduces the expected "
                                  "output, which is strong evidence";

  // The committed edge's predicate is the chain's base: the outer guard.
  bool SawOuter = false;
  for (const auto &E : F.D->graph().implicitEdges())
    if (F.D->trace().step(E.Pred).Stmt == F.S.stmtAtLine(8))
      SawOuter = true;
  EXPECT_TRUE(SawOuter);

  EXPECT_GE(F.Reg.counter("verify.chain.runs").get(), 1u);
  EXPECT_GE(F.Reg.counter("locate.chain.searches").get(), 1u);
  EXPECT_GE(F.Reg.counter("locate.chain.commits").get(), 1u);
}

TEST(ChainSearchTest, ZeroBudgetBehavesLikeChainsOff) {
  ChainFixture F(/*ChainDepth=*/2, /*ChainBudget=*/0);
  LocateReport R = F.locate();
  EXPECT_FALSE(R.RootCauseFound);
  EXPECT_EQ(F.Reg.counter("verify.chain.runs").get(), 0u);
}

TEST(ChainSearchTest, VerifyChainDirectlyIsStrong) {
  // Unit-level: the verifier's chain API classifies the [q, r] chain as
  // STRONG_ID from the output evidence alone.
  Session S(ChainSrc);
  ASSERT_TRUE(S.valid());
  std::vector<int64_t> Input;
  ExecutionTrace T = S.run(Input);
  auto V = diffOutputs(T, {1});
  ASSERT_TRUE(V.has_value());
  ImplicitDepVerifier Verifier(*S.Interp, T, Input, *V,
                               ImplicitDepVerifier::Config());

  TraceIdx Q = S.instanceAtLine(T, 8);
  ASSERT_NE(Q, InvalidId);
  const StepRecord &QS = T.step(Q);
  // r (line 9) never executes in the failing run: its decision names the
  // first instance the chained run will see.
  StmtId RStmt = S.stmtAtLine(9);
  std::vector<SwitchDecision> Chain{
      {QS.Stmt, QS.InstanceNo, /*Perturb=*/false, /*Value=*/0},
      {RStmt, /*InstanceNo=*/1, /*Perturb=*/false, /*Value=*/0}};
  EXPECT_EQ(Verifier.verifyChain(Q, Chain, /*UseInst=*/0, /*UseLoad=*/0),
            DepVerdict::StrongImplicit);

  // The chained trace is cached and reflects both decisions: x = 1 ran.
  const ResumedTrace &EP = Verifier.chainTrace(Q, Chain);
  EXPECT_EQ(EP.outputValues(), (std::vector<int64_t>{1}));
}

TEST(ChainSearchTest, ChainSearchFindsTheChain) {
  // Drive ChainSearch directly: given q as the only candidate, the
  // search must extend through r and return the strong depth-2 chain.
  Session S(ChainSrc);
  ASSERT_TRUE(S.valid());
  std::vector<int64_t> Input;
  ExecutionTrace T = S.run(Input);
  auto V = diffOutputs(T, {1});
  ASSERT_TRUE(V.has_value());
  ImplicitDepVerifier Verifier(*S.Interp, T, Input, *V,
                               ImplicitDepVerifier::Config());

  TraceIdx Q = S.instanceAtLine(T, 8);
  TraceIdx U = S.instanceAtLine(T, 13);
  ASSERT_NE(Q, InvalidId);
  ASSERT_NE(U, InvalidId);
  ASSERT_FALSE(T.uses(U).empty());
  ExprId Load = T.uses(U).front().LoadExpr;

  // Seed the single-switch cache the way locateFault's verdict pass does.
  EXPECT_EQ(Verifier.verify(Q, U, Load), DepVerdict::NotImplicit);

  ChainSearch Search(Verifier, T, /*MaxDepth=*/2, /*Budget=*/32);
  ChainSearch::Result R = Search.search({Q}, U, Load);
  ASSERT_TRUE(R.Found);
  EXPECT_TRUE(R.Strong);
  EXPECT_EQ(R.BasePred, Q);
  ASSERT_EQ(R.Chain.size(), 2u);
  EXPECT_EQ(R.Chain[0].Stmt, T.step(Q).Stmt);
  EXPECT_EQ(R.Chain[1].Stmt, S.stmtAtLine(9));
  EXPECT_GE(Search.used(), 1u);
}

} // namespace

//===-- tests/ValuePerturbTest.cpp - Section 5 extension tests ----------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Tests for the value-perturbation extension (the paper's proposed way
// around the Table 5(b) nested-predicate unsoundness) and for the
// paths-vs-edges VerifyDep option (section 3.2's design choice).
//
//===----------------------------------------------------------------------===//

#include "core/ValuePerturb.h"
#include "core/VerifyDep.h"

#include "slicing/OutputVerdicts.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;
using namespace eoe::slicing;
using eoe::test::Session;

namespace {

/// The satisfiable nested-predicate scenario: both guards test A, the
/// correct A (20) would execute X = 2, the faulty A (5) takes neither
/// branch. Single-predicate switching is blind here; value perturbation
/// is not.
const char *NestedSrc = "fn main() {\n"
                        "var A = input();\n" // 2  <- perturbed definition
                        "var X = 1;\n"       // 3
                        "if (A > 10) {\n"    // 4  P1
                        "if (A > 15) {\n"    // 5  P2
                        "X = 2;\n"           // 6
                        "}\n"
                        "}\n"
                        "print(X);\n"        // 9  wrong: 1, expected 2
                        "}";

struct NestedFixture {
  Session S{NestedSrc};
  ExecutionTrace T;
  OutputVerdicts V;

  NestedFixture() {
    EXPECT_TRUE(S.valid());
    T = S.run({5});
    V.WrongOutput = 0;
    V.ExpectedValue = 2;
  }

  const UseRecord *xUse(TraceIdx I) const {
    for (const UseRecord &U : T.uses(I))
      if (isValidId(U.Var) && S.Prog->variable(U.Var).Name == "X")
        return &U;
    return nullptr;
  }
};

TEST(ValuePerturbTest, BranchSwitchingMissesTheNestedDependence) {
  NestedFixture F;
  ImplicitDepVerifier Verifier(*F.S.Interp, F.T, {5}, F.V,
                               ImplicitDepVerifier::Config());
  TraceIdx P1 = F.S.instanceAtLine(F.T, 4);
  TraceIdx Use = F.S.instanceAtLine(F.T, 9);
  const UseRecord *U = F.xUse(Use);
  ASSERT_NE(U, nullptr);
  EXPECT_EQ(Verifier.verify(P1, Use, U->LoadExpr), DepVerdict::NotImplicit)
      << "the Table 5(b) blind spot";
}

TEST(ValuePerturbTest, PerturbationExposesIt) {
  NestedFixture F;
  ValuePerturbVerifier Verifier(*F.S.Interp, F.T, {5}, F.V,
                                ValuePerturbVerifier::Config());
  TraceIdx DefA = F.S.instanceAtLine(F.T, 2);
  TraceIdx Use = F.S.instanceAtLine(F.T, 9);
  const UseRecord *U = F.xUse(Use);
  ASSERT_NE(U, nullptr);

  auto R = Verifier.verify(DefA, Use, U->LoadExpr, {7, 12, 20});
  EXPECT_TRUE(R.DependenceExposed);
  EXPECT_TRUE(R.OutputCorrected) << "A = 20 produces the expected output";
  EXPECT_EQ(R.WitnessValue, 20);
  EXPECT_EQ(R.Reexecutions, 3u) << "7 and 12 are tried and rejected first";
}

TEST(ValuePerturbTest, NoWitnessMeansNoDependence) {
  NestedFixture F;
  ValuePerturbVerifier Verifier(*F.S.Interp, F.T, {5}, F.V,
                                ValuePerturbVerifier::Config());
  TraceIdx DefA = F.S.instanceAtLine(F.T, 2);
  TraceIdx Use = F.S.instanceAtLine(F.T, 9);
  const UseRecord *U = F.xUse(Use);
  ASSERT_NE(U, nullptr);

  // Candidates that keep both guards un-taken do not expose anything.
  auto R = Verifier.verify(DefA, Use, U->LoadExpr, {1, 3, 9, 5});
  EXPECT_FALSE(R.DependenceExposed);
  EXPECT_EQ(R.Reexecutions, 3u) << "the original value 5 is skipped";
}

TEST(ValuePerturbTest, PerturbedInterpreterRunsDeterministically) {
  NestedFixture F;
  Interpreter::Options Opts;
  Opts.Perturb = PerturbSpec{F.S.stmtAtLine(2), 1, 20};
  ExecutionTrace A = F.S.Interp->run({5}, Opts);
  ExecutionTrace B = F.S.Interp->run({5}, Opts);
  ASSERT_EQ(A.size(), B.size());
  EXPECT_EQ(A.outputValues(), (std::vector<int64_t>{2}));
  EXPECT_NE(A.SwitchedStep, InvalidId);
  EXPECT_EQ(A.step(A.SwitchedStep).Stmt, F.S.stmtAtLine(2));
}

//===----------------------------------------------------------------------===//
// Paths-vs-edges (section 3.2): the paper's own example where the edge
// check misses but an explicit dependence path exists in the switched run.
//===----------------------------------------------------------------------===//

/// Figure 2 with statement "7" being x = ...: switching P executes the
/// loop, which redefines x via a chain of control and data edges, but
/// the new definition reaching the use is NOT directly inside P's
/// region -- the edge check says NOT_ID, the path check says ID.
const char *PathSrc = "fn main() {\n"
                      "var i = 0;\n"      // 2
                      "var t = 0;\n"      // 3
                      "var x = 0;\n"      // 4
                      "var P = 0;\n"      // 5
                      "if (P) {\n"        // 6  <- switched
                      "t = 1;\n"          // 7
                      "}\n"
                      "while (i < t) {\n" // 9
                      "x = 42;\n"         // 10 ("statement 7 is x=...")
                      "i = i + 1;\n"      // 11
                      "}\n"
                      "var y = x;\n"      // 13 (the use of x)
                      "print(y);\n"       // 14
                      "}";

TEST(VerifyDepPathCheckTest, EdgeCheckMissesIndirectExposure) {
  Session S(PathSrc);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});
  OutputVerdicts V;
  V.WrongOutput = 0;
  V.ExpectedValue = 99; // unreachable: never strong

  TraceIdx P = S.instanceAtLine(T, 6);
  TraceIdx Use = S.instanceAtLine(T, 13);
  ExprId Load = InvalidId;
  for (const UseRecord &U : T.uses(Use))
    if (isValidId(U.Var) && S.Prog->variable(U.Var).Name == "x")
      Load = U.LoadExpr;
  ASSERT_NE(Load, InvalidId);

  ImplicitDepVerifier EdgeVerifier(*S.Interp, T, {}, V,
                                   ImplicitDepVerifier::Config());
  EXPECT_EQ(EdgeVerifier.verify(P, Use, Load), DepVerdict::NotImplicit)
      << "x's new definition lives in the loop, not in P's region";

  ImplicitDepVerifier::Config PathConfig;
  PathConfig.UsePathCheck = true;
  ImplicitDepVerifier PathVerifier(*S.Interp, T, {}, V, PathConfig);
  EXPECT_EQ(PathVerifier.verify(P, Use, Load), DepVerdict::Implicit)
      << "the explicit path P -cd-> t=1 -dd-> while -cd-> x=42 -dd-> use "
         "exists in the switched run";
}

TEST(VerifyDepPathCheckTest, BothChecksAgreeOnDirectRegionDefs) {
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var x = 1;\n"
                    "if (p) {\n"   // 4
                    "x = 2;\n"
                    "}\n"
                    "var y = x;\n" // 7
                    "print(y);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});
  OutputVerdicts V;
  V.WrongOutput = 0;
  V.ExpectedValue = 99;
  TraceIdx P = S.instanceAtLine(T, 4);
  TraceIdx Use = S.instanceAtLine(T, 7);
  ExprId Load = T.uses(Use)[0].LoadExpr;

  ImplicitDepVerifier Edge(*S.Interp, T, {}, V,
                           ImplicitDepVerifier::Config());
  ImplicitDepVerifier::Config PC;
  PC.UsePathCheck = true;
  ImplicitDepVerifier Path(*S.Interp, T, {}, V, PC);
  EXPECT_EQ(Edge.verify(P, Use, Load), DepVerdict::Implicit);
  EXPECT_EQ(Path.verify(P, Use, Load), DepVerdict::Implicit);
}

} // namespace

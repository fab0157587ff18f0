//===-- tests/VerifyDepTest.cpp - Implicit dependence verification ------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

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

/// Finds the use of variable \p Name recorded at instance \p I.
const UseRecord *useOfVar(const Session &S, const ExecutionTrace &T,
                          TraceIdx I, const std::string &Name) {
  for (const UseRecord &U : T.uses(I))
    if (isValidId(U.Var) && S.Prog->variable(U.Var).Name == Name)
      return &U;
  return nullptr;
}

/// Shared harness: runs the program, builds verdicts from the expected
/// outputs, and exposes a verifier.
struct VerifyFixture {
  Session S;
  std::vector<int64_t> Input;
  ExecutionTrace T;
  OutputVerdicts V;
  std::unique_ptr<ImplicitDepVerifier> Verifier;

  VerifyFixture(const char *Src, std::vector<int64_t> In,
                std::vector<int64_t> Expected)
      : S(Src), Input(std::move(In)) {
    EXPECT_TRUE(S.valid());
    T = S.run(Input);
    auto Diff = diffOutputs(T, Expected);
    EXPECT_TRUE(Diff.has_value());
    V = *Diff;
    Verifier = std::make_unique<ImplicitDepVerifier>(
        *S.Interp, T, Input, V, ImplicitDepVerifier::Config());
  }

  DepVerdict verify(uint32_t PredLine, uint32_t UseLine,
                    const std::string &VarName) {
    TraceIdx P = S.instanceAtLine(T, PredLine);
    TraceIdx U = S.instanceAtLine(T, UseLine);
    EXPECT_NE(P, InvalidId);
    EXPECT_NE(U, InvalidId);
    const UseRecord *Use = useOfVar(S, T, U, VarName);
    EXPECT_NE(Use, nullptr);
    return Verifier->verify(P, U, Use->LoadExpr);
  }
};

TEST(VerifyDepTest, StrongImplicitWhenSwitchProducesExpectedOutput) {
  // Figure 1's S4 -> S6: switching the flags guard corrects the output.
  const char *Src = "fn main() {\n"
                    "var save = 0;\n"    // 2 (root cause)
                    "var flags = 0;\n"   // 3
                    "if (save) {\n"      // 4 (S4)
                    "flags = flags + 32;\n" // 5 (S5)
                    "}\n"
                    "var out = flags;\n" // 7 (S6)
                    "print(out);\n"      // 8 (S10-ish)
                    "}";
  VerifyFixture F(Src, {}, {32});
  EXPECT_EQ(F.verify(4, 7, "flags"), DepVerdict::StrongImplicit);
  EXPECT_EQ(F.Verifier->verificationCount(), 1u);
  EXPECT_EQ(F.Verifier->reexecutionCount(), 1u);
}

TEST(VerifyDepTest, ImplicitWhenUseAffectedButOutputStillWrong) {
  // Switching exposes a new reaching definition for the use, but the
  // output does not become the expected value: plain ID, not strong.
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var x = 1;\n"
                    "if (p) {\n"        // 4
                    "x = 2;\n"
                    "}\n"
                    "var y = x;\n"      // 7
                    "print(y);\n"       // 8
                    "}";
  VerifyFixture F(Src, {}, {99}); // expected value unreachable
  EXPECT_EQ(F.verify(4, 7, "x"), DepVerdict::Implicit);
}

TEST(VerifyDepTest, ImplicitWhenTheUseDisappears) {
  // Figure 2 execution (3): the switch flips a predicate guarding u, so
  // u has no match -- Definition 2 condition (i).
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var c = 0;\n"
                    "var x = 5;\n"
                    "if (p) {\n"      // 5
                    "c = 1;\n"
                    "}\n"
                    "if (c == 0) {\n" // 8
                    "x = x + 1;\n"    // 9 (u: the use of x)
                    "}\n"
                    "print(x);\n"     // 11
                    "}";
  VerifyFixture F(Src, {}, {77});
  EXPECT_EQ(F.verify(5, 9, "x"), DepVerdict::Implicit);
}

TEST(VerifyDepTest, NotImplicitForUnrelatedPredicates) {
  // Figure 1's S7 -> S10 false potential dependence: switching S7 does
  // not change outbuf[1], so verification rejects the edge.
  const char *Src = "var outbuf[8];\n"
                    "fn main() {\n"
                    "var save = 0;\n"        // 3
                    "var cnt = 0;\n"         // 4
                    "outbuf[cnt] = 8;\n"     // 5
                    "cnt = cnt + 1;\n"       // 6
                    "outbuf[cnt] = 0;\n"     // 7
                    "cnt = cnt + 1;\n"       // 8
                    "if (save) {\n"          // 9 (S7)
                    "outbuf[cnt] = 55;\n"    // 10 (S8: may-alias outbuf[1])
                    "cnt = cnt + 1;\n"       // 11
                    "}\n"
                    "print(outbuf[0]);\n"    // 13 (correct)
                    "print(outbuf[1]);\n"    // 14 (wrong)
                    "}";
  VerifyFixture F(Src, {}, {8, 32});
  EXPECT_EQ(F.verify(9, 14, "outbuf"), DepVerdict::NotImplicit);
}

TEST(VerifyDepTest, VerdictsAreCachedPerDependence) {
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var x = 1;\n"
                    "if (p) {\n"
                    "x = 2;\n"
                    "}\n"
                    "var y = x;\n"
                    "print(y);\n"
                    "}";
  VerifyFixture F(Src, {}, {99});
  DepVerdict First = F.verify(4, 7, "x");
  DepVerdict Second = F.verify(4, 7, "x");
  EXPECT_EQ(First, Second);
  EXPECT_EQ(F.Verifier->verificationCount(), 1u) << "cache hit";
  EXPECT_EQ(F.Verifier->reexecutionCount(), 1u);
}

TEST(VerifyDepTest, OneReexecutionServesManyUses) {
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var x = 1;\n"
                    "var z = 1;\n"
                    "if (p) {\n"      // 5
                    "x = 2;\n"
                    "z = 2;\n"
                    "}\n"
                    "var y = x;\n"    // 9
                    "var w = z;\n"    // 10
                    "print(y + w);\n" // 11
                    "}";
  VerifyFixture F(Src, {}, {99});
  EXPECT_EQ(F.verify(5, 9, "x"), DepVerdict::Implicit);
  EXPECT_EQ(F.verify(5, 10, "z"), DepVerdict::Implicit);
  EXPECT_EQ(F.Verifier->verificationCount(), 2u);
  EXPECT_EQ(F.Verifier->reexecutionCount(), 1u)
      << "switched runs are shared per predicate instance";
}

TEST(VerifyDepTest, Table5aInfeasiblePathStillReportsDependence) {
  // Discussion, Table 5(a): forcing P2 may traverse a path infeasible in
  // the faulty program; the paper argues the dependence must still be
  // reported because P1/P2 themselves may be the error.
  const char *Src = "fn main() {\n"
                    "var A = input();\n" // 2: A = 15
                    "var X = 1;\n"       // 3: S1
                    "if (A > 10) {\n"    // 4: P1 (taken)
                    "A = 3;\n"           // 5
                    "}\n"
                    "if (A > 100) {\n"   // 7: P2 (not taken)
                    "X = 2;\n"           // 8: S3
                    "}\n"
                    "print(X);\n"        // 10
                    "}";
  VerifyFixture F(Src, {15}, {42});
  EXPECT_NE(F.verify(7, 10, "X"), DepVerdict::NotImplicit);
}

TEST(VerifyDepTest, Table5bNestedPredicatesExposeUnsoundness) {
  // Discussion, Table 5(b): both predicates test the same (faulty) A;
  // switching P1 alone lets P2 evaluate false, so the method misses the
  // implicit dependence -- the documented unsoundness.
  const char *Src = "fn main() {\n"
                    "var A = input();\n" // 2: A = 5 (wrong value)
                    "var X = 1;\n"       // 3: S1
                    "if (A > 10) {\n"    // 4: P1 (not taken)
                    "if (A < 5) {\n"     // 5: P2
                    "X = 2;\n"           // 6: S2
                    "}\n"
                    "}\n"
                    "print(X);\n"        // 9: S4
                    "}";
  VerifyFixture F(Src, {5}, {42});
  EXPECT_EQ(F.verify(4, 9, "X"), DepVerdict::NotImplicit)
      << "the paper's documented miss: switching one of two nested "
         "predicates that share the faulty definition";
}

TEST(VerifyDepTest, PathCheckFollowsTheReturnOfTheSwitchedCall) {
  // The switch lies inside f, whose call record in main is still open at
  // the switch: the record reads f's return value after the switch, and
  // its definition of x reaches u. The edge check misses it (x's
  // definition is the call, before the switch); the explicit-path check
  // follows switch -> r = 1 -> return r -> the call -> u.
  const char *Src = "fn f(a) {\n"
                    "var r = 0;\n"
                    "if (a) {\n"        // 3
                    "r = 1;\n"
                    "}\n"
                    "return r;\n"
                    "}\n"
                    "fn main() {\n"
                    "var x = f(0);\n"
                    "var w = x;\n"      // 10 (u: the use of x)
                    "print(w);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});
  auto Diff = diffOutputs(T, {99});
  ASSERT_TRUE(Diff.has_value());
  TraceIdx P = S.instanceAtLine(T, 3);
  TraceIdx U = S.instanceAtLine(T, 10);
  const UseRecord *Use = useOfVar(S, T, U, "x");
  ASSERT_NE(Use, nullptr);
  ImplicitDepVerifier Edge(*S.Interp, T, {}, *Diff,
                           ImplicitDepVerifier::Config());
  EXPECT_EQ(Edge.verify(P, U, Use->LoadExpr), DepVerdict::NotImplicit);
  ImplicitDepVerifier::Config C;
  C.UsePathCheck = true;
  ImplicitDepVerifier Path(*S.Interp, T, {}, *Diff, C);
  EXPECT_EQ(Path.verify(P, U, Use->LoadExpr), DepVerdict::Implicit);
}

TEST(VerifyDepTest, TimedOutSwitchedRunMeansNoDependence) {
  // Switching makes the program loop forever; the step budget expires
  // and verification concludes NOT_ID (the paper's timer policy). The
  // wrong output is unreachable too, so no strong evidence either.
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var x = 1;\n"
                    "if (p) {\n"            // 4
                    "while (1) {\n"
                    "x = x + 1;\n"
                    "}\n"
                    "}\n"
                    "var y = x;\n"          // 9
                    "print(y);\n"           // 10
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});
  auto Diff = diffOutputs(T, {99});
  ASSERT_TRUE(Diff.has_value());
  ImplicitDepVerifier::Config C;
  C.MaxSteps = 2000;
  ImplicitDepVerifier Verifier(*S.Interp, T, {}, *Diff, C);
  TraceIdx P = S.instanceAtLine(T, 4);
  TraceIdx U = S.instanceAtLine(T, 9);
  const UseRecord *Use = useOfVar(S, T, U, "x");
  ASSERT_NE(Use, nullptr);
  EXPECT_EQ(Verifier.verify(P, U, Use->LoadExpr), DepVerdict::NotImplicit);
}

} // namespace

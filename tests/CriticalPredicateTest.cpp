//===-- tests/CriticalPredicateTest.cpp - ICSE'06 baseline tests ---------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/CriticalPredicate.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

/// Single-effect omission: switching the guard alone corrects the whole
/// output, so a critical predicate exists.
const char *SingleEffectSrc = "fn main() {\n"
                              "var flag = 0;\n" // 2 (root: should be 1)
                              "var x = 5;\n"    // 3
                              "if (flag) {\n"   // 4 <- the critical predicate
                              "x = 9;\n"
                              "}\n"
                              "print(x);\n"
                              "}";

TEST(CriticalPredicateTest, FindsTheCriticalPredicate) {
  Session S(SingleEffectSrc);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});
  CriticalPredicateSearch Search(*S.Interp, T, {}, {9},
                                 CriticalPredicateSearch::Config());
  auto R = Search.search();
  ASSERT_TRUE(R.Found);
  EXPECT_EQ(T.step(R.CriticalInstance).Stmt, S.stmtAtLine(4));
  // Note: the critical predicate is NOT the root cause (line 2) -- the
  // limitation the PLDI'07 technique overcomes.
}

TEST(CriticalPredicateTest, MultiEffectOmissionHasNoCriticalPredicate) {
  // The omitted branch has TWO effects (x and y); one switch cannot
  // reproduce the fully correct output because both guards read the
  // same corrupted flag but are separate predicates... here a single
  // guard with two outputs keeps it simple: switching corrects both.
  // Instead, use two separate guards:
  const char *Src = "fn main() {\n"
                    "var flag = 0;\n" // 2 (root)
                    "var x = 5;\n"
                    "var y = 5;\n"
                    "if (flag) {\n"   // 5
                    "x = 9;\n"
                    "}\n"
                    "if (flag) {\n"   // 8
                    "y = 9;\n"
                    "}\n"
                    "print(x);\n"
                    "print(y);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});
  CriticalPredicateSearch Search(*S.Interp, T, {}, {9, 9},
                                 CriticalPredicateSearch::Config());
  auto R = Search.search();
  EXPECT_FALSE(R.Found) << "no single switch fixes both outputs";
  EXPECT_GT(R.Switches, 1u) << "the whole candidate space was tried";
}

TEST(CriticalPredicateTest, OrderingsEnumerateAllPredicates) {
  Session S(SingleEffectSrc);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});
  for (auto Order : {CriticalPredicateSearch::Order::LastExecutedFirst,
                     CriticalPredicateSearch::Order::FirstExecutedFirst,
                     CriticalPredicateSearch::Order::DependenceAware}) {
    CriticalPredicateSearch::Config C;
    C.SearchOrder = Order;
    CriticalPredicateSearch Search(*S.Interp, T, {}, {9}, C);
    auto Candidates = Search.candidateOrder();
    size_t PredCount = 0;
    for (TraceIdx I = 0; I < T.size(); ++I)
      PredCount += T.step(I).isPredicateInstance();
    EXPECT_EQ(Candidates.size(), PredCount);
  }
}

TEST(CriticalPredicateTest, DependenceAwareOrderTriesSlicePredicatesFirst) {
  const char *Src = "fn main() {\n"
                    "var unrelated = 1;\n"
                    "if (unrelated) {\n"      // 3: not in the wrong slice
                    "unrelated = 2;\n"
                    "}\n"
                    "var flag = 0;\n"         // 6 (root)
                    "var x = 5;\n"
                    "if (flag) {\n"           // 8: in PD... switched fixes
                    "x = 9;\n"
                    "}\n"
                    "print(x);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});

  CriticalPredicateSearch::Config Dep;
  Dep.SearchOrder = CriticalPredicateSearch::Order::DependenceAware;
  CriticalPredicateSearch DepSearch(*S.Interp, T, {}, {9}, Dep);

  CriticalPredicateSearch::Config Naive;
  Naive.SearchOrder = CriticalPredicateSearch::Order::FirstExecutedFirst;
  CriticalPredicateSearch NaiveSearch(*S.Interp, T, {}, {9}, Naive);

  auto RDep = DepSearch.search();
  auto RNaive = NaiveSearch.search();
  ASSERT_TRUE(RDep.Found);
  ASSERT_TRUE(RNaive.Found);
  EXPECT_EQ(RDep.CriticalInstance, RNaive.CriticalInstance);
  // The naive order burns a switch on the unrelated predicate first.
  EXPECT_LE(RDep.Switches, RNaive.Switches);
}

TEST(CriticalPredicateTest, SwitchBudgetIsRespected) {
  Session S(SingleEffectSrc);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run({});
  CriticalPredicateSearch::Config C;
  C.MaxSwitches = 0;
  CriticalPredicateSearch Search(*S.Interp, T, {}, {9}, C);
  auto R = Search.search();
  EXPECT_FALSE(R.Found);
  EXPECT_EQ(R.Switches, 0u);
}

} // namespace

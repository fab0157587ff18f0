//===-- tests/ProfilerTest.cpp - Profiling unit tests -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Profiler.h"

#include "TestUtil.h"
#include "gen/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace eoe;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

/// The profile as std::sets: the code the flat tables replaced, kept as
/// the reference they must agree with.
struct ReferenceProfile {
  std::set<std::pair<StmtId, ExprId>> Deps;
  std::vector<std::set<int64_t>> Values;
  size_t Cap;

  ReferenceProfile(size_t StmtCount, size_t Cap = 4096)
      : Values(StmtCount), Cap(Cap) {}

  void addValue(StmtId Stmt, int64_t Value) {
    if (Values[Stmt].size() < Cap)
      Values[Stmt].insert(Value);
  }

  void accumulate(const ExecutionTrace &T) {
    for (const StepRecord &Step : T.Steps) {
      for (const UseRecord &Use : T.uses(Step))
        if (isValidId(Use.Def))
          Deps.insert({T.Steps[Use.Def].Stmt, Use.LoadExpr});
      for (const DefRecord &Def : T.defs(Step))
        addValue(Step.Stmt, Def.Value);
    }
  }
};

/// Expects every statement's kept values to equal the reference's, in
/// order.
void expectSameValues(const ValueProfile &Flat, const ReferenceProfile &Ref) {
  for (StmtId S = 0; S < Ref.Values.size(); ++S) {
    const std::set<int64_t> &Want = Ref.Values[S];
    std::span<const int64_t> Got = Flat.values(S);
    ASSERT_TRUE(std::equal(Want.begin(), Want.end(), Got.begin(), Got.end()))
        << "statement " << S << ": " << Got.size() << " values kept, want "
        << Want.size();
    EXPECT_EQ(Flat.rangeSize(S), Want.empty() ? 1 : Want.size());
  }
}

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
  EXPECT_TRUE(std::ranges::binary_search(P.Values.values(Def), 2));
  EXPECT_TRUE(std::ranges::binary_search(P.Values.values(Def), 4));
  EXPECT_TRUE(std::ranges::binary_search(P.Values.values(Def), 6));
}

TEST(ProfilerTest, EmptyRangeReportsOne) {
  Session S("fn main() { print(1); }");
  ASSERT_TRUE(S.valid());
  Profile P = profileTestSuite(*S.Interp, *S.Prog, {});
  EXPECT_EQ(P.Values.rangeSize(0), 1u)
      << "guards logarithmic confidence formulas";
  EXPECT_EQ(P.Runs, 0u);
}

TEST(ProfilerTest, UnionGraphIsFilledOnlyOnRequest) {
  Session S("fn main() {\n"
            "var a = input();\n"
            "print(a);\n"
            "}");
  ASSERT_TRUE(S.valid());
  Profile With = profileTestSuite(*S.Interp, *S.Prog, {{1}, {2}});
  Profile Without = profileTestSuite(*S.Interp, *S.Prog, {{1}, {2}},
                                     5'000'000, nullptr, /*UnionDeps=*/false);
  EXPECT_EQ(With.UnionDeps.size(), 1u);
  EXPECT_EQ(Without.UnionDeps.size(), 0u);
  EXPECT_EQ(Without.Runs, 2u);
  EXPECT_EQ(Without.Values.rangeSize(S.stmtAtLine(2)), 2u);
}

// The flat tables against the std::set reference over random programs,
// each profiled with a suite of random inputs on one shared context.
TEST(ProfilerTest, FlatTablesMatchTheSetReference) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    gen::RandomProgramGenerator Gen(Seed);
    auto Variant = Gen.generateOmission();
    Session S(Variant.FaultySource);
    ASSERT_TRUE(S.valid());
    std::mt19937_64 Rng(Seed);
    std::vector<std::vector<int64_t>> Suite(1 + Seed % 5, Variant.Input);
    for (std::vector<int64_t> &Input : Suite)
      for (int64_t &V : Input)
        V = static_cast<int64_t>(Rng() % 41) - 20;

    ExecContext Ctx;
    Profile P = profileTestSuite(*S.Interp, *S.Prog, Suite, 20'000, &Ctx);
    ReferenceProfile Ref(S.Prog->statements().size());
    Interpreter::Options Opts;
    Opts.MaxSteps = 20'000;
    for (const std::vector<int64_t> &Input : Suite)
      Ref.accumulate(S.Interp->run(Input, Opts));

    EXPECT_EQ(P.Runs, Suite.size());
    ASSERT_EQ(P.UnionDeps.size(), Ref.Deps.size());
    for (StmtId D = 0; D < S.Prog->statements().size(); ++D)
      for (ExprId E = 0; E < S.Prog->expressions().size(); ++E)
        ASSERT_EQ(P.UnionDeps.contains(D, E), Ref.Deps.count({D, E}) != 0)
            << "def " << D << ", load " << E;
    expectSameValues(P.Values, Ref);
  }
}

// One statement defines more than the cap's 4096 distinct values, in a
// scrambled order: i * 7919 mod 10007 visits all 10007 residues before
// repeating. The first 4096 distinct ones are kept, as by the reference.
TEST(ProfilerTest, CapKeepsTheFirstDistinctValues) {
  Session S("fn main() {\n"
            "var n = input();\n"
            "var i = 0;\n"
            "var x = 0;\n"
            "while (i < n) {\n"
            "x = (i * 7919) % 10007;\n" // 6
            "i = i + 1;\n"
            "}\n"
            "print(x);\n"
            "}");
  ASSERT_TRUE(S.valid());
  const std::vector<std::vector<int64_t>> Suite = {{12000}, {30000}};
  Profile P = profileTestSuite(*S.Interp, *S.Prog, Suite);
  ReferenceProfile Ref(S.Prog->statements().size());
  for (const std::vector<int64_t> &Input : Suite)
    Ref.accumulate(S.Interp->run(Input));
  EXPECT_EQ(P.Values.rangeSize(S.stmtAtLine(6)), 4096u);
  expectSameValues(P.Values, Ref);
}

// The table directly, at a size where a lookup linear in the kept values
// would show: 2^20 definitions of one statement, first with fewer
// distinct values than the cap (each looked up among ~4000 kept ones:
// ~2e9 comparisons for a linear scan, ~1e7 for the sorted table), then
// more than the cap in random order.
TEST(ProfilerTest, ManyDefinitionsOfOneStatement) {
  ValueProfile Flat(2);
  ReferenceProfile Ref(2);
  std::mt19937_64 Rng(7);
  for (size_t I = 0; I < (1u << 20); ++I) {
    const int64_t V = I < (3u << 18) ? static_cast<int64_t>(Rng() % 4000)
                                     : static_cast<int64_t>(Rng());
    Flat.addValue(1, V);
    Ref.addValue(1, V);
  }
  EXPECT_EQ(Flat.rangeSize(1), 4096u);
  EXPECT_EQ(Flat.rangeSize(0), 1u);
  expectSameValues(Flat, Ref);
}

} // namespace

//===-- tests/WorkloadsTest.cpp - Benchmark fault integration tests -----------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Parameterized over the nine seeded faults: each must (a) reproduce,
// (b) be missed by the dynamic slice, (c) be captured by the relevant
// slice, and (d) be located by the demand-driven procedure with the
// paper's oracle protocol.
//
//===----------------------------------------------------------------------===//

#include "workloads/Runner.h"

#include "lang/Parser.h"
#include "support/Diagnostic.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::workloads;

namespace eoe {
namespace workloads {
// gtest prints a pointer parameter as its address, which ASLR moves on
// every run, and gtest_discover_tests puts the printed value into the
// ctest name: without this the test names would change with each build.
static void PrintTo(const FaultInfo *F, std::ostream *OS) { *OS << F->Id; }
} // namespace workloads
} // namespace eoe

namespace {

class WorkloadFaultTest : public ::testing::TestWithParam<const FaultInfo *> {
};

TEST_P(WorkloadFaultTest, SourcesParseAndFaultReproduces) {
  const FaultInfo &F = *GetParam();
  DiagnosticEngine Diags;
  EXPECT_TRUE(lang::parseAndCheck(F.FaultySource, Diags)) << Diags.str();
  EXPECT_TRUE(lang::parseAndCheck(F.FixedSource, Diags)) << Diags.str();

  FaultRunner Runner(F);
  EXPECT_TRUE(Runner.valid()) << F.Id << " did not reproduce";
}

TEST_P(WorkloadFaultTest, FullProtocol) {
  const FaultInfo &F = *GetParam();
  FaultRunner Runner(F);
  ASSERT_TRUE(Runner.valid());

  FaultRunner::Options Opts;
  ExperimentResult R = Runner.run(Opts);
  ASSERT_TRUE(R.Valid) << F.Id << ": root cause not located";

  // Table 2 shape: DS and PS miss the root, RS captures it and is not
  // smaller than DS.
  EXPECT_FALSE(R.DSHasRoot) << F.Id << ": not an execution omission error";
  EXPECT_FALSE(R.PSHasRoot) << F.Id;
  EXPECT_TRUE(R.RSHasRoot) << F.Id << ": relevant slicing must capture it";
  EXPECT_GE(R.RS.StaticStmts, R.DS.StaticStmts) << F.Id;
  EXPECT_GE(R.RS.DynamicInstances, R.DS.DynamicInstances) << F.Id;
  EXPECT_LE(R.PS.DynamicInstances, R.DS.DynamicInstances) << F.Id;

  // Table 3 shape: located with a handful of expansions, the IPS exists
  // and OS is nonempty.
  EXPECT_TRUE(R.Report.RootCauseFound) << F.Id;
  EXPECT_GE(R.Report.ExpandedEdges, 1u) << F.Id;
  EXPECT_GT(R.OS.DynamicInstances, 0u) << F.Id;
  EXPECT_GT(R.Report.IPSStats.DynamicInstances, 0u) << F.Id;
}

std::vector<const FaultInfo *> allFaults() {
  std::vector<const FaultInfo *> Out;
  for (const FaultInfo &F : faults())
    Out.push_back(&F);
  return Out;
}

INSTANTIATE_TEST_SUITE_P(AllFaults, WorkloadFaultTest,
                         ::testing::ValuesIn(allFaults()),
                         [](const auto &Info) {
                           std::string Name = Info.param->Id;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

TEST(WorkloadRegistryTest, NineFaultsAcrossFourBenchmarks) {
  EXPECT_EQ(faults().size(), 9u);
  EXPECT_EQ(benchmarks().size(), 4u);
  int Flex = 0, Grep = 0, Gzip = 0, Sed = 0;
  for (const FaultInfo &F : faults()) {
    if (F.BenchmarkName == "flex")
      ++Flex;
    if (F.BenchmarkName == "grep")
      ++Grep;
    if (F.BenchmarkName == "gzip")
      ++Gzip;
    if (F.BenchmarkName == "sed")
      ++Sed;
  }
  EXPECT_EQ(Flex, 5);
  EXPECT_EQ(Grep, 1);
  EXPECT_EQ(Gzip, 1);
  EXPECT_EQ(Sed, 2);
}

TEST(WorkloadRegistryTest, FindFaultById) {
  EXPECT_NE(findFault("gzip-v2-f3"), nullptr);
  EXPECT_EQ(findFault("gzip-v9-f9"), nullptr);
}

TEST(WorkloadRegistryTest, FaultyAndFixedDifferOnOneLine) {
  for (const FaultInfo &F : faults()) {
    std::vector<std::string> FaultyLines, FixedLines;
    std::string Cur;
    for (char C : F.FaultySource) {
      if (C == '\n') {
        FaultyLines.push_back(Cur);
        Cur.clear();
      } else {
        Cur += C;
      }
    }
    Cur.clear();
    for (char C : F.FixedSource) {
      if (C == '\n') {
        FixedLines.push_back(Cur);
        Cur.clear();
      } else {
        Cur += C;
      }
    }
    ASSERT_EQ(FaultyLines.size(), FixedLines.size()) << F.Id;
    int Diffs = 0;
    for (size_t I = 0; I < FaultyLines.size(); ++I) {
      if (FaultyLines[I] != FixedLines[I]) {
        ++Diffs;
        EXPECT_EQ(I + 1, F.RootCauseLine) << F.Id;
      }
    }
    EXPECT_EQ(Diffs, 1) << F.Id;
  }
}

} // namespace

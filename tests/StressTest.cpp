//===-- tests/StressTest.cpp - Deep-nesting robustness -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Long-running loops nest one region per iteration (Definition 3), so
// region trees get as deep as the trace is long. These tests pin that
// alignment and slicing stay iterative (no stack overflow) and correct
// at tens of thousands of nesting levels, and that a realistic
// end-to-end locate works on a trace of that size.
//
//===----------------------------------------------------------------------===//

#include "align/Aligner.h"
#include "core/DebugSession.h"
#include "ddg/DepGraph.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace eoe;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

TEST(StressTest, AlignmentAcrossTwentyThousandNestedRegions) {
  const char *Src = "fn main() {\n"
                    "var p = 0;\n"
                    "var x = 1;\n"
                    "if (p) {\n"          // 4 <- switched
                    "x = 2;\n"
                    "}\n"
                    "var i = 0;\n"
                    "var s = 0;\n"
                    "while (i < 20000) {\n" // 9: 20k nested regions
                    "s = s + i;\n"
                    "i = i + 1;\n"
                    "}\n"
                    "var y = x;\n"        // 13
                    "print(y + s);\n"     // 14
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  ASSERT_GT(T.size(), 60000u);

  ExecutionTrace EP = S.Interp->runSwitched({}, {S.stmtAtLine(4), 1},
                                            1'000'000);
  align::ExecutionAligner A(T, EP);

  // The use after the loop: the walk descends 20k iteration regions.
  TraceIdx U = S.instanceAtLine(T, 13);
  align::AlignResult R = A.match(U);
  ASSERT_TRUE(R.found());
  EXPECT_EQ(EP.step(R.Matched).Stmt, S.stmtAtLine(13));
  EXPECT_EQ(EP.uses(R.Matched)[0].Value, 2) << "reads the new def";

  // A point deep inside the loop aligns too.
  TraceIdx Mid = S.instanceAtLine(T, 10, 15000);
  ASSERT_NE(Mid, InvalidId);
  align::AlignResult RMid = A.match(Mid);
  ASSERT_TRUE(RMid.found());
  EXPECT_EQ(EP.step(RMid.Matched).InstanceNo, 15000u);
}

TEST(StressTest, SlicingAndRegionTreeOnLongTraces) {
  const char *Src = "fn main() {\n"
                    "var i = 0;\n"
                    "var s = 0;\n"
                    "while (i < 30000) {\n"
                    "s = s + i % 7;\n"
                    "i = i + 1;\n"
                    "}\n"
                    "print(s);\n"
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  ASSERT_GT(T.size(), 90000u);

  align::RegionTree Tree(T);
  TraceIdx Last = static_cast<TraceIdx>(T.size() - 1);
  EXPECT_GT(Tree.depth(S.instanceAtLine(T, 5, 30000)), 29000u);
  (void)Last;

  ddg::DepGraph G(T);
  auto Member = G.backwardClosure({T.Outputs[0].Step},
                                  ddg::DepGraph::ClosureOptions());
  auto Stats = G.stats(Member);
  EXPECT_GT(Stats.DynamicInstances, 80000u);
}

TEST(StressTest, EndToEndLocateOnALongTrace) {
  // The Figure-1 shape with a 5000-iteration compression loop between
  // the omission and the observation.
  const char *Src = "fn main() {\n"
                    "var save = 0;\n"      // 2 <- root (should be 1)
                    "var flags = 0;\n"
                    "if (save) {\n"        // 4
                    "flags = flags + 8;\n"
                    "}\n"
                    "var i = 0;\n"
                    "var crc = 0;\n"
                    "while (i < 5000) {\n"
                    "crc = (crc * 31 + i) % 65521;\n"
                    "i = i + 1;\n"
                    "}\n"
                    "print(crc);\n"        // 13 correct
                    "print(flags);\n"      // 14 wrong
                    "}";
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace Fixed = S.run(); // compute correct crc for expectations
  int64_t Crc = Fixed.Outputs[0].Value;

  core::DebugSession D(*S.Prog, {}, {Crc, 8}, {});
  ASSERT_TRUE(D.hasFailure());

  struct RootOracle : slicing::Oracle {
    StmtId Root;
    explicit RootOracle(StmtId Root) : Root(Root) {}
    bool isBenign(TraceIdx) override { return false; }
    bool isRootCause(StmtId Stmt) override { return Stmt == Root; }
  } O(S.stmtAtLine(2));

  core::LocateReport R = D.locate(O);
  EXPECT_TRUE(R.RootCauseFound);
  EXPECT_GE(R.StrongEdges, 1u);
}

} // namespace

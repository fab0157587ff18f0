//===-- tests/TraceIOTest.cpp - Trace serialization tests ----------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/TraceIO.h"

#include "align/Aligner.h"
#include "ddg/DepGraph.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace eoe;
using namespace eoe::interp;
using eoe::test::Session;

namespace {

const char *Src = "fn mix(a) {\n"
                  "return a * 2;\n"
                  "}\n"
                  "fn main() {\n"
                  "var i = 0;\n"
                  "var s = 0;\n"
                  "while (i < 3) {\n"
                  "s = s + mix(i);\n"
                  "i = i + 1;\n"
                  "}\n"
                  "if (s > 4) {\n"
                  "print(s);\n"
                  "}\n"
                  "print(s, i);\n"
                  "}";

void expectTracesEqual(const ExecutionTrace &A, const ExecutionTrace &B) {
  ASSERT_EQ(A.Steps.size(), B.Steps.size());
  EXPECT_EQ(A.Exit, B.Exit);
  EXPECT_EQ(A.ExitValue, B.ExitValue);
  EXPECT_EQ(A.SwitchedStep, B.SwitchedStep);
  EXPECT_EQ(A.FirstInputStep, B.FirstInputStep);
  for (TraceIdx I = 0; I < A.Steps.size(); ++I) {
    const StepRecord &SA = A.step(I), &SB = B.step(I);
    EXPECT_EQ(SA.Stmt, SB.Stmt);
    EXPECT_EQ(SA.CdParent, SB.CdParent);
    EXPECT_EQ(SA.InstanceNo, SB.InstanceNo);
    EXPECT_EQ(SA.BranchTaken, SB.BranchTaken);
    EXPECT_EQ(SA.Value, SB.Value);
    auto UA = A.uses(SA), UB = B.uses(SB);
    ASSERT_EQ(UA.size(), UB.size());
    for (size_t U = 0; U < UA.size(); ++U) {
      EXPECT_EQ(UA[U].Loc.Raw, UB[U].Loc.Raw);
      EXPECT_EQ(UA[U].Def, UB[U].Def);
      EXPECT_EQ(UA[U].LoadExpr, UB[U].LoadExpr);
      EXPECT_EQ(UA[U].Var, UB[U].Var);
      EXPECT_EQ(UA[U].Value, UB[U].Value);
    }
    auto DA = A.defs(SA), DB = B.defs(SB);
    ASSERT_EQ(DA.size(), DB.size());
    for (size_t D = 0; D < DA.size(); ++D) {
      EXPECT_EQ(DA[D].Loc.Raw, DB[D].Loc.Raw);
      EXPECT_EQ(DA[D].Value, DB[D].Value);
    }
  }
  ASSERT_EQ(A.Outputs.size(), B.Outputs.size());
  for (size_t I = 0; I < A.Outputs.size(); ++I) {
    EXPECT_EQ(A.Outputs[I].Step, B.Outputs[I].Step);
    EXPECT_EQ(A.Outputs[I].ArgNo, B.Outputs[I].ArgNo);
    EXPECT_EQ(A.Outputs[I].Value, B.Outputs[I].Value);
  }
}

TEST(TraceIOTest, RoundTripsAFullTrace) {
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  std::string Text = serializeTrace(T);
  std::string Error;
  auto Back = deserializeTrace(Text, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  expectTracesEqual(T, *Back);
}

TEST(TraceIOTest, RoundTripsSwitchedAndAbortedRuns) {
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T =
      S.Interp->runSwitched({}, {S.stmtAtLine(11), 1}, 100000);
  ASSERT_NE(T.SwitchedStep, InvalidId);
  auto Back = deserializeTrace(serializeTrace(T));
  ASSERT_TRUE(Back.has_value());
  expectTracesEqual(T, *Back);

  Interpreter::Options Tight;
  Tight.MaxSteps = 5;
  ExecutionTrace Aborted = S.Interp->run({}, Tight);
  ASSERT_EQ(Aborted.Exit, ExitReason::StepLimit);
  auto Back2 = deserializeTrace(serializeTrace(Aborted));
  ASSERT_TRUE(Back2.has_value());
  expectTracesEqual(Aborted, *Back2);
}

TEST(TraceIOTest, DeserializedTracesDriveTheAnalyses) {
  // The round-tripped trace is a full citizen: sliceable and alignable.
  Session S(Src);
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.run();
  auto Loaded = deserializeTrace(serializeTrace(T));
  ASSERT_TRUE(Loaded.has_value());

  ddg::DepGraph G(*Loaded);
  auto Member = G.backwardClosure({Loaded->Outputs.back().Step},
                                  ddg::DepGraph::ClosureOptions());
  EXPECT_GT(G.stats(Member).DynamicInstances, 4u);

  ExecutionTrace Switched =
      S.Interp->runSwitched({}, {S.stmtAtLine(11), 1}, 100000);
  align::ExecutionAligner A(*Loaded, Switched);
  EXPECT_TRUE(A.match(Loaded->Outputs.back().Step).found());
}

TEST(TraceIOTest, RoundTripsTheFirstInputWatermark) {
  Session S("fn main() { var a = 1; var x = input(); print(a + x); }");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.Interp->run({5});
  ASSERT_NE(T.FirstInputStep, InvalidId);
  std::string Text = serializeTrace(T);
  EXPECT_NE(Text.find("\nfirstinput "), std::string::npos);
  auto Back = deserializeTrace(Text);
  ASSERT_TRUE(Back.has_value());
  expectTracesEqual(T, *Back);

  // Version-1 documents predate the watermark; they load with it unset.
  std::string V1 = "EOETRACE 1\nexit finished 0\nswitched -\n"
                   "steps 0\noutputs 0\n";
  std::string Error;
  auto Old = deserializeTrace(V1, &Error);
  ASSERT_TRUE(Old.has_value()) << Error;
  EXPECT_EQ(Old->FirstInputStep, InvalidId);

  // A watermark pointing past the step list is corrupt.
  std::string Dangling = "EOETRACE 2\nexit finished 0\nswitched -\n"
                         "firstinput 7\nsteps 0\noutputs 0\n";
  EXPECT_FALSE(deserializeTrace(Dangling, &Error).has_value());
  EXPECT_NE(Error.find("firstinput"), std::string::npos);
}

TEST(TraceIOTest, RejectsMalformedFirstInputRecords) {
  // A version-2 document from a real input-reading run, damaged three
  // ways around its firstinput record.
  Session S("fn main() { var a = 1; var x = input(); print(a + x); }");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.Interp->run({5});
  ASSERT_NE(T.FirstInputStep, InvalidId);
  std::string Good = serializeTrace(T);
  size_t At = Good.find("\nfirstinput ");
  ASSERT_NE(At, std::string::npos);
  size_t LineEnd = Good.find('\n', At + 1);
  ASSERT_NE(LineEnd, std::string::npos);
  std::string Error;

  // Missing: a v2 trace without the record is truncated, not "old".
  std::string Missing = Good;
  Missing.erase(At, LineEnd - At);
  EXPECT_FALSE(deserializeTrace(Missing, &Error).has_value());
  EXPECT_EQ(Error, "bad firstinput record");

  // Duplicate: a second record where the steps header belongs.
  std::string Duplicated = Good;
  Duplicated.insert(LineEnd, "\nfirstinput 0");
  EXPECT_FALSE(deserializeTrace(Duplicated, &Error).has_value());
  EXPECT_EQ(Error, "bad steps header");

  // Watermark exactly one past the last step of a non-empty trace (the
  // off-by-one boundary; the in-range indices all round-trip).
  std::string PastEnd = Good;
  PastEnd.replace(At, LineEnd - At,
                  "\nfirstinput " + std::to_string(T.Steps.size()));
  EXPECT_FALSE(deserializeTrace(PastEnd, &Error).has_value());
  EXPECT_EQ(Error, "firstinput dangling step index");
}

// The committed golden fixture pins the version-2 text byte for byte.
// The round-trip tests above still pass when writer and reader drift
// together; this one does not. Its trace holds a call statement whose
// record gains the return-value use and its own def after the callee's
// steps, an array store, a switched predicate and a firstinput record.
// Any drift is a format change (run with EOE_REGEN_GOLDEN=1 to
// regenerate, after bumping the version).
TEST(TraceIOTest, GoldenFixtureIsByteStable) {
  Session S("fn twice(a) {\n"
            "var d = a + a;\n"
            "return d;\n"
            "}\n"
            "fn main() {\n"
            "var buf[3];\n"
            "var x = input();\n"
            "var y = twice(x);\n"
            "buf[1] = y;\n"
            "if (y > 100) {\n"
            "y = 0;\n"
            "}\n"
            "print(y, buf[1]);\n"
            "}\n");
  ASSERT_TRUE(S.valid());
  ExecutionTrace T = S.Interp->runSwitched({7}, {S.stmtAtLine(10), 1}, 1000);
  ASSERT_NE(T.SwitchedStep, InvalidId);
  ASSERT_NE(T.FirstInputStep, InvalidId);
  std::string Text = serializeTrace(T);

  std::filesystem::path Fixture =
      std::filesystem::path(EOE_GOLDEN_DIR) / "trace-v2.eoetrace";
  if (std::getenv("EOE_REGEN_GOLDEN")) {
    std::ofstream(Fixture, std::ios::binary) << Text;
    GTEST_SKIP() << "regenerated " << Fixture;
  }
  std::ifstream In(Fixture, std::ios::binary);
  ASSERT_TRUE(In) << Fixture
                  << " missing; run with EOE_REGEN_GOLDEN=1 to create it";
  std::string Golden((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
  EXPECT_EQ(Golden, Text) << "TraceIO output drifted from the committed "
                             "version-2 fixture";
  auto Back = deserializeTrace(Golden);
  ASSERT_TRUE(Back.has_value());
  expectTracesEqual(T, *Back);
}

TEST(TraceIOTest, RejectsCorruptInput) {
  Session S(Src);
  ASSERT_TRUE(S.valid());
  std::string Good = serializeTrace(S.run());
  std::string Error;

  EXPECT_FALSE(deserializeTrace("", &Error).has_value());
  EXPECT_FALSE(deserializeTrace("NOTATRACE 1\n", &Error).has_value());
  EXPECT_FALSE(
      deserializeTrace("EOETRACE 99\nexit finished 0\n", &Error).has_value())
      << "unknown version";

  // Truncation anywhere must be detected, never crash.
  for (size_t Cut : {Good.size() / 4, Good.size() / 2, Good.size() - 3})
    EXPECT_FALSE(deserializeTrace(Good.substr(0, Cut), &Error).has_value())
        << "cut at " << Cut;

  // Dangling parent index.
  std::string Dangling = "EOETRACE 1\nexit finished 0\nswitched -\n"
                         "steps 1\ns 0 5 1 -1 0 0 0\noutputs 0\n";
  EXPECT_FALSE(deserializeTrace(Dangling, &Error).has_value());
  EXPECT_NE(Error.find("parent out of order"), std::string::npos);
}

} // namespace

//===-- tests/TraceDigestTest.cpp - Interpreter differential oracle ----------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
//
// Pins the interpreter's traces across changes to its internals. The
// committed fixture holds a 64-bit digest of serializeTrace for each of
// these runs:
//
//  - the failing run of eoe-fuzz seeds 0-1999 (the faulty program on the
//    seed's input), and one switched run per seed: the middle predicate
//    instance of the failing run, switched;
//  - each of the nine paper faults' test-suite runs and failing run.
//
// Each subject's runs share one ExecContext, in the order DebugSession
// makes them (a fault's suite before its failing run), so recycled
// frames and reserved arrays are covered too. A digest that moves is a
// trace that changed; run with EOE_REGEN_GOLDEN=1 to regenerate the
// fixture only when the change is meant.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "gen/RandomProgram.h"
#include "interp/TraceIO.h"
#include "workloads/Workloads.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

using namespace eoe;
using namespace eoe::interp;

namespace {

constexpr uint64_t FuzzSeeds = 2000;
/// The switched runs' budget, eoe-fuzz's: a switched loop hits it fast.
constexpr uint64_t SwitchedMaxSteps = 20'000;

/// FNV-1a over the trace's serialized text.
std::string digest(const ExecutionTrace &T) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : serializeTrace(T)) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, H);
  return Buf;
}

/// The fixture's text: one line per subject.
std::string digestAll() {
  std::ostringstream OS;
  for (uint64_t Seed = 0; Seed < FuzzSeeds; ++Seed) {
    gen::RandomProgramGenerator Gen(Seed);
    auto Variant = Gen.generateOmission();
    std::unique_ptr<lang::Program> Prog =
        test::parseOrDie(Variant.FaultySource);
    if (!Prog)
      return "";
    analysis::StaticAnalysis SA(*Prog);
    Interpreter Interp(*Prog, SA);
    ExecContext Ctx;
    ExecutionTrace Failing =
        Interp.run(Variant.Input, Interpreter::Options(), Ctx);
    OS << "seed " << Seed << ' ' << digest(Failing) << ' ';
    std::vector<TraceIdx> Preds;
    for (TraceIdx I = 0; I < Failing.size(); ++I)
      if (Failing.step(I).isPredicateInstance())
        Preds.push_back(I);
    if (Preds.empty()) {
      OS << "-\n";
      continue;
    }
    const StepRecord &P = Failing.step(Preds[Preds.size() / 2]);
    OS << digest(Interp.runSwitched(Variant.Input, {P.Stmt, P.InstanceNo},
                                    SwitchedMaxSteps, &Ctx))
       << '\n';
  }
  for (const workloads::FaultInfo &F : workloads::faults()) {
    std::unique_ptr<lang::Program> Prog = test::parseOrDie(F.FaultySource);
    if (!Prog)
      return "";
    analysis::StaticAnalysis SA(*Prog);
    Interpreter Interp(*Prog, SA);
    ExecContext Ctx;
    OS << "fault " << F.Id;
    for (const std::vector<int64_t> &Input : F.TestSuite)
      OS << ' ' << digest(Interp.run(Input, Interpreter::Options(), Ctx));
    OS << " failing "
       << digest(Interp.run(F.FailingInput, Interpreter::Options(), Ctx))
       << '\n';
  }
  return OS.str();
}

TEST(TraceDigestTest, TracesMatchTheCommittedDigests) {
  const std::string Text = digestAll();
  ASSERT_FALSE(Text.empty());
  std::filesystem::path Fixture =
      std::filesystem::path(EOE_GOLDEN_DIR) / "trace-digests.txt";
  if (std::getenv("EOE_REGEN_GOLDEN")) {
    std::ofstream(Fixture, std::ios::binary) << Text;
    GTEST_SKIP() << "regenerated " << Fixture;
  }
  std::ifstream In(Fixture, std::ios::binary);
  ASSERT_TRUE(In) << Fixture
                  << " missing; run with EOE_REGEN_GOLDEN=1 to create it";
  std::istringstream Got(Text);
  std::string Want, Line;
  size_t LineNo = 0;
  while (std::getline(In, Want)) {
    ++LineNo;
    ASSERT_TRUE(std::getline(Got, Line)) << "no line " << LineNo;
    ASSERT_EQ(Want, Line) << "first differing line: " << LineNo;
  }
  EXPECT_FALSE(std::getline(Got, Line)) << "extra line: " << Line;
}

} // namespace

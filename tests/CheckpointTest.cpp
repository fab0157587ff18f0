//===-- tests/CheckpointTest.cpp - Checkpointed re-execution -------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// The checkpointing subsystem's contract (docs/checkpointing.md): the
// run that records the original trace captures snapshots without
// changing that trace, and a switched run resumed from any dominating
// snapshot is *byte-identical* to the full-replay switched run -- same
// step records (and therefore the same dependence edges), same outputs,
// same exit reason, same switch point. Exercised at the interpreter API
// level over random omission programs, on the capture schedule itself,
// and end-to-end through locateFault, plus a TSan'd concurrent-restore
// stress (snapshots are shared read-only, so the verifier's documented
// thread safety extends to resumed runs).
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"
#include "lang/Parser.h"
#include "RandomProgram.h"
#include "support/Diagnostic.h"
#include "support/Stats.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace eoe;
using namespace eoe::interp;
using namespace eoe::test;

namespace {

constexpr uint64_t kBudget = 2'000'000;

/// All predicate instances of \p T, in trace order.
std::vector<TraceIdx> predicateInstances(const ExecutionTrace &T) {
  std::vector<TraceIdx> Preds;
  for (TraceIdx I = 0; I < T.size(); ++I)
    if (T.step(I).isPredicateInstance())
      Preds.push_back(I);
  return Preds;
}

/// EXPECTs byte-identity of a resumed switched run against its
/// full-replay reference, read through the resumed run's accessors over
/// its whole logical length.
void expectSameTrace(const ExecutionTrace &Full, const ResumedTrace &Resumed,
                     uint64_t Seed, TraceIdx P) {
  EXPECT_EQ(Full.Exit, Resumed.exit()) << "seed " << Seed << " pred " << P;
  EXPECT_EQ(Full.ExitValue, Resumed.exitValue())
      << "seed " << Seed << " pred " << P;
  EXPECT_EQ(Full.SwitchedStep, Resumed.switchedStep())
      << "seed " << Seed << " pred " << P;
  EXPECT_EQ(Full.FirstInputStep, Resumed.firstInputStep())
      << "seed " << Seed << " pred " << P;
  ASSERT_EQ(Full.Outputs.size(), Resumed.outputCount())
      << "seed " << Seed << " pred " << P;
  for (size_t K = 0; K < Full.Outputs.size(); ++K)
    EXPECT_EQ(Full.Outputs[K], Resumed.output(K))
        << "seed " << Seed << " pred " << P << " output " << K;
  // sameStep compares each step's use and def sequences too, so this
  // covers the dependence edges the verifier derives from the switched
  // run.
  ASSERT_EQ(Full.size(), Resumed.size()) << "seed " << Seed << " pred " << P;
  for (TraceIdx I = 0; I < Full.size(); ++I)
    ASSERT_TRUE(Resumed.sameStep(I, Full, I))
        << "seed " << Seed << " pred " << P << " step " << I;
}

/// How the loop body of crcSubject folds each iteration into crc.
enum class CrcBody {
  Inline,    ///< An expression: every predicate runs in main.
  CleanCall, ///< `crc = fold(crc, i);` -- snapshots inside fold hold the
             ///< pending call record.
  DirtyCall, ///< `crc = fold(crc, i) + 1;` -- fold's predicate is dirty.
};

/// A replay-shaped subject (e2ebench's replay workload): a crc loop of
/// \p Iters iterations, then \p Guards guards over zeroed flags; the fixed
/// program sets guard \p Silenced's flag. Every candidate predicate of the
/// wrong output lies past the loop, so each switched run either replays
/// the loop or resumes from a snapshot taken in it.
std::string crcSubject(unsigned Iters, unsigned Guards, unsigned Silenced,
                       bool Fixed, CrcBody Body) {
  std::string Src;
  if (Body != CrcBody::Inline)
    Src += "fn fold(crc, i) {\n"
           "  var r = crc;\n"
           "  if (i % 3 == 0) {\n"
           "    r = r + 7;\n"
           "  }\n"
           "  return (r * 31 + (i % 7) * (i % 11)) % 65521;\n"
           "}\n";
  Src += "fn main() {\n";
  for (unsigned G = 0; G < Guards; ++G)
    Src += "var c" + std::to_string(G) + " = " +
           ((Fixed && G == Silenced) ? "1" : "0") + ";\n";
  Src += "var flags = 0;\n"
         "var i = 0;\n"
         "var crc = 0;\n"
         "var mix = 1;\n"
         "while (i < " + std::to_string(Iters) + ") {\n";
  switch (Body) {
  case CrcBody::Inline:
    Src += "crc = (crc * 31 + (i % 7) * (i % 11) + mix * 13) % 65521;\n";
    break;
  case CrcBody::CleanCall:
    Src += "crc = fold(crc, i);\n";
    break;
  case CrcBody::DirtyCall:
    Src += "crc = fold(crc, i) + 1;\n";
    break;
  }
  Src += "mix = (mix * 17 + crc % 251 + (i % 5) * 29) % 8191;\n"
         "i = i + 1;\n"
         "}\n";
  for (unsigned G = 0; G < Guards; ++G)
    Src += "if (c" + std::to_string(G) + ") {\nflags = flags + " +
           std::to_string(1u << G) + ";\n}\n";
  Src += "print(crc);\n"
         "print(flags);\n"
         "}\n";
  return Src;
}

/// The source line of crcSubject's root cause: guard \p Silenced's flag.
uint32_t crcRootLine(unsigned Silenced, CrcBody Body) {
  return (Body == CrcBody::Inline ? 0 : 7) + 2 + Silenced;
}

/// Records \p Input's trace with \p Plan capturing, and EXPECTs it to equal
/// the trace of the same run without the capture, field by field.
ExecutionTrace recordCapturing(const Interpreter &Interp,
                               const std::vector<int64_t> &Input,
                               CheckpointPlan &Plan, uint64_t Seed) {
  Interpreter::Options Opts;
  Opts.MaxSteps = kBudget;
  Opts.Checkpoints = &Plan;
  ExecutionTrace E = Interp.run(Input, Opts);
  Opts.Checkpoints = nullptr;
  // Capturing must not perturb the execution it records.
  expectSameTrace(Interp.run(Input, Opts), ResumedTrace(E), Seed, InvalidId);
  return E;
}

class CheckpointEquivalence : public ::testing::TestWithParam<uint64_t> {};

// The core property, at the raw interpreter API level: for every
// predicate instance with a dominating snapshot, resume == full replay,
// byte for byte.
TEST_P(CheckpointEquivalence, ResumedSwitchedRunsAreBitIdentical) {
  RandomProgramGenerator Gen(GetParam());
  auto Variant = Gen.generateOmission();
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Variant.FaultySource, Diags);
  ASSERT_TRUE(Prog) << Diags.str();
  analysis::StaticAnalysis SA(*Prog);
  Interpreter Interp(*Prog, SA);

  // Capture at a clean predicate instance at least three steps after the
  // last, so nearest() has gaps to bridge, like the session's spaced
  // schedule leaves.
  CheckpointStore Store;
  CheckpointPlan Plan = CheckpointPlan::everyPredicate(Store, kBudget);
  Plan.Spacing = 3;
  ExecutionTrace E = recordCapturing(Interp, Variant.Input, Plan, GetParam());
  ASSERT_EQ(E.Exit, ExitReason::Finished);
  std::vector<TraceIdx> Preds = predicateInstances(E);
  if (Preds.empty())
    GTEST_SKIP() << "no predicate instances";
  for (const Checkpoint &CP : Store.snapshots())
    EXPECT_TRUE(E.step(CP.Index).isPredicateInstance());

  size_t Resumed = 0;
  ExecContext Ctx;
  for (size_t N = 0; N < Preds.size(); ++N) {
    TraceIdx P = Preds[N];
    const Checkpoint *CP = Store.nearest(P);
    if (!CP)
      continue;
    ASSERT_LE(CP->Index, P);
    const StepRecord &Step = E.step(P);
    SwitchSpec Spec{Step.Stmt, Step.InstanceNo};
    ExecutionTrace Full = Interp.runSwitched(Variant.Input, Spec, kBudget);

    Interpreter::Options ResumeOpts;
    ResumeOpts.MaxSteps = kBudget;
    ResumeOpts.Switch = Spec;
    ResumedTrace FromCkpt =
        Interp.runFrom(*CP, E, Variant.Input, ResumeOpts, Ctx);
    expectSameTrace(Full, FromCkpt, GetParam(), P);
    ++Resumed;
  }
  if (Store.count() > 0) {
    EXPECT_GT(Resumed, 0u) << "snapshots exist but none was exercised";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointEquivalence,
                         ::testing::Range<uint64_t>(300, 312));

// Calls in compound expressions (here: an addition of two call results)
// are dirty sites -- mid-expression evaluator state cannot be
// checkpointed -- so snapshot requests inside them must be skipped and
// counted, never mis-captured.
TEST(CheckpointTest, DirtyCallSitesAreSkipped) {
  const char *Src = "fn helper(n) {\n"          // 1
                    "  var r = 0;\n"            // 2
                    "  if (n > 2) {\n"          // 3
                    "    r = n * 2;\n"          // 4
                    "  }\n"                     // 5
                    "  return r + 1;\n"         // 6
                    "}\n"                       // 7
                    "fn main() {\n"             // 8
                    "  var i = 0;\n"            // 9
                    "  var acc = 0;\n"          // 10
                    "  while (i < 6) {\n"       // 11
                    "    acc = acc + helper(i) + helper(i + 1);\n" // 12
                    "    i = i + 1;\n"          // 13
                    "  }\n"                     // 14
                    "  print(acc);\n"           // 15
                    "}\n";                      // 16
  Session S(Src);
  ASSERT_TRUE(S.valid());
  CheckpointStore Store;
  CheckpointPlan Plan = CheckpointPlan::everyPredicate(Store, kBudget);
  ExecutionTrace E = recordCapturing(*S.Interp, {}, Plan, 0);
  ASSERT_EQ(E.Exit, ExitReason::Finished);

  // Every "if (n > 2)" instance executes while a dirty call (line 12's
  // compound expression) is active: none is captured, each is counted.
  // The while condition (line 11) runs between statements: every
  // instance is captured.
  StmtId InnerIf = S.stmtAtLine(3);
  StmtId Loop = S.stmtAtLine(11);
  std::vector<TraceIdx> Dirty, Clean;
  for (TraceIdx I = 0; I < E.size(); ++I) {
    if (E.step(I).Stmt == InnerIf)
      Dirty.push_back(I);
    if (E.step(I).Stmt == Loop)
      Clean.push_back(I);
  }
  ASSERT_FALSE(Dirty.empty());
  ASSERT_FALSE(Clean.empty());
  EXPECT_EQ(Plan.SkippedDirty, Dirty.size());
  std::vector<TraceIdx> Captured;
  for (const Checkpoint &CP : Store.snapshots())
    Captured.push_back(CP.Index);
  EXPECT_EQ(Captured, Clean);

  // And those snapshots resume bit-identically across the dirty calls.
  ExecContext Ctx;
  for (TraceIdx P : Clean) {
    const Checkpoint *CP = Store.nearest(P);
    ASSERT_TRUE(CP);
    const StepRecord &Step = E.step(P);
    SwitchSpec Spec{Step.Stmt, Step.InstanceNo};
    ExecutionTrace Full = S.Interp->runSwitched({}, Spec, kBudget);
    Interpreter::Options ResumeOpts;
    ResumeOpts.MaxSteps = kBudget;
    ResumeOpts.Switch = Spec;
    ResumedTrace FromCkpt = S.Interp->runFrom(*CP, E, {}, ResumeOpts, Ctx);
    expectSameTrace(Full, FromCkpt, 0, P);
  }
}

// Snapshots deep in a recursion hold one open call record per suspended
// frame. Resume must reopen them innermost last, each with the uses and
// defs it had recorded, so that every level gains its return-value read
// and its own definition in the right record as the recursion unwinds.
TEST(CheckpointTest, NestedPendingCallsResumeIdentically) {
  const char *Src = "fn down(n) {\n"         // 1
                    "  var r = n;\n"         // 2
                    "  if (n > 0) {\n"       // 3
                    "    r = down(n - 1);\n" // 4
                    "  }\n"                  // 5
                    "  return r + n;\n"      // 6
                    "}\n"                    // 7
                    "fn main() {\n"          // 8
                    "  var i = 0;\n"         // 9
                    "  var acc = 0;\n"       // 10
                    "  while (i < 5) {\n"    // 11
                    "    acc = down(i);\n"   // 12
                    "    i = i + 1;\n"       // 13
                    "  }\n"                  // 14
                    "  print(acc);\n"        // 15
                    "}\n";                   // 16
  Session S(Src);
  ASSERT_TRUE(S.valid());
  CheckpointStore Store;
  CheckpointPlan Plan = CheckpointPlan::everyPredicate(Store, kBudget);
  ExecutionTrace E = recordCapturing(*S.Interp, {}, Plan, 0);
  std::vector<TraceIdx> Preds = predicateInstances(E);
  ASSERT_EQ(Store.count(), Preds.size()) << "every call here is clean";

  ExecContext Ctx;
  size_t Deepest = 0;
  for (TraceIdx P : Preds) {
    const Checkpoint *CP = Store.nearest(P);
    ASSERT_TRUE(CP && CP->Index == P);
    Deepest = std::max(Deepest, CP->Frames.size());
    Interpreter::Options Plain;
    Plain.MaxSteps = kBudget;
    expectSameTrace(E, S.Interp->runFrom(*CP, E, {}, Plain, Ctx), 0, P);
    const StepRecord &Step = E.step(P);
    SwitchSpec Spec{Step.Stmt, Step.InstanceNo};
    Interpreter::Options Switched = Plain;
    Switched.Switch = Spec;
    expectSameTrace(S.Interp->runSwitched({}, Spec, kBudget),
                    S.Interp->runFrom(*CP, E, {}, Switched, Ctx), 0, P);
  }
  EXPECT_EQ(Deepest, 6u) << "main plus five nested down() frames";
}

// The byte budget: a plan whose store outgrows it thins to every other
// snapshot until it fits, and reports what it dropped; nearest() degrades
// to earlier snapshots or a miss, never to a wrong one.
TEST(CheckpointTest, StoreEvictsUnderMemoryPressure) {
  RandomProgramGenerator Gen(301);
  auto Variant = Gen.generateOmission();
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Variant.FaultySource, Diags);
  ASSERT_TRUE(Prog) << Diags.str();
  analysis::StaticAnalysis SA(*Prog);
  Interpreter Interp(*Prog, SA);

  // First find out how big the snapshots are, then budget for ~2.
  CheckpointStore Probe;
  CheckpointPlan ProbePlan = CheckpointPlan::everyPredicate(Probe, kBudget);
  ExecutionTrace E = recordCapturing(Interp, Variant.Input, ProbePlan, 301);
  if (Probe.count() < 4)
    GTEST_SKIP() << "too few clean predicate instances";
  size_t Largest = 0;
  for (const Checkpoint &CP : Probe.snapshots())
    Largest = std::max(Largest, CP.bytes());
  const size_t Budget = 2 * Largest + Largest / 2;

  CheckpointStore Tight;
  CheckpointPlan TightPlan = CheckpointPlan::everyPredicate(Tight, kBudget);
  TightPlan.BudgetBytes = Budget;
  recordCapturing(Interp, Variant.Input, TightPlan, 301);
  EXPECT_GT(Tight.thinned(), 0u);
  EXPECT_GT(TightPlan.Spacing, 1u) << "each thinning doubles the spacing";
  EXPECT_LT(Tight.count(), Probe.count());
  EXPECT_LE(Tight.bytes(), Budget);
  // Whatever survived still resumes correctly.
  ExecContext Ctx;
  std::vector<TraceIdx> Preds = predicateInstances(E);
  TraceIdx Last = Preds.back();
  const Checkpoint *CP = Tight.nearest(Last);
  ASSERT_TRUE(CP);
  const StepRecord &Step = E.step(Last);
  SwitchSpec Spec{Step.Stmt, Step.InstanceNo};
  ExecutionTrace Full = Interp.runSwitched(Variant.Input, Spec, kBudget);
  Interpreter::Options ResumeOpts;
  ResumeOpts.MaxSteps = kBudget;
  ResumeOpts.Switch = Spec;
  ResumedTrace FromCkpt =
      Interp.runFrom(*CP, E, Variant.Input, ResumeOpts, Ctx);
  expectSameTrace(Full, FromCkpt, 301, Last);
}

/// A snapshot standing for one taken after \p Step executed steps, at
/// trace index \p Step.
Checkpoint snapshotAt(uint64_t Step) {
  Checkpoint CP;
  CP.Index = static_cast<TraceIdx>(Step);
  CP.StepCount = Step;
  return CP;
}

/// The stored snapshots' trace indices.
std::vector<TraceIdx> indices(const CheckpointStore &Store) {
  std::vector<TraceIdx> Out;
  for (const Checkpoint &CP : Store.snapshots())
    Out.push_back(CP.Index);
  return Out;
}

// The schedule, driven the way the engine drives it: a capture is due
// every Spacing steps; at the cap or past the byte budget the store keeps
// every other snapshot, the newest included, and the spacing doubles.
TEST(CheckpointTest, ScheduleThinsToEveryOtherSnapshot) {
  const size_t PerSnapshot = snapshotAt(0).bytes();
  for (bool ByBytes : {false, true}) {
    CheckpointStore Store;
    CheckpointPlan Plan(Store, /*LastStep=*/1'000'000);
    Plan.Spacing = Plan.NextAt = 10;
    if (ByBytes) {
      Plan.Cap = 1000;
      Plan.BudgetBytes = 6 * PerSnapshot;
    } else {
      Plan.Cap = 8;
    }
    size_t Thinnings = 0;
    for (uint64_t Step = 0; Step < 5000; ++Step) {
      if (Step < Plan.NextAt)
        continue;
      ASSERT_TRUE(Plan.admit(Step, /*Dirty=*/false, SIZE_MAX));
      std::vector<TraceIdx> Before = indices(Store);
      Before.push_back(static_cast<TraceIdx>(Step));
      const uint64_t Spacing = Plan.Spacing;
      const size_t Thinned = Store.thinned();
      Plan.take(Step, snapshotAt(Step));
      EXPECT_LE(Store.count(), Plan.Cap);
      EXPECT_LE(Store.bytes(), Plan.BudgetBytes);
      EXPECT_EQ(Plan.NextAt, Step + Plan.Spacing);
      if (Store.thinned() == Thinned) {
        EXPECT_EQ(indices(Store), Before);
        EXPECT_EQ(Plan.Spacing, Spacing);
        continue;
      }
      // One thinning: every other snapshot, counting back from the new
      // one.
      ++Thinnings;
      std::vector<TraceIdx> Kept;
      for (size_t I = (Before.size() - 1) % 2; I < Before.size(); I += 2)
        Kept.push_back(Before[I]);
      EXPECT_EQ(indices(Store), Kept) << "step " << Step;
      EXPECT_EQ(Store.thinned(), Thinned + Before.size() - Kept.size());
      EXPECT_EQ(Plan.Spacing, 2 * Spacing);
    }
    EXPECT_GE(Thinnings, 3u) << (ByBytes ? "budget" : "cap");
  }
}

// What admit() refuses: a dirty instance (the next clean one is taken
// instead), a step past LastStep (no capture is due again), and, with a
// cap, an interval the trace bytes cannot carry (the next interval is).
TEST(CheckpointTest, ScheduleAdmitsCleanCapturesWithinItsLimits) {
  CheckpointStore Store;
  CheckpointPlan Plan(Store, /*LastStep=*/1000);
  const uint64_t First = Plan.NextAt;
  EXPECT_FALSE(Plan.admit(First, /*Dirty=*/true, SIZE_MAX));
  EXPECT_EQ(Plan.SkippedDirty, 1u);
  EXPECT_EQ(Plan.NextAt, First);
  EXPECT_TRUE(Plan.admit(First + 1, /*Dirty=*/false, SIZE_MAX));
  Plan.take(First + 1, snapshotAt(First + 1));
  EXPECT_EQ(Plan.NextAt, First + 1 + Plan.Spacing);

  // The next snapshot would take the retained bytes past a quarter of the
  // trace: this interval takes none.
  const uint64_t Second = Plan.NextAt;
  const size_t Carried = 4 * (2 * Store.bytes());
  EXPECT_FALSE(Plan.admit(Second, /*Dirty=*/false, Carried - 4));
  EXPECT_EQ(Plan.NextAt, Second + Plan.Spacing);
  EXPECT_TRUE(Plan.admit(Plan.NextAt, /*Dirty=*/false, Carried));

  // Past LastStep nothing is admitted, and nothing is due again.
  EXPECT_FALSE(Plan.admit(1001, /*Dirty=*/false, SIZE_MAX));
  EXPECT_EQ(Plan.NextAt, UINT64_MAX);
  EXPECT_EQ(Store.count(), 1u);
}

// The session's schedule is a function of program, input and budget: the
// same run captures at the same instances, within the cap and the budget.
TEST(CheckpointTest, ScheduleIsDeterministic) {
  const std::string Src = crcSubject(/*Iters=*/3000, /*Guards=*/4,
                                     /*Silenced=*/1, /*Fixed=*/false,
                                     CrcBody::CleanCall);
  Session S(Src);
  ASSERT_TRUE(S.valid());
  std::vector<TraceIdx> First;
  for (size_t Budget : {DefaultCheckpointMemBytes, size_t(8) << 10}) {
    for (int Rep = 0; Rep < 2; ++Rep) {
      CheckpointStore Store;
      CheckpointPlan Plan(Store, kBudget, Budget);
      recordCapturing(*S.Interp, {}, Plan, 0);
      EXPECT_GT(Store.count(), 1u);
      EXPECT_LE(Store.count(), CheckpointPlan::DefaultCap);
      EXPECT_LE(Store.bytes(), Budget);
      EXPECT_GT(Store.thinned(), 0u);
      if (Rep == 0)
        First = indices(Store);
      else
        EXPECT_EQ(indices(Store), First) << "budget " << Budget;
    }
  }
}

class RootOnlyOracle : public slicing::Oracle {
public:
  explicit RootOnlyOracle(StmtId Root) : Root(Root) {}
  bool isBenign(TraceIdx) override { return false; }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
};

struct LocateOutcome {
  core::LocateReport Report;
  std::vector<ddg::DepGraph::ImplicitEdge> Edges;
  /// Switched runs that resumed from a snapshot.
  uint64_t CkptHits = 0;
  size_t Snapshots = 0;
  /// The largest StepCount of a stored snapshot.
  uint64_t LatestSnapshotStep = 0;
};

std::optional<LocateOutcome>
locateVariant(const lang::Program &Faulty, const std::vector<int64_t> &Input,
              const std::vector<int64_t> &Expected, StmtId Root,
              bool Checkpoints,
              uint64_t LocateMaxSteps = core::LocateConfig().MaxSteps) {
  core::DebugSession::Config C;
  C.Opt.Reuse.Checkpoints = Checkpoints;
  C.Locate.MaxSteps = LocateMaxSteps;
  core::DebugSession Session(Faulty, Input, Expected, {}, C);
  if (!Session.hasFailure())
    return std::nullopt;
  RootOnlyOracle Oracle(Root);
  LocateOutcome O;
  O.Report = Session.locate(Oracle);
  O.Edges = Session.graph().implicitEdges();
  O.CkptHits = Session.verifier().stats().counter("verify.ckpt.hits").get();
  EXPECT_EQ(Session.checkpoints() != nullptr, Checkpoints);
  if (const CheckpointStore *Store = Session.checkpoints()) {
    O.Snapshots = Store->count();
    for (const Checkpoint &CP : Store->snapshots())
      O.LatestSnapshotStep = std::max(O.LatestSnapshotStep, CP.StepCount);
  }
  return O;
}

/// EXPECTs that a checkpointed locate run matches the full-replay
/// reference outcome field by field, including the implicit edges.
void expectSameOutcome(const LocateOutcome &Reference,
                       const LocateOutcome &Ckpt, const std::string &Subject) {
  EXPECT_EQ(Reference.Report.RootCauseFound, Ckpt.Report.RootCauseFound)
      << Subject;
  EXPECT_EQ(Reference.Report.Verifications, Ckpt.Report.Verifications)
      << Subject;
  EXPECT_EQ(Reference.Report.Reexecutions, Ckpt.Report.Reexecutions)
      << Subject;
  EXPECT_EQ(Reference.Report.Iterations, Ckpt.Report.Iterations) << Subject;
  EXPECT_EQ(Reference.Report.ExpandedEdges, Ckpt.Report.ExpandedEdges)
      << Subject;
  EXPECT_EQ(Reference.Report.StrongEdges, Ckpt.Report.StrongEdges)
      << Subject;
  EXPECT_EQ(Reference.Report.FinalPrunedSlice, Ckpt.Report.FinalPrunedSlice)
      << Subject;
  ASSERT_EQ(Reference.Edges.size(), Ckpt.Edges.size()) << Subject;
  for (size_t I = 0; I < Reference.Edges.size(); ++I) {
    EXPECT_EQ(Reference.Edges[I].Use, Ckpt.Edges[I].Use) << Subject;
    EXPECT_EQ(Reference.Edges[I].Pred, Ckpt.Edges[I].Pred) << Subject;
    EXPECT_EQ(Reference.Edges[I].Strong, Ckpt.Edges[I].Strong) << Subject;
  }
}

/// One crcSubject with its locate inputs.
struct CrcCase {
  unsigned Iters, Guards, Silenced;
  CrcBody Body;

  std::string name() const {
    return "crc i" + std::to_string(Iters) + " k" + std::to_string(Guards) +
           " g" + std::to_string(Silenced) + " body " +
           std::to_string(static_cast<int>(Body));
  }
};

struct CrcInputs {
  std::unique_ptr<lang::Program> Faulty;
  std::vector<int64_t> Expected;
  StmtId Root = InvalidId;
  size_t FailingSteps = 0;
};

CrcInputs crcInputs(const CrcCase &Case) {
  CrcInputs In;
  auto Fixed = parseOrDie(
      crcSubject(Case.Iters, Case.Guards, Case.Silenced, true, Case.Body));
  In.Faulty = parseOrDie(
      crcSubject(Case.Iters, Case.Guards, Case.Silenced, false, Case.Body));
  if (!Fixed || !In.Faulty)
    return In;
  analysis::StaticAnalysis FixedSA(*Fixed), FaultySA(*In.Faulty);
  In.Expected = Interpreter(*Fixed, FixedSA).run({}).outputValues();
  In.FailingSteps = Interpreter(*In.Faulty, FaultySA).run({}).size();
  In.Root = In.Faulty->statementAtLine(crcRootLine(Case.Silenced, Case.Body));
  return In;
}

// End to end: locateFault resuming from the session's snapshots produces
// the same report and the same implicit edges as full replay, on subjects
// whose switched runs do resume.
TEST(CheckpointTest, LocateIsIdenticalWithAndWithoutCheckpoints) {
  for (const CrcCase &Case : {CrcCase{600, 5, 2, CrcBody::Inline},
                              CrcCase{1500, 7, 6, CrcBody::Inline},
                              CrcCase{900, 4, 1, CrcBody::CleanCall},
                              CrcCase{700, 5, 0, CrcBody::DirtyCall}}) {
    CrcInputs In = crcInputs(Case);
    ASSERT_TRUE(In.Faulty && isValidId(In.Root)) << Case.name();
    std::optional<LocateOutcome> Reference =
        locateVariant(*In.Faulty, {}, In.Expected, In.Root, false);
    std::optional<LocateOutcome> Ckpt =
        locateVariant(*In.Faulty, {}, In.Expected, In.Root, true);
    ASSERT_TRUE(Reference && Ckpt) << Case.name();
    EXPECT_TRUE(Reference->Report.RootCauseFound) << Case.name();
    expectSameOutcome(*Reference, *Ckpt, Case.name());
    EXPECT_EQ(Reference->CkptHits, 0u) << Case.name();
    EXPECT_GT(Ckpt->CkptHits, 0u) << Case.name() << ": nothing resumed";
  }
}

// The same where switched runs hit their step limit before the failing
// run ends: every snapshot lies within the limit, so a resumed run halts
// exactly where the full replay does.
TEST(CheckpointTest, LocateAtTheStepLimitIsIdenticalWithAndWithoutCheckpoints) {
  const CrcCase Case{1500, 5, 2, CrcBody::CleanCall};
  CrcInputs In = crcInputs(Case);
  ASSERT_TRUE(In.Faulty && isValidId(In.Root));
  for (uint64_t Limit : {In.FailingSteps / 3, 2 * In.FailingSteps / 3,
                         In.FailingSteps - 3}) {
    const std::string Name = Case.name() + " limit " + std::to_string(Limit);
    std::optional<LocateOutcome> Reference =
        locateVariant(*In.Faulty, {}, In.Expected, In.Root, false, Limit);
    std::optional<LocateOutcome> Ckpt =
        locateVariant(*In.Faulty, {}, In.Expected, In.Root, true, Limit);
    ASSERT_TRUE(Reference && Ckpt) << Name;
    expectSameOutcome(*Reference, *Ckpt, Name);
    EXPECT_GT(Ckpt->CkptHits, 0u) << Name << ": nothing resumed";
    EXPECT_GT(Ckpt->Snapshots, 0u) << Name;
    EXPECT_LE(Ckpt->LatestSnapshotStep, Limit) << Name;
  }
}

// Snapshots are shared immutably across threads; hammer one store from
// eight threads and diff every resumed trace against serial full replay
// (the TSan job runs this via the parallel label).
TEST(CheckpointTest, ConcurrentRestoresAreRaceFreeAndIdentical) {
  RandomProgramGenerator Gen(305);
  auto Variant = Gen.generateOmission();
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Variant.FaultySource, Diags);
  ASSERT_TRUE(Prog) << Diags.str();
  analysis::StaticAnalysis SA(*Prog);
  Interpreter Interp(*Prog, SA);
  CheckpointStore Store;
  CheckpointPlan Plan = CheckpointPlan::everyPredicate(Store, kBudget);
  ExecutionTrace E = recordCapturing(Interp, Variant.Input, Plan, 305);
  std::vector<TraceIdx> Preds = predicateInstances(E);
  if (Preds.empty())
    GTEST_SKIP() << "no predicate instances";
  if (Store.count() == 0)
    GTEST_SKIP() << "every predicate instance was dirty";

  // Serial references first.
  std::vector<ExecutionTrace> Full(Preds.size());
  for (size_t N = 0; N < Preds.size(); ++N) {
    const StepRecord &Step = E.step(Preds[N]);
    Full[N] = Interp.runSwitched(Variant.Input,
                                 {Step.Stmt, Step.InstanceNo}, kBudget);
  }

  // Thread W resumes the switched runs of every Workers-th predicate
  // from W on.
  constexpr size_t Workers = 8;
  std::atomic<size_t> Restores{0};
  std::vector<std::thread> Threads;
  for (size_t W = 0; W < Workers; ++W)
    Threads.emplace_back([&, W] {
      for (size_t N = W; N < Preds.size(); N += Workers) {
        TraceIdx P = Preds[N];
        const Checkpoint *CP = Store.nearest(P);
        if (!CP)
          continue;
        const StepRecord &Step = E.step(P);
        Interpreter::Options ResumeOpts;
        ResumeOpts.MaxSteps = kBudget;
        ResumeOpts.Switch = SwitchSpec{Step.Stmt, Step.InstanceNo};
        ExecContext Ctx;
        ResumedTrace FromCkpt =
            Interp.runFrom(*CP, E, Variant.Input, ResumeOpts, Ctx);
        expectSameTrace(Full[N], FromCkpt, 305, P);
        Restores.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_GT(Restores.load(), 0u);
}

} // namespace

//===-- tests/CheckpointTest.cpp - Checkpointed re-execution -------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// The checkpointing subsystem's contract (docs/checkpointing.md): a
// switched run resumed from any dominating snapshot is *byte-identical*
// to the full-replay switched run -- same step records (and therefore
// the same dependence edges), same outputs, same exit reason, same
// switch point. Exercised both at the interpreter API level over random
// omission programs and end-to-end through locateFault, plus a TSan'd
// concurrent-restore stress (snapshots are shared read-only, so the
// verifier's documented thread safety extends to resumed runs).
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"
#include "lang/Parser.h"
#include "RandomProgram.h"
#include "support/Diagnostic.h"
#include "support/Stats.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
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

  ExecutionTrace E = Interp.run(Variant.Input);
  ASSERT_EQ(E.Exit, ExitReason::Finished);
  std::vector<TraceIdx> Preds = predicateInstances(E);
  if (Preds.empty())
    GTEST_SKIP() << "no predicate instances";

  // Snapshot every 3rd predicate instance so nearest() has gaps to
  // bridge, like a strided collection pass would leave.
  CheckpointStore Store(64ull << 20);
  CheckpointPlan Plan;
  Plan.Store = &Store;
  for (size_t I = 0; I < Preds.size(); I += 3)
    Plan.Sites.push_back(Preds[I]);

  Interpreter::Options CollectOpts;
  CollectOpts.MaxSteps = kBudget;
  CollectOpts.Checkpoints = &Plan;
  ExecutionTrace Recollected = Interp.run(Variant.Input, CollectOpts);
  // Instrumentation must not perturb the execution...
  ASSERT_EQ(Recollected.Steps.size(), E.Steps.size());
  // ...and every site is either snapshotted or skipped as dirty (all
  // sites come from the trace, so all are reached).
  EXPECT_EQ(Plan.Collected + Plan.SkippedDirty, Plan.Sites.size());

  size_t Resumed = 0;
  ExecContext Ctx;
  for (size_t N = 0; N < Preds.size(); ++N) {
    TraceIdx P = Preds[N];
    std::shared_ptr<const Checkpoint> CP = Store.nearest(P);
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
  if (Plan.Collected > 0) {
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
  ExecutionTrace E = S.run();
  ASSERT_EQ(E.Exit, ExitReason::Finished);

  // Request a snapshot at every "if (n > 2)" instance: each one executes
  // while a dirty call (line 12's compound expression) is active.
  StmtId InnerIf = S.stmtAtLine(3);
  CheckpointStore Store(64ull << 20);
  CheckpointPlan Plan;
  Plan.Store = &Store;
  for (TraceIdx I = 0; I < E.size(); ++I)
    if (E.step(I).Stmt == InnerIf)
      Plan.Sites.push_back(I);
  ASSERT_FALSE(Plan.Sites.empty());

  Interpreter::Options Opts;
  Opts.MaxSteps = kBudget;
  Opts.Checkpoints = &Plan;
  ExecutionTrace Recollected = S.Interp->run({}, Opts);
  EXPECT_EQ(Recollected.Steps.size(), E.Steps.size());
  EXPECT_EQ(Plan.Collected, 0u);
  EXPECT_EQ(Plan.SkippedDirty, Plan.Sites.size());
  EXPECT_EQ(Store.count(), 0u);

  // The while condition (line 11) runs between statements: a clean site.
  CheckpointPlan CleanPlan;
  CleanPlan.Store = &Store;
  StmtId Loop = S.stmtAtLine(11);
  for (TraceIdx I = 0; I < E.size(); ++I)
    if (E.step(I).Stmt == Loop)
      CleanPlan.Sites.push_back(I);
  ASSERT_FALSE(CleanPlan.Sites.empty());
  Opts.Checkpoints = &CleanPlan;
  S.Interp->run({}, Opts);
  EXPECT_EQ(CleanPlan.Collected, CleanPlan.Sites.size());
  EXPECT_EQ(CleanPlan.SkippedDirty, 0u);

  // And those snapshots resume bit-identically across the dirty calls.
  ExecContext Ctx;
  for (TraceIdx P : CleanPlan.Sites) {
    std::shared_ptr<const Checkpoint> CP = Store.nearest(P);
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
  ExecutionTrace E = S.run();
  std::vector<TraceIdx> Preds = predicateInstances(E);
  CheckpointStore Store(64ull << 20);
  CheckpointPlan Plan;
  Plan.Store = &Store;
  Plan.Sites = Preds;
  Interpreter::Options Opts;
  Opts.MaxSteps = kBudget;
  Opts.Checkpoints = &Plan;
  S.Interp->run({}, Opts);
  ASSERT_EQ(Plan.Collected, Preds.size()) << "every call here is clean";

  ExecContext Ctx;
  size_t Deepest = 0;
  for (TraceIdx P : Preds) {
    std::shared_ptr<const Checkpoint> CP = Store.nearest(P);
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

// The LRU budget: a store too small for everything keeps the most
// recently touched snapshots and reports evictions; nearest() degrades
// to earlier snapshots or a miss, never to a wrong one.
TEST(CheckpointTest, StoreEvictsUnderMemoryPressure) {
  RandomProgramGenerator Gen(301);
  auto Variant = Gen.generateOmission();
  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Variant.FaultySource, Diags);
  ASSERT_TRUE(Prog) << Diags.str();
  analysis::StaticAnalysis SA(*Prog);
  Interpreter Interp(*Prog, SA);
  ExecutionTrace E = Interp.run(Variant.Input);
  std::vector<TraceIdx> Preds = predicateInstances(E);
  if (Preds.size() < 4)
    GTEST_SKIP() << "not enough predicate instances";

  // First find out how big one snapshot is, then budget for ~2.
  CheckpointStore Probe(1ull << 30);
  CheckpointPlan ProbePlan;
  ProbePlan.Store = &Probe;
  ProbePlan.Sites = Preds;
  Interpreter::Options Opts;
  Opts.MaxSteps = kBudget;
  Opts.Checkpoints = &ProbePlan;
  Interp.run(Variant.Input, Opts);
  if (ProbePlan.Collected < 4)
    GTEST_SKIP() << "too few clean sites";
  size_t PerSnapshot = Probe.bytes() / Probe.count();

  CheckpointStore Tight(2 * PerSnapshot + PerSnapshot / 2);
  CheckpointPlan TightPlan;
  TightPlan.Store = &Tight;
  TightPlan.Sites = Preds;
  Opts.Checkpoints = &TightPlan;
  Interp.run(Variant.Input, Opts);
  EXPECT_GT(Tight.evictions(), 0u);
  EXPECT_LT(Tight.count(), ProbePlan.Collected);
  EXPECT_LE(Tight.bytes(), 2 * PerSnapshot + PerSnapshot / 2);
  // Whatever survived still resumes correctly.
  ExecContext Ctx;
  TraceIdx Last = Preds.back();
  std::shared_ptr<const Checkpoint> CP = Tight.nearest(Last);
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
};

std::optional<LocateOutcome> locateVariant(const lang::Program &Faulty,
                                           const std::vector<int64_t> &Input,
                                           const std::vector<int64_t> &Expected,
                                           StmtId Root, unsigned Checkpoints) {
  core::DebugSession::Config C;
  C.Opt.Reuse.Checkpoints = Checkpoints;
  core::DebugSession Session(Faulty, Input, Expected, {}, C);
  if (!Session.hasFailure())
    return std::nullopt;
  RootOnlyOracle Oracle(Root);
  LocateOutcome O;
  O.Report = Session.locate(Oracle);
  O.Edges = Session.graph().implicitEdges();
  return O;
}

/// EXPECTs that a checkpointed locate run matches the full-replay
/// reference outcome field by field, including the implicit edges.
void expectSameOutcome(const LocateOutcome &Reference,
                       const LocateOutcome &Ckpt, uint64_t Seed,
                       const char *Mode) {
  EXPECT_EQ(Reference.Report.RootCauseFound, Ckpt.Report.RootCauseFound)
      << "seed " << Seed << " checkpoints " << Mode;
  EXPECT_EQ(Reference.Report.Verifications, Ckpt.Report.Verifications)
      << "seed " << Seed << " checkpoints " << Mode;
  EXPECT_EQ(Reference.Report.Iterations, Ckpt.Report.Iterations)
      << "seed " << Seed << " checkpoints " << Mode;
  EXPECT_EQ(Reference.Report.ExpandedEdges, Ckpt.Report.ExpandedEdges)
      << "seed " << Seed << " checkpoints " << Mode;
  EXPECT_EQ(Reference.Report.StrongEdges, Ckpt.Report.StrongEdges)
      << "seed " << Seed << " checkpoints " << Mode;
  EXPECT_EQ(Reference.Report.FinalPrunedSlice, Ckpt.Report.FinalPrunedSlice)
      << "seed " << Seed << " checkpoints " << Mode;
  ASSERT_EQ(Reference.Edges.size(), Ckpt.Edges.size())
      << "seed " << Seed << " checkpoints " << Mode;
  for (size_t I = 0; I < Reference.Edges.size(); ++I) {
    EXPECT_EQ(Reference.Edges[I].Use, Ckpt.Edges[I].Use);
    EXPECT_EQ(Reference.Edges[I].Pred, Ckpt.Edges[I].Pred);
    EXPECT_EQ(Reference.Edges[I].Strong, Ckpt.Edges[I].Strong);
  }
}

// End to end: locateFault with checkpointing produces the same report
// and the same implicit edges as full replay.
TEST(CheckpointTest, LocateIsIdenticalWithAndWithoutCheckpoints) {
  int Checked = 0;
  for (uint64_t Seed : {100, 101, 102, 103, 104, 105}) {
    RandomProgramGenerator Gen(Seed);
    auto Variant = Gen.generateOmission();
    DiagnosticEngine Diags;
    auto Fixed = lang::parseAndCheck(Variant.FixedSource, Diags);
    auto Faulty = lang::parseAndCheck(Variant.FaultySource, Diags);
    ASSERT_TRUE(Fixed && Faulty) << Diags.str();
    analysis::StaticAnalysis FixedSA(*Fixed);
    Interpreter FixedInterp(*Fixed, FixedSA);
    ExecutionTrace FixedRun = FixedInterp.run(Variant.Input);
    ASSERT_EQ(FixedRun.Exit, ExitReason::Finished);
    std::vector<int64_t> Expected = FixedRun.outputValues();
    StmtId Root = Faulty->statementAtLine(Variant.RootCauseLine);
    ASSERT_TRUE(isValidId(Root));

    std::optional<LocateOutcome> Reference = locateVariant(
        *Faulty, Variant.Input, Expected, Root, CheckpointsOff);
    if (!Reference)
      continue; // Masked fault.
    // Fixed stride, the PR-5 configuration.
    std::optional<LocateOutcome> Ckpt = locateVariant(
        *Faulty, Variant.Input, Expected, Root, /*Checkpoints=*/1);
    ASSERT_TRUE(Ckpt);
    expectSameOutcome(*Reference, *Ckpt, Seed, "1");

    // Auto stride, the default.
    std::optional<LocateOutcome> Auto = locateVariant(
        *Faulty, Variant.Input, Expected, Root, CheckpointStrideAuto);
    ASSERT_TRUE(Auto);
    expectSameOutcome(*Reference, *Auto, Seed, "auto");
    ++Checked;
  }
  ASSERT_GT(Checked, 0) << "every probe seed was masked";
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
  ExecutionTrace E = Interp.run(Variant.Input);
  std::vector<TraceIdx> Preds = predicateInstances(E);
  if (Preds.empty())
    GTEST_SKIP() << "no predicate instances";

  CheckpointStore Store(256ull << 20);
  CheckpointPlan Plan;
  Plan.Store = &Store;
  Plan.Sites = Preds;
  Interpreter::Options Opts;
  Opts.MaxSteps = kBudget;
  Opts.Checkpoints = &Plan;
  Interp.run(Variant.Input, Opts);
  if (Plan.Collected == 0)
    GTEST_SKIP() << "every site was dirty";

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
        std::shared_ptr<const Checkpoint> CP = Store.nearest(P);
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

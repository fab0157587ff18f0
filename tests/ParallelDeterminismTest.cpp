//===-- tests/ParallelDeterminismTest.cpp - Threads=1 vs Threads=4 ------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// The parallel verification engine's contract: locateFault with Threads=4
// is *bit-identical* to the serial reference engine (Threads=1) -- same
// Table 3 counters, same verified implicit edges in the same order, same
// final pruned slice -- on randomly generated omission faults. Only
// wall-clock time may differ.
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
#include <thread>

using namespace eoe;
using namespace eoe::interp;
using namespace eoe::test;

namespace {

class RootOnlyOracle : public slicing::Oracle {
public:
  explicit RootOnlyOracle(StmtId Root) : Root(Root) {}
  bool isBenign(TraceIdx) override { return false; }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
};

/// Everything a locate() run produces that must be thread-count
/// invariant.
struct LocateOutcome {
  core::LocateReport Report;
  std::vector<ddg::DepGraph::ImplicitEdge> Edges;
  std::vector<bool> Chain;
};

LocateOutcome locateWithThreads(const lang::Program &Faulty,
                                const std::vector<int64_t> &Input,
                                const std::vector<int64_t> &Expected,
                                StmtId Root, unsigned Threads,
                                support::StatsRegistry *Stats = nullptr) {
  core::DebugSession::Config C;
  C.Opt.Exec.Threads = Threads;
  C.Opt.Exec.Stats = Stats;
  core::DebugSession Session(Faulty, Input, Expected, {}, C);
  EXPECT_TRUE(Session.hasFailure());
  RootOnlyOracle Oracle(Root);
  LocateOutcome O;
  O.Report = Session.locate(Oracle);
  O.Edges = Session.graph().implicitEdges();
  O.Chain = Session.failureChain(Root);
  return O;
}

class ParallelDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDeterminism, SerialAndParallelLocateAreBitIdentical) {
  RandomProgramGenerator Gen(GetParam());
  auto Variant = Gen.generateOmission();

  DiagnosticEngine Diags;
  auto Fixed = lang::parseAndCheck(Variant.FixedSource, Diags);
  ASSERT_TRUE(Fixed) << Diags.str();
  auto Faulty = lang::parseAndCheck(Variant.FaultySource, Diags);
  ASSERT_TRUE(Faulty) << Diags.str();

  analysis::StaticAnalysis FixedSA(*Fixed);
  Interpreter FixedInterp(*Fixed, FixedSA);
  ExecutionTrace FixedRun = FixedInterp.run(Variant.Input);
  ASSERT_EQ(FixedRun.Exit, ExitReason::Finished);
  std::vector<int64_t> Expected = FixedRun.outputValues();

  {
    // Masked faults have nothing to locate; mirror RandomOmissionTest.
    core::DebugSession Probe(*Faulty, Variant.Input, Expected, {});
    if (!Probe.hasFailure())
      GTEST_SKIP() << "fault masked by later definitions";
  }

  StmtId Root = Faulty->statementAtLine(Variant.RootCauseLine);
  ASSERT_TRUE(isValidId(Root));

  LocateOutcome Serial =
      locateWithThreads(*Faulty, Variant.Input, Expected, Root, 1);
  LocateOutcome Parallel =
      locateWithThreads(*Faulty, Variant.Input, Expected, Root, 4);

  const char *Seed = "seed ";
  // Table 3 counters.
  EXPECT_EQ(Serial.Report.RootCauseFound, Parallel.Report.RootCauseFound)
      << Seed << GetParam();
  EXPECT_EQ(Serial.Report.UserPrunings, Parallel.Report.UserPrunings)
      << Seed << GetParam();
  EXPECT_EQ(Serial.Report.Verifications, Parallel.Report.Verifications)
      << Seed << GetParam();
  EXPECT_EQ(Serial.Report.Reexecutions, Parallel.Report.Reexecutions)
      << Seed << GetParam();
  EXPECT_EQ(Serial.Report.Iterations, Parallel.Report.Iterations)
      << Seed << GetParam();
  EXPECT_EQ(Serial.Report.ExpandedEdges, Parallel.Report.ExpandedEdges)
      << Seed << GetParam();
  EXPECT_EQ(Serial.Report.StrongEdges, Parallel.Report.StrongEdges)
      << Seed << GetParam();

  // The final pruned slice (IPS): same instances in the same rank order.
  EXPECT_EQ(Serial.Report.FinalPrunedSlice, Parallel.Report.FinalPrunedSlice)
      << Seed << GetParam();
  EXPECT_EQ(Serial.Report.IPSStats.StaticStmts,
            Parallel.Report.IPSStats.StaticStmts)
      << Seed << GetParam();
  EXPECT_EQ(Serial.Report.IPSStats.DynamicInstances,
            Parallel.Report.IPSStats.DynamicInstances)
      << Seed << GetParam();

  // Verdicts, observed through the verified implicit edges: same edges,
  // same strong/plain classification, same insertion order.
  ASSERT_EQ(Serial.Edges.size(), Parallel.Edges.size()) << Seed << GetParam();
  for (size_t I = 0; I < Serial.Edges.size(); ++I) {
    EXPECT_EQ(Serial.Edges[I].Use, Parallel.Edges[I].Use)
        << Seed << GetParam() << " edge " << I;
    EXPECT_EQ(Serial.Edges[I].Pred, Parallel.Edges[I].Pred)
        << Seed << GetParam() << " edge " << I;
    EXPECT_EQ(Serial.Edges[I].Strong, Parallel.Edges[I].Strong)
        << Seed << GetParam() << " edge " << I;
  }

  // And the derived failure-inducing chain (OS) agrees.
  EXPECT_EQ(Serial.Chain, Parallel.Chain) << Seed << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Range<uint64_t>(100, 110));

/// A random omission fault that is not masked, shared by the registry
/// tests below; nullopt when every probe seed masks (does not happen for
/// the seeds used, but keep the tests honest).
struct PreparedFault {
  std::unique_ptr<lang::Program> Faulty;
  std::vector<int64_t> Input;
  std::vector<int64_t> Expected;
  StmtId Root = InvalidId;
};

std::optional<PreparedFault> prepareFault(uint64_t Seed) {
  RandomProgramGenerator Gen(Seed);
  auto Variant = Gen.generateOmission();
  DiagnosticEngine Diags;
  auto Fixed = lang::parseAndCheck(Variant.FixedSource, Diags);
  auto Faulty = lang::parseAndCheck(Variant.FaultySource, Diags);
  if (!Fixed || !Faulty)
    return std::nullopt;
  analysis::StaticAnalysis FixedSA(*Fixed);
  Interpreter FixedInterp(*Fixed, FixedSA);
  ExecutionTrace FixedRun = FixedInterp.run(Variant.Input);
  if (FixedRun.Exit != ExitReason::Finished)
    return std::nullopt;
  PreparedFault F;
  F.Expected = FixedRun.outputValues();
  core::DebugSession Probe(*Faulty, Variant.Input, F.Expected, {});
  if (!Probe.hasFailure())
    return std::nullopt;
  F.Root = Faulty->statementAtLine(Variant.RootCauseLine);
  if (!isValidId(F.Root))
    return std::nullopt;
  F.Faulty = std::move(Faulty);
  F.Input = Variant.Input;
  return F;
}

// The registry keys whose values are semantic -- functions of which
// work was done, not of when threads did it -- and therefore must be
// bit-identical across thread counts. Deliberately an allowlist:
// scheduling-dependent keys (interp.ctx_reuses, interp.ctx_acquires,
// verify.batches, verify.batch_requests, verify.prepare_batches,
// verify.prepared_runs) legitimately differ between the serial
// reference loop and the batched engine.
const char *const InvariantCounterKeys[] = {
    "interp.runs", "interp.switched_runs", "interp.steps", "interp.outputs",
    "interp.aborted_runs",
    // Checkpointing is deterministic by construction: collection runs
    // single-threaded at the same pipeline point on both engines, and
    // nearest-snapshot lookups happen once per distinct predicate.
    "interp.resumed_runs", "interp.spliced_steps", "verify.ckpt.hits",
    "verify.ckpt.misses", "verify.ckpt.stored", "verify.ckpt.bytes",
    "verify.ckpt.evictions", "verify.ckpt.skipped_dirty",
    // The autotuned stride is a function of the collection run alone
    // (single-threaded, deterministic).
    "verify.ckpt.auto_stride",
    // Element counts of every traced run's step, use and def arrays: a
    // function of the runs alone, whichever thread executes them.
    "interp.trace_bytes",
    "align.aligners", "align.queries", "align.matched",
    "align.prefix_hits", "align.regions_walked",
    "align.no_match.region_ended_early", "align.no_match.branch_diverged",
    "align.no_match.static_mismatch", "align.no_match.switch_not_applied",
    "verify.verifications", "verify.reexecutions", "verify.reexec_aborts",
    "verify.verdict_cache_hits", "verify.verdict_cache_misses",
    "verify.verdict.strong", "verify.verdict.implicit",
    "verify.verdict.not_implicit", "locate.rounds", "locate.expanded_edges",
    "locate.strong_edges", "locate.candidate_requests",
    "locate.fanout_requests", "slicing.prune_rounds", "slicing.oracle_queries",
    "slicing.benign_marks", "slicing.corrupted_marks",
    "slicing.dynamic_slices", "slicing.relevant_slices",
    // Chain search is deliberately serial inside the locate loop and its
    // trigger is a pure function of thread-invariant verdicts, so every
    // chain counter is invariant too (zero at the default ChainDepth=1;
    // ChainDeterminism below exercises them at depth 2).
    "verify.chain.runs", "verify.chain.extended_steps",
    "locate.chain.searches", "locate.chain.commits",
};

void expectSameOutcome(const LocateOutcome &A, const LocateOutcome &B,
                       uint64_t Seed, const char *What) {
  EXPECT_EQ(A.Report.RootCauseFound, B.Report.RootCauseFound)
      << What << " seed " << Seed;
  EXPECT_EQ(A.Report.Verifications, B.Report.Verifications)
      << What << " seed " << Seed;
  EXPECT_EQ(A.Report.Reexecutions, B.Report.Reexecutions)
      << What << " seed " << Seed;
  EXPECT_EQ(A.Report.Iterations, B.Report.Iterations)
      << What << " seed " << Seed;
  EXPECT_EQ(A.Report.ExpandedEdges, B.Report.ExpandedEdges)
      << What << " seed " << Seed;
  EXPECT_EQ(A.Report.StrongEdges, B.Report.StrongEdges)
      << What << " seed " << Seed;
  EXPECT_EQ(A.Report.FinalPrunedSlice, B.Report.FinalPrunedSlice)
      << What << " seed " << Seed;
  ASSERT_EQ(A.Edges.size(), B.Edges.size()) << What << " seed " << Seed;
  for (size_t I = 0; I < A.Edges.size(); ++I) {
    EXPECT_EQ(A.Edges[I].Use, B.Edges[I].Use)
        << What << " seed " << Seed << " edge " << I;
    EXPECT_EQ(A.Edges[I].Pred, B.Edges[I].Pred)
        << What << " seed " << Seed << " edge " << I;
    EXPECT_EQ(A.Edges[I].Strong, B.Edges[I].Strong)
        << What << " seed " << Seed << " edge " << I;
  }
  EXPECT_EQ(A.Chain, B.Chain) << What << " seed " << Seed;
}

class ChainDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChainDeterminism, ChainSearchIsThreadCountInvariant) {
  // Depth-2 chain search extends the determinism contract: its trigger
  // (both verdict pools empty for a use) is a pure function of the
  // thread-invariant single-switch verdicts, and the search itself runs
  // serially, so outcomes AND every chain counter must be bit-identical
  // across thread counts.
  std::optional<PreparedFault> F = prepareFault(GetParam());
  if (!F)
    GTEST_SKIP() << "fault masked by later definitions";

  auto Locate = [&](unsigned Threads, support::StatsRegistry *Reg) {
    core::DebugSession::Config C;
    C.Opt.Exec.Threads = Threads;
    C.Opt.Exec.Stats = Reg;
    C.Opt.Reuse.ChainDepth = 2;
    core::DebugSession Session(*F->Faulty, F->Input, F->Expected, {}, C);
    EXPECT_TRUE(Session.hasFailure());
    RootOnlyOracle Oracle(F->Root);
    LocateOutcome O;
    O.Report = Session.locate(Oracle);
    O.Edges = Session.graph().implicitEdges();
    O.Chain = Session.failureChain(F->Root);
    return O;
  };

  support::StatsRegistry SerialReg, PooledReg;
  LocateOutcome Serial = Locate(1, &SerialReg);
  LocateOutcome Pooled = Locate(4, &PooledReg);
  expectSameOutcome(Serial, Pooled, GetParam(), "chain@1 vs chain@4");

  for (const char *Key :
       {"verify.chain.runs", "verify.chain.extended_steps",
        "locate.chain.searches", "locate.chain.commits"})
    EXPECT_EQ(SerialReg.counter(Key).get(), PooledReg.counter(Key).get())
        << "seed " << GetParam() << " counter " << Key;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainDeterminism,
                         ::testing::Range<uint64_t>(300, 306));

TEST(ParallelStats, RegistryCountersAreThreadCountInvariant) {
  // Satellite of the observability PR: the determinism contract extends
  // to the stats registry. Serial and 4-thread locate runs must agree on
  // every distinct-key counter above, on several seeds.
  int Checked = 0;
  for (uint64_t Seed : {100, 101, 102, 103, 104, 105}) {
    std::optional<PreparedFault> F = prepareFault(Seed);
    if (!F)
      continue;
    support::StatsRegistry SerialReg, ParallelReg;
    locateWithThreads(*F->Faulty, F->Input, F->Expected, F->Root, 1,
                      &SerialReg);
    locateWithThreads(*F->Faulty, F->Input, F->Expected, F->Root, 4,
                      &ParallelReg);
    support::StatsSnapshot Serial = SerialReg.snapshot();
    support::StatsSnapshot Parallel = ParallelReg.snapshot();
    auto Get = [](const support::StatsSnapshot &S, const char *Key) {
      auto It = S.Counters.find(Key);
      return It == S.Counters.end() ? uint64_t(0) : It->second;
    };
    for (const char *Key : InvariantCounterKeys)
      EXPECT_EQ(Get(Serial, Key), Get(Parallel, Key))
          << "seed " << Seed << " counter " << Key;
    // Histogram *distributions* over semantic values are invariant too.
    for (const char *Key : {"verify.reexec_steps", "locate.final_slice_size",
                            "locate.candidates_per_use",
                            "slicing.pruned_slice_size"}) {
      auto SIt = Serial.Histograms.find(Key);
      auto PIt = Parallel.Histograms.find(Key);
      ASSERT_EQ(SIt == Serial.Histograms.end(),
                PIt == Parallel.Histograms.end())
          << "seed " << Seed << " histogram " << Key;
      if (SIt == Serial.Histograms.end())
        continue;
      EXPECT_EQ(SIt->second.Count, PIt->second.Count)
          << "seed " << Seed << " histogram " << Key;
      EXPECT_EQ(SIt->second.Sum, PIt->second.Sum)
          << "seed " << Seed << " histogram " << Key;
      EXPECT_EQ(SIt->second.Max, PIt->second.Max)
          << "seed " << Seed << " histogram " << Key;
      EXPECT_EQ(SIt->second.Buckets, PIt->second.Buckets)
          << "seed " << Seed << " histogram " << Key;
    }
    ++Checked;
  }
  ASSERT_GT(Checked, 0) << "every probe seed was masked";
}

TEST(ParallelStats, SnapshotsDuringParallelLocateAreRaceFree) {
  // Regression test for the verifier's counter unification: snapshots
  // and the verifier's accessor views must be data-race free against
  // pool workers incrementing the same metrics (run under
  // -DEOE_SANITIZE=thread via the parallel label).
  std::optional<PreparedFault> F;
  for (uint64_t Seed : {100, 101, 102, 103, 104, 105}) {
    F = prepareFault(Seed);
    if (F)
      break;
  }
  ASSERT_TRUE(F) << "every probe seed was masked";

  support::StatsRegistry Reg;
  core::DebugSession::Config C;
  C.Opt.Exec.Threads = 4;
  C.Opt.Exec.Stats = &Reg;
  core::DebugSession Session(*F->Faulty, F->Input, F->Expected, {}, C);
  ASSERT_TRUE(Session.hasFailure());

  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    uint64_t PrevSnapshot = 0, PrevAccessor = 0;
    while (!Done.load(std::memory_order_acquire)) {
      support::StatsSnapshot S = Reg.snapshot();
      auto It = S.Counters.find("verify.verifications");
      uint64_t FromSnapshot = It == S.Counters.end() ? 0 : It->second;
      // The accessors are thin views over the same registry counters;
      // both observation paths must be monotonic and race-free mid-run.
      uint64_t FromAccessor = Session.verifier().verificationCount();
      EXPECT_GE(FromSnapshot, PrevSnapshot);
      EXPECT_GE(FromAccessor, PrevAccessor);
      PrevSnapshot = FromSnapshot;
      PrevAccessor = FromAccessor;
      std::this_thread::yield();
    }
  });
  RootOnlyOracle Oracle(F->Root);
  core::LocateReport R = Session.locate(Oracle);
  Done.store(true, std::memory_order_release);
  Reader.join();

  EXPECT_EQ(R.Verifications, Session.verifier().verificationCount());
  EXPECT_EQ(R.Verifications, Reg.counter("verify.verifications").get());
  EXPECT_EQ(R.Reexecutions, Reg.counter("verify.reexecutions").get());
}

} // namespace

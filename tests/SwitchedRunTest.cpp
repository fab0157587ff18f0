//===-- tests/SwitchedRunTest.cpp - Switched-run snapshot reuse ----------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// The switched-run cache's contract (docs/checkpointing.md,
// "Switched-run reuse"): a switched run resumed from a divergence-keyed
// snapshot is *byte-identical* to the full switched run, the sealed set
// of the store is a pure function of the staged multiset (independent of
// staging order).
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "RandomProgram.h"
#include "support/Diagnostic.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
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

/// EXPECTs byte-identity of two switched runs (same program, input,
/// switch spec; different execution strategy), reading \p Other through
/// its accessors over its whole logical length.
void expectSameTrace(const ExecutionTrace &Full, const ResumedTrace &Other,
                     uint64_t Seed, TraceIdx P) {
  EXPECT_EQ(Full.Exit, Other.exit()) << "seed " << Seed << " pred " << P;
  EXPECT_EQ(Full.ExitValue, Other.exitValue())
      << "seed " << Seed << " pred " << P;
  EXPECT_EQ(Full.SwitchedStep, Other.switchedStep())
      << "seed " << Seed << " pred " << P;
  EXPECT_EQ(Full.FirstInputStep, Other.firstInputStep())
      << "seed " << Seed << " pred " << P;
  ASSERT_EQ(Full.Outputs.size(), Other.outputCount())
      << "seed " << Seed << " pred " << P;
  for (size_t K = 0; K < Full.Outputs.size(); ++K)
    EXPECT_EQ(Full.Outputs[K], Other.output(K))
        << "seed " << Seed << " pred " << P << " output " << K;
  ASSERT_EQ(Full.size(), Other.size()) << "seed " << Seed << " pred " << P;
  for (TraceIdx I = 0; I < Full.size(); ++I)
    ASSERT_TRUE(Other.sameStep(I, Full, I))
        << "seed " << Seed << " pred " << P << " step " << I;
}

/// A parsed random omission program plus everything needed to drive
/// switched runs against it.
struct Subject {
  std::shared_ptr<const lang::Program> Prog;
  std::unique_ptr<analysis::StaticAnalysis> SA;
  std::unique_ptr<Interpreter> Interp;
  std::vector<int64_t> Input;
  ExecutionTrace Original;

  static std::optional<Subject> make(uint64_t Seed) {
    RandomProgramGenerator Gen(Seed);
    auto Variant = Gen.generateOmission();
    DiagnosticEngine Diags;
    auto Prog = lang::parseAndCheck(Variant.FaultySource, Diags);
    if (!Prog)
      return std::nullopt;
    Subject S;
    S.Prog = std::move(Prog);
    S.SA = std::make_unique<analysis::StaticAnalysis>(*S.Prog);
    S.Interp = std::make_unique<Interpreter>(*S.Prog, *S.SA);
    S.Input = Variant.Input;
    S.Original = S.Interp->run(S.Input);
    if (S.Original.Exit != ExitReason::Finished)
      return std::nullopt;
    return S;
  }

  SwitchedRunStore::ValidityKey key() const {
    return {/*ProgramHash=*/0x5157ull, /*Program=*/Prog.get(),
            SwitchedRunStore::hashInput(Input), kBudget};
  }

  /// Runs the switch at trace index \p P with divergence-keyed capture
  /// (small spacing so short random traces still snapshot) and returns
  /// the bundle the verifier would stage, or nullopt if nothing was
  /// captured past the switch point.
  std::optional<SwitchedRunStore::Bundle> captureBundle(TraceIdx P) {
    const StepRecord &Step = Original.step(P);
    SwitchedCapturePlan Capture;
    Capture.SpacingSteps = 16;
    Interpreter::Options Opts;
    Opts.MaxSteps = kBudget;
    Opts.Switch = SwitchSpec{Step.Stmt, Step.InstanceNo};
    Opts.SwitchedCapture = &Capture;
    ExecutionTrace T = Interp->run(Input, Opts);
    if (Capture.Captured.empty())
      return std::nullopt;
    SwitchedRunStore::Bundle B;
    B.Key = Capture.Captured.front()->Divergence;
    B.Prefix = std::make_shared<ExecutionTrace>(std::move(T));
    B.Snapshots = std::move(Capture.Captured);
    return B;
  }
};

class SwitchedRunEquivalence : public ::testing::TestWithParam<uint64_t> {};

// The tentpole property at the raw interpreter level: stage capture
// bundles, seal, look them back up, resume from the hit -- the resumed
// switched run must be byte-identical to the full switched run.
TEST_P(SwitchedRunEquivalence, DivergenceKeyedResumeIsBitIdentical) {
  auto S = Subject::make(GetParam());
  if (!S)
    GTEST_SKIP() << "degenerate program";
  std::vector<TraceIdx> Preds = predicateInstances(S->Original);
  if (Preds.empty())
    GTEST_SKIP() << "no predicate instances";

  SwitchedRunStore Store(DefaultSwitchedCacheBytes);
  std::vector<TraceIdx> Bundled;
  for (TraceIdx P : Preds) {
    auto B = S->captureBundle(P);
    if (!B)
      continue;
    Bundled.push_back(P);
    Store.stage(S->key(), std::move(*B));
  }
  if (Bundled.empty())
    GTEST_SKIP() << "no snapshots captured past any switch point";
  ASSERT_GT(Store.seal(), 0u);

  size_t Resumed = 0;
  ExecContext Ctx;
  for (TraceIdx P : Bundled) {
    const StepRecord &Step = S->Original.step(P);
    SwitchSpec Spec{Step.Stmt, Step.InstanceNo};
    std::vector<SwitchDecision> Requested{
        SwitchDecision{Spec.Pred, Spec.InstanceNo, /*Perturb=*/false, 0}};
    auto Hit = Store.lookup(S->key(), Requested);
    ASSERT_TRUE(Hit) << "sealed bundle not served, pred " << P;
    ASSERT_FALSE(Hit->CP->Divergence.empty());
    EXPECT_EQ(Hit->CP->Divergence, Requested);

    ExecutionTrace Full = S->Interp->runSwitched(S->Input, Spec, kBudget);
    Interpreter::Options ResumeOpts;
    ResumeOpts.MaxSteps = kBudget;
    ResumeOpts.Switch = Spec;
    ResumedTrace FromCkpt =
        S->Interp->runFrom(*Hit->CP, Hit->Prefix, S->Input, ResumeOpts, Ctx);
    expectSameTrace(Full, FromCkpt, GetParam(), P);
    ++Resumed;
  }
  EXPECT_GT(Resumed, 0u);
}

// Capture instrumentation must not perturb the switched execution: the
// capturing run's trace equals the plain switched run's, byte for byte.
TEST_P(SwitchedRunEquivalence, CaptureDoesNotPerturbTheRun) {
  auto S = Subject::make(GetParam());
  if (!S)
    GTEST_SKIP() << "degenerate program";
  std::vector<TraceIdx> Preds = predicateInstances(S->Original);
  for (size_t N = 0; N < Preds.size(); N += 2) {
    TraceIdx P = Preds[N];
    const StepRecord &Step = S->Original.step(P);
    SwitchSpec Spec{Step.Stmt, Step.InstanceNo};
    ExecutionTrace Plain = S->Interp->runSwitched(S->Input, Spec, kBudget);

    SwitchedCapturePlan Capture;
    Capture.SpacingSteps = 16;
    Interpreter::Options Opts;
    Opts.MaxSteps = kBudget;
    Opts.Switch = Spec;
    Opts.SwitchedCapture = &Capture;
    ExecutionTrace Captured = S->Interp->run(S->Input, Opts);
    expectSameTrace(Plain, ResumedTrace::view(Captured), GetParam(), P);
    // Every snapshot carries the run's divergence key and sits past the
    // switch point (the prefix store covers everything before it).
    for (const auto &CP : Capture.Captured) {
      ASSERT_TRUE(CP);
      EXPECT_EQ(CP->Divergence.size(), 1u);
      EXPECT_GT(CP->Index, Plain.SwitchedStep);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwitchedRunEquivalence,
                         ::testing::Range<uint64_t>(400, 410));

// The two-phase store contract: nothing is served before the first
// seal(), and the sealed set (counts, bytes, and what lookup returns) is
// independent of staging order even under a budget that forces drops.
TEST(SwitchedRunStoreTest, SealedSetIsIndependentOfStagingOrder) {
  std::vector<SwitchedRunStore::Bundle> Bundles;
  std::optional<Subject> S;
  for (uint64_t Seed = 420; Seed < 440 && Bundles.size() < 4; ++Seed) {
    S = Subject::make(Seed);
    if (!S)
      continue;
    Bundles.clear();
    for (TraceIdx P : predicateInstances(S->Original)) {
      auto B = S->captureBundle(P);
      if (B)
        Bundles.push_back(std::move(*B));
    }
  }
  ASSERT_GE(Bundles.size(), 4u) << "no seed yielded enough capture bundles";
  SwitchedRunStore::ValidityKey K = S->key();

  // Size the budget from an uncapped seal so roughly half the bundles
  // fit -- the admission decision, not just the ordering, is under test.
  SwitchedRunStore Uncapped(1ull << 30);
  for (const auto &B : Bundles)
    Uncapped.stage(K, SwitchedRunStore::Bundle(B));
  ASSERT_EQ(Uncapped.seal(), Bundles.size());
  size_t Budget = Uncapped.bytes() / 2;

  SwitchedRunStore Fwd(Budget), Rev(Budget);
  for (size_t I = 0; I < Bundles.size(); ++I) {
    Fwd.stage(K, SwitchedRunStore::Bundle(Bundles[I]));
    Rev.stage(K, SwitchedRunStore::Bundle(Bundles[Bundles.size() - 1 - I]));
  }

  // Two-phase: staged bundles are invisible until seal().
  EXPECT_FALSE(Fwd.sealed());
  EXPECT_FALSE(Fwd.lookup(K, Bundles.front().Key).has_value());

  EXPECT_EQ(Fwd.seal(), Rev.seal());
  EXPECT_EQ(Fwd.sealedCount(), Rev.sealedCount());
  EXPECT_EQ(Fwd.droppedCount(), Rev.droppedCount());
  EXPECT_EQ(Fwd.bytes(), Rev.bytes());
  EXPECT_GT(Fwd.droppedCount(), 0u) << "budget did not force any drop";
  EXPECT_LE(Fwd.bytes(), Budget);

  for (const auto &B : Bundles) {
    auto HF = Fwd.lookup(K, B.Key);
    auto HR = Rev.lookup(K, B.Key);
    ASSERT_EQ(HF.has_value(), HR.has_value());
    if (HF) {
      EXPECT_EQ(HF->CP->Index, HR->CP->Index);
      EXPECT_EQ(HF->CP->Divergence, HR->CP->Divergence);
    }
  }
}

// Validity keys partition the cache: a bundle staged under one
// (program, input, budget) key never serves a different key.
TEST(SwitchedRunStoreTest, ValidityKeyMismatchMisses) {
  std::optional<SwitchedRunStore::Bundle> B;
  std::optional<Subject> S;
  for (uint64_t Seed = 440; Seed < 460 && !B; ++Seed) {
    S = Subject::make(Seed);
    if (!S)
      continue;
    for (TraceIdx P : predicateInstances(S->Original)) {
      B = S->captureBundle(P);
      if (B)
        break;
    }
  }
  ASSERT_TRUE(B) << "no seed yielded a capture bundle";

  SwitchedRunStore Store(DefaultSwitchedCacheBytes);
  SwitchedRunStore::ValidityKey K = S->key();
  std::vector<SwitchDecision> Key = B->Key;
  Store.stage(K, std::move(*B));
  ASSERT_EQ(Store.seal(), 1u);
  EXPECT_TRUE(Store.lookup(K, Key).has_value());

  SwitchedRunStore::ValidityKey OtherInput = K;
  OtherInput.InputHash ^= 1;
  EXPECT_FALSE(Store.lookup(OtherInput, Key).has_value());
  SwitchedRunStore::ValidityKey OtherBudget = K;
  OtherBudget.MaxSteps += 1;
  EXPECT_FALSE(Store.lookup(OtherBudget, Key).has_value());

  // A requested sequence that does not start with the stored key misses.
  std::vector<SwitchDecision> Foreign{
      SwitchDecision{Key[0].Stmt, Key[0].InstanceNo + 1000, false, 0}};
  EXPECT_FALSE(Store.lookup(K, Foreign).has_value());
}

// Longest-matching-prefix semantics across bundle depths (docs/chains.md):
// a bundle keyed [d1] serves any request starting with d1 whose later
// decisions are still ahead of the snapshot, a bundle keyed [d1,d2]
// serves [d1,d2...] from deeper in -- and on equal depth the longer key
// wins, because it covers more of the request. Synthetic checkpoints
// keep the geometry explicit instead of depending on capture spacing.
TEST(SwitchedRunStoreTest, LongestMatchingPrefixServesChains) {
  const SwitchDecision D1{/*Stmt=*/10, /*InstanceNo=*/1, false, 0};
  const SwitchDecision D2{/*Stmt=*/20, /*InstanceNo=*/2, false, 0};
  const SwitchDecision D3{/*Stmt=*/30, /*InstanceNo=*/1, false, 0};

  auto Snap = [](TraceIdx Index, std::vector<SwitchDecision> Div,
                 uint32_t At20, uint32_t At30) {
    auto CP = std::make_shared<Checkpoint>();
    CP->Index = Index;
    CP->Divergence = std::move(Div);
    CP->InstCount.assign(64, 0);
    CP->InstCount[20] = At20;
    CP->InstCount[30] = At30;
    return std::shared_ptr<const Checkpoint>(std::move(CP));
  };

  SwitchedRunStore::ValidityKey K{/*ProgramHash=*/1, nullptr,
                                  /*InputHash=*/2, kBudget};

  // Bundle keyed [d1]: its deepest snapshot (index 200) has already run
  // past d2's and d3's instances; the one at 150 has passed neither.
  SwitchedRunStore::Bundle A;
  A.Key = {D1};
  A.Prefix = std::make_shared<ExecutionTrace>();
  A.Snapshots = {Snap(100, {D1}, 0, 0), Snap(150, {D1}, 0, 0),
                 Snap(200, {D1}, 2, 1)};

  // Bundle keyed [d1, d2]: one snapshot, at the same index as A's middle.
  SwitchedRunStore::Bundle B;
  B.Key = {D1, D2};
  B.Prefix = std::make_shared<ExecutionTrace>();
  B.Snapshots = {Snap(150, {D1, D2}, 2, 0)};

  SwitchedRunStore Store(DefaultSwitchedCacheBytes);
  Store.stage(K, std::move(A));
  Store.stage(K, std::move(B));
  ASSERT_EQ(Store.seal(), 2u);

  // [d1]: only the [d1] bundle's key is a prefix ([d1,d2] is longer than
  // the request); no uncovered decisions remain, so its deepest snapshot
  // wins outright.
  auto H1 = Store.lookup(K, {D1});
  ASSERT_TRUE(H1);
  EXPECT_EQ(H1->CP->Index, 200u);
  EXPECT_EQ(H1->CP->Divergence, (std::vector<SwitchDecision>{D1}));

  // [d1, d2]: A's snapshot 200 is pruned -- its instance counter for
  // d2.Stmt has reached d2's instance, so the decision could no longer
  // fire -- leaving 150. B also offers 150; the depth tie goes to the
  // longer key, which covers more of the request.
  auto H2 = Store.lookup(K, {D1, D2});
  ASSERT_TRUE(H2);
  EXPECT_EQ(H2->CP->Index, 150u);
  EXPECT_EQ(H2->CP->Divergence, (std::vector<SwitchDecision>{D1, D2}));

  // [d1, d2, d3]: the depth-2 bundle still prefixes the depth-3 request
  // and d3 is still ahead of its snapshot -- depth-k captures seed the
  // depth-k+1 frontier.
  auto H3 = Store.lookup(K, {D1, D2, D3});
  ASSERT_TRUE(H3);
  EXPECT_EQ(H3->CP->Index, 150u);
  EXPECT_EQ(H3->CP->Divergence, (std::vector<SwitchDecision>{D1, D2}));

  // [d1, d3]: B's key is not a prefix of this request; A serves its
  // deepest snapshot through which d3 can still fire.
  auto H4 = Store.lookup(K, {D1, D3});
  ASSERT_TRUE(H4);
  EXPECT_EQ(H4->CP->Index, 150u);
  EXPECT_EQ(H4->CP->Divergence, (std::vector<SwitchDecision>{D1}));

  // [d2]: no sealed key prefixes the request at all.
  EXPECT_FALSE(Store.lookup(K, {D2}).has_value());
}

} // namespace

//===-- tests/PropertyTest.cpp - Randomized invariant sweeps -------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Property-based tests over seeded random Siml programs: the invariants
// every pipeline stage must uphold regardless of program shape --
// deterministic replay, well-formed region trees, dependence-closed
// slices, alignment laws under predicate switching, and confidence
// bounds. Trace-shape facts the locator relies on are also checked over
// the nine benchmark faults' runs.
//
//===----------------------------------------------------------------------===//

#include "align/Aligner.h"
#include "ddg/DepGraph.h"
#include "RandomProgram.h"
#include "slicing/Confidence.h"
#include "slicing/DynamicSlicer.h"
#include "slicing/PotentialDeps.h"
#include "slicing/RelevantSlicer.h"
#include "TestUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace eoe;
using namespace eoe::interp;
using namespace eoe::test;

namespace {

/// The first step of \p T that records two uses of one load expression,
/// or InvalidId. locateFault names a use by its position in the trace,
/// and the (instance, load) pair it verifies by that position, which is
/// one name only while no step reads a load twice.
TraceIdx firstStepReadingALoadTwice(const ExecutionTrace &T) {
  for (TraceIdx I = 0; I < T.size(); ++I) {
    std::span<const UseRecord> Uses = T.uses(I);
    for (size_t A = 0; A < Uses.size(); ++A)
      for (size_t B = A + 1; B < Uses.size(); ++B)
        if (Uses[A].LoadExpr == Uses[B].LoadExpr)
          return I;
  }
  return InvalidId;
}

class RandomProgramProperty : public ::testing::TestWithParam<uint64_t> {
protected:
  void SetUp() override {
    RandomProgramGenerator Gen(GetParam());
    std::string Source = Gen.generate();
    In = Gen.input();
    S = std::make_unique<Session>(Source);
    ASSERT_TRUE(S->valid()) << "seed " << GetParam() << " source:\n"
                            << Source;
    T = S->run(In);
    ASSERT_EQ(T.Exit, ExitReason::Finished)
        << "random programs must terminate cleanly";
    ASSERT_FALSE(T.Outputs.empty());
  }

  std::unique_ptr<Session> S;
  std::vector<int64_t> In;
  ExecutionTrace T;
};

TEST_P(RandomProgramProperty, ReplayIsDeterministic) {
  ExecutionTrace U = S->run(In);
  ASSERT_EQ(T.size(), U.size());
  for (TraceIdx I = 0; I < T.size(); ++I) {
    EXPECT_EQ(T.step(I).Stmt, U.step(I).Stmt);
    EXPECT_EQ(T.step(I).Value, U.step(I).Value);
    EXPECT_EQ(T.step(I).CdParent, U.step(I).CdParent);
    ASSERT_EQ(T.uses(I).size(), U.uses(I).size());
    for (size_t K = 0; K < T.uses(I).size(); ++K)
      EXPECT_EQ(T.uses(I)[K].Def, U.uses(I)[K].Def);
  }
  EXPECT_EQ(T.outputValues(), U.outputValues());
}

TEST_P(RandomProgramProperty, NonTracingRunBehavesIdentically) {
  Interpreter::Options Plain;
  Plain.Trace = false;
  ExecutionTrace U = S->Interp->run(In, Plain);
  EXPECT_EQ(U.Exit, ExitReason::Finished);
  EXPECT_EQ(T.outputValues(), U.outputValues());
  EXPECT_EQ(T.ExitValue, U.ExitValue);
  EXPECT_TRUE(U.Steps.empty()) << "non-tracing runs record no steps";
}

TEST_P(RandomProgramProperty, RegionForestIsWellFormed) {
  align::RegionTree Tree(T);
  for (TraceIdx I = 0; I < T.size(); ++I) {
    TraceIdx P = Tree.parent(I);
    if (P != InvalidId) {
      EXPECT_LT(P, I) << "parents precede children";
      EXPECT_TRUE(T.step(P).isPredicateInstance() ||
                  !T.uses(P).empty() || !T.defs(P).empty() ||
                  true); // parent is a real instance
      EXPECT_TRUE(Tree.inRegion(I, P));
    }
    // Children are disjoint, ordered, and inside the parent.
    const auto &Kids = Tree.children(I);
    for (size_t K = 1; K < Kids.size(); ++K)
      EXPECT_LT(Kids[K - 1], Kids[K]);
    for (TraceIdx Kid : Kids)
      EXPECT_EQ(Tree.parent(Kid), I);
  }
  // Subtrees are contiguous trace intervals (the aligner depends on it).
  for (TraceIdx Head = 0; Head < T.size(); ++Head) {
    size_t Count = 0;
    TraceIdx Last = Head;
    for (TraceIdx I = Head; I < T.size(); ++I)
      if (Tree.inRegion(I, Head)) {
        ++Count;
        Last = I;
      }
    EXPECT_EQ(Count, Tree.regionSize(Head));
    EXPECT_EQ(Last - Head + 1, Count) << "region " << Head;
  }
}

TEST_P(RandomProgramProperty, BackwardSlicesAreDependenceClosed) {
  ddg::DepGraph G(T);
  TraceIdx Seed = T.Outputs.back().Step;
  auto Member = G.backwardClosure({Seed}, ddg::DepGraph::ClosureOptions());
  for (TraceIdx I = 0; I < T.size(); ++I) {
    if (!Member[I])
      continue;
    for (const UseRecord &Use : T.uses(I)) {
      if (Use.Def != InvalidId) {
        EXPECT_TRUE(Member[Use.Def]) << "data dep escapes the slice";
      }
    }
    if (T.step(I).CdParent != InvalidId) {
      EXPECT_TRUE(Member[T.step(I).CdParent])
          << "control dep escapes the slice";
    }
  }
}

// The slicing laws: backward and forward closure are each extensive,
// monotone and idempotent, and they are adjoint -- I lies in
// backward({J}) exactly when J lies in forward({I}) (the Galois-connection
// view of slicing in Perera et al., "Causally consistent dynamic
// slicing", and Ricciotti et al., "Imperative functional programs that
// explain their work"). Checked on the plain dependence graph and again
// after adding implicit edges, each from a later instance to an earlier
// predicate instance as verified edges run.
TEST_P(RandomProgramProperty, ClosuresObeySlicingLaws) {
  ddg::DepGraph G(T);
  const ddg::DepGraph::ClosureOptions All;
  std::mt19937_64 Rng(GetParam());
  auto Pick = [&] { return static_cast<TraceIdx>(Rng() % T.size()); };
  auto CheckLaws = [&](const char *Graph) {
    for (bool Backward : {true, false}) {
      const char *Dir = Backward ? "backward" : "forward";
      auto Close = [&](const std::vector<TraceIdx> &Seeds) {
        return Backward ? G.backwardClosure(Seeds, All)
                        : G.forwardClosure(Seeds, All);
      };
      for (int Trial = 0; Trial < 8; ++Trial) {
        std::vector<TraceIdx> A{Pick(), Pick()};
        std::vector<TraceIdx> B = A;
        B.push_back(Pick());
        std::vector<bool> CA = Close(A), CB = Close(B);
        for (TraceIdx S : A)
          EXPECT_TRUE(CA[S]) << Dir << " closure not extensive, " << Graph;
        std::vector<TraceIdx> Closed;
        for (TraceIdx I = 0; I < T.size(); ++I) {
          if (!CA[I])
            continue;
          Closed.push_back(I);
          EXPECT_TRUE(CB[I]) << Dir << " closure not monotone, " << Graph;
        }
        EXPECT_EQ(Close(Closed), CA)
            << Dir << " closure not idempotent, " << Graph;
      }
    }
    std::vector<std::vector<bool>> Bwd, Fwd;
    for (TraceIdx I = 0; I < T.size(); ++I) {
      Bwd.push_back(G.backwardClosure({I}, All));
      Fwd.push_back(G.forwardClosure({I}, All));
    }
    size_t Violations = 0;
    for (TraceIdx I = 0; I < T.size(); ++I)
      for (TraceIdx J = 0; J < T.size(); ++J)
        if (Bwd[J][I] != Fwd[I][J] && Violations++ == 0)
          ADD_FAILURE() << "not adjoint, " << Graph << ": " << I
                        << (Bwd[J][I] ? " in" : " not in") << " backward({"
                        << J << "}) but " << J
                        << (Fwd[I][J] ? " in" : " not in") << " forward({"
                        << I << "})";
    EXPECT_EQ(Violations, 0u);
  };

  CheckLaws("no implicit edges");
  std::vector<TraceIdx> Preds;
  for (TraceIdx I = 0; I + 1 < T.size(); ++I)
    if (T.step(I).isPredicateInstance())
      Preds.push_back(I);
  if (Preds.empty())
    GTEST_SKIP() << "no predicate instance to hang an implicit edge on";
  for (int E = 0; E < 6; ++E) {
    TraceIdx P = Preds[Rng() % Preds.size()];
    TraceIdx U = P + 1 + static_cast<TraceIdx>(Rng() % (T.size() - P - 1));
    G.addImplicitEdge(U, P, /*Strong=*/Rng() % 2 == 0);
  }
  CheckLaws("with implicit edges");
}

// Adding edges only grows a closure (the laws above), so a closure can
// be extended instead of recomputed. Random implicit edges arrive one at
// a time, pointing either way in the trace, and about half from a use
// outside the closure, which may join it only through a later edge.
// After each one the extended closures, with and without depths, must
// equal a from-scratch closure, and each extension must report the
// instances it changed.
TEST_P(RandomProgramProperty, ExtendedClosuresEqualRecomputedOnes) {
  ddg::DepGraph G(T);
  const ddg::DepGraph::ClosureOptions All;
  std::mt19937_64 Rng(GetParam());
  auto Pick = [&] { return static_cast<TraceIdx>(Rng() % T.size()); };
  const std::vector<TraceIdx> Seeds{T.Outputs.back().Step};
  std::vector<uint32_t> Depth;
  std::vector<bool> Member = G.backwardClosure(Seeds, All, &Depth);
  std::vector<bool> Plain = Member;
  for (int E = 0; E < 24; ++E) {
    TraceIdx P = Pick(), U = Pick();
    bool Inside = Rng() % 2 == 0;
    for (int Try = 0; Try < 8 && (Member[U] != Inside || U == P); ++Try)
      U = Pick();
    if (U == P)
      continue;
    const std::vector<bool> MemberBefore = Member, PlainBefore = Plain;
    const std::vector<uint32_t> DepthBefore = Depth;
    size_t First = G.implicitEdges().size();
    G.addImplicitEdge(U, P, /*Strong=*/false);
    std::vector<TraceIdx> Changed, PlainChanged;
    G.extendBackwardClosure(Member, &Depth, First, &Changed);
    G.extendBackwardClosure(Plain, nullptr, First, &PlainChanged);
    std::vector<uint32_t> FreshDepth;
    std::vector<bool> Fresh = G.backwardClosure(Seeds, All, &FreshDepth);
    ASSERT_EQ(Member, Fresh) << "membership after edge " << U << " <- " << P;
    ASSERT_EQ(Depth, FreshDepth) << "depths after edge " << U << " <- " << P;
    ASSERT_EQ(Plain, Fresh) << "depth-free extension after edge " << U
                            << " <- " << P;

    // What an extension reports is what an update re-keys: exactly the
    // instances whose membership or depth changed, each once.
    std::vector<TraceIdx> Differ, PlainDiffer;
    for (TraceIdx I = 0; I < T.size(); ++I) {
      if (Member[I] != MemberBefore[I] || Depth[I] != DepthBefore[I])
        Differ.push_back(I);
      if (Plain[I] != PlainBefore[I])
        PlainDiffer.push_back(I);
    }
    std::ranges::sort(Changed);
    std::ranges::sort(PlainChanged);
    ASSERT_EQ(Changed, Differ) << "reported after edge " << U << " <- " << P;
    ASSERT_EQ(PlainChanged, PlainDiffer)
        << "reported without depths after edge " << U << " <- " << P;
  }
}

TEST_P(RandomProgramProperty, DynamicSliceIsSubsetOfRelevantSlice) {
  ddg::DepGraph G(T);
  slicing::PotentialDepAnalyzer PD(*S->SA, T);
  TraceIdx Seed = T.Outputs.back().Step;
  slicing::SliceResult DS = slicing::computeDynamicSlice(G, Seed);
  slicing::RelevantSliceResult RS = slicing::computeRelevantSlice(G, PD, Seed);
  for (TraceIdx I = 0; I < T.size(); ++I) {
    if (DS.Member[I]) {
      EXPECT_TRUE(RS.Slice.Member[I]) << "DS must be contained in RS";
    }
  }
  EXPECT_GE(RS.Slice.Stats.DynamicInstances, DS.Stats.DynamicInstances);
}

TEST_P(RandomProgramProperty, NoSwitchAlignmentIsIdentity) {
  ExecutionTrace U = S->run(In);
  align::ExecutionAligner A(T, U);
  for (TraceIdx I = 0; I < T.size(); ++I) {
    align::AlignResult R = A.match(I);
    ASSERT_TRUE(R.found());
    EXPECT_EQ(R.Matched, I);
  }
}

TEST_P(RandomProgramProperty, SwitchedRunsObeyAlignmentLaws) {
  // Sample up to three predicate instances spread across the trace.
  std::vector<TraceIdx> Preds;
  for (TraceIdx I = 0; I < T.size(); ++I)
    if (T.step(I).isPredicateInstance())
      Preds.push_back(I);
  if (Preds.empty())
    GTEST_SKIP() << "no predicates in this program";

  for (size_t Pick = 0; Pick < 3 && Pick < Preds.size(); ++Pick) {
    TraceIdx P = Preds[Pick * Preds.size() / 3];
    SwitchSpec Spec{T.step(P).Stmt, T.step(P).InstanceNo};
    ExecutionTrace EP = S->Interp->runSwitched(In, Spec, 500000);
    ASSERT_EQ(EP.SwitchedStep, P) << "identical prefixes index the switch";

    // Prefix identity up to the switch point. Structure (statement,
    // instance number, control parent) is always identical; values are
    // identical only for records whose evaluation *completed* before the
    // switch -- a call-site record enclosing the switched predicate is
    // created earlier but finalized after the callee returns.
    align::RegionTree Tree(T);
    for (TraceIdx I = 0; I < P; ++I) {
      ASSERT_EQ(T.step(I).Stmt, EP.step(I).Stmt);
      ASSERT_EQ(T.step(I).InstanceNo, EP.step(I).InstanceNo);
      ASSERT_EQ(T.step(I).CdParent, EP.step(I).CdParent);
      if (!Tree.inRegion(P, I)) {
        ASSERT_EQ(T.step(I).Value, EP.step(I).Value);
      }
    }
    // The switched instance has the negated outcome.
    ASSERT_NE(T.step(P).BranchTaken, EP.step(P).BranchTaken);

    // Every match pairs identical statements, and matches are injective.
    if (EP.Exit != ExitReason::Finished)
      continue; // Timed-out switched runs align only partially.
    align::ExecutionAligner A(T, EP);
    std::set<TraceIdx> Seen;
    for (TraceIdx I = 0; I < T.size(); ++I) {
      align::AlignResult R = A.match(I);
      if (!R.found())
        continue;
      EXPECT_EQ(T.step(I).Stmt, EP.step(R.Matched).Stmt);
      EXPECT_TRUE(Seen.insert(R.Matched).second)
          << "two originals matched the same switched instance";
    }

    // Switching the same instance again reproduces the switched run.
    ExecutionTrace EP2 = S->Interp->runSwitched(In, Spec, 500000);
    ASSERT_EQ(EP.size(), EP2.size());
    EXPECT_EQ(EP.outputValues(), EP2.outputValues());
  }
}

TEST_P(RandomProgramProperty, ConfidenceIsBoundedAndConsistent) {
  if (T.Outputs.size() < 2)
    GTEST_SKIP() << "need at least two outputs";
  ddg::DepGraph G(T);
  slicing::OutputVerdicts V;
  for (size_t I = 0; I + 1 < T.Outputs.size(); ++I)
    V.CorrectOutputs.push_back(I);
  V.WrongOutput = T.Outputs.size() - 1;
  V.ExpectedValue = T.Outputs.back().Value + 1;
  slicing::ConfidenceAnalysis CA(*S->Prog, G, nullptr, V);

  const auto &Slice = CA.wrongOutputSlice();
  for (TraceIdx I = 0; I < T.size(); ++I) {
    double C = CA.confidence(I);
    EXPECT_GE(C, 0.0);
    EXPECT_LE(C, 1.0);
    if (CA.inferredCorrect(I)) {
      EXPECT_DOUBLE_EQ(C, 1.0);
    }
    if (!Slice[I]) {
      EXPECT_DOUBLE_EQ(C, 1.0) << "instances outside the slice are moot";
    }
  }
  for (TraceIdx I : CA.prunedSlice()) {
    EXPECT_TRUE(Slice[I]);
    EXPECT_LT(CA.confidence(I), 1.0);
  }
}

TEST_P(RandomProgramProperty, PotentialDepsSatisfyDefinitionOne) {
  slicing::PotentialDepAnalyzer PD(*S->SA, T);
  // Check conditions (i)-(iii) structurally on every reported candidate
  // of a sample of uses.
  size_t Checked = 0;
  for (TraceIdx I = 0; I < T.size() && Checked < 25; ++I) {
    for (const UseRecord &Use : T.uses(I)) {
      if (!isValidId(Use.Var))
        continue;
      ++Checked;
      for (TraceIdx P : PD.compute(I, Use, false)) {
        EXPECT_LT(P, I) << "(i) the predicate precedes the use";
        EXPECT_TRUE(T.step(P).isPredicateInstance());
        if (Use.Def != InvalidId) {
          EXPECT_GT(P, Use.Def) << "(iii) the reaching def precedes p";
        }
        for (TraceIdx A = T.step(I).CdParent; A != InvalidId;
             A = T.step(A).CdParent)
          EXPECT_NE(A, P) << "(ii) u must not be control dependent on p";
        EXPECT_TRUE(PD.isPotentialDep(P, I, Use)) << "query consistency";
      }
    }
  }
}

TEST_P(RandomProgramProperty, NoStepReadsALoadTwice) {
  EXPECT_EQ(firstStepReadingALoadTwice(T), InvalidId);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramProperty,
                         ::testing::Range<uint64_t>(1, 25));

TEST(TraceShapeTest, NoFaultRunReadsALoadTwice) {
  for (const workloads::FaultInfo &F : workloads::faults()) {
    Session S(F.FaultySource);
    ASSERT_TRUE(S.valid()) << F.Id;
    std::vector<std::vector<int64_t>> Inputs = F.TestSuite;
    Inputs.push_back(F.FailingInput);
    for (size_t K = 0; K < Inputs.size(); ++K)
      EXPECT_EQ(firstStepReadingALoadTwice(S.run(Inputs[K])), InvalidId)
          << F.Id << ", input " << K << " of " << Inputs.size();
  }
}

} // namespace

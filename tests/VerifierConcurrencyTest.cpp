//===-- tests/VerifierConcurrencyTest.cpp - Verifier thread safety --------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// locateFault verifies on its calling thread, but ImplicitDepVerifier is
// documented as safe to call from several threads: its switched-run
// cells are computed once under concurrent demand, its verdicts are
// memoized under a lock, and its counters and the stats registry can be
// read while a locate runs. These tests hold it to that (the TSan job
// runs them through the parallel label).
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"
#include "core/VerifyDep.h"
#include "lang/Parser.h"
#include "RandomProgram.h"
#include "slicing/OutputVerdicts.h"
#include "support/Diagnostic.h"
#include "support/Stats.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;
using namespace eoe::slicing;
using namespace eoe::test;

namespace {

/// The stress subject: three independent false guards over x, so three
/// distinct predicate instances each back two verification keys (the use
/// of x at line 15 and of out at line 16).
constexpr const char *StressSrc = "fn main() {\n"
                                  "var a = 0;\n"    // 2
                                  "var b = 0;\n"    // 3
                                  "var c = 0;\n"    // 4
                                  "var x = 0;\n"    // 5
                                  "if (a) {\n"      // 6
                                  "x = x + 1;\n"    // 7
                                  "}\n"
                                  "if (b) {\n"      // 9
                                  "x = x + 2;\n"    // 10
                                  "}\n"
                                  "if (c) {\n"      // 12
                                  "x = x + 4;\n"    // 13
                                  "}\n"
                                  "var out = x;\n"  // 15
                                  "print(out);\n"   // 16
                                  "}";

/// Finds the load of variable \p Name among the uses at instance \p I.
ExprId loadOfVar(const Session &S, const ExecutionTrace &T, TraceIdx I,
                 const std::string &Name) {
  for (const UseRecord &U : T.uses(I))
    if (isValidId(U.Var) && S.Prog->variable(U.Var).Name == Name)
      return U.LoadExpr;
  return InvalidId;
}

TEST(VerifierConcurrency, ConcurrentCacheHitStressOnSwitchedRunCache) {
  Session S(StressSrc);
  ASSERT_TRUE(S.valid());
  std::vector<int64_t> Input;
  ExecutionTrace T = S.run(Input);
  auto Diff = diffOutputs(T, {1}); // expected: only the line-6 guard taken
  ASSERT_TRUE(Diff.has_value());
  OutputVerdicts V = *Diff;

  // The six verification keys: {3 predicates} x {2 uses}.
  struct Key {
    TraceIdx Pred, Use;
    ExprId Load;
  };
  std::vector<Key> Keys;
  const std::pair<uint32_t, const char *> UseSpecs[] = {{15, "x"},
                                                        {16, "out"}};
  for (uint32_t PredLine : {6u, 9u, 12u})
    for (auto [UseLine, Var] : UseSpecs) {
      Key K;
      K.Pred = S.instanceAtLine(T, PredLine);
      K.Use = S.instanceAtLine(T, UseLine);
      K.Load = loadOfVar(S, T, K.Use, Var);
      ASSERT_NE(K.Pred, InvalidId);
      ASSERT_NE(K.Use, InvalidId);
      ASSERT_NE(K.Load, InvalidId);
      Keys.push_back(K);
    }

  // Reference verdicts from a fresh verifier asked from one thread.
  ImplicitDepVerifier Reference(*S.Interp, T, Input, V,
                                ImplicitDepVerifier::Config());
  std::vector<DepVerdict> Expected;
  for (const Key &K : Keys)
    Expected.push_back(Reference.verify(K.Pred, K.Use, K.Load));
  ASSERT_EQ(Reference.reexecutionCount(), 3u);
  ASSERT_EQ(Reference.verificationCount(), Keys.size());

  // Hammer one shared verifier from eight threads, every thread asking
  // for every key many times, offset so different threads start on
  // different predicates and collide on the same cells mid-flight.
  ImplicitDepVerifier Shared(*S.Interp, T, Input, V,
                             ImplicitDepVerifier::Config());
  constexpr int Hammers = 8;
  constexpr int Rounds = 25;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int H = 0; H < Hammers; ++H)
    Threads.emplace_back([&, H] {
      for (int R = 0; R < Rounds; ++R)
        for (size_t I = 0; I < Keys.size(); ++I) {
          size_t J = (I + static_cast<size_t>(H)) % Keys.size();
          if (Shared.verify(Keys[J].Pred, Keys[J].Use, Keys[J].Load) !=
              Expected[J])
            ++Mismatches;
        }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Mismatches.load(), 0);
  // One re-execution per distinct predicate and one counted verification
  // per distinct key, no matter how many concurrent duplicate demands.
  EXPECT_EQ(Shared.reexecutionCount(), 3u);
  EXPECT_EQ(Shared.verificationCount(), Keys.size());
}

class RootOnlyOracle : public slicing::Oracle {
public:
  explicit RootOnlyOracle(StmtId Root) : Root(Root) {}
  bool isBenign(TraceIdx) override { return false; }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
};

/// A random omission fault that is not masked; nullopt when the seed
/// masks it.
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

TEST(ParallelStats, SnapshotsDuringParallelLocateAreRaceFree) {
  // Regression test for the verifier's counter unification: snapshots
  // and the verifier's accessor views must be data-race free against
  // the locate thread incrementing the same metrics (run under
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

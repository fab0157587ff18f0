//===-- tests/ThreadPoolTest.cpp - Worker pool & shared-cache stress ----------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// The pool contract the parallel verification engine relies on: tasks
// complete, exceptions surface through futures (and runAll), destruction
// drains the queue instead of dropping packaged tasks, and the shared
// switched-run cache holds up under concurrent cache-hit pressure.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "core/VerifyDep.h"
#include "slicing/OutputVerdicts.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;
using namespace eoe::slicing;
using namespace eoe::support;
using eoe::test::Session;

namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);

  std::atomic<int> Count{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I < 64; ++I)
    Futures.push_back(Pool.submit([&Count] { ++Count; }));
  for (std::future<void> &F : Futures)
    F.get();
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPoolTest, ClampsZeroThreadsToOne) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.size(), 1u);
  std::atomic<bool> Ran{false};
  Pool.submit([&Ran] { Ran = true; }).get();
  EXPECT_TRUE(Ran.load());
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool Pool(2);
  std::future<void> F =
      Pool.submit([] { throw std::runtime_error("switched run failed"); });
  EXPECT_THROW(F.get(), std::runtime_error);

  // The worker survives the throwing task; the pool stays usable.
  std::atomic<int> Count{0};
  std::vector<std::future<void>> More;
  for (int I = 0; I < 8; ++I)
    More.push_back(Pool.submit([&Count] { ++Count; }));
  for (std::future<void> &G : More)
    G.get();
  EXPECT_EQ(Count.load(), 8);
}

TEST(ThreadPoolTest, RunAllRethrowsButFinishesEveryTask) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  std::vector<std::function<void()>> Tasks;
  for (int I = 0; I < 16; ++I)
    Tasks.push_back([&Count, I] {
      ++Count;
      if (I == 3)
        throw std::runtime_error("task 3");
    });
  EXPECT_THROW(Pool.runAll(std::move(Tasks)), std::runtime_error);
  // runAll must not rethrow before every task has finished -- a caller
  // whose lambdas capture locals by reference relies on this.
  EXPECT_EQ(Count.load(), 16);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  std::atomic<int> Count{0};
  std::mutex M;
  std::condition_variable CV;
  bool Release = false;

  {
    ThreadPool Pool(1);
    // Occupy the single worker until every other task is queued, so the
    // destructor genuinely races a non-empty queue.
    Pool.submit([&] {
      std::unique_lock<std::mutex> Lock(M);
      CV.wait(Lock, [&] { return Release; });
      ++Count;
    });
    for (int I = 0; I < 32; ++I)
      Pool.submit([&Count] { ++Count; });
    {
      std::lock_guard<std::mutex> Lock(M);
      Release = true;
    }
    CV.notify_one();
    // Destructor runs here with (up to) 32 tasks still queued.
  }

  // Drain semantics: nothing was dropped.
  EXPECT_EQ(Count.load(), 33);
}

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

TEST(ThreadPoolTest, ConcurrentCacheHitStressOnSwitchedRunCache) {
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

  // Serial reference verdicts from a fresh single-threaded verifier.
  ImplicitDepVerifier::Config SerialCfg;
  SerialCfg.Threads = 1;
  ImplicitDepVerifier Reference(*S.Interp, T, Input, V, SerialCfg);
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
  {
    ThreadPool Pool(Hammers);
    std::vector<std::function<void()>> Tasks;
    for (int H = 0; H < Hammers; ++H)
      Tasks.push_back([&, H] {
        for (int R = 0; R < Rounds; ++R)
          for (size_t I = 0; I < Keys.size(); ++I) {
            size_t J = (I + static_cast<size_t>(H)) % Keys.size();
            if (Shared.verify(Keys[J].Pred, Keys[J].Use, Keys[J].Load) !=
                Expected[J])
              ++Mismatches;
          }
      });
    Pool.runAll(std::move(Tasks));
  }

  EXPECT_EQ(Mismatches.load(), 0);
  // One re-execution per distinct predicate and one counted verification
  // per distinct key, no matter how many concurrent duplicate demands.
  EXPECT_EQ(Shared.reexecutionCount(), 3u);
  EXPECT_EQ(Shared.verificationCount(), Keys.size());
}

TEST(ThreadPoolTest, PrepareSwitchedRunsIsIdempotentUnderConcurrency) {
  Session S(StressSrc);
  ASSERT_TRUE(S.valid());
  std::vector<int64_t> Input;
  ExecutionTrace T = S.run(Input);
  auto Diff = diffOutputs(T, {1});
  ASSERT_TRUE(Diff.has_value());
  OutputVerdicts V = *Diff;

  std::vector<TraceIdx> Preds;
  for (uint32_t Line : {6u, 9u, 12u})
    Preds.push_back(S.instanceAtLine(T, Line));

  ImplicitDepVerifier::Config Cfg;
  Cfg.Threads = 4;
  ImplicitDepVerifier Verifier(*S.Interp, T, Input, V, Cfg);
  EXPECT_EQ(Verifier.effectiveThreads(), 4u);

  // Duplicate entries in one batch and concurrent duplicate batches must
  // still run each switched execution exactly once.
  std::vector<TraceIdx> Batch = Preds;
  Batch.insert(Batch.end(), Preds.begin(), Preds.end());
  {
    ThreadPool Outer(4);
    std::vector<std::function<void()>> Tasks;
    for (int I = 0; I < 4; ++I)
      Tasks.push_back([&Verifier, &Batch] {
        Verifier.prepareSwitchedRuns(Batch);
      });
    Outer.runAll(std::move(Tasks));
  }

  EXPECT_EQ(Verifier.reexecutionCount(), Preds.size());
  for (TraceIdx P : Preds)
    EXPECT_TRUE(Verifier.hasSwitchedRun(P));
  // Preparation alone performs no verifications.
  EXPECT_EQ(Verifier.verificationCount(), 0u);
}

} // namespace

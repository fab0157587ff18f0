//===-- tests/StatsTest.cpp - Statistics registry tests -----------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include "JsonLite.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace eoe;
using namespace eoe::support;

namespace {

TEST(StatsRegistry, FindOrCreateReturnsStableMetric) {
  StatsRegistry Reg;
  StatCounter &A = Reg.counter("interp.runs");
  A.add(3);
  // Same name resolves to the same object, even after unrelated
  // registrations force rebalancing in the name table.
  for (int I = 0; I < 100; ++I)
    Reg.counter("filler." + std::to_string(I));
  EXPECT_EQ(&A, &Reg.counter("interp.runs"));
  EXPECT_EQ(A.get(), 3u);
}

TEST(StatsRegistry, CounterTimerHistogramAreSeparateNamespaces) {
  StatsRegistry Reg;
  Reg.counter("x").add(1);
  Reg.timer("x").record(1000);
  Reg.histogram("x").record(5);
  StatsSnapshot S = Reg.snapshot();
  EXPECT_EQ(S.Counters.at("x"), 1u);
  EXPECT_EQ(S.Timers.at("x").Count, 1u);
  EXPECT_EQ(S.Histograms.at("x").Count, 1u);
}

TEST(StatsRegistry, NullTolerantHelpers) {
  // The disabled configuration: helpers and scoped timers accept null
  // and do nothing.
  StatsRegistry::add(nullptr, "a.b");
  StatsRegistry::sample(nullptr, "a.b", 7);
  { ScopedTimer T(nullptr); }

  StatsRegistry Reg;
  StatsRegistry::add(&Reg, "a.b", 2);
  StatsRegistry::sample(&Reg, "a.c", 7);
  EXPECT_EQ(Reg.counter("a.b").get(), 2u);
  EXPECT_EQ(Reg.histogram("a.c").sum(), 7u);
}

TEST(StatsRegistry, ScopedTimerRecordsOnce) {
  StatsRegistry Reg;
  StatTimer &T = Reg.timer("phase");
  {
    ScopedTimer S(&T);
    S.stop();
    // The destructor after stop() must not double-record.
  }
  EXPECT_EQ(T.count(), 1u);
}

TEST(StatsRegistry, ResetZeroesButKeepsNames) {
  StatsRegistry Reg;
  Reg.counter("a").add(5);
  Reg.timer("b").record(1000);
  Reg.histogram("c").record(9);
  Reg.reset();
  StatsSnapshot S = Reg.snapshot();
  ASSERT_TRUE(S.Counters.count("a"));
  EXPECT_EQ(S.Counters.at("a"), 0u);
  ASSERT_TRUE(S.Timers.count("b"));
  EXPECT_EQ(S.Timers.at("b").Count, 0u);
  ASSERT_TRUE(S.Histograms.count("c"));
  EXPECT_EQ(S.Histograms.at("c").Count, 0u);
  EXPECT_EQ(S.Histograms.at("c").Max, 0u);
  EXPECT_TRUE(S.Histograms.at("c").Buckets.empty());
}

TEST(StatHistogram, BucketsByBitWidth) {
  EXPECT_EQ(StatHistogram::bucketFor(0), 0u);
  EXPECT_EQ(StatHistogram::bucketFor(1), 1u);
  EXPECT_EQ(StatHistogram::bucketFor(2), 2u);
  EXPECT_EQ(StatHistogram::bucketFor(3), 2u);
  EXPECT_EQ(StatHistogram::bucketFor(4), 3u);
  EXPECT_EQ(StatHistogram::bucketFor(7), 3u);
  EXPECT_EQ(StatHistogram::bucketFor(8), 4u);
  EXPECT_EQ(StatHistogram::bucketFor(~0ull), StatHistogram::NumBuckets - 1);

  StatHistogram H;
  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 100ull})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 106u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 2u);
  EXPECT_EQ(H.bucket(7), 1u); // 100 has bit width 7
}

TEST(StatsRegistry, SnapshotTrimsTrailingHistogramBuckets) {
  StatsRegistry Reg;
  Reg.histogram("h").record(4); // bucket 3
  StatsSnapshot S = Reg.snapshot();
  ASSERT_EQ(S.Histograms.at("h").Buckets.size(), 4u);
  EXPECT_EQ(S.Histograms.at("h").Buckets[3], 1u);
}

TEST(StatsRegistry, JsonIsValidAndGroupedHierarchically) {
  StatsRegistry Reg;
  Reg.counter("interp.runs").add(2);
  Reg.counter("interp.steps").add(50);
  Reg.counter("verify.verifications").add(1);
  Reg.counter("flat").add(9);
  Reg.timer("locate.total_time").record(2'000'000);
  Reg.histogram("verify.batch_size").record(3);

  std::optional<jsonlite::Value> Doc = jsonlite::parse(Reg.toJson());
  ASSERT_TRUE(Doc) << Reg.toJson();
  ASSERT_TRUE(Doc->isObject());

  // Schema check of --stats=json: version tag plus the three sections,
  // each grouped by the metric name's leading dotted component.
  EXPECT_EQ(Doc->at("schema").String, "eoe-stats-v1");
  const jsonlite::Value &C = Doc->at("counters");
  ASSERT_TRUE(C.isObject());
  EXPECT_EQ(C.at("interp").at("runs").Number, 2);
  EXPECT_EQ(C.at("interp").at("steps").Number, 50);
  EXPECT_EQ(C.at("verify").at("verifications").Number, 1);
  EXPECT_EQ(C.at("flat").Number, 9);

  const jsonlite::Value &T = Doc->at("timers").at("locate").at("total_time");
  ASSERT_TRUE(T.isObject());
  EXPECT_EQ(T.at("count").Number, 1);
  EXPECT_NEAR(T.at("seconds").Number, 0.002, 1e-9);

  const jsonlite::Value &H =
      Doc->at("histograms").at("verify").at("batch_size");
  ASSERT_TRUE(H.isObject());
  EXPECT_EQ(H.at("count").Number, 1);
  EXPECT_EQ(H.at("sum").Number, 3);
  EXPECT_EQ(H.at("max").Number, 3);
  ASSERT_TRUE(H.at("buckets").isArray());
  ASSERT_EQ(H.at("buckets").Array.size(), 3u);
  EXPECT_EQ(H.at("buckets").Array[2].Number, 1);
}

TEST(StatsRegistry, JsonEscapesMetricNames) {
  StatsRegistry Reg;
  Reg.counter("weird.\"name\"\n").add(1);
  std::optional<jsonlite::Value> Doc = jsonlite::parse(Reg.toJson());
  ASSERT_TRUE(Doc) << Reg.toJson();
  EXPECT_EQ(Doc->at("counters").at("weird").at("\"name\"\n").Number, 1);
}

TEST(StatsRegistry, EmptyRegistryStillEmitsValidJson) {
  StatsRegistry Reg;
  std::optional<jsonlite::Value> Doc = jsonlite::parse(Reg.toJson());
  ASSERT_TRUE(Doc);
  EXPECT_TRUE(Doc->at("counters").Object.empty());
  EXPECT_TRUE(Doc->at("timers").Object.empty());
  EXPECT_TRUE(Doc->at("histograms").Object.empty());
}

TEST(StatsRegistry, ConcurrentIncrementsOnThreads) {
  StatsRegistry Reg;
  constexpr int Tasks = 16;
  constexpr int PerTask = 20'000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < Tasks; ++T) {
    Threads.emplace_back([&Reg] {
      // Half the increments go through a cached handle (the hot-path
      // pattern), half through the registry lookup, interleaved with
      // histogram samples and concurrent snapshots.
      StatCounter &Hot = Reg.counter("stress.hot");
      for (int I = 0; I < PerTask; ++I) {
        Hot.add();
        StatsRegistry::add(&Reg, "stress.cold");
        if (I % 1024 == 0)
          Reg.histogram("stress.sizes").record(static_cast<uint64_t>(I));
      }
    });
  }
  // A reader runs snapshots against the writers; values it observes
  // must be monotonic for a single counter.
  Threads.emplace_back([&Reg] {
    uint64_t Prev = 0;
    for (int I = 0; I < 200; ++I) {
      StatsSnapshot S = Reg.snapshot();
      auto It = S.Counters.find("stress.hot");
      uint64_t Cur = It == S.Counters.end() ? 0 : It->second;
      EXPECT_GE(Cur, Prev);
      Prev = Cur;
      std::this_thread::yield();
    }
  });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(Reg.counter("stress.hot").get(),
            static_cast<uint64_t>(Tasks) * PerTask);
  EXPECT_EQ(Reg.counter("stress.cold").get(),
            static_cast<uint64_t>(Tasks) * PerTask);
  EXPECT_EQ(Reg.histogram("stress.sizes").count(),
            static_cast<uint64_t>(Tasks) * ((PerTask + 1023) / 1024));
}

} // namespace

//===-- tests/EventTracerTest.cpp - Event tracer tests ------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "support/EventTracer.h"

#include "JsonLite.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

using namespace eoe;
using namespace eoe::support;

namespace {

TEST(EventTracer, NestedSpansCloseInnermostFirst) {
  EventTracer T;
  {
    EventTracer::Span Outer(&T, "locate", "core");
    {
      EventTracer::Span Inner(&T, "verify", "verify");
    }
  }
  std::vector<EventTracer::Event> E = T.events();
  ASSERT_EQ(E.size(), 2u);
  // Spans are recorded at close, so the inner one lands first; the
  // outer one must fully contain it on the timeline.
  EXPECT_EQ(E[0].Name, "verify");
  EXPECT_EQ(E[1].Name, "locate");
  EXPECT_EQ(E[1].Category, "core");
  EXPECT_EQ(E[0].Phase, 'X');
  EXPECT_LE(E[1].StartNs, E[0].StartNs);
  EXPECT_GE(E[1].StartNs + E[1].DurationNs, E[0].StartNs + E[0].DurationNs);
}

TEST(EventTracer, NullTracerIsNoOp) {
  EventTracer::Span S(nullptr, "nothing");
  EventTracer::instant(nullptr, "nothing");
  S.end();
}

TEST(EventTracer, EndIsIdempotent) {
  EventTracer T;
  EventTracer::Span S(&T, "phase");
  S.end();
  S.end();
  EXPECT_EQ(T.eventCount(), 1u);
}

TEST(EventTracer, MovedFromSpanDoesNotRecord) {
  EventTracer T;
  {
    EventTracer::Span A(&T, "phase");
    EventTracer::Span B = std::move(A);
  }
  EXPECT_EQ(T.eventCount(), 1u);
}

TEST(EventTracer, MoveAssignmentClosesTheOverwrittenSpan) {
  EventTracer T;
  {
    EventTracer::Span A(&T, "first");
    EventTracer::Span B(&T, "second");
    A = std::move(B); // "first" must close here, not leak
    EXPECT_EQ(T.eventCount(), 1u);
    EXPECT_EQ(T.events()[0].Name, "first");
  }
  EXPECT_EQ(T.eventCount(), 2u);
}

TEST(EventTracer, InstantMarkers) {
  EventTracer T;
  T.instant("cache_hit", "verify");
  std::vector<EventTracer::Event> E = T.events();
  ASSERT_EQ(E.size(), 1u);
  EXPECT_EQ(E[0].Phase, 'i');
  EXPECT_EQ(E[0].DurationNs, 0u);
}

TEST(EventTracer, JsonIsValidChromeTraceFormat) {
  EventTracer T;
  {
    EventTracer::Span S(&T, "interpret \"quoted\"\n", "interp");
  }
  T.instant("marker");

  std::optional<jsonlite::Value> Doc = jsonlite::parse(T.json());
  ASSERT_TRUE(Doc) << T.json();
  EXPECT_EQ(Doc->at("displayTimeUnit").String, "ms");
  const jsonlite::Value &Events = Doc->at("traceEvents");
  ASSERT_TRUE(Events.isArray());
  ASSERT_EQ(Events.Array.size(), 2u);
  for (const jsonlite::Value &E : Events.Array) {
    ASSERT_TRUE(E.isObject());
    EXPECT_TRUE(E.at("name").isString());
    EXPECT_TRUE(E.at("cat").isString());
    EXPECT_TRUE(E.at("ts").isNumber());
    EXPECT_TRUE(E.at("pid").isNumber());
    EXPECT_TRUE(E.at("tid").isNumber());
    ASSERT_TRUE(E.at("ph").isString());
    if (E.at("ph").String == "X")
      EXPECT_TRUE(E.at("dur").isNumber());
    else
      EXPECT_EQ(E.at("ph").String, "i");
  }
  // The escaped name round-trips through the parser.
  EXPECT_EQ(Events.Array[0].at("name").String, "interpret \"quoted\"\n");
}

TEST(EventTracer, WriteFileRoundTrips) {
  EventTracer T;
  {
    EventTracer::Span S(&T, "phase");
  }
  std::string Path =
      ::testing::TempDir() + "/eoe_tracer_test_trace.json";
  ASSERT_TRUE(T.writeFile(Path));
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  // The file gets a trailing newline (it is a text file); the in-memory
  // document does not.
  EXPECT_EQ(Buffer.str(), T.json() + "\n");
  std::remove(Path.c_str());
}

TEST(EventTracer, WriteFileFailsOnBadPath) {
  EventTracer T;
  EXPECT_FALSE(T.writeFile("/nonexistent-dir-eoe/trace.json"));
}

TEST(EventTracer, ConcurrentSpansOnThreadsGetStableTids) {
  EventTracer T;
  constexpr int Tasks = 32;
  constexpr int Workers = 4;
  std::vector<std::thread> Threads;
  for (int W = 0; W < Workers; ++W)
    Threads.emplace_back([&T] {
      for (int I = 0; I < Tasks / Workers; ++I) {
        EventTracer::Span S(&T, "reexec", "verify");
        T.instant("step", "verify");
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(T.eventCount(), 2u * Tasks);

  // Every worker gets one stable small tid; with 4 workers there can be
  // at most 4 distinct ids (plus none from the main thread here).
  std::set<uint32_t> Tids;
  for (const EventTracer::Event &E : T.events())
    Tids.insert(E.Tid);
  EXPECT_GE(Tids.size(), 1u);
  EXPECT_LE(Tids.size(), 4u);

  // The document survives concurrent recording intact.
  std::optional<jsonlite::Value> Doc = jsonlite::parse(T.json());
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->at("traceEvents").Array.size(), 2u * Tasks);
}

} // namespace

//===-- e2ebench/Bench.h - End-to-end locator benchmark ----------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The outside-in benchmark of the locator. It drives the program only
/// through its public API -- `lang::parseAndCheck`, `core::DebugSession`
/// (construction, `locate`, `failureChain`) and a timing
/// `slicing::Oracle` defined here -- over three seeded workloads, at one
/// verification thread and every other option at its default.
///
/// A pass runs every subject of a workload once. Untraced passes give the
/// end-to-end metrics; one traced pass, with the program's own
/// `support::EventTracer` and a fresh `support::StatsRegistry` per
/// session, gives the per-layer split.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_E2EBENCH_BENCH_H
#define EOE_E2EBENCH_BENCH_H

#include "core/LocateFault.h"
#include "support/EventTracer.h"
#include "support/Stats.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Samples a percentile must leave beyond it before it may be reported.
inline constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank \p P-th percentile (0 < P <= 100): the sample at rank
/// ceil(P/100 * n) of the sorted samples. Empty when fewer than
/// MinSamplesBeyond samples rank above it.
std::optional<double> percentile(std::vector<double> Samples, double P);

/// Median of \p Samples (mean of the middle two for an even count); 0
/// when empty.
double median(std::vector<double> Samples);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One recorded interval, from the program's tracer or the benchmark's.
struct SpanRec {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  uint32_t Tid = 0;
  /// Index of the locate call (= session) the span belongs to; -1 when
  /// it belongs to none.
  long Call = -1;

  uint64_t duration() const { return EndNs - StartNs; }
};

/// Self time of every span: its duration minus the union of the
/// intervals of the spans it contains on the same thread. Spans on other
/// threads never count as children. Returned in input order.
std::vector<uint64_t> selfTimes(const std::vector<SpanRec> &Spans);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One faulty program and its failing run.
struct Subject {
  std::string Id;
  std::string FaultySource;
  uint32_t RootCauseLine = 0;
  std::vector<int64_t> Input;
  std::vector<std::vector<int64_t>> TestSuite;
  /// The fixed program's outputs on Input, computed while the workload
  /// is generated (untimed).
  std::vector<int64_t> Expected;
  /// Two sessions (FaultRunner's phase A / phase B protocol) rather than
  /// one session with the root-only oracle.
  bool TwoPhase = true;
};

/// Builds workload \p Name from \p Seed. The same seed always gives the
/// same subjects. Throws std::runtime_error for an unknown name or a
/// subject that does not parse or does not fail.
std::vector<Subject> makeWorkload(const std::string &Name, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// The sinks of a traced pass: the program's tracer, which also records
/// the benchmark's own `bench.*` spans, and one registry per session.
class TraceSink {
public:
  eoe::support::EventTracer Tracer;

  /// A fresh registry for one session.
  eoe::support::StatsRegistry *newRegistry();

  /// Every recorded span, with `bench.*` spans tagged with their call
  /// index and program spans with the index of the benchmark span that
  /// contains them.
  std::vector<SpanRec> spans() const;

  /// Sum of counter \p Name over every session's registry.
  uint64_t counter(const std::string &Name) const;

private:
  friend class BenchSpan;
  std::vector<std::unique_ptr<eoe::support::StatsRegistry>> Registries;
  /// Call index of each `bench.*` span, in the order the spans ended --
  /// which is the order the tracer recorded them.
  std::vector<std::pair<std::string, long>> BenchTags;
};

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

/// The counters one locate call is checked against. Taken from the
/// call's own LocateReport, with a registry per session.
struct CallCounters {
  std::string Subject;
  char Phase = '-'; ///< 'A' / 'B' for the two-phase protocol, '-' else.
  size_t Answers = 0;
  size_t UserPrunings = 0;
  size_t Verifications = 0;
  size_t Iterations = 0;
  size_t ExpandedEdges = 0;
  size_t IPSStatic = 0;
  size_t IPSDynamic = 0;

  bool operator==(const CallCounters &) const = default;
};

struct CallResult {
  CallCounters Counters;
  eoe::core::LocateReport Report;
  double LocateS = 0;
  /// The programmer's waits inside locate, in seconds (answers + 1).
  std::vector<double> Waits;
  size_t TraceSteps = 0;
};

struct PassResult {
  double SetupS = 0;
  double LocateS = 0;
  std::vector<CallResult> Calls;
};

/// Runs every subject once. \p Sink, when given, traces the pass and
/// adds the benchmark's plain and traced reference runs.
PassResult runPass(const std::vector<Subject> &W, TraceSink *Sink = nullptr);

/// Parses every subject and constructs its sessions, as a pass does, but
/// locates nothing. Returns the summed set-up seconds.
double setupRound(const std::vector<Subject> &W);

/// Reads the expected-counter file; throws std::runtime_error when it is
/// missing or malformed.
std::vector<CallCounters> readExpected(const std::string &Path);

/// One line of the expected-counter file.
std::string formatCounters(const CallCounters &C);

/// Number of calls of \p P that failed: the root cause was not located,
/// or (with \p Expected) the counters differ from the expected file. Each
/// failure is described on stderr.
size_t countFailures(const PassResult &P,
                     const std::vector<CallCounters> *Expected);

} // namespace e2e

#endif // EOE_E2EBENCH_BENCH_H

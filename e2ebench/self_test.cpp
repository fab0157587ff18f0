//===-- e2ebench/self_test.cpp - Checks of the benchmark itself ---------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Usage: e2ebench_selftest EXPECTED_PAPER9_FILE
//
// Checks the benchmark's helpers and its protocol runner:
//  - the percentile helper uses nearest rank and refuses a percentile
//    with fewer than ten samples beyond it;
//  - the self-time helper handles nested, sibling and cross-thread spans;
//  - the same seed gives identical replay and random subjects, and two
//    seeds both locate every root cause;
//  - on paper9, the benchmark's phase-A / phase-B runner gives the same
//    per-fault LocateReport as FaultRunner::run with ComputeSlices off,
//    and matches the expected-counter file.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "workloads/Runner.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

using namespace e2e;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  std::printf("%s %s\n", Ok ? "PASS" : "FAIL", What.c_str());
  if (!Ok)
    ++Failures;
}

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

void testPercentile() {
  check(percentile(iota(20), 50) == 10.0, "p50 of 1..20 is rank 10");
  check(!percentile(iota(19), 50), "p50 of 19 samples is refused");
  check(percentile(iota(100), 90) == 90.0, "p90 of 1..100 is rank 90");
  check(!percentile(iota(99), 90), "p90 of 99 samples is refused");
  check(percentile(iota(30), 50) == 15.0,
        "nearest rank, not interpolation (p50 of 1..30 is 15)");
  std::vector<double> Shuffled = iota(200);
  std::shuffle(Shuffled.begin(), Shuffled.end(), std::mt19937(7));
  check(percentile(Shuffled, 90) == 180.0, "unsorted input is ranked");
  check(!percentile({}, 50), "no samples, no percentile");
}

SpanRec span(const char *Name, uint64_t Start, uint64_t End,
             uint32_t Tid = 1) {
  SpanRec S;
  S.Name = Name;
  S.StartNs = Start;
  S.EndNs = End;
  S.Tid = Tid;
  return S;
}

void testSelfTimes() {
  check(selfTimes({span("a", 0, 100), span("b", 10, 40), span("c", 20, 30)}) ==
            std::vector<uint64_t>{70, 20, 10},
        "nested spans subtract only their direct children");
  check(selfTimes({span("a", 0, 100), span("c", 50, 80), span("b", 10, 30)}) ==
            std::vector<uint64_t>{50, 30, 20},
        "sibling children are both subtracted, in any input order");
  check(selfTimes({span("a", 0, 100), span("b", 0, 50), span("c", 50, 100)}) ==
            std::vector<uint64_t>{0, 50, 50},
        "touching siblings cover the parent exactly");
  check(selfTimes({span("a", 0, 100, 1), span("b", 10, 50, 2)}) ==
            std::vector<uint64_t>{100, 40},
        "a span on another thread is not a child");
  check(selfTimes({span("a", 0, 10), span("b", 20, 30)}) ==
            std::vector<uint64_t>{10, 10},
        "disjoint spans keep their durations");
}

bool sameSubjects(const std::vector<Subject> &A, const std::vector<Subject> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Id != B[I].Id || A[I].FaultySource != B[I].FaultySource ||
        A[I].RootCauseLine != B[I].RootCauseLine || A[I].Input != B[I].Input ||
        A[I].TestSuite != B[I].TestSuite || A[I].Expected != B[I].Expected)
      return false;
  return true;
}

void testSeededGeneration() {
  for (const char *Name : {"replay", "random"}) {
    std::vector<Subject> One = makeWorkload(Name, 1);
    check(sameSubjects(One, makeWorkload(Name, 1)),
          std::string(Name) + ": the same seed gives identical subjects");
    std::vector<Subject> Two = makeWorkload(Name, 2);
    check(!sameSubjects(One, Two),
          std::string(Name) + ": another seed gives other subjects");
    for (const auto &[Seed, W] : {std::pair{1, &One}, std::pair{2, &Two}})
      check(countFailures(runPass(*W), nullptr) == 0,
            std::string(Name) + ": seed " + std::to_string(Seed) +
                " locates every root cause");
  }
}

bool sameReport(const eoe::core::LocateReport &A,
                const eoe::core::LocateReport &B) {
  return A.RootCauseFound == B.RootCauseFound &&
         A.UserPrunings == B.UserPrunings &&
         A.Verifications == B.Verifications &&
         A.Reexecutions == B.Reexecutions && A.Iterations == B.Iterations &&
         A.ExpandedEdges == B.ExpandedEdges && A.StrongEdges == B.StrongEdges &&
         A.FinalPrunedSlice == B.FinalPrunedSlice &&
         A.IPSStats.StaticStmts == B.IPSStats.StaticStmts &&
         A.IPSStats.DynamicInstances == B.IPSStats.DynamicInstances;
}

void testProtocolEquivalence(const std::string &ExpectedPath) {
  PassResult P = runPass(makeWorkload("paper9", 1));
  std::vector<CallCounters> Expected = readExpected(ExpectedPath);
  check(countFailures(P, &Expected) == 0,
        "paper9 matches the expected-counter file");

  using namespace eoe::workloads;
  const std::vector<FaultInfo> &Faults = faults();
  check(P.Calls.size() == 2 * Faults.size(), "paper9 makes two calls a fault");
  for (size_t F = 0; F < Faults.size() && 2 * F + 1 < P.Calls.size(); ++F) {
    FaultRunner Runner(Faults[F]);
    FaultRunner::Options Opts;
    Opts.ComputeSlices = false;
    Opts.Opt.Exec.Threads = 1;
    ExperimentResult R = Runner.run(Opts);
    check(R.Valid && sameReport(R.Report, P.Calls[2 * F + 1].Report),
          Faults[F].Id + ": phase B equals FaultRunner::run");
  }
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: %s EXPECTED_PAPER9_FILE\n", Argv[0]);
    return 2;
  }
  try {
    testPercentile();
    testSelfTimes();
    testSeededGeneration();
    testProtocolEquivalence(Argv[1]);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "e2ebench_selftest: error: %s\n", E.what());
    return 2;
  }
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "OK", Failures);
  return Failures ? 1 : 0;
}

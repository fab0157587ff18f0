//===-- bench/bench_parallel.cpp - Parallel verification speedup ---------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Measures locateFault under the parallel verification engine at 1/2/4/8
// threads. The subject stacks K independent false guards over one
// observed variable, so the selected use has K candidate predicates and
// the engine verifies one batch of K switched re-executions -- the
// paper's dominant cost (Table 4's Verif column) -- concurrently. A crc
// loop pads every (re-)execution so each task is coarse enough to
// amortize scheduling.
//
// Two claims are checked:
//  - determinism (hard assertion, any thread count): counters, verified
//    implicit edges, and the final pruned slice are bit-identical to the
//    Threads=1 serial reference engine;
//  - speedup: >= 2x at 4 threads, asserted only when a spin probe
//    measures >= 3.5 effective cores for 4 threads (reported as skipped
//    otherwise). hardware_concurrency counts vCPUs the host may not
//    grant, and a wall-clock gate on a shared host is a coin flip.
//
//   bench_parallel [--determinism-only] [common options]
//
// --determinism-only skips the speedup assertion (the test-suite smoke
// run). Emits machine-readable results, the probe included, to
// BENCH_parallel.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/DebugSession.h"
#include "lang/Parser.h"
#include "support/Diagnostic.h"
#include "support/Options.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace eoe;
using namespace eoe::core;

namespace {

constexpr int GuardCount = 8;
constexpr int RootGuard = 2; // the guard whose missing effect is the fault
constexpr int LoopIters = 20000;

/// K guards over flags + a crc loop. In the fixed program guard
/// \p RootGuard is armed; the faulty program leaves every guard cold, so
/// flags misses its contribution -- a classic execution omission.
std::string subject(bool Fixed) {
  std::string Src = "fn main() {\n";
  for (int G = 0; G < GuardCount; ++G)
    Src += "var c" + std::to_string(G) + " = " +
           ((Fixed && G == RootGuard) ? "1" : "0") + ";\n";
  Src += "var flags = 0;\n";
  for (int G = 0; G < GuardCount; ++G)
    Src += "if (c" + std::to_string(G) + ") {\n" +
           "flags = flags + " + std::to_string(1 << G) + ";\n" +
           "}\n";
  Src += "var i = 0;\n"
         "var crc = 0;\n"
         "while (i < " + std::to_string(LoopIters) + ") {\n"
         "crc = (crc * 31 + i) % 65521;\n"
         "i = i + 1;\n"
         "}\n"
         "print(crc);\n"
         "print(flags);\n"
         "}\n";
  return Src;
}

class RootOnlyOracle : public slicing::Oracle {
public:
  explicit RootOnlyOracle(StmtId Root) : Root(Root) {}
  bool isBenign(TraceIdx) override { return false; }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
};

struct RunResult {
  unsigned Threads = 0;
  double LocateMs = 0;
  LocateReport Report;
  std::vector<ddg::DepGraph::ImplicitEdge> Edges;
};

bool sameOutcome(const RunResult &A, const RunResult &B) {
  if (A.Report.RootCauseFound != B.Report.RootCauseFound ||
      A.Report.UserPrunings != B.Report.UserPrunings ||
      A.Report.Verifications != B.Report.Verifications ||
      A.Report.Reexecutions != B.Report.Reexecutions ||
      A.Report.Iterations != B.Report.Iterations ||
      A.Report.ExpandedEdges != B.Report.ExpandedEdges ||
      A.Report.StrongEdges != B.Report.StrongEdges ||
      A.Report.FinalPrunedSlice != B.Report.FinalPrunedSlice ||
      A.Edges.size() != B.Edges.size())
    return false;
  for (size_t I = 0; I < A.Edges.size(); ++I)
    if (A.Edges[I].Use != B.Edges[I].Use ||
        A.Edges[I].Pred != B.Edges[I].Pred ||
        A.Edges[I].Strong != B.Edges[I].Strong)
      return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // The thread sweep is fixed (it IS the experiment); every other knob
  // -- checkpointing, caches, chain depth, step budget -- comes from the
  // shared parser so ad-hoc reruns use the same flags as eoec.
  eoe::Options BaseOpt;
  bool DeterminismOnly = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--determinism-only") {
      DeterminismOnly = true;
      continue;
    }
    if (support::parseCommonOption(Argc, Argv, I, BaseOpt) ==
        support::ParseResult::Ok)
      continue;
    std::fprintf(stderr,
                 "usage: bench_parallel [--determinism-only] [common "
                 "options]\n%s",
                 support::commonOptionsHelp());
    return 2;
  }

  bench::banner("Parallel verification engine: locateFault wall-clock vs "
                "thread count (bit-identical results required)");

  DiagnosticEngine Diags;
  auto Fixed = lang::parseAndCheck(subject(/*Fixed=*/true), Diags);
  auto Faulty = lang::parseAndCheck(subject(/*Fixed=*/false), Diags);
  if (!Fixed || !Faulty) {
    std::fprintf(stderr, "parse error:\n%s", Diags.str().c_str());
    return 1;
  }

  analysis::StaticAnalysis FixedSA(*Fixed);
  interp::Interpreter FixedInterp(*Fixed, FixedSA);
  std::vector<int64_t> Expected = FixedInterp.run({}).outputValues();

  // The faulty program's root cause: the cold initialization of the
  // guard the fix arms.
  uint32_t RootLine = static_cast<uint32_t>(2 + RootGuard);
  StmtId Root = Faulty->statementAtLine(RootLine);
  if (!isValidId(Root)) {
    std::fprintf(stderr, "no statement at root line %u\n", RootLine);
    return 1;
  }

  const unsigned Hardware = std::thread::hardware_concurrency();
  const double Effective = bench::effectiveParallelism(4);
  std::vector<RunResult> Runs;
  size_t TraceLen = 0;
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    DebugSession::Config C;
    C.Opt = BaseOpt;
    C.Opt.Exec.Threads = Threads;
    DebugSession Session(*Faulty, {}, Expected, {}, C);
    if (!Session.hasFailure()) {
      std::fprintf(stderr, "fault did not reproduce\n");
      return 1;
    }
    TraceLen = Session.trace().size();
    RootOnlyOracle Oracle(Root);

    RunResult R;
    R.Threads = Threads;
    Timer LocateTimer;
    R.Report = Session.locate(Oracle);
    R.LocateMs = LocateTimer.seconds() * 1000;
    R.Edges = Session.graph().implicitEdges();
    if (!R.Report.RootCauseFound) {
      std::fprintf(stderr, "root cause not found at Threads=%u\n", Threads);
      return 1;
    }
    Runs.push_back(std::move(R));
  }

  // Determinism: every thread count must reproduce the serial outcome
  // exactly. This is the hard claim; it holds on any machine.
  const RunResult &Serial = Runs.front();
  bool Identical = true;
  for (const RunResult &R : Runs)
    Identical = Identical && sameOutcome(Serial, R);

  Table T({"threads", "locate (ms)", "speedup", "re-execs", "re-execs/s",
           "identical"});
  for (const RunResult &R : Runs) {
    double Speedup = R.LocateMs > 0 ? Serial.LocateMs / R.LocateMs : 0;
    double ReexecPerSec =
        R.LocateMs > 0 ? R.Report.Reexecutions / (R.LocateMs / 1000) : 0;
    T.addRow({std::to_string(R.Threads), formatDouble(R.LocateMs, 2),
              formatDouble(Speedup, 2),
              std::to_string(R.Report.Reexecutions),
              formatDouble(ReexecPerSec, 1),
              sameOutcome(Serial, R) ? "yes" : "NO"});
  }
  std::printf("%s", T.str().c_str());
  std::printf("\nsubject: %d candidate predicates per batch, trace length "
              "%zu, hardware_concurrency %u, effective parallelism of 4 "
              "threads %s\n",
              GuardCount, TraceLen, Hardware,
              formatDouble(Effective, 2).c_str());

  // Speedup: only meaningful when the host delivers the cores.
  double Speedup4 = 0;
  for (const RunResult &R : Runs)
    if (R.Threads == 4 && R.LocateMs > 0)
      Speedup4 = Serial.LocateMs / R.LocateMs;
  const char *SkipReason =
      DeterminismOnly    ? "skipped: --determinism-only"
      : Effective < 3.5 ? "skipped: effective parallelism < 3.5"
                        : nullptr;
  const bool SpeedupOk = Speedup4 >= 2.0;
  if (!SkipReason)
    std::printf("speedup at 4 threads: %sx (required >= 2x): %s\n",
                formatDouble(Speedup4, 2).c_str(),
                SpeedupOk ? "PASS" : "FAIL");
  else
    std::printf("speedup at 4 threads: %sx -- assertion %s (determinism "
                "still asserted)\n",
                formatDouble(Speedup4, 2).c_str(), SkipReason);
  std::printf("determinism across thread counts: %s\n",
              Identical ? "BIT-IDENTICAL" : "MISMATCH (bug!)");

  // Machine-readable results.
  const char *JsonPath = "BENCH_parallel.json";
  if (std::FILE *F = std::fopen(JsonPath, "w")) {
    std::fprintf(F, "{\n");
    std::fprintf(F, "  \"bench\": \"bench_parallel\",\n");
    std::fprintf(F, "  \"hardware_concurrency\": %u,\n", Hardware);
    std::fprintf(F, "  \"effective_parallelism_4t\": %.3f,\n", Effective);
    std::fprintf(F,
                 "  \"subject\": {\"candidate_predicates\": %d, "
                 "\"loop_iters\": %d, \"trace_len\": %zu},\n",
                 GuardCount, LoopIters, TraceLen);
    std::fprintf(F, "  \"runs\": [\n");
    for (size_t I = 0; I < Runs.size(); ++I) {
      const RunResult &R = Runs[I];
      double ReexecPerSec =
          R.LocateMs > 0 ? R.Report.Reexecutions / (R.LocateMs / 1000) : 0;
      std::fprintf(F,
                   "    {\"threads\": %u, \"locate_ms\": %.3f, "
                   "\"speedup\": %.3f, \"reexecutions\": %zu, "
                   "\"reexec_per_sec\": %.1f, "
                   "\"identical_to_serial\": %s}%s\n",
                   R.Threads, R.LocateMs,
                   R.LocateMs > 0 ? Serial.LocateMs / R.LocateMs : 0.0,
                   R.Report.Reexecutions, ReexecPerSec,
                   sameOutcome(Serial, R) ? "true" : "false",
                   I + 1 < Runs.size() ? "," : "");
    }
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"speedup_4t\": %.3f,\n", Speedup4);
    std::fprintf(F, "  \"speedup_check\": \"%s\",\n",
                 SkipReason ? SkipReason : SpeedupOk ? "pass" : "fail");
    std::fprintf(F, "  \"deterministic\": %s\n", Identical ? "true" : "false");
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  } else {
    std::fprintf(stderr, "could not write %s\n", JsonPath);
  }

  if (!Identical)
    return 1;
  if (!SkipReason && !SpeedupOk)
    return 1;
  return 0;
}

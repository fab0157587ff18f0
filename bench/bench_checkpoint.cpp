//===-- bench/bench_checkpoint.cpp - Checkpointed re-execution speedup ---------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Measures a debugging session with checkpointed switched-run
// re-execution (docs/checkpointing.md) against the full-replay
// reference. The subject front-loads a heavy crc loop so every candidate
// predicate sits past 50% of the trace: full replay pays the whole prefix
// per switched run, while the checkpointed session snapshots the failing
// run as it traces it and resumes each switched run past the recorded
// prefix, which it shares instead of re-interpreting. The capture happens
// in session construction, so each row times construction and locate and
// compares their sum.
//
// Two claims are asserted, on any machine:
//  - determinism: reports and verified implicit edges are bit-identical
//    across {off, auto};
//  - work: with checkpoints on, every switched run resumes from a
//    snapshot and reads at least half of its steps from the recorded
//    prefix instead of interpreting them.
// The wall-clock speedup is reported, not asserted.
//
// Emits machine-readable results to BENCH_checkpoint.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/DebugSession.h"
#include "lang/Parser.h"
#include "support/Diagnostic.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace eoe;
using namespace eoe::core;

namespace {

constexpr int GuardCount = 10;
constexpr int RootGuard = 3; // the guard whose missing effect is the fault
constexpr int LoopIters = 60000;

/// A heavy crc prefix FIRST, then K guards over flags. The candidate
/// predicates of the wrong output (flags) are exactly the guards, all
/// past the crc loop -- the worst case for full prefix replay and the
/// best case for snapshot/resume. Each loop statement mixes several
/// multiplies/mods so the interpreter's per-step execution cost is large
/// relative to the cost of a resume.
std::string subject(bool Fixed) {
  std::string Src = "fn main() {\n";
  for (int G = 0; G < GuardCount; ++G)
    Src += "var c" + std::to_string(G) + " = " +
           ((Fixed && G == RootGuard) ? "1" : "0") + ";\n";
  Src += "var flags = 0;\n"
         "var i = 0;\n"
         "var crc = 0;\n"
         "var mix = 1;\n"
         "while (i < " + std::to_string(LoopIters) + ") {\n"
         "crc = (crc * 31 + (i % 7) * (i % 11) + mix * 13) % 65521;\n"
         "mix = (mix * 17 + crc % 251 + (i % 5) * 29) % 8191;\n"
         "i = i + 1;\n"
         "}\n";
  for (int G = 0; G < GuardCount; ++G)
    Src += "if (c" + std::to_string(G) + ") {\n" +
           "flags = flags + " + std::to_string(1 << G) + ";\n" +
           "}\n";
  Src += "print(crc);\n"
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

const char *modeName(bool Checkpoints) { return Checkpoints ? "auto" : "off"; }

struct RunResult {
  bool Checkpoints = false;
  /// Session construction (the traced run and, with checkpoints on, its
  /// captures) and locate, of the fastest repetition by their sum.
  double SetupMs = 0;
  double LocateMs = 0;
  double totalMs() const { return SetupMs + LocateMs; }
  LocateReport Report;
  std::vector<ddg::DepGraph::ImplicitEdge> Edges;
  uint64_t CkptHits = 0;
  uint64_t CkptMisses = 0;
  uint64_t CkptStored = 0;
  uint64_t SplicedSteps = 0;
  double CaptureMs = 0;
  double RestoreMs = 0;
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

int main() {
  bench::banner("Checkpointed switched-run re-execution: locateFault "
                "wall-clock, snapshot/resume vs full prefix replay "
                "(bit-identical results required)");

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

  uint32_t RootLine = static_cast<uint32_t>(2 + RootGuard);
  StmtId Root = Faulty->statementAtLine(RootLine);
  if (!isValidId(Root)) {
    std::fprintf(stderr, "no statement at root line %u\n", RootLine);
    return 1;
  }

  std::vector<RunResult> Runs;
  size_t TraceLen = 0;
  for (bool Checkpoints : {false, true}) {
    // The container this smoke runs on is shared and noisy (single-run
    // baselines here have been observed to swing by 1.8x). Time each
    // row as the min of three runs.
    constexpr int Reps = 3;
    RunResult R;
    R.Checkpoints = Checkpoints;
    for (int Rep = 0; Rep < Reps; ++Rep) {
      support::StatsRegistry Stats;
      DebugSession::Config C;
      C.Opt.Reuse.Checkpoints = Checkpoints;
      C.Opt.Exec.Stats = &Stats;
      Timer SetupTimer;
      DebugSession Session(*Faulty, {}, Expected, {}, C);
      const double SetupMs = SetupTimer.seconds() * 1000;
      if (!Session.hasFailure()) {
        std::fprintf(stderr, "fault did not reproduce\n");
        return 1;
      }
      TraceLen = Session.trace().size();
      RootOnlyOracle Oracle(Root);

      Timer LocateTimer;
      LocateReport Out = Session.locate(Oracle);
      const double LocateMs = LocateTimer.seconds() * 1000;
      if (!Out.RootCauseFound) {
        std::fprintf(stderr, "root cause not found (ckpt=%s)\n",
                     modeName(Checkpoints));
        return 1;
      }
      if (Rep > 0 && SetupMs + LocateMs >= R.totalMs())
        continue;
      R.SetupMs = SetupMs;
      R.LocateMs = LocateMs;
      R.Report = std::move(Out);
      R.Edges = Session.graph().implicitEdges();
      support::StatsSnapshot S = Stats.snapshot();
      auto Counter = [&](const char *Key) {
        auto It = S.Counters.find(Key);
        return It == S.Counters.end() ? uint64_t(0) : It->second;
      };
      auto TimerMs = [&](const char *Key) {
        auto It = S.Timers.find(Key);
        return It == S.Timers.end() ? 0.0 : It->second.Seconds * 1000;
      };
      R.CkptHits = Counter("verify.ckpt.hits");
      R.CkptMisses = Counter("verify.ckpt.misses");
      R.CkptStored = Counter("verify.ckpt.stored");
      R.SplicedSteps = Counter("interp.spliced_steps");
      // The captures inside the traced run, and the state restores
      // inside the resumed runs.
      R.CaptureMs = TimerMs("verify.ckpt.capture_time");
      R.RestoreMs = TimerMs("interp.splice_time");
    }
    Runs.push_back(std::move(R));
  }

  // Determinism first: every mode must reproduce the full-replay outcome
  // exactly. This is the hard claim; it holds on any machine.
  const RunResult &Baseline = Runs.front(); // checkpoints off
  bool Identical = true;
  for (const RunResult &R : Runs)
    Identical = Identical && sameOutcome(Baseline, R);

  Table T({"ckpt", "setup (ms)", "locate (ms)", "total (ms)", "speedup",
           "hits", "misses", "stored", "spliced steps", "capture (ms)",
           "restore (ms)", "identical"});
  for (const RunResult &R : Runs) {
    double Speedup = R.totalMs() > 0 ? Baseline.totalMs() / R.totalMs() : 0;
    T.addRow({modeName(R.Checkpoints), formatDouble(R.SetupMs, 2),
              formatDouble(R.LocateMs, 2), formatDouble(R.totalMs(), 2),
              formatDouble(Speedup, 2), std::to_string(R.CkptHits),
              std::to_string(R.CkptMisses), std::to_string(R.CkptStored),
              std::to_string(R.SplicedSteps), formatDouble(R.CaptureMs, 2),
              formatDouble(R.RestoreMs, 2),
              sameOutcome(Baseline, R) ? "yes" : "NO"});
  }
  std::printf("%s", T.str().c_str());
  std::printf("\nsubject: %d candidate predicates past a %d-iteration crc "
              "prefix, trace length %zu\n",
              GuardCount, LoopIters, TraceLen);

  // Wall-clock speedup (auto vs off, set-up plus locate) is reported but
  // not asserted:
  // on a loaded single-core container the off-baseline swings by 1.8x
  // run to run, and the true quiet-machine ratio is set by how fast a
  // resume is relative to re-interpreting the prefix -- a machine
  // property, not an algorithm property. What the subsystem
  // *guarantees* is deterministic and asserted below instead: every
  // switched run resumes from a snapshot (no misses), and resuming
  // skips at least half of each switched run's interpretation (the
  // subject puts every candidate past 50% of the trace).
  const RunResult &Auto = Runs.back();
  const double Speedup =
      Auto.totalMs() > 0 ? Baseline.totalMs() / Auto.totalMs() : 0;
  bool WorkOk = true;
  for (const RunResult &R : Runs) {
    if (!R.Checkpoints)
      continue;
    const uint64_t MinSpliced =
        static_cast<uint64_t>(GuardCount) * TraceLen / 2;
    if (R.CkptMisses != 0 ||
        R.CkptHits != static_cast<uint64_t>(GuardCount) ||
        R.SplicedSteps < MinSpliced) {
      WorkOk = false;
      std::printf("work assertion FAILED (ckpt=%s): hits=%llu (want %d) "
                  "misses=%llu (want 0) spliced=%llu (want >= %llu)\n",
                  modeName(R.Checkpoints),
                  static_cast<unsigned long long>(R.CkptHits), GuardCount,
                  static_cast<unsigned long long>(R.CkptMisses),
                  static_cast<unsigned long long>(R.SplicedSteps),
                  static_cast<unsigned long long>(MinSpliced));
    }
  }
  std::printf("speedup (ckpt on vs off, set-up plus locate, min of 3): %sx "
              "(reported, not asserted)\n",
              formatDouble(Speedup, 2).c_str());
  std::printf("re-execution work avoided: %d/%d switched runs resumed from "
              "snapshots, >= 50%% of each spliced instead of "
              "re-interpreted: %s\n",
              GuardCount, GuardCount, WorkOk ? "PASS" : "FAIL");
  std::printf("determinism across modes: %s\n",
              Identical ? "BIT-IDENTICAL" : "MISMATCH (bug!)");

  // Machine-readable results.
  const char *JsonPath = "BENCH_checkpoint.json";
  if (std::FILE *F = std::fopen(JsonPath, "w")) {
    std::fprintf(F, "{\n");
    std::fprintf(F, "  \"bench\": \"bench_checkpoint\",\n");
    std::fprintf(F,
                 "  \"subject\": {\"candidate_predicates\": %d, "
                 "\"loop_iters\": %d, \"trace_len\": %zu},\n",
                 GuardCount, LoopIters, TraceLen);
    std::fprintf(F, "  \"runs\": [\n");
    for (size_t I = 0; I < Runs.size(); ++I) {
      const RunResult &R = Runs[I];
      std::fprintf(F,
                   "    {\"mode\": \"%s\", "
                   "\"checkpoints\": %s, "
                   "\"setup_ms\": %.3f, \"locate_ms\": %.3f, "
                   "\"total_ms\": %.3f, \"reexecutions\": %zu, "
                   "\"ckpt_hits\": %llu, \"ckpt_misses\": %llu, "
                   "\"ckpt_stored\": %llu, \"spliced_steps\": %llu, "
                   "\"capture_ms\": %.3f, \"restore_ms\": %.3f, "
                   "\"identical_to_baseline\": %s}%s\n",
                   modeName(R.Checkpoints), R.Checkpoints ? "true" : "false",
                   R.SetupMs, R.LocateMs, R.totalMs(), R.Report.Reexecutions,
                   static_cast<unsigned long long>(R.CkptHits),
                   static_cast<unsigned long long>(R.CkptMisses),
                   static_cast<unsigned long long>(R.CkptStored),
                   static_cast<unsigned long long>(R.SplicedSteps),
                   R.CaptureMs, R.RestoreMs,
                   sameOutcome(Baseline, R) ? "true" : "false",
                   I + 1 < Runs.size() ? "," : "");
    }
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"speedup\": %.3f,\n", Speedup);
    std::fprintf(F, "  \"speedup_check\": \"reported only\",\n");
    std::fprintf(F, "  \"work_check\": \"%s\",\n", WorkOk ? "pass" : "fail");
    std::fprintf(F, "  \"deterministic\": %s\n", Identical ? "true" : "false");
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  } else {
    std::fprintf(stderr, "could not write %s\n", JsonPath);
  }

  return Identical && WorkOk ? 0 : 1;
}

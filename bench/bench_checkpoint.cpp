//===-- bench/bench_checkpoint.cpp - Checkpointed re-execution speedup ---------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Measures locateFault with checkpointed switched-run re-execution
// (docs/checkpointing.md) against the full-replay reference. The subject
// front-loads a heavy crc loop so every candidate predicate sits past
// 50% of the trace: full replay pays the whole prefix per switched run,
// while the checkpointed engine snapshots once and resumes each run
// past the recorded prefix, which it shares instead of re-interpreting.
//
// Two claims are checked:
//  - determinism (hard assertion, any machine): reports and verified
//    implicit edges are bit-identical across {off, stride 1, auto} x
//    {1, 4 threads};
//  - speedup (asserted only when the serial full-replay baseline is slow
//    enough for wall-clock ratios to be hardware-independent, mirroring
//    bench_parallel's gating): >= 2x end-to-end locate at 1 thread.
//
// A second phase sweeps the checkpoint byte budget over {4, 16, 64, 256}
// MB with delta encoding off and on, over a subject whose snapshots are
// dominated by a large array: the delta store must (a) reproduce the
// full-replay outcome bit-identically at every point, and (b) retain at
// least 4x more raw snapshot bytes per encoded byte (the effective-
// capacity claim of docs/checkpointing.md).
//
// A third phase measures the switched-run snapshot cache
// (interp::SwitchedRunStore): two locate sessions over one store with a
// seal() between them, {cache off, on} x {1, 4 threads}. The second
// session's switched runs must resume from divergence-keyed snapshots
// staged by the first, and the deterministic work counter
// verify.ckpt.switched_interpreted_steps must drop by >= 1.5x total
// across the two sessions versus cache off -- a pure counter
// comparison, asserted on any machine; wall clock is reported only.
//
// A fourth phase measures depth-2 perturbation chains (docs/chains.md):
// a fault no single switch exposes, with a heavy loop between the two
// chained predicates. With snapshot reuse on, chain runs resume from
// divergence-keyed snapshots staged by the single-switch verdict pass
// (the store's longest-matching-prefix lookup); the deterministic
// counter verify.chain.extended_steps must drop >= 1.3x versus reuse
// off, with prefix hits observed and bit-identical locate outcomes at
// 1 and 4 threads.
//
// Emits machine-readable results to BENCH_checkpoint.json,
// BENCH_checkpoint_compress.json, BENCH_switchedrun.json, and
// BENCH_chain.json.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/DebugSession.h"
#include "interp/CheckpointDiskStore.h"
#include "lang/Parser.h"
#include "support/Diagnostic.h"
#include "support/Options.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
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

const char *modeName(unsigned Checkpoints) {
  if (Checkpoints == interp::CheckpointsOff)
    return "off";
  if (Checkpoints == interp::CheckpointStrideAuto)
    return "auto";
  return "1";
}

struct RunResult {
  unsigned Threads = 0;
  unsigned Checkpoints = 0;
  double LocateMs = 0;
  LocateReport Report;
  std::vector<ddg::DepGraph::ImplicitEdge> Edges;
  uint64_t CkptHits = 0;
  uint64_t CkptMisses = 0;
  uint64_t CkptStored = 0;
  uint64_t SplicedSteps = 0;
  uint64_t AutoStride = 0;
  double RestoreMs = 0;
  double CollectMs = 0;
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

// ---- Memory-budget sweep subject -------------------------------------
//
// Snapshots here are dominated by one large array (~1 MB of globals per
// capture), and the candidate guards all run after the array-writing
// loop, so consecutive snapshots differ in a handful of slots: the
// delta encoder's best case, and exactly the shape (big slowly-mutating
// state) the adaptive store exists for.

constexpr int SweepTabSize = 65536;
constexpr int SweepGuards = 24;
constexpr int SweepRootGuard = 5;
constexpr int SweepIters = 20000;
constexpr uint32_t SweepRootLine = 3 + SweepRootGuard;

std::string sweepSubject(bool Fixed) {
  std::string Src = "fn main() {\n";                           // line 1
  Src += "var tab[" + std::to_string(SweepTabSize) + "];\n";   // line 2
  for (int G = 0; G < SweepGuards; ++G)                        // 3..26
    Src += "var c" + std::to_string(G) + " = " +
           ((Fixed && G == SweepRootGuard) ? "1" : "0") + ";\n";
  Src += "var flags = 0;\n"
         "var i = 0;\n"
         "var crc = 0;\n"
         "while (i < " + std::to_string(SweepIters) + ") {\n"
         "tab[i % " + std::to_string(SweepTabSize) + "] = crc + i;\n"
         "crc = (crc * 31 + i) % 65521;\n"
         "i = i + 1;\n"
         "}\n";
  for (int G = 0; G < SweepGuards; ++G)
    Src += "if (c" + std::to_string(G) + ") {\n" +
           "flags = flags + " + std::to_string(G + 1) + ";\n" +
           "}\n";
  Src += "print(crc);\n"
         "print(flags);\n"
         "}\n";
  return Src;
}

struct SweepResult {
  size_t BudgetMB = 0;
  bool Delta = false;
  double LocateMs = 0;
  uint64_t EncodedBytes = 0;
  uint64_t RawBytes = 0;
  uint64_t Keyframes = 0;
  uint64_t DeltasEncoded = 0;
  uint64_t Stored = 0;
  uint64_t Evictions = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  bool Identical = false;

  double ratio() const {
    return EncodedBytes ? static_cast<double>(RawBytes) /
                              static_cast<double>(EncodedBytes)
                        : 0;
  }
  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total) : 0;
  }
};

// ---- Switched-run cache subject --------------------------------------
//
// Same shape as the main subject (heavy crc prefix, then the candidate
// guards) plus a moderate tail loop *after* the guards: a switched run
// interprets the guards and the whole tail, so divergence-keyed
// snapshots captured in the tail during session 1 let session 2 resume
// past most of it. The tail is sized to what MaxSnapshots x spacing can
// cover, which is what makes the interpreted-step reduction a stable,
// machine-independent counter ratio.

constexpr int SwGuards = 10;
constexpr int SwRootGuard = 4;
constexpr int SwIters = 6000;
constexpr int SwTailIters = 6000;
constexpr uint32_t SwRootLine = 2 + SwRootGuard;
/// Each staged bundle retains the capturing run's trace up to its
/// deepest snapshot (the resume splice source), so per-guard bundles
/// here run a few MB each; an explicit generous budget keeps the grid
/// measuring resume work, not admission pressure (the byte-capped
/// admission path is covered by ParallelDeterminismTest and the unit
/// tests).
constexpr size_t SwCacheBytes = 256ull << 20;
/// A deliberately tight budget for the capped rows: admits only a
/// couple of bundles at seal, so the grid also proves that a dropping
/// cache changes work counters but never the locate outcome.
constexpr size_t SwCappedBytes = 8ull << 20;

const char *swCacheName(size_t CacheBytes) {
  if (CacheBytes == 0)
    return "off";
  return CacheBytes == SwCappedBytes ? "capped" : "on";
}

std::string switchedSubject(bool Fixed) {
  std::string Src = "fn main() {\n";                            // line 1
  for (int G = 0; G < SwGuards; ++G)                            // 2..11
    Src += "var c" + std::to_string(G) + " = " +
           ((Fixed && G == SwRootGuard) ? "1" : "0") + ";\n";
  Src += "var flags = 0;\n"
         "var i = 0;\n"
         "var crc = 0;\n"
         "while (i < " + std::to_string(SwIters) + ") {\n"
         "crc = (crc * 31 + (i % 7) * (i % 11) + 13) % 65521;\n"
         "i = i + 1;\n"
         "}\n";
  for (int G = 0; G < SwGuards; ++G)
    Src += "if (c" + std::to_string(G) + ") {\n" +
           "flags = flags + " + std::to_string(1 << G) + ";\n" +
           "}\n";
  Src += "var t = 0;\n"
         "var acc = 0;\n"
         "while (t < " + std::to_string(SwTailIters) + ") {\n"
         "acc = (acc * 13 + t) % 4093;\n"
         "t = t + 1;\n"
         "}\n"
         "print(crc);\n"
         "print(acc);\n"
         "print(flags);\n"
         "}\n";
  return Src;
}

struct SwitchedRow {
  unsigned Threads = 0;
  size_t CacheBytes = 0;
  double LocateMs = 0; ///< Both sessions, min over reps.
  uint64_t Pass1Interpreted = 0;
  uint64_t Pass2Interpreted = 0;
  uint64_t Hits = 0;
  uint64_t Promotions = 0;
  RunResult Pass1, Pass2; ///< Outcomes for the determinism check.

  uint64_t totalInterpreted() const {
    return Pass1Interpreted + Pass2Interpreted;
  }
};

// ---- Perturbation-chain subject --------------------------------------
//
// A fault no single switch exposes (the ChainSearchTest shape: the root
// guard opens g, and x needs BOTH the outer `if (g)` and the inner
// `if (t)` forced) with a heavy loop *inside* the outer guard's region,
// between the two chained predicates. The loop only executes in
// switched runs, so original-run checkpoints cannot skip it: with the
// switched-run cache off, every depth-2 chain run re-interprets it.
// With the cache on, the outer guard's single-switch run (issued by the
// verdict pass) stages divergence-keyed snapshots past the loop, and
// the chain runs resume from them through the store's longest-matching-
// prefix lookup -- verify.chain.extended_steps is the deterministic
// counter that measures exactly the interpretation the lookup avoids.

constexpr int ChainIters = 6000;
constexpr int ChainWarmupIters = 3000;
constexpr uint32_t ChainRootLine = 1;
constexpr unsigned ChainDepth = 2;
constexpr unsigned ChainBudget = 32;

std::string chainSubject(bool Fixed) {
  // The warmup loop runs in EVERY execution, failing one included: the
  // engine scales its switched-capture spacing from the original trace's
  // length, so without it (the failing run skips both guarded regions
  // and is a few dozen steps long) all snapshots would bunch up right
  // after the switch point and the prefix hit would save nothing.
  std::string Src;
  Src += std::string("var t = ") + (Fixed ? "1" : "0") + ";\n"; // 1: root
  Src += "var g = 0;\n"                                         // 2
         "fn main() {\n"                                        // 3
         "var w = 0;\n"
         "var burn = 0;\n"
         "while (w < " + std::to_string(ChainWarmupIters) + ") {\n"
         "burn = (burn * 7 + w) % 9973;\n"
         "w = w + 1;\n"
         "}\n"
         "if (t) {\n" // 10: opens g
         "g = 1;\n"
         "}\n"
         "var x = 0;\n"
         "var acc = 0;\n"
         "if (g) {\n" // 15: q, the chain's base
         "var i = 0;\n"
         "while (i < " + std::to_string(ChainIters) + ") {\n"
         "acc = (acc * 31 + i) % 65521;\n"
         "i = i + 1;\n"
         "}\n"
         "if (t) {\n" // 21: r, the chain's extension
         "x = 1;\n"
         "}\n"
         "}\n"
         "print(x);\n"
         "}\n";
  return Src;
}

struct ChainRow {
  unsigned Threads = 0;
  bool Reuse = false;
  double LocateMs = 0;
  uint64_t ChainRuns = 0;
  uint64_t ExtendedSteps = 0;
  uint64_t PrefixHits = 0;
  uint64_t Searches = 0;
  uint64_t Commits = 0;
  RunResult Outcome;
};

} // namespace

int main(int Argc, char **Argv) {
  // Flags come from the shared parser (--checkpoint-dir=DIR persists the
  // shared checkpoint store across bench invocations; CI runs the bench
  // twice over one directory). The bench-specific --expect-disk-hits
  // asserts the warm run actually resumed switched runs from
  // disk-loaded snapshots.
  eoe::Options CliOpt;
  bool ExpectDiskHits = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::string(Argv[I]) == "--expect-disk-hits") {
      ExpectDiskHits = true;
      continue;
    }
    if (support::parseCommonOption(Argc, Argv, I, CliOpt) ==
        support::ParseResult::Ok)
      continue;
    std::fprintf(stderr,
                 "usage: bench_checkpoint [--expect-disk-hits] "
                 "[common options]\n%s",
                 support::commonOptionsHelp());
    return 2;
  }
  const std::string &CheckpointDir = CliOpt.Reuse.CheckpointDir;

  bench::banner("Checkpointed switched-run re-execution: locateFault "
                "wall-clock, snapshot/resume vs full prefix replay "
                "(bit-identical results required)");

  // One process-wide shared store: with a cache directory it is loaded
  // by every session and saved once per subject at the end, so a second
  // bench invocation warm-starts (verify.ckpt.disk_hits > 0) while all
  // results stay bit-identical to the cold run.
  interp::SharedCheckpointStore Shared;
  uint64_t TotalDiskHits = 0, TotalDiskLoads = 0;

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

  const unsigned Hardware = std::thread::hardware_concurrency();
  std::vector<RunResult> Runs;
  size_t TraceLen = 0;
  for (unsigned Threads : {1u, 4u}) {
    for (unsigned Checkpoints :
         {interp::CheckpointsOff, 1u, interp::CheckpointStrideAuto}) {
      // The container this smoke runs on is shared and noisy (single-run
      // baselines here have been observed to swing by 1.8x). Time the
      // 1-thread rows -- the ones the speedup gate reads -- as the min of
      // three runs; the 4-thread rows are informational only.
      const int Reps = Threads == 1 ? 3 : 1;
      RunResult R;
      R.Threads = Threads;
      R.Checkpoints = Checkpoints;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        support::StatsRegistry Stats;
        DebugSession::Config C;
        C.Opt.Exec.Threads = Threads;
        C.Opt.Reuse.Checkpoints = Checkpoints;
        C.Opt.Exec.Stats = &Stats;
        if (!CheckpointDir.empty()) {
          C.SharedCheckpoints = &Shared;
          C.Opt.Reuse.CheckpointDir = CheckpointDir;
        }
        DebugSession Session(*Faulty, {}, Expected, {}, C);
        if (!Session.hasFailure()) {
          std::fprintf(stderr, "fault did not reproduce\n");
          return 1;
        }
        TraceLen = Session.trace().size();
        RootOnlyOracle Oracle(Root);

        Timer LocateTimer;
        LocateReport Out = Session.locate(Oracle);
        double Ms = LocateTimer.seconds() * 1000;
        TotalDiskHits += Stats.counter("verify.ckpt.disk_hits").get();
        TotalDiskLoads += Stats.counter("verify.ckpt.disk_loads").get();
        if (!Out.RootCauseFound) {
          std::fprintf(stderr, "root cause not found (threads=%u ckpt=%s)\n",
                       Threads, modeName(Checkpoints));
          return 1;
        }
        if (Rep > 0 && Ms >= R.LocateMs)
          continue;
        R.LocateMs = Ms;
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
        R.AutoStride = Counter("verify.ckpt.auto_stride");
        // The state restore inside the resumed runs.
        R.RestoreMs = TimerMs("interp.splice_time");
        R.CollectMs = TimerMs("verify.ckpt.collect_time");
      }
      Runs.push_back(std::move(R));
    }
  }

  // Determinism first: every mode must reproduce the full-replay serial
  // outcome exactly. This is the hard claim; it holds on any machine.
  const RunResult &Baseline = Runs.front(); // threads=1, checkpoints off
  bool Identical = true;
  for (const RunResult &R : Runs)
    Identical = Identical && sameOutcome(Baseline, R);

  Table T({"threads", "ckpt", "locate (ms)", "speedup", "hits", "misses",
           "spliced steps", "stride", "restore (ms)", "collect (ms)",
           "identical"});
  for (const RunResult &R : Runs) {
    double Speedup = R.LocateMs > 0 ? Baseline.LocateMs / R.LocateMs : 0;
    T.addRow({std::to_string(R.Threads), modeName(R.Checkpoints),
              formatDouble(R.LocateMs, 2), formatDouble(Speedup, 2),
              std::to_string(R.CkptHits), std::to_string(R.CkptMisses),
              std::to_string(R.SplicedSteps),
              R.AutoStride ? std::to_string(R.AutoStride) : "-",
              formatDouble(R.RestoreMs, 2), formatDouble(R.CollectMs, 2),
              sameOutcome(Baseline, R) ? "yes" : "NO"});
  }
  std::printf("%s", T.str().c_str());
  std::printf("\nsubject: %d candidate predicates past a %d-iteration crc "
              "prefix, trace length %zu, hardware_concurrency %u\n",
              GuardCount, LoopIters, TraceLen, Hardware);

  // Wall-clock speedup (stride 1 vs off) is reported but not asserted:
  // on a loaded single-core container the off-baseline swings by 1.8x
  // run to run, and the true quiet-machine ratio is set by how fast a
  // resume is relative to re-interpreting the prefix -- a machine
  // property, not an algorithm property. What the subsystem
  // *guarantees* is deterministic and asserted below instead: every
  // switched run resumes from a snapshot (no misses), and resuming
  // skips at least half of each switched run's interpretation (the
  // subject puts every candidate past 50% of the trace).
  double Speedup1 = 0, Speedup4 = 0;
  double Base4 = 0, Ckpt4 = 0;
  for (const RunResult &R : Runs) {
    if (R.Threads == 1 && R.Checkpoints == 1u && R.LocateMs > 0)
      Speedup1 = Baseline.LocateMs / R.LocateMs;
    if (R.Threads == 4 && R.Checkpoints == interp::CheckpointsOff)
      Base4 = R.LocateMs;
    if (R.Threads == 4 && R.Checkpoints == 1u)
      Ckpt4 = R.LocateMs;
  }
  if (Ckpt4 > 0)
    Speedup4 = Base4 / Ckpt4;
  bool WorkOk = true;
  for (const RunResult &R : Runs) {
    if (R.Checkpoints == interp::CheckpointsOff)
      continue;
    const uint64_t MinSpliced =
        static_cast<uint64_t>(GuardCount) * TraceLen / 2;
    if (R.CkptMisses != 0 ||
        R.CkptHits != static_cast<uint64_t>(GuardCount) ||
        R.SplicedSteps < MinSpliced) {
      WorkOk = false;
      std::printf("work assertion FAILED (threads=%u ckpt=%s): hits=%llu "
                  "(want %d) misses=%llu (want 0) spliced=%llu (want >= "
                  "%llu)\n",
                  R.Threads, modeName(R.Checkpoints),
                  static_cast<unsigned long long>(R.CkptHits), GuardCount,
                  static_cast<unsigned long long>(R.CkptMisses),
                  static_cast<unsigned long long>(R.SplicedSteps),
                  static_cast<unsigned long long>(MinSpliced));
    }
  }
  std::printf("speedup at 1 thread (ckpt on vs off, min of 3): %sx "
              "(reported, not asserted)\n",
              formatDouble(Speedup1, 2).c_str());
  std::printf("speedup at 4 threads (ckpt on vs off): %sx\n",
              formatDouble(Speedup4, 2).c_str());
  std::printf("re-execution work avoided: %d/%d switched runs resumed from "
              "snapshots, >= 50%% of each spliced instead of "
              "re-interpreted: %s\n",
              GuardCount, GuardCount, WorkOk ? "PASS" : "FAIL");
  std::printf("determinism across modes and thread counts: %s\n",
              Identical ? "BIT-IDENTICAL" : "MISMATCH (bug!)");

  // Machine-readable results.
  const char *JsonPath = "BENCH_checkpoint.json";
  if (std::FILE *F = std::fopen(JsonPath, "w")) {
    std::fprintf(F, "{\n");
    std::fprintf(F, "  \"bench\": \"bench_checkpoint\",\n");
    std::fprintf(F, "  \"hardware_concurrency\": %u,\n", Hardware);
    std::fprintf(F,
                 "  \"subject\": {\"candidate_predicates\": %d, "
                 "\"loop_iters\": %d, \"trace_len\": %zu},\n",
                 GuardCount, LoopIters, TraceLen);
    std::fprintf(F, "  \"runs\": [\n");
    for (size_t I = 0; I < Runs.size(); ++I) {
      const RunResult &R = Runs[I];
      std::fprintf(F,
                   "    {\"threads\": %u, \"mode\": \"%s\", "
                   "\"checkpoints\": %s, "
                   "\"locate_ms\": %.3f, \"reexecutions\": %zu, "
                   "\"ckpt_hits\": %llu, \"ckpt_misses\": %llu, "
                   "\"ckpt_stored\": %llu, \"spliced_steps\": %llu, "
                   "\"auto_stride\": %llu, "
                   "\"restore_ms\": %.3f, \"collect_ms\": %.3f, "
                   "\"identical_to_baseline\": %s}%s\n",
                   R.Threads, modeName(R.Checkpoints),
                   R.Checkpoints != interp::CheckpointsOff ? "true" : "false",
                   R.LocateMs, R.Report.Reexecutions,
                   static_cast<unsigned long long>(R.CkptHits),
                   static_cast<unsigned long long>(R.CkptMisses),
                   static_cast<unsigned long long>(R.CkptStored),
                   static_cast<unsigned long long>(R.SplicedSteps),
                   static_cast<unsigned long long>(R.AutoStride),
                   R.RestoreMs, R.CollectMs,
                   sameOutcome(Baseline, R) ? "true" : "false",
                   I + 1 < Runs.size() ? "," : "");
    }
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"speedup_1t\": %.3f,\n", Speedup1);
    std::fprintf(F, "  \"speedup_4t\": %.3f,\n", Speedup4);
    std::fprintf(F, "  \"speedup_check\": \"reported only\",\n");
    std::fprintf(F, "  \"work_check\": \"%s\",\n", WorkOk ? "pass" : "fail");
    std::fprintf(F, "  \"deterministic\": %s\n", Identical ? "true" : "false");
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  } else {
    std::fprintf(stderr, "could not write %s\n", JsonPath);
  }

  // ---- Phase 2: memory-budget x delta-encoding sweep -----------------

  bench::banner("Delta-compressed snapshots: byte budget sweep "
                "(compression ratio and resume hit rate, bit-identical "
                "results required)");

  auto SweepFixed = lang::parseAndCheck(sweepSubject(/*Fixed=*/true), Diags);
  auto SweepFaulty = lang::parseAndCheck(sweepSubject(/*Fixed=*/false), Diags);
  if (!SweepFixed || !SweepFaulty) {
    std::fprintf(stderr, "sweep parse error:\n%s", Diags.str().c_str());
    return 1;
  }
  analysis::StaticAnalysis SweepFixedSA(*SweepFixed);
  interp::Interpreter SweepFixedInterp(*SweepFixed, SweepFixedSA);
  std::vector<int64_t> SweepExpected = SweepFixedInterp.run({}).outputValues();
  StmtId SweepRoot = SweepFaulty->statementAtLine(SweepRootLine);
  if (!isValidId(SweepRoot)) {
    std::fprintf(stderr, "no statement at sweep root line %u\n",
                 SweepRootLine);
    return 1;
  }

  std::vector<SweepResult> Sweeps;
  std::vector<RunResult> SweepRunOutcomes;

  // Full-replay reference outcome for the sweep subject.
  SweepResult RefRow;
  {
    support::StatsRegistry Stats;
    DebugSession::Config C;
    C.Opt.Exec.Threads = 1;
    C.Opt.Reuse.Checkpoints = interp::CheckpointsOff;
    C.Opt.Exec.Stats = &Stats;
    DebugSession Session(*SweepFaulty, {}, SweepExpected, {}, C);
    if (!Session.hasFailure()) {
      std::fprintf(stderr, "sweep fault did not reproduce\n");
      return 1;
    }
    RootOnlyOracle Oracle(SweepRoot);
    Timer LocateTimer;
    RunResult Ref;
    Ref.Report = Session.locate(Oracle);
    TotalDiskHits += Stats.counter("verify.ckpt.disk_hits").get();
    TotalDiskLoads += Stats.counter("verify.ckpt.disk_loads").get();
    RefRow.LocateMs = LocateTimer.seconds() * 1000;
    Ref.Edges = Session.graph().implicitEdges();
    if (!Ref.Report.RootCauseFound) {
      std::fprintf(stderr, "sweep reference did not find the root cause\n");
      return 1;
    }
    SweepRunOutcomes.push_back(std::move(Ref));
  }
  const RunResult &SweepBaseline = SweepRunOutcomes.front();

  bool SweepOk = true;
  double MaxDeltaRatio = 0;
  for (size_t BudgetMB : {4ull, 16ull, 64ull, 256ull}) {
    for (bool Delta : {false, true}) {
      SweepResult Row;
      Row.BudgetMB = BudgetMB;
      Row.Delta = Delta;
      support::StatsRegistry Stats;
      DebugSession::Config C;
      C.Opt.Exec.Threads = 1;
      C.Opt.Reuse.Checkpoints = 1; // every candidate: maximal store pressure
      C.Opt.Reuse.CheckpointMemBytes = BudgetMB << 20;
      C.Opt.Reuse.CheckpointDelta = Delta;
      C.Opt.Exec.Stats = &Stats;
      if (!CheckpointDir.empty()) {
        C.SharedCheckpoints = &Shared;
        C.Opt.Reuse.CheckpointDir = CheckpointDir;
      }
      DebugSession Session(*SweepFaulty, {}, SweepExpected, {}, C);
      if (!Session.hasFailure()) {
        std::fprintf(stderr, "sweep fault did not reproduce\n");
        return 1;
      }
      RootOnlyOracle Oracle(SweepRoot);
      Timer LocateTimer;
      RunResult Outcome;
      Outcome.Report = Session.locate(Oracle);
      Row.LocateMs = LocateTimer.seconds() * 1000;
      TotalDiskHits += Stats.counter("verify.ckpt.disk_hits").get();
      TotalDiskLoads += Stats.counter("verify.ckpt.disk_loads").get();
      Outcome.Edges = Session.graph().implicitEdges();
      support::StatsSnapshot S = Stats.snapshot();
      auto Counter = [&](const char *Key) {
        auto It = S.Counters.find(Key);
        return It == S.Counters.end() ? uint64_t(0) : It->second;
      };
      Row.EncodedBytes = Counter("verify.ckpt.encoded_bytes");
      Row.RawBytes = Counter("verify.ckpt.raw_bytes");
      Row.Keyframes = Counter("verify.ckpt.keyframes");
      Row.DeltasEncoded = Counter("verify.ckpt.delta_encoded");
      Row.Stored = Counter("verify.ckpt.stored");
      Row.Evictions = Counter("verify.ckpt.evictions");
      Row.Hits = Counter("verify.ckpt.hits");
      Row.Misses = Counter("verify.ckpt.misses");
      Row.Identical = Outcome.Report.RootCauseFound &&
                      sameOutcome(SweepBaseline, Outcome);
      SweepOk = SweepOk && Row.Identical;
      if (Delta)
        MaxDeltaRatio = std::max(MaxDeltaRatio, Row.ratio());
      Sweeps.push_back(Row);
    }
  }

  Table ST({"budget (MB)", "delta", "locate (ms)", "stored", "evictions",
            "keyframes", "deltas", "raw (MB)", "encoded (MB)", "ratio",
            "hits", "misses", "hit rate", "identical"});
  for (const SweepResult &Row : Sweeps)
    ST.addRow({std::to_string(Row.BudgetMB), Row.Delta ? "on" : "off",
               formatDouble(Row.LocateMs, 2), std::to_string(Row.Stored),
               std::to_string(Row.Evictions), std::to_string(Row.Keyframes),
               std::to_string(Row.DeltasEncoded),
               formatDouble(static_cast<double>(Row.RawBytes) / (1 << 20), 2),
               formatDouble(static_cast<double>(Row.EncodedBytes) / (1 << 20),
                            2),
               formatDouble(Row.ratio(), 2), std::to_string(Row.Hits),
               std::to_string(Row.Misses), formatDouble(Row.hitRate(), 2),
               Row.Identical ? "yes" : "NO"});
  std::printf("%s", ST.str().c_str());
  const bool RatioOk = MaxDeltaRatio >= 4.0;
  std::printf("\nsweep subject: %d guards behind a %d-slot array, "
              "best delta compression ratio %sx (required >= 4x): %s\n",
              SweepGuards, SweepTabSize,
              formatDouble(MaxDeltaRatio, 2).c_str(),
              RatioOk ? "PASS" : "FAIL");
  std::printf("sweep determinism vs full replay: %s\n",
              SweepOk ? "BIT-IDENTICAL" : "MISMATCH (bug!)");

  const char *SweepJsonPath = "BENCH_checkpoint_compress.json";
  if (std::FILE *F = std::fopen(SweepJsonPath, "w")) {
    std::fprintf(F, "{\n");
    std::fprintf(F, "  \"bench\": \"bench_checkpoint_compress\",\n");
    std::fprintf(F,
                 "  \"subject\": {\"guards\": %d, \"tab_slots\": %d, "
                 "\"loop_iters\": %d},\n",
                 SweepGuards, SweepTabSize, SweepIters);
    std::fprintf(F, "  \"rows\": [\n");
    for (size_t I = 0; I < Sweeps.size(); ++I) {
      const SweepResult &Row = Sweeps[I];
      std::fprintf(
          F,
          "    {\"budget_mb\": %zu, \"delta\": %s, \"locate_ms\": %.3f, "
          "\"stored\": %llu, \"evictions\": %llu, \"keyframes\": %llu, "
          "\"deltas\": %llu, \"raw_bytes\": %llu, \"encoded_bytes\": %llu, "
          "\"compression_ratio\": %.3f, \"hits\": %llu, \"misses\": %llu, "
          "\"hit_rate\": %.3f, \"identical_to_baseline\": %s}%s\n",
          Row.BudgetMB, Row.Delta ? "true" : "false", Row.LocateMs,
          static_cast<unsigned long long>(Row.Stored),
          static_cast<unsigned long long>(Row.Evictions),
          static_cast<unsigned long long>(Row.Keyframes),
          static_cast<unsigned long long>(Row.DeltasEncoded),
          static_cast<unsigned long long>(Row.RawBytes),
          static_cast<unsigned long long>(Row.EncodedBytes), Row.ratio(),
          static_cast<unsigned long long>(Row.Hits),
          static_cast<unsigned long long>(Row.Misses), Row.hitRate(),
          Row.Identical ? "true" : "false",
          I + 1 < Sweeps.size() ? "," : "");
    }
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"max_delta_compression_ratio\": %.3f,\n",
                 MaxDeltaRatio);
    std::fprintf(F, "  \"ratio_check\": \"%s\",\n", RatioOk ? "pass" : "fail");
    std::fprintf(F, "  \"deterministic\": %s\n", SweepOk ? "true" : "false");
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("wrote %s\n", SweepJsonPath);
  } else {
    std::fprintf(stderr, "could not write %s\n", SweepJsonPath);
  }

  // ---- Phase 3: switched-run snapshot cache grid ---------------------

  bench::banner("Switched-run snapshot cache: two locate sessions around a "
                "seal, cache {off, capped, on} x {1, 4 threads} "
                "(bit-identical results required; >= 1.5x interpreted-step "
                "reduction required for the uncapped rows)");

  auto SwFixed = lang::parseAndCheck(switchedSubject(/*Fixed=*/true), Diags);
  auto SwFaulty = lang::parseAndCheck(switchedSubject(/*Fixed=*/false), Diags);
  if (!SwFixed || !SwFaulty) {
    std::fprintf(stderr, "switched parse error:\n%s", Diags.str().c_str());
    return 1;
  }
  analysis::StaticAnalysis SwFixedSA(*SwFixed);
  interp::Interpreter SwFixedInterp(*SwFixed, SwFixedSA);
  std::vector<int64_t> SwExpected = SwFixedInterp.run({}).outputValues();
  StmtId SwRoot = SwFaulty->statementAtLine(SwRootLine);
  if (!isValidId(SwRoot)) {
    std::fprintf(stderr, "no statement at switched root line %u\n", SwRootLine);
    return 1;
  }

  std::vector<SwitchedRow> SwRows;
  for (unsigned Threads : {1u, 4u}) {
    for (size_t CacheBytes : {size_t(0), SwCappedBytes, SwCacheBytes}) {
      const int Reps = Threads == 1 ? 3 : 1;
      SwitchedRow Row;
      Row.Threads = Threads;
      Row.CacheBytes = CacheBytes;
      for (int Rep = 0; Rep < Reps; ++Rep) {
        // Fresh store per rep: session 1 stages cold, seal() makes the
        // bundles visible, session 2 resumes from them.
        interp::SwitchedRunStore SwStore(CacheBytes ? CacheBytes : 1);
        Timer GridTimer;
        RunResult Passes[2];
        uint64_t Interpreted[2] = {0, 0};
        uint64_t Hits = 0, Promotions = 0;
        for (int Pass = 0; Pass < 2; ++Pass) {
          support::StatsRegistry Stats;
          DebugSession::Config C;
          C.Opt.Exec.Threads = Threads;
          C.Opt.Reuse.Checkpoints = 1;
          C.Opt.Exec.Stats = &Stats;
          // Explicitly zero in the off rows: the config default is on.
          C.Opt.Reuse.SwitchedCacheBytes = CacheBytes;
          if (CacheBytes > 0)
            C.SwitchedRuns = &SwStore;
          DebugSession Session(*SwFaulty, {}, SwExpected, {}, C);
          if (!Session.hasFailure()) {
            std::fprintf(stderr, "switched fault did not reproduce\n");
            return 1;
          }
          RootOnlyOracle Oracle(SwRoot);
          Passes[Pass].Report = Session.locate(Oracle);
          Passes[Pass].Edges = Session.graph().implicitEdges();
          if (!Passes[Pass].Report.RootCauseFound) {
            std::fprintf(stderr,
                         "switched root cause not found (threads=%u pass=%d)\n",
                         Threads, Pass + 1);
            return 1;
          }
          Interpreted[Pass] =
              Stats.counter("verify.ckpt.switched_interpreted_steps").get();
          Hits += Stats.counter("verify.ckpt.switched_hits").get();
          Promotions += Stats.counter("verify.ckpt.switched_promotions").get();
          if (Pass == 0 && CacheBytes > 0)
            SwStore.seal();
        }
        double Ms = GridTimer.seconds() * 1000;
        if (Rep > 0 && Ms >= Row.LocateMs)
          continue;
        Row.LocateMs = Ms;
        Row.Pass1 = std::move(Passes[0]);
        Row.Pass2 = std::move(Passes[1]);
        Row.Pass1Interpreted = Interpreted[0];
        Row.Pass2Interpreted = Interpreted[1];
        Row.Hits = Hits;
        Row.Promotions = Promotions;
      }
      SwRows.push_back(std::move(Row));
    }
  }

  // Determinism: both passes of every row must match the serial
  // cache-off reference, and the cache's work counters must not depend
  // on the thread count.
  const SwitchedRow &SwBaseline = SwRows.front(); // threads=1, cache off
  bool SwIdentical = true;
  for (const SwitchedRow &Row : SwRows)
    SwIdentical = SwIdentical && sameOutcome(SwBaseline.Pass1, Row.Pass1) &&
                  sameOutcome(SwBaseline.Pass1, Row.Pass2);
  bool SwCountersStable = true;
  for (const SwitchedRow &A : SwRows)
    for (const SwitchedRow &B : SwRows)
      if (A.CacheBytes == B.CacheBytes &&
          (A.Hits != B.Hits || A.Promotions != B.Promotions ||
           A.totalInterpreted() != B.totalInterpreted()))
        SwCountersStable = false;

  // The acceptance ratio: interpreted switched-run steps, cache on vs
  // off, summed over both sessions at the same thread count. The capped
  // rows only have to stay bit-identical — a dropping cache may admit
  // too few bundles to hit the ratio.
  double Reduction1 = 0, Reduction4 = 0;
  bool SwHitsOk = true;
  for (const SwitchedRow &Row : SwRows) {
    if (Row.CacheBytes != SwCacheBytes)
      continue;
    const SwitchedRow *Off = nullptr;
    for (const SwitchedRow &O : SwRows)
      if (O.Threads == Row.Threads && O.CacheBytes == 0)
        Off = &O;
    double R = Row.totalInterpreted()
                   ? static_cast<double>(Off->totalInterpreted()) /
                         static_cast<double>(Row.totalInterpreted())
                   : 0;
    (Row.Threads == 1 ? Reduction1 : Reduction4) = R;
    SwHitsOk = SwHitsOk && Row.Hits > 0 && Row.Promotions > 0;
  }
  const bool ReductionOk = Reduction1 >= 1.5 && Reduction4 >= 1.5;

  Table SwT({"threads", "cache", "locate 2x (ms)", "interp steps p1",
             "interp steps p2", "reduction", "hits", "promotions",
             "identical"});
  for (const SwitchedRow &Row : SwRows) {
    const SwitchedRow *Off = nullptr;
    for (const SwitchedRow &O : SwRows)
      if (O.Threads == Row.Threads && O.CacheBytes == 0)
        Off = &O;
    double R = Row.totalInterpreted()
                   ? static_cast<double>(Off->totalInterpreted()) /
                         static_cast<double>(Row.totalInterpreted())
                   : 0;
    SwT.addRow({std::to_string(Row.Threads),
                swCacheName(Row.CacheBytes), formatDouble(Row.LocateMs, 2),
                std::to_string(Row.Pass1Interpreted),
                std::to_string(Row.Pass2Interpreted), formatDouble(R, 2),
                std::to_string(Row.Hits), std::to_string(Row.Promotions),
                sameOutcome(SwBaseline.Pass1, Row.Pass2) ? "yes" : "NO"});
  }
  std::printf("%s", SwT.str().c_str());
  std::printf("\nswitched subject: %d guards past a %d-iteration crc prefix, "
              "%d-iteration tail after the guards\n",
              SwGuards, SwIters, SwTailIters);
  std::printf("interpreted-step reduction (cache on vs off, both sessions): "
              "%sx at 1 thread, %sx at 4 threads (required >= 1.5x): %s\n",
              formatDouble(Reduction1, 2).c_str(),
              formatDouble(Reduction4, 2).c_str(),
              ReductionOk ? "PASS" : "FAIL");
  std::printf("switched-run determinism (cache off/capped/on, 1/4 threads, "
              "both sessions): %s\n",
              SwIdentical ? "BIT-IDENTICAL" : "MISMATCH (bug!)");
  std::printf("cache work counters thread-count invariant: %s\n",
              SwCountersStable ? "yes" : "NO (bug!)");

  const char *SwJsonPath = "BENCH_switchedrun.json";
  if (std::FILE *F = std::fopen(SwJsonPath, "w")) {
    std::fprintf(F, "{\n");
    std::fprintf(F, "  \"bench\": \"bench_switchedrun\",\n");
    std::fprintf(F,
                 "  \"subject\": {\"guards\": %d, \"prefix_iters\": %d, "
                 "\"tail_iters\": %d},\n",
                 SwGuards, SwIters, SwTailIters);
    std::fprintf(F, "  \"rows\": [\n");
    for (size_t I = 0; I < SwRows.size(); ++I) {
      const SwitchedRow &Row = SwRows[I];
      std::fprintf(
          F,
          "    {\"threads\": %u, \"cache\": \"%s\", \"cache_mb\": %llu, "
          "\"locate_ms\": %.3f, "
          "\"interpreted_steps_pass1\": %llu, "
          "\"interpreted_steps_pass2\": %llu, \"hits\": %llu, "
          "\"promotions\": %llu, \"identical_to_baseline\": %s}%s\n",
          Row.Threads, swCacheName(Row.CacheBytes),
          static_cast<unsigned long long>(Row.CacheBytes >> 20), Row.LocateMs,
          static_cast<unsigned long long>(Row.Pass1Interpreted),
          static_cast<unsigned long long>(Row.Pass2Interpreted),
          static_cast<unsigned long long>(Row.Hits),
          static_cast<unsigned long long>(Row.Promotions),
          sameOutcome(SwBaseline.Pass1, Row.Pass2) ? "true" : "false",
          I + 1 < SwRows.size() ? "," : "");
    }
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"reduction_1t\": %.3f,\n", Reduction1);
    std::fprintf(F, "  \"reduction_4t\": %.3f,\n", Reduction4);
    std::fprintf(F, "  \"reduction_check\": \"%s\",\n",
                 ReductionOk ? "pass" : "fail");
    std::fprintf(F, "  \"deterministic\": %s\n",
                 SwIdentical && SwCountersStable ? "true" : "false");
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("wrote %s\n", SwJsonPath);
  } else {
    std::fprintf(stderr, "could not write %s\n", SwJsonPath);
  }

  // ---- Phase 4: multi-switch perturbation chains ---------------------

  bench::banner("Perturbation chains: depth-2 chain search, snapshot reuse "
                "{off, on} x {1, 4 threads} (bit-identical results "
                "required; >= 1.3x extended-step reduction and prefix "
                "hits required for the reuse rows)");

  auto ChFixed = lang::parseAndCheck(chainSubject(/*Fixed=*/true), Diags);
  auto ChFaulty = lang::parseAndCheck(chainSubject(/*Fixed=*/false), Diags);
  if (!ChFixed || !ChFaulty) {
    std::fprintf(stderr, "chain parse error:\n%s", Diags.str().c_str());
    return 1;
  }
  analysis::StaticAnalysis ChFixedSA(*ChFixed);
  interp::Interpreter ChFixedInterp(*ChFixed, ChFixedSA);
  std::vector<int64_t> ChExpected = ChFixedInterp.run({}).outputValues();
  StmtId ChRoot = ChFaulty->statementAtLine(ChainRootLine);
  if (!isValidId(ChRoot)) {
    std::fprintf(stderr, "no statement at chain root line %u\n",
                 ChainRootLine);
    return 1;
  }

  std::vector<ChainRow> ChRows;
  for (unsigned Threads : {1u, 4u}) {
    for (bool Reuse : {false, true}) {
      ChainRow Row;
      Row.Threads = Threads;
      Row.Reuse = Reuse;
      // One store per cell: the verdict pass stages the single-switch
      // bundles, ChainSearch seals before each frontier depth, and the
      // chain runs look them up -- all inside one locate call.
      interp::SwitchedRunStore ChStore(interp::DefaultSwitchedCacheBytes);
      support::StatsRegistry Stats;
      DebugSession::Config C;
      C.Opt.Exec.Threads = Threads;
      C.Opt.Exec.Stats = &Stats;
      C.Opt.Reuse.ChainDepth = ChainDepth;
      C.Opt.Reuse.ChainBudget = ChainBudget;
      C.Opt.Reuse.SwitchedCacheBytes =
          Reuse ? interp::DefaultSwitchedCacheBytes : 0;
      if (Reuse)
        C.SwitchedRuns = &ChStore;
      DebugSession Session(*ChFaulty, {}, ChExpected, {}, C);
      if (!Session.hasFailure()) {
        std::fprintf(stderr, "chain fault did not reproduce\n");
        return 1;
      }
      RootOnlyOracle Oracle(ChRoot);
      Timer LocateTimer;
      Row.Outcome.Report = Session.locate(Oracle);
      Row.LocateMs = LocateTimer.seconds() * 1000;
      Row.Outcome.Edges = Session.graph().implicitEdges();
      if (!Row.Outcome.Report.RootCauseFound) {
        std::fprintf(stderr,
                     "chain root cause not found (threads=%u reuse=%s)\n",
                     Threads, Reuse ? "on" : "off");
        return 1;
      }
      Row.ChainRuns = Stats.counter("verify.chain.runs").get();
      Row.ExtendedSteps = Stats.counter("verify.chain.extended_steps").get();
      Row.PrefixHits = Stats.counter("verify.chain.prefix_hits").get();
      Row.Searches = Stats.counter("locate.chain.searches").get();
      Row.Commits = Stats.counter("locate.chain.commits").get();
      ChRows.push_back(std::move(Row));
    }
  }

  // Determinism: reuse on/off and thread count change chain *work*, not
  // any locate outcome, and the chain counters themselves are invariant
  // across thread counts at fixed reuse config.
  const ChainRow &ChBaseline = ChRows.front(); // threads=1, reuse off
  bool ChIdentical = true;
  for (const ChainRow &Row : ChRows)
    ChIdentical = ChIdentical && sameOutcome(ChBaseline.Outcome, Row.Outcome);
  bool ChCountersStable = true;
  for (const ChainRow &A : ChRows)
    for (const ChainRow &B : ChRows)
      if (A.Reuse == B.Reuse &&
          (A.ChainRuns != B.ChainRuns || A.ExtendedSteps != B.ExtendedSteps ||
           A.PrefixHits != B.PrefixHits || A.Commits != B.Commits))
        ChCountersStable = false;

  // The acceptance ratio: chain steps actually interpreted, reuse off vs
  // on, per thread count.
  double ChReduction1 = 0, ChReduction4 = 0;
  bool ChPrefixOk = true;
  for (const ChainRow &Row : ChRows) {
    if (!Row.Reuse)
      continue;
    const ChainRow *Off = nullptr;
    for (const ChainRow &O : ChRows)
      if (O.Threads == Row.Threads && !O.Reuse)
        Off = &O;
    double R = Row.ExtendedSteps
                   ? static_cast<double>(Off->ExtendedSteps) /
                         static_cast<double>(Row.ExtendedSteps)
                   : 0;
    (Row.Threads == 1 ? ChReduction1 : ChReduction4) = R;
    ChPrefixOk = ChPrefixOk && Row.PrefixHits > 0;
  }
  const bool ChReductionOk = ChReduction1 >= 1.3 && ChReduction4 >= 1.3;

  Table ChT({"threads", "reuse", "locate (ms)", "chain runs", "ext steps",
             "reduction", "prefix hits", "searches", "commits", "identical"});
  for (const ChainRow &Row : ChRows) {
    const ChainRow *Off = nullptr;
    for (const ChainRow &O : ChRows)
      if (O.Threads == Row.Threads && !O.Reuse)
        Off = &O;
    double R = Row.ExtendedSteps
                   ? static_cast<double>(Off->ExtendedSteps) /
                         static_cast<double>(Row.ExtendedSteps)
                   : 0;
    ChT.addRow({std::to_string(Row.Threads), Row.Reuse ? "on" : "off",
                formatDouble(Row.LocateMs, 2), std::to_string(Row.ChainRuns),
                std::to_string(Row.ExtendedSteps), formatDouble(R, 2),
                std::to_string(Row.PrefixHits), std::to_string(Row.Searches),
                std::to_string(Row.Commits),
                sameOutcome(ChBaseline.Outcome, Row.Outcome) ? "yes" : "NO"});
  }
  std::printf("%s", ChT.str().c_str());
  std::printf("\nchain subject: depth-%u chain over a %d-iteration loop "
              "inside the base guard's region\n",
              ChainDepth, ChainIters);
  std::printf("chain extended-step reduction (reuse on vs off): %sx at 1 "
              "thread, %sx at 4 threads (required >= 1.3x): %s\n",
              formatDouble(ChReduction1, 2).c_str(),
              formatDouble(ChReduction4, 2).c_str(),
              ChReductionOk ? "PASS" : "FAIL");
  std::printf("chain prefix hits in every reuse row: %s\n",
              ChPrefixOk ? "PASS" : "FAIL");
  std::printf("chain determinism (reuse off/on, 1/4 threads): %s\n",
              ChIdentical && ChCountersStable ? "BIT-IDENTICAL"
                                              : "MISMATCH (bug!)");

  const char *ChJsonPath = "BENCH_chain.json";
  if (std::FILE *F = std::fopen(ChJsonPath, "w")) {
    std::fprintf(F, "{\n");
    std::fprintf(F, "  \"bench\": \"bench_chain\",\n");
    std::fprintf(F,
                 "  \"subject\": {\"chain_depth\": %u, \"chain_budget\": %u, "
                 "\"loop_iters\": %d},\n",
                 ChainDepth, ChainBudget, ChainIters);
    std::fprintf(F, "  \"rows\": [\n");
    for (size_t I = 0; I < ChRows.size(); ++I) {
      const ChainRow &Row = ChRows[I];
      std::fprintf(
          F,
          "    {\"threads\": %u, \"reuse\": %s, \"locate_ms\": %.3f, "
          "\"chain_runs\": %llu, \"extended_steps\": %llu, "
          "\"prefix_hits\": %llu, \"searches\": %llu, \"commits\": %llu, "
          "\"identical_to_baseline\": %s}%s\n",
          Row.Threads, Row.Reuse ? "true" : "false", Row.LocateMs,
          static_cast<unsigned long long>(Row.ChainRuns),
          static_cast<unsigned long long>(Row.ExtendedSteps),
          static_cast<unsigned long long>(Row.PrefixHits),
          static_cast<unsigned long long>(Row.Searches),
          static_cast<unsigned long long>(Row.Commits),
          sameOutcome(ChBaseline.Outcome, Row.Outcome) ? "true" : "false",
          I + 1 < ChRows.size() ? "," : "");
    }
    std::fprintf(F, "  ],\n");
    std::fprintf(F, "  \"reduction_1t\": %.3f,\n", ChReduction1);
    std::fprintf(F, "  \"reduction_4t\": %.3f,\n", ChReduction4);
    std::fprintf(F, "  \"reduction_check\": \"%s\",\n",
                 ChReductionOk ? "pass" : "fail");
    std::fprintf(F, "  \"prefix_hits_check\": \"%s\",\n",
                 ChPrefixOk ? "pass" : "fail");
    std::fprintf(F, "  \"deterministic\": %s\n",
                 ChIdentical && ChCountersStable ? "true" : "false");
    std::fprintf(F, "}\n");
    std::fclose(F);
    std::printf("wrote %s\n", ChJsonPath);
  } else {
    std::fprintf(stderr, "could not write %s\n", ChJsonPath);
  }

  // Persist the shared store for the next invocation: one cache file per
  // subject, keyed the way the sessions load (default LocateConfig step
  // budget).
  if (!CheckpointDir.empty()) {
    interp::CheckpointDiskStore Disk(CheckpointDir);
    if (!Disk.save(Shared, *Faulty, LocateConfig().MaxSteps) ||
        !Disk.save(Shared, *SweepFaulty, LocateConfig().MaxSteps)) {
      std::fprintf(stderr, "could not write checkpoint cache in %s\n",
                   CheckpointDir.c_str());
      return 1;
    }
    std::printf("checkpoint cache: %llu snapshots loaded from disk, %llu "
                "switched runs resumed from disk snapshots\n",
                static_cast<unsigned long long>(TotalDiskLoads),
                static_cast<unsigned long long>(TotalDiskHits));
  }
  if (ExpectDiskHits && TotalDiskHits == 0) {
    std::fprintf(stderr, "--expect-disk-hits: no switched run resumed from "
                         "a disk-loaded snapshot\n");
    return 1;
  }

  if (!Identical || !SweepOk)
    return 1;
  if (!WorkOk)
    return 1;
  if (!RatioOk)
    return 1;
  if (!SwIdentical || !SwCountersStable || !ReductionOk || !SwHitsOk)
    return 1;
  if (!ChIdentical || !ChCountersStable || !ChReductionOk || !ChPrefixOk)
    return 1;
  return 0;
}

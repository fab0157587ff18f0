//===-- e2ebench/main.cpp - End-to-end locator benchmark CLI ------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Usage:
//   e2ebench --workload paper9|replay|random --seed N --seconds S
//            --trace 0|1 [--expected FILE] [--out-dir DIR]
//   e2ebench --workload paper9 --write-expected FILE
//
// Untraced passes run until S seconds have elapsed (at least one). With
// --trace 0 the last stdout line is the end-to-end result; with --trace 1
// one more, traced pass follows and the last line holds the per-layer
// metrics, while DIR receives the Chrome trace and the per-layer report.
// The exit code is non-zero when any locate call fails its check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sched.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

using namespace e2e;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Expected;
  std::string OutDir = ".";
  std::string WriteExpected;
};

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 == Argc)
      throw std::runtime_error("missing value for " + Flag);
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::stoull(Value);
    else if (Flag == "--seconds")
      A.Seconds = std::stod(Value);
    else if (Flag == "--trace")
      A.Trace = std::stoi(Value) != 0;
    else if (Flag == "--expected")
      A.Expected = Value;
    else if (Flag == "--out-dir")
      A.OutDir = Value;
    else if (Flag == "--write-expected")
      A.WriteExpected = Value;
    else
      throw std::runtime_error("unknown flag " + Flag);
  }
  if (A.Workload.empty())
    throw std::runtime_error("--workload is required");
  return A;
}

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

std::string number(double V) {
  if (!std::isfinite(V))
    throw std::runtime_error("non-finite metric value");
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    Out += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
           number(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  return Out + "}";
}

double requirePercentile(const std::vector<double> &Samples, double P,
                         const std::string &What) {
  std::optional<double> V = percentile(Samples, P);
  if (!V)
    throw std::runtime_error(What + ": " + std::to_string(Samples.size()) +
                             " samples leave fewer than " +
                             std::to_string(MinSamplesBeyond) +
                             " beyond the percentile");
  return *V;
}

//===----------------------------------------------------------------------===//
// Host context: recorded beside the metrics to read a run by, never used
// to scale them.
//===----------------------------------------------------------------------===//

struct CpuTicks {
  uint64_t Steal = 0;
  uint64_t Total = 0;
};

CpuTicks readCpuTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  CpuTicks T;
  uint64_t Field = 0;
  In >> Cpu;
  // user nice system idle iowait irq softirq steal
  for (int I = 0; I < 8 && In >> Field; ++I) {
    T.Total += Field;
    if (I == 7)
      T.Steal = Field;
  }
  return T;
}

/// Share of all CPU time the hypervisor stole since \p Before.
double stealSince(const CpuTicks &Before) {
  const CpuTicks Now = readCpuTicks();
  return Now.Total > Before.Total
             ? static_cast<double>(Now.Steal - Before.Steal) /
                   static_cast<double>(Now.Total - Before.Total)
             : 0;
}

/// Loop iterations \p Workers spinning threads complete in \p Ms.
uint64_t spin(unsigned Workers, unsigned Ms) {
  std::atomic<bool> Stop{false};
  std::vector<uint64_t> Counts(Workers);
  std::vector<std::thread> Threads;
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back([&, W] {
      uint64_t N = 0, X = W + 1;
      while (!Stop.load(std::memory_order_relaxed)) {
        for (int K = 0; K < 1024; ++K)
          X = X * 6364136223846793005ULL + 1442695040888963407ULL;
        ++N;
      }
      Counts[W] = N + (X == 0);
    });
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
  Stop = true;
  for (std::thread &T : Threads)
    T.join();
  uint64_t Sum = 0;
  for (uint64_t C : Counts)
    Sum += C;
  return Sum;
}

/// Seconds to sort a fixed pseudo-random array: median of three.
double referenceKernel() {
  std::vector<double> Times;
  for (int Rep = 0; Rep < 3; ++Rep) {
    std::mt19937 Gen(12345);
    std::vector<uint32_t> V(1u << 19);
    for (uint32_t &X : V)
      X = Gen();
    Clock::time_point T0 = Clock::now();
    std::sort(V.begin(), V.end());
    Times.push_back(secondsBetween(T0, Clock::now()));
  }
  return median(Times);
}

struct HostContext {
  unsigned Nproc = 0;
  double EffectiveParallelism = 0;
  double ReferenceKernelS = 0;
  double StealShare = 0;
};

HostContext probeHost() {
  HostContext H;
  cpu_set_t Set;
  H.Nproc = sched_getaffinity(0, sizeof Set, &Set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&Set))
                : std::max(1u, std::thread::hardware_concurrency());
  const uint64_t One = spin(1, 150);
  H.EffectiveParallelism =
      One ? static_cast<double>(spin(H.Nproc, 150)) / static_cast<double>(One)
          : 0;
  H.ReferenceKernelS = referenceKernel();
  return H;
}

std::string hostJson(const HostContext &H) {
  return "{\"nproc\": " + std::to_string(H.Nproc) +
         ", \"effective_parallelism\": " + number(H.EffectiveParallelism) +
         ", \"steal_share\": " + number(H.StealShare) +
         ", \"reference_kernel_s\": " + number(H.ReferenceKernelS) + "}";
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

/// Peak resident set size of this process image, in MB. This is the
/// kernel's VmHWM: unlike getrusage's ru_maxrss, it does not carry over
/// the high-water mark of the parent that forked this process before exec
/// (a Python launcher alone would read as about 14 MB).
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // the line is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Keeps the memory the program frees inside the process: glibc trims no
/// heap and maps no block below its 32 MB ceiling. By default both
/// thresholds move with the allocation history, the benchmark's own
/// growing sample vectors included, and with them whether a round's
/// buffers are reused or page-faulted in afresh: a paper9 set-up round
/// took 781 minor faults, about a tenth of its time. With the thresholds
/// fixed, every pass and round after the first runs on a warm heap, so
/// the times are the program's own work; peak RSS still shows what it
/// allocates.
void retainFreedMemory() {
#ifdef __GLIBC__
  if (!mallopt(M_MMAP_THRESHOLD, 32 << 20) ||
      !mallopt(M_TRIM_THRESHOLD, 1 << 30))
    throw std::runtime_error("mallopt refused the heap thresholds");
#endif
}

/// After each untraced pass, set-up samples run for at least this share
/// of the pass's time (and at least once). Interleaved so, they sample
/// the same host conditions as the passes; set-up time is their median.
constexpr double SetupShare = 0.1;

/// One set-up sample repeats set-up rounds until it has lasted this long,
/// and is their mean: a paper9 round alone is only 15 to 20 ms of work.
constexpr double MinSetupSampleS = 0.1;

double setupSample(const std::vector<Subject> &W) {
  const Clock::time_point Start = Clock::now();
  double Sum = 0;
  size_t Rounds = 0;
  do {
    Sum += setupRound(W);
    ++Rounds;
  } while (secondsBetween(Start, Clock::now()) < MinSetupSampleS);
  return Sum / static_cast<double>(Rounds);
}

/// What a run keeps of its untraced passes: each pass's locate time and
/// the programmer's waits pooled over every pass.
struct Untraced {
  std::vector<double> LocateS;
  std::vector<double> WaitsMs;
  std::vector<double> SetupS;
  /// Peak RSS right after the first pass, before the run's own
  /// bookkeeping grows with the pass count. Later passes repeat the same
  /// work, so they do not raise the program's peak.
  double PeakRssMb = 0;
  /// Locate calls and oracle answers of the first pass; every later pass
  /// must repeat its counters.
  size_t Calls = 0;
  size_t Answers = 0;
};

std::vector<Metric> endToEnd(const Untraced &U) {
  return {
      {"setup_s", median(U.SetupS), "s"},
      {"locate_s", median(U.LocateS), "s"},
      {"answer_wait_p50_ms", requirePercentile(U.WaitsMs, 50, "answer waits"),
       "ms"},
      {"answer_wait_p90_ms", requirePercentile(U.WaitsMs, 90, "answer waits"),
       "ms"},
      {"peak_rss_mb", U.PeakRssMb, "MB"},
      {"locate_calls", static_cast<double>(U.Calls), "count"},
      {"oracle_answers", static_cast<double>(U.Answers), "count"},
  };
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

struct Layers {
  std::vector<Metric> Metrics;
  std::vector<SpanRec> Spans;
};

/// The per-layer split of one traced pass. Self time is taken over the
/// span tree without the overlaid `bench.wait` spans and without
/// `locate.round`, which groups a round's work rather than being a layer:
/// PD queries and fan-out enumeration inside a round stay locate's own.
Layers perLayer(const TraceSink &Sink, const PassResult &Traced,
                double UntracedLocateS) {
  Layers L;
  L.Spans = Sink.spans();
  std::vector<SpanRec> Tree;
  std::vector<const SpanRec *> Waits, Verifies;
  for (const SpanRec &S : L.Spans) {
    if (S.Name == "bench.wait")
      Waits.push_back(&S);
    else if (S.Name != "locate.round")
      Tree.push_back(S);
    if (S.Name == "verify")
      Verifies.push_back(&S);
  }
  std::vector<uint64_t> Self = selfTimes(Tree);
  std::map<std::string, double> Total, SelfTotal;
  for (size_t I = 0; I < Tree.size(); ++I) {
    Total[Tree[I].Name] += Tree[I].duration() * 1e-9;
    SelfTotal[Tree[I].Name] += Self[I] * 1e-9;
  }

  // A wait "contains a verify span" when a verification started in it.
  std::sort(Verifies.begin(), Verifies.end(),
            [](const SpanRec *A, const SpanRec *B) {
              return A->StartNs < B->StartNs;
            });
  std::vector<double> PruneWaits, VerifyWaits;
  for (const SpanRec *W : Waits) {
    auto It = std::lower_bound(
        Verifies.begin(), Verifies.end(), W->StartNs,
        [](const SpanRec *V, uint64_t T) { return V->StartNs < T; });
    bool HasVerify = It != Verifies.end() && (*It)->StartNs < W->EndNs;
    (HasVerify ? VerifyWaits : PruneWaits).push_back(W->duration() * 1e-6);
  }

  auto C = [&](const char *Name) {
    return static_cast<double>(Sink.counter(Name));
  };
  size_t TraceSteps = 0;
  for (const CallResult &Call : Traced.Calls)
    TraceSteps += Call.TraceSteps;
  const double Recomputes = C("slicing.prune_rounds");
  const double LocateCovered = Total["locate"] - SelfTotal["locate"];
  const double SetupCovered = Total["bench.setup"] - SelfTotal["bench.setup"];
  L.Metrics = {
      {"lang.parse_s", Total["bench.parse"], "s"},
      {"core.session_self_s", SelfTotal["bench.setup"], "s"},
      {"interp.profile_s", Total["profile"], "s"},
      {"interp.trace_s", Total["interpret"], "s"},
      {"interp.trace_steps", static_cast<double>(TraceSteps), "count"},
      {"interp.plain_run_s", Total["bench.plain_run"], "s"},
      {"interp.traced_run_s", Total["bench.traced_run"], "s"},
      {"interp.reexec_s", Total["reexec"], "s"},
      {"interp.reexecutions", C("verify.reexecutions"), "count"},
      {"interp.steps", C("interp.steps"), "count"},
      {"interp.spliced_steps", C("interp.spliced_steps"), "count"},
      {"interp.ckpt_hit_ratio",
       ratio(C("verify.ckpt.hits"),
             C("verify.ckpt.hits") + C("verify.ckpt.misses")),
       "ratio"},
      {"interp.ckpt_collect_s", Total["ckpt.collect"], "s"},
      {"align.align_s", Total["align"], "s"},
      {"align.queries", C("align.queries"), "count"},
      {"align.match_ratio", ratio(C("align.matched"), C("align.queries")),
       "ratio"},
      {"slicing.prune_s", Total["prune"], "s"},
      {"slicing.recomputes", Recomputes, "count"},
      {"slicing.recompute_ms", ratio(Total["prune"] * 1e3, Recomputes), "ms"},
      {"slicing.benign_marks", C("slicing.benign_marks"), "count"},
      {"slicing.corrupted_marks", C("slicing.corrupted_marks"), "count"},
      {"slicing.wait_prune_p50_ms",
       requirePercentile(PruneWaits, 50, "waits without verification"), "ms"},
      {"core.wait_verify_p50_ms",
       requirePercentile(VerifyWaits, 50, "waits with verification"), "ms"},
      {"core.verify_s", SelfTotal["verify"], "s"},
      {"core.verifications", C("verify.verifications"), "count"},
      {"core.verdict_cache_hit_ratio",
       ratio(C("verify.verdict_cache_hits"),
             C("verify.verdict_cache_hits") + C("verify.verdict_cache_misses")),
       "ratio"},
      {"core.rounds", C("locate.rounds"), "count"},
      {"core.candidates", C("locate.candidate_requests"), "count"},
      {"core.fanout_requests", C("locate.fanout_requests"), "count"},
      {"core.locate_self_s", SelfTotal["locate"], "s"},
      {"support.trace_overhead_pct",
       (ratio(Traced.LocateS, UntracedLocateS) - 1) * 100, "%"},
      {"support.locate_coverage_pct", ratio(LocateCovered, Traced.LocateS) * 100,
       "%"},
      {"support.setup_coverage_pct", ratio(SetupCovered, Traced.SetupS) * 100,
       "%"},
  };
  return L;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  Out << Text;
  if (!Out)
    throw std::runtime_error("cannot write '" + Path + "'");
}

std::string chromeTrace(const std::vector<SpanRec> &Spans) {
  std::string Out = "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRec &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"call\":%ld}}",
                  I ? ",\n" : "\n", S.Name.c_str(), S.StartNs / 1e3,
                  S.duration() / 1e3, S.Tid, S.Call);
    Out += Buf;
  }
  return Out + "\n],\"displayTimeUnit\":\"ms\"}\n";
}

std::string callsJson(const PassResult &P) {
  std::string Out = "[";
  for (size_t I = 0; I < P.Calls.size(); ++I) {
    const CallResult &C = P.Calls[I];
    Out += (I ? ",\n  " : "\n  ") + std::string("{\"call\": ") +
           std::to_string(I) + ", \"counters\": \"" +
           formatCounters(C.Counters) + "\", \"located\": " +
           (C.Report.RootCauseFound ? "true" : "false") +
           ", \"locate_s\": " + number(C.LocateS) +
           ", \"trace_steps\": " + std::to_string(C.TraceSteps) + "}";
  }
  return Out + "\n]";
}

int run(const Args &A) {
  retainFreedMemory();
  const CpuTicks Ticks0 = readCpuTicks();
  HostContext Host = probeHost();
  const std::vector<Subject> W = makeWorkload(A.Workload, A.Seed);

  if (!A.WriteExpected.empty()) {
    PassResult P = runPass(W);
    std::string Text = "# subject phase answers user_prunings verifications "
                       "iterations expanded_edges ips_static ips_dynamic\n";
    for (const CallResult &C : P.Calls)
      Text += formatCounters(C.Counters) + "\n";
    writeFile(A.WriteExpected, Text);
    return countFailures(P, nullptr) ? 1 : 0;
  }

  // Every pass is checked against the expected file when there is one,
  // and otherwise against the first pass: the counters are deterministic.
  std::vector<CallCounters> Reference;
  if (!A.Expected.empty())
    Reference = readExpected(A.Expected);
  size_t Attempted = 0, Failed = 0;
  auto Check = [&](const PassResult &P) {
    if (A.Expected.empty() && Reference.empty())
      for (const CallResult &C : P.Calls)
        Reference.push_back(C.Counters);
    Attempted += P.Calls.size();
    Failed += countFailures(P, &Reference);
  };

  Untraced U;
  const Clock::time_point Start = Clock::now();
  do {
    const Clock::time_point PassStart = Clock::now();
    PassResult P = runPass(W);
    Check(P);
    U.LocateS.push_back(P.LocateS);
    for (const CallResult &C : P.Calls)
      for (double Wait : C.Waits)
        U.WaitsMs.push_back(Wait * 1e3);
    if (U.LocateS.size() == 1) {
      U.PeakRssMb = peakRssMb();
      U.Calls = P.Calls.size();
      for (const CallResult &C : P.Calls)
        U.Answers += C.Counters.Answers;
    }
    if (A.Trace)
      continue;
    const Clock::time_point SamplesStart = Clock::now();
    const double Budget = SetupShare * secondsBetween(PassStart, SamplesStart);
    do
      U.SetupS.push_back(setupSample(W));
    while (secondsBetween(SamplesStart, Clock::now()) < Budget);
  } while (secondsBetween(Start, Clock::now()) < A.Seconds);
  const double LocateS = median(U.LocateS);

  std::vector<Metric> Metrics;
  if (!A.Trace) {
    Host.StealShare = stealSince(Ticks0);
    Metrics = endToEnd(U);
  } else {
    TraceSink Sink;
    PassResult Traced = runPass(W, &Sink);
    Check(Traced);
    Host.StealShare = stealSince(Ticks0);
    Layers L = perLayer(Sink, Traced, LocateS);
    Metrics = L.Metrics;
    const std::string Stem =
        A.OutDir + "/" + A.Workload + "-seed" + std::to_string(A.Seed);
    writeFile(Stem + ".trace.json", chromeTrace(L.Spans));
    writeFile(Stem + ".layers.json",
              "{\"workload\": \"" + A.Workload + "\", \"seed\": " +
                  std::to_string(A.Seed) + ", \"traced_locate_s\": " +
                  number(Traced.LocateS) + ", \"traced_setup_s\": " +
                  number(Traced.SetupS) + ", \"untraced_locate_s\": " +
                  number(LocateS) + ", \"metrics\": " + metricsJson(Metrics) +
                  ", \"calls\": " + callsJson(Traced) +
                  ", \"host\": " + hostJson(Host) + "}\n");
  }

  std::printf("workload %s, seed %llu, %zu untraced passes, %zu set-up "
              "samples%s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              U.LocateS.size(), U.SetupS.size(),
              A.Trace ? ", 1 traced pass" : "");
  std::printf("host %s\n", hostJson(Host).c_str());
  std::printf("locate_s by pass:");
  for (double S : U.LocateS)
    std::printf(" %.4f", S);
  std::printf("\n");
  for (const Metric &M : Metrics)
    std::printf("  %-30s %18.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("  %-30s %18zu count\n", "locate_failed", Failed);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              Failed ? "false" : "true", Attempted, Failed,
              metricsJson(Metrics).c_str());
  return Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    return run(parseArgs(Argc, Argv));
  } catch (const std::exception &E) {
    std::fprintf(stderr, "e2ebench: error: %s\n", E.what());
    return 2;
  }
}

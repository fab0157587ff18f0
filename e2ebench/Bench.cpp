//===-- e2ebench/Bench.cpp - End-to-end locator benchmark ---------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/StaticAnalysis.h"
#include "core/DebugSession.h"
#include "gen/RandomProgram.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "slicing/Pruning.h"
#include "support/Diagnostic.h"
#include "support/Options.h"
#include "support/RNG.h"
#include "workloads/Runner.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

using namespace eoe;

namespace e2e {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

std::optional<double> percentile(std::vector<double> Samples, double P) {
  if (Samples.empty() || !(P > 0 && P <= 100))
    return std::nullopt;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  // ceil(P/100 * N) in integer hundredths of a percent, so that P = 90
  // and N = 100 give rank 90 exactly, not 91 through rounding.
  const uint64_t Hundredths = static_cast<uint64_t>(P * 100 + 0.5);
  const size_t Rank = static_cast<size_t>((Hundredths * N + 9999) / 10000);
  if (N - Rank < MinSamplesBeyond)
    return std::nullopt;
  return Samples[Rank - 1];
}

double median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

std::vector<uint64_t> selfTimes(const std::vector<SpanRec> &Spans) {
  // Visit each thread's spans by start, outer spans first: a stack of
  // open spans then yields each span's parent, and a parent's children
  // arrive in start order, so their union is one running sweep.
  std::vector<size_t> Order(Spans.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    const SpanRec &X = Spans[A], &Y = Spans[B];
    if (X.Tid != Y.Tid)
      return X.Tid < Y.Tid;
    if (X.StartNs != Y.StartNs)
      return X.StartNs < Y.StartNs;
    if (X.EndNs != Y.EndNs)
      return X.EndNs > Y.EndNs;
    return A < B;
  });
  std::vector<uint64_t> Self(Spans.size());
  std::vector<uint64_t> CoveredTo(Spans.size(), 0);
  std::vector<size_t> Open;
  for (size_t K : Order) {
    const SpanRec &S = Spans[K];
    Self[K] = S.duration();
    while (!Open.empty()) {
      const SpanRec &Top = Spans[Open.back()];
      if (Top.Tid == S.Tid && S.StartNs >= Top.StartNs && S.EndNs <= Top.EndNs)
        break;
      Open.pop_back();
    }
    if (!Open.empty()) {
      size_t Parent = Open.back();
      uint64_t From = std::max(S.StartNs, CoveredTo[Parent]);
      if (S.EndNs > From)
        Self[Parent] -= S.EndNs - From;
      CoveredTo[Parent] = std::max(CoveredTo[Parent], S.EndNs);
    }
    Open.push_back(K);
  }
  return Self;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<lang::Program> parseOrThrow(const std::string &Id,
                                            const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<lang::Program> Prog = lang::parseAndCheck(Source, Diags);
  if (!Prog)
    throw std::runtime_error(Id + ": source does not parse:\n" + Diags.str());
  return Prog;
}

std::vector<int64_t> outputsOf(const std::string &Id, const std::string &Source,
                               const std::vector<int64_t> &Input) {
  std::unique_ptr<lang::Program> Prog = parseOrThrow(Id, Source);
  analysis::StaticAnalysis SA(*Prog);
  interp::Interpreter Interp(*Prog, SA);
  interp::Interpreter::Options Plain;
  Plain.Trace = false;
  return Interp.run(Input, Plain).outputValues();
}

/// Fills Expected from the fixed program; false when the faulty program
/// prints the same values (the omission is masked: nothing to debug).
bool fillExpected(Subject &S, const std::string &FixedSource) {
  S.Expected = outputsOf(S.Id, FixedSource, S.Input);
  return outputsOf(S.Id, S.FaultySource, S.Input) != S.Expected;
}

std::vector<Subject> paper9Workload() {
  std::vector<Subject> W;
  for (const workloads::FaultInfo &F : workloads::faults()) {
    Subject S;
    S.Id = F.Id;
    S.FaultySource = F.FaultySource;
    S.RootCauseLine = F.RootCauseLine;
    S.Input = F.FailingInput;
    S.TestSuite = F.TestSuite;
    if (!fillExpected(S, F.FixedSource))
      throw std::runtime_error(F.Id + ": fault does not reproduce");
    W.push_back(std::move(S));
  }
  return W;
}

/// Replay subjects: bench_checkpoint's first-phase shape. An input-free
/// crc loop of \p Iters iterations, then \p Guards guards over zeroed
/// flags; the fixed program sets guard \p Silenced's flag. Every
/// candidate predicate of the wrong output lies past the loop, so each
/// switched run either replays the loop or resumes from a snapshot.
std::string replaySource(unsigned Iters, unsigned Guards, unsigned Silenced,
                         bool Fixed) {
  std::string Src = "fn main() {\n";
  for (unsigned G = 0; G < Guards; ++G)
    Src += "var c" + std::to_string(G) + " = " +
           ((Fixed && G == Silenced) ? "1" : "0") + ";\n";
  Src += "var flags = 0;\n"
         "var i = 0;\n"
         "var crc = 0;\n"
         "var mix = 1;\n"
         "while (i < " +
         std::to_string(Iters) +
         ") {\n"
         "crc = (crc * 31 + (i % 7) * (i % 11) + mix * 13) % 65521;\n"
         "mix = (mix * 17 + crc % 251 + (i % 5) * 29) % 8191;\n"
         "i = i + 1;\n"
         "}\n";
  for (unsigned G = 0; G < Guards; ++G)
    Src += "if (c" + std::to_string(G) + ") {\n" + "flags = flags + " +
           std::to_string(1u << G) + ";\n" + "}\n";
  Src += "print(crc);\n"
         "print(flags);\n"
         "}\n";
  return Src;
}

/// There is one subject per (prefix stratum, guard stratum) pair. The
/// seed jitters each prefix, picks each silenced guard and shuffles the
/// order; the guard counts stay on their strata. The seed so changes every
/// subject while the total work and the largest subject, which sets peak
/// memory (switched runs are cached per guard), stay nearly the same.
constexpr unsigned ReplayPrefixStrata[] = {1000, 2000, 3000, 4000, 5000, 6000};
constexpr unsigned ReplayPrefixJitterPct = 3;
constexpr unsigned ReplayGuardStrata[] = {5, 7, 9, 11};

std::vector<Subject> replayWorkload(uint64_t Seed) {
  RNG Rng(Seed * 0x9e3779b97f4a7c15ULL + 0x7265706c6179ULL);
  std::vector<Subject> W;
  for (unsigned Base : ReplayPrefixStrata) {
    for (unsigned Guards : ReplayGuardStrata) {
      const int64_t Jitter = Rng.nextInRange(
          -static_cast<int64_t>(ReplayPrefixJitterPct), ReplayPrefixJitterPct);
      const unsigned Iters = static_cast<unsigned>(Base + Base * Jitter / 100);
      const unsigned Silenced = static_cast<unsigned>(Rng.nextBelow(Guards));
      Subject S;
      S.Id = "replay-i" + std::to_string(Iters) + "-k" +
             std::to_string(Guards) + "-g" + std::to_string(Silenced);
      S.FaultySource = replaySource(Iters, Guards, Silenced, false);
      S.RootCauseLine = 2 + Silenced; // line 1 is main's opener
      if (!fillExpected(S, replaySource(Iters, Guards, Silenced, true)))
        throw std::runtime_error(S.Id + ": fault does not reproduce");
      W.push_back(std::move(S));
    }
  }
  for (size_t I = W.size(); I > 1; --I)
    std::swap(W[I - 1], W[Rng.nextBelow(I)]);
  return W;
}

constexpr unsigned RandomSubjects = 1500;

std::vector<Subject> randomWorkload(uint64_t Seed) {
  RNG Seeds(Seed * 0x9e3779b97f4a7c15ULL + 0x72616e646f6dULL);
  std::vector<Subject> W;
  // An omission the random surroundings mask leaves no failure to
  // debug; such programs are not locate inputs and are drawn again.
  for (unsigned Draws = 0; W.size() < RandomSubjects; ++Draws) {
    if (Draws == 4 * RandomSubjects)
      throw std::runtime_error("random: too many masked programs");
    uint64_t ProgramSeed = Seeds.next();
    gen::RandomProgramGenerator Gen(ProgramSeed);
    gen::RandomProgramGenerator::OmissionVariant V = Gen.generateOmission();
    Subject S;
    S.Id = "random-" + std::to_string(ProgramSeed);
    S.FaultySource = std::move(V.FaultySource);
    S.RootCauseLine = V.RootCauseLine;
    S.Input = std::move(V.Input);
    S.TwoPhase = false;
    if (fillExpected(S, V.FixedSource))
      W.push_back(std::move(S));
  }
  return W;
}

} // namespace

std::vector<Subject> makeWorkload(const std::string &Name, uint64_t Seed) {
  if (Name == "paper9")
    return paper9Workload(); // The paper's fixed data: the seed is ignored.
  if (Name == "replay")
    return replayWorkload(Seed);
  if (Name == "random")
    return randomWorkload(Seed);
  throw std::runtime_error("unknown workload '" + Name + "'");
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

support::StatsRegistry *TraceSink::newRegistry() {
  Registries.push_back(std::make_unique<support::StatsRegistry>());
  return Registries.back().get();
}

uint64_t TraceSink::counter(const std::string &Name) const {
  uint64_t Sum = 0;
  for (const auto &R : Registries)
    Sum += R->counter(Name).get();
  return Sum;
}

std::vector<SpanRec> TraceSink::spans() const {
  std::vector<SpanRec> Out;
  size_t Tag = 0;
  for (const support::EventTracer::Event &E : Tracer.events()) {
    if (E.Phase != 'X')
      continue;
    SpanRec S;
    S.Name = E.Name;
    S.StartNs = E.StartNs;
    S.EndNs = E.StartNs + E.DurationNs;
    S.Tid = E.Tid;
    if (E.Category == "bench") {
      if (Tag == BenchTags.size() || BenchTags[Tag].first != E.Name)
        throw std::logic_error("bench span tags out of step with the trace");
      S.Call = BenchTags[Tag++].second;
    }
    Out.push_back(std::move(S));
  }

  // A program span belongs to the call of the benchmark span around it.
  // Those spans (all but the overlaid waits) never overlap each other.
  std::vector<const SpanRec *> Outer;
  for (const SpanRec &S : Out)
    if (S.Call >= 0 && S.Name != "bench.wait")
      Outer.push_back(&S);
  std::sort(Outer.begin(), Outer.end(),
            [](const SpanRec *A, const SpanRec *B) {
              return A->StartNs < B->StartNs;
            });
  for (SpanRec &S : Out) {
    if (S.Call >= 0)
      continue;
    auto It = std::upper_bound(
        Outer.begin(), Outer.end(), S.StartNs,
        [](uint64_t T, const SpanRec *O) { return T < O->StartNs; });
    if (It != Outer.begin() && (*std::prev(It))->EndNs >= S.EndNs)
      S.Call = (*std::prev(It))->Call;
  }
  return Out;
}

/// A benchmark span in the program's tracer, tagged with its call index;
/// a null sink records nothing.
class BenchSpan {
public:
  BenchSpan(TraceSink *Sink, const char *Name, long Call)
      : Sink(Sink), Span(Sink ? &Sink->Tracer : nullptr, Name, "bench"),
        Name(Name), Call(Call) {}
  BenchSpan(const BenchSpan &) = delete;
  BenchSpan &operator=(const BenchSpan &) = delete;
  ~BenchSpan() { end(); }

  void end() {
    if (!Sink)
      return;
    Span.end();
    Sink->BenchTags.emplace_back(Name, Call);
    Sink = nullptr;
  }

private:
  TraceSink *Sink;
  support::EventTracer::Span Span;
  const char *Name;
  long Call;
};

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

namespace {

/// The programmer in the loop, answering instantly. FaultRunner's
/// ProtocolOracle gives the answers (root-only, or benign outside the
/// failure chain); this oracle records the waits around them: from
/// locate's start to the first question, from each answer to the next
/// question, and from the last answer to locate's return.
class TimingOracle final : public slicing::Oracle {
public:
  TimingOracle(StmtId Root, const std::vector<bool> *Chain, TraceSink *Sink,
               long Call)
      : Answerer(Root, Chain), Sink(Sink), Call(Call) {}

  void start(Clock::time_point Now) {
    Mark = Now;
    Wait.emplace(Sink, "bench.wait", Call);
  }

  void finish(Clock::time_point Now) {
    Waits.push_back(secondsBetween(Mark, Now));
    Wait.reset();
  }

  bool isBenign(TraceIdx I) override {
    Waits.push_back(secondsBetween(Mark, Clock::now()));
    Wait.reset();
    ++Answers;
    bool Benign = Answerer.isBenign(I);
    Wait.emplace(Sink, "bench.wait", Call);
    Mark = Clock::now();
    return Benign;
  }

  bool isRootCause(StmtId S) override { return Answerer.isRootCause(S); }

  size_t Answers = 0;
  std::vector<double> Waits;

private:
  workloads::ProtocolOracle Answerer;
  TraceSink *Sink;
  long Call;
  Clock::time_point Mark;
  std::optional<BenchSpan> Wait;
};

std::unique_ptr<lang::Program> timedParse(const Subject &S, TraceSink *Sink,
                                          long Call, double &SetupS) {
  Clock::time_point T0 = Clock::now();
  std::unique_ptr<lang::Program> Prog;
  {
    BenchSpan Span(Sink, "bench.parse", Call);
    DiagnosticEngine Diags;
    Prog = lang::parseAndCheck(S.FaultySource, Diags);
  }
  SetupS += secondsBetween(T0, Clock::now());
  if (!Prog)
    throw std::runtime_error(S.Id + ": source does not parse");
  return Prog;
}

/// The per-subject stores FaultRunner shares between its two phases.
struct SharedStores {
  interp::SharedCheckpointStore Checkpoints;
  interp::SwitchedRunStore SwitchedRuns{
      eoe::ReuseOptions().SwitchedCacheBytes};
};

std::unique_ptr<core::DebugSession>
timedSession(const lang::Program &Prog, const Subject &S, SharedStores *Stores,
             TraceSink *Sink, long Call, double &SetupS) {
  core::DebugSession::Config C;
  C.Opt.Exec.Threads = 1;
  if (Stores) {
    C.SharedCheckpoints = &Stores->Checkpoints;
    C.SwitchedRuns = &Stores->SwitchedRuns;
  }
  if (Sink) {
    C.Opt.Exec.Stats = Sink->newRegistry();
    C.Opt.Exec.Tracer = &Sink->Tracer;
  }
  Clock::time_point T0 = Clock::now();
  std::unique_ptr<core::DebugSession> Session;
  {
    BenchSpan Span(Sink, "bench.setup", Call);
    Session = std::make_unique<core::DebugSession>(Prog, S.Input, S.Expected,
                                                   S.TestSuite, C);
  }
  SetupS += secondsBetween(T0, Clock::now());
  if (!Session->hasFailure())
    throw std::runtime_error(S.Id + ": the faulty run shows no failure");
  return Session;
}

CallResult timedLocate(core::DebugSession &Session, const Subject &S,
                       StmtId Root, const std::vector<bool> *Chain, char Phase,
                       TraceSink *Sink, long Call) {
  TimingOracle O(Root, Chain, Sink, Call);
  core::LocateReport R;
  Clock::time_point T0, T1;
  {
    BenchSpan Span(Sink, "bench.locate", Call);
    T0 = Clock::now();
    O.start(T0);
    R = Session.locate(O);
    T1 = Clock::now();
    O.finish(T1);
  }
  CallResult Out;
  Out.Counters = {S.Id,
                  Phase,
                  O.Answers,
                  R.UserPrunings,
                  R.Verifications,
                  R.Iterations,
                  R.ExpandedEdges,
                  R.IPSStats.StaticStmts,
                  R.IPSStats.DynamicInstances};
  Out.Report = std::move(R);
  Out.LocateS = secondsBetween(T0, T1);
  Out.Waits = std::move(O.Waits);
  Out.TraceSteps = Session.trace().size();
  return Out;
}

/// Table 4's Plain and Graph columns: the failing input run untraced and
/// traced, outside any session.
void referenceRuns(const lang::Program &Prog, const Subject &S,
                   TraceSink *Sink, long Call) {
  analysis::StaticAnalysis SA(Prog);
  interp::Interpreter Interp(Prog, SA);
  interp::Interpreter::Options Plain;
  Plain.Trace = false;
  interp::ExecutionTrace PlainRun, TracedRun;
  {
    BenchSpan Span(Sink, "bench.plain_run", Call);
    PlainRun = Interp.run(S.Input, Plain);
  }
  {
    BenchSpan Span(Sink, "bench.traced_run", Call);
    TracedRun = Interp.run(S.Input, interp::Interpreter::Options());
  }
}

} // namespace

PassResult runPass(const std::vector<Subject> &W, TraceSink *Sink) {
  PassResult P;
  for (const Subject &S : W) {
    const long Call = static_cast<long>(P.Calls.size());
    std::unique_ptr<lang::Program> Prog = timedParse(S, Sink, Call, P.SetupS);
    const StmtId Root = Prog->statementAtLine(S.RootCauseLine);
    if (!S.TwoPhase) {
      // eoe-fuzz's shape: one session, root-only oracle, no test suite.
      auto Session = timedSession(*Prog, S, nullptr, Sink, Call, P.SetupS);
      P.Calls.push_back(timedLocate(*Session, S, Root, nullptr, '-', Sink,
                                    Call));
    } else {
      // FaultRunner::run with ComputeSlices off: phase A with the
      // root-only oracle, the failure chain, the seal that publishes
      // phase A's switched-run snapshots, then phase B with the chain
      // oracle. The stores outlive both sessions, as in FaultRunner.
      SharedStores Stores;
      auto A = timedSession(*Prog, S, &Stores, Sink, Call, P.SetupS);
      P.Calls.push_back(timedLocate(*A, S, Root, nullptr, 'A', Sink, Call));
      std::vector<bool> Chain = A->failureChain(Root);
      Stores.SwitchedRuns.seal();
      auto B = timedSession(*Prog, S, &Stores, Sink, Call + 1, P.SetupS);
      P.Calls.push_back(timedLocate(*B, S, Root, &Chain, 'B', Sink, Call + 1));
    }
    if (Sink)
      referenceRuns(*Prog, S, Sink, Call);
  }
  for (const CallResult &C : P.Calls)
    P.LocateS += C.LocateS;
  return P;
}

double setupRound(const std::vector<Subject> &W) {
  double SetupS = 0;
  for (const Subject &S : W) {
    std::unique_ptr<lang::Program> Prog = timedParse(S, nullptr, -1, SetupS);
    if (!S.TwoPhase) {
      timedSession(*Prog, S, nullptr, nullptr, -1, SetupS);
      continue;
    }
    SharedStores Stores;
    auto A = timedSession(*Prog, S, &Stores, nullptr, -1, SetupS);
    Stores.SwitchedRuns.seal();
    auto B = timedSession(*Prog, S, &Stores, nullptr, -1, SetupS);
  }
  return SetupS;
}

std::vector<CallCounters> readExpected(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    throw std::runtime_error("cannot read expected counters '" + Path + "'");
  std::vector<CallCounters> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    CallCounters C;
    if (!(Fields >> C.Subject >> C.Phase >> C.Answers >> C.UserPrunings >>
          C.Verifications >> C.Iterations >> C.ExpandedEdges >> C.IPSStatic >>
          C.IPSDynamic))
      throw std::runtime_error("malformed expected-counter line: " + Line);
    Out.push_back(std::move(C));
  }
  return Out;
}

std::string formatCounters(const CallCounters &C) {
  std::ostringstream Out;
  Out << C.Subject << ' ' << C.Phase << ' ' << C.Answers << ' '
      << C.UserPrunings << ' ' << C.Verifications << ' ' << C.Iterations << ' '
      << C.ExpandedEdges << ' ' << C.IPSStatic << ' ' << C.IPSDynamic;
  return Out.str();
}

size_t countFailures(const PassResult &P,
                     const std::vector<CallCounters> *Expected) {
  if (Expected && Expected->size() != P.Calls.size()) {
    std::fprintf(stderr, "error: %zu locate calls, expected file has %zu\n",
                 P.Calls.size(), Expected->size());
    return std::max<size_t>(P.Calls.size(), 1);
  }
  size_t Failed = 0;
  for (size_t I = 0; I < P.Calls.size(); ++I) {
    const CallResult &C = P.Calls[I];
    if (!C.Report.RootCauseFound) {
      std::fprintf(stderr, "error: %s phase %c: root cause not located\n",
                   C.Counters.Subject.c_str(), C.Counters.Phase);
      ++Failed;
    } else if (Expected && !(C.Counters == (*Expected)[I])) {
      std::fprintf(stderr, "error: counters differ\n  expected %s\n  got      %s\n",
                   formatCounters((*Expected)[I]).c_str(),
                   formatCounters(C.Counters).c_str());
      ++Failed;
    }
  }
  return Failed;
}

} // namespace e2e

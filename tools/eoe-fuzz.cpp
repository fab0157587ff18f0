//===-- tools/eoe-fuzz.cpp - Randomized pipeline fuzzer --------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
// Fuzzes the whole debugging pipeline: generates seeded random Siml
// programs, injects a synthetic execution omission fault into each, and
// checks the paper's end-to-end contract on every reproducing seed --
// the dynamic slice misses the root cause, the relevant slice captures
// it, and the demand-driven locator finds it. Any deviation is printed
// with the offending seed and program for triage.
//
//   eoe-fuzz [--fuzz=pipeline|prune|resume|align|frontend]
//            [--seeds N] [--start S] [--verbose]
//
// --fuzz=prune is the differential oracle of the incremental confidence
// analysis: each reproducing seed runs the two-phase protocol -- a
// root-only locate to find the implicit edges and the failure chain,
// then pruning sessions with the chain oracle while those edges arrive
// in stages -- and at every oracle question compares the live analysis
// with one built from scratch on the same edges, marks and pins: the
// ranking, every instance's verdict and confidence, and that the
// question is the one the from-scratch ranking poses. The last two stages
// add edges that only the Figure 5 rule can absorb: edges from correct
// instances into predicates without dependents, which the update must
// sanitize, then an edge from an instance not correct into a sanitized
// predicate, which the update must un-sanitize.
//
// --fuzz=resume is the differential oracle of checkpoint resume. Each
// seed records a random program's trace E the way DebugSession does: the
// recording run snapshots every clean predicate instance, none past the
// switched runs' step budget, under twice that budget. It checks that the
// capture leaves E equal to a plain run, then resumes from each snapshot
// twice -- unswitched, and with a predicate at or after the snapshot
// switched -- and compares each resumed trace with full interpretation
// step by step: every step's fields and its use and def sequences, the
// outputs, the switch and first-input markers, and the exit.
//
// --fuzz=align is the differential oracle of switched-run alignment:
// each seed records E with snapshots as --fuzz=resume does, switches
// every predicate instance that has a snapshot at or before it, builds
// the switched run the way the verifier does (resumed from E's
// snapshot), and compares every match() answer and every edge check with
// Algorithm 1 over the full region trees of a fully interpreted switched
// run.
//
// --fuzz=frontend is the differential oracle of the front end and the
// static-analysis tables (FrontendFuzz.h): each seed's program and four
// byte-level mutants of it must lex, resolve and analyze exactly as
// simple references do.
//
//===----------------------------------------------------------------------===//

#include "FrontendFuzz.h"
#include "core/DebugSession.h"
#include "gen/RandomProgram.h"
#include "lang/Parser.h"
#include "slicing/Pruning.h"
#include "support/Diagnostic.h"
#include "support/Options.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <string>

using namespace eoe;

namespace {

class RootOnlyOracle : public slicing::Oracle {
public:
  explicit RootOnlyOracle(StmtId Root) : Root(Root) {}
  bool isBenign(TraceIdx) override { return false; }
  bool isRootCause(StmtId S) override { return S == Root; }

private:
  StmtId Root;
};

struct Tally {
  size_t Generated = 0;
  size_t Masked = 0;
  size_t Located = 0;
  size_t DSMissed = 0;
  size_t RSCaptured = 0;
  size_t Failures = 0;
};

bool runSeed(uint64_t Seed, bool Verbose, Tally &T) {
  gen::RandomProgramGenerator Gen(Seed);
  auto Variant = Gen.generateOmission();
  ++T.Generated;

  DiagnosticEngine Diags;
  auto Fixed = lang::parseAndCheck(Variant.FixedSource, Diags);
  auto Faulty = lang::parseAndCheck(Variant.FaultySource, Diags);
  if (!Fixed || !Faulty) {
    std::printf("seed %llu: GENERATED PROGRAM DOES NOT PARSE\n%s\n%s\n",
                static_cast<unsigned long long>(Seed), Diags.str().c_str(),
                Variant.FaultySource.c_str());
    ++T.Failures;
    return false;
  }

  analysis::StaticAnalysis FixedSA(*Fixed);
  interp::Interpreter FixedInterp(*Fixed, FixedSA);
  interp::ExecutionTrace FixedRun = FixedInterp.run(Variant.Input);

  core::DebugSession Session(*Faulty, Variant.Input, FixedRun.outputValues(),
                             {});
  if (!Session.hasFailure()) {
    ++T.Masked;
    return true;
  }

  StmtId Root = Faulty->statementAtLine(Variant.RootCauseLine);
  bool DSMissed =
      !Session.dynamicSlice().containsStmt(Session.trace(), Root);
  bool RSCaptured =
      Session.relevantSlice().Slice.containsStmt(Session.trace(), Root);
  RootOnlyOracle Oracle(Root);
  core::LocateReport R = Session.locate(Oracle);

  T.DSMissed += DSMissed;
  T.RSCaptured += RSCaptured;
  T.Located += R.RootCauseFound;
  bool Ok = DSMissed && RSCaptured && R.RootCauseFound;
  if (!Ok) {
    std::printf("seed %llu: CONTRACT VIOLATED (DS missed=%d, RS "
                "captured=%d, located=%d)\n%s\n",
                static_cast<unsigned long long>(Seed), DSMissed, RSCaptured,
                R.RootCauseFound, Variant.FaultySource.c_str());
    ++T.Failures;
  } else if (Verbose) {
    std::printf("seed %llu: ok (%zu verifications, %zu edges, trace %zu)\n",
                static_cast<unsigned long long>(Seed), R.Verifications,
                R.ExpandedEdges, Session.trace().size());
  }
  return Ok;
}

//===----------------------------------------------------------------------===//
// Resume fuzzing: a run resumed from a snapshot must equal full
// interpretation step by step, with or without a switch past the
// snapshot.
//===----------------------------------------------------------------------===//

struct ResumeTally {
  size_t Generated = 0;
  size_t Snapshots = 0;
  size_t Resumes = 0;
  size_t PendingCalls = 0;
  size_t Failures = 0;
};

/// The first way \p Got differs from \p Want (the same run interpreted in
/// full), or "" when they agree, read through the accessors over the
/// whole logical length: exit, exit value, switch and first-input
/// markers, outputs, then every step's fields and its use and def
/// sequences.
std::string traceDifference(const interp::ExecutionTrace &Want,
                            const interp::ResumedTrace &Got) {
  if (Want.Exit != Got.exit())
    return "exit reason";
  if (Want.ExitValue != Got.exitValue())
    return "exit value";
  if (Want.SwitchedStep != Got.switchedStep())
    return "switched step";
  if (Want.FirstInputStep != Got.firstInputStep())
    return "first input step";
  if (Want.Outputs.size() != Got.outputCount())
    return "output count";
  for (size_t K = 0; K < Want.Outputs.size(); ++K)
    if (!(Want.Outputs[K] == Got.output(K)))
      return "output " + std::to_string(K);
  if (Want.size() != Got.size())
    return "length " + std::to_string(Want.size()) + " vs " +
           std::to_string(Got.size());
  for (TraceIdx I = 0; I < Want.size(); ++I)
    if (!Got.sameStep(I, Want, I))
      return "step " + std::to_string(I);
  return "";
}

/// traceDifference for \p Got resumed from \p CP; then, that \p Got
/// shares its prefix: its own records below the resume point are exactly
/// the call records open there (\p CP's pending ones) -- a silent
/// fall-back to copying fails here.
std::string resumeDifference(const interp::ExecutionTrace &Want,
                             const interp::ResumedTrace &Got,
                             const interp::Checkpoint &CP) {
  if (std::string Diff = traceDifference(Want, Got); !Diff.empty())
    return Diff;
  std::vector<TraceIdx> Pending;
  for (const interp::CheckpointFrame &CF : CP.Frames)
    if (CF.PendingRec != InvalidId)
      Pending.push_back(CF.PendingRec);
  if (Got.base() != CP.Index || Got.source() == nullptr ||
      !std::equal(Pending.begin(), Pending.end(), Got.reopened().begin(),
                  Got.reopened().end()) ||
      Got.own().Steps.size() != Got.size() - CP.Index + Pending.size())
    return "own records below the resume point";
  return "";
}

/// Step budget of the fuzzed switched runs: small enough that switched
/// loops hit the limit quickly, so the limit path is compared too.
constexpr uint64_t FuzzMaxSteps = 20'000;

/// E for one fuzz seed, recorded as DebugSession records it: the run
/// snapshots into \p Store (here at every clean predicate instance), none
/// past the switched runs' budget FuzzMaxSteps, and runs under a larger
/// budget, so E may go on past the last snapshot. Returns "" in \p Diff
/// when E equals the same run without the capture, else what differs.
interp::ExecutionTrace recordWithSnapshots(const interp::Interpreter &Interp,
                                           const std::vector<int64_t> &Input,
                                           interp::CheckpointStore &Store,
                                           std::string &Diff) {
  interp::CheckpointPlan Plan =
      interp::CheckpointPlan::everyPredicate(Store, FuzzMaxSteps);
  interp::Interpreter::Options Opts;
  Opts.MaxSteps = 2 * FuzzMaxSteps;
  Opts.Checkpoints = &Plan;
  interp::ExecutionTrace E = Interp.run(Input, Opts);
  Opts.Checkpoints = nullptr;
  Diff = traceDifference(E, interp::ResumedTrace(Interp.run(Input, Opts)));
  return E;
}

bool runResumeSeed(uint64_t Seed, bool Verbose, ResumeTally &T) {
  gen::RandomProgramGenerator Gen(Seed);
  auto Variant = Gen.generateOmission();
  ++T.Generated;

  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Variant.FaultySource, Diags);
  if (!Prog) {
    std::printf("seed %llu: GENERATED PROGRAM DOES NOT PARSE\n%s\n",
                static_cast<unsigned long long>(Seed), Diags.str().c_str());
    ++T.Failures;
    return false;
  }
  analysis::StaticAnalysis SA(*Prog);
  interp::Interpreter Interp(*Prog, SA);
  interp::CheckpointStore Store;
  std::string CaptureDiff;
  interp::ExecutionTrace E =
      recordWithSnapshots(Interp, Variant.Input, Store, CaptureDiff);
  if (!CaptureDiff.empty()) {
    std::printf("seed %llu: CAPTURING RUN DIFFERS FROM PLAIN RUN (%s)\n%s\n",
                static_cast<unsigned long long>(Seed), CaptureDiff.c_str(),
                Variant.FaultySource.c_str());
    ++T.Failures;
    return false;
  }
  std::vector<TraceIdx> Preds;
  for (TraceIdx I = 0; I < E.size(); ++I)
    if (E.step(I).isPredicateInstance())
      Preds.push_back(I);
  // Resumed runs get the switched runs' budget; their references are full
  // runs under it.
  interp::Interpreter::Options Plain;
  Plain.MaxSteps = FuzzMaxSteps;
  const interp::ExecutionTrace Unswitched = Interp.run(Variant.Input, Plain);

  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 0x5851F42D4C957F2Dull);
  interp::ExecContext Ctx;
  bool Ok = true;
  auto Check = [&](const interp::ExecutionTrace &Want,
                   const interp::ResumedTrace &Got,
                   const interp::Checkpoint &CP, const char *What) {
    ++T.Resumes;
    std::string Diff = resumeDifference(Want, Got, CP);
    if (Diff.empty())
      return;
    std::printf("seed %llu: %s RESUME AT STEP %u DIFFERS FROM FULL RUN "
                "(%s)\n%s\n",
                static_cast<unsigned long long>(Seed), What, CP.Index,
                Diff.c_str(), Variant.FaultySource.c_str());
    ++T.Failures;
    Ok = false;
  };
  for (size_t N = 0; N < Preds.size(); ++N) {
    const interp::Checkpoint *CP = Store.nearest(Preds[N]);
    if (!CP || CP->Index != Preds[N])
      continue; // Dirty or past the budget: no snapshot here.
    ++T.Snapshots;
    if (CP->Frames.size() > 1)
      ++T.PendingCalls;
    Check(Unswitched, Interp.runFrom(*CP, E, Variant.Input, Plain, Ctx), *CP,
          "UNSWITCHED");

    // Switch a predicate instance at or after the snapshot.
    TraceIdx Q = Preds[N + Rng() % (Preds.size() - N)];
    interp::SwitchSpec Spec{E.step(Q).Stmt, E.step(Q).InstanceNo};
    interp::Interpreter::Options Switched = Plain;
    Switched.Switch = Spec;
    Check(Interp.run(Variant.Input, Switched, Ctx),
          Interp.runFrom(*CP, E, Variant.Input, Switched, Ctx), *CP,
          "SWITCHED");
  }
  if (Verbose)
    std::printf("seed %llu: %s (%zu predicate instances)\n",
                static_cast<unsigned long long>(Seed), Ok ? "ok" : "FAILED",
                Preds.size());
  return Ok;
}

//===----------------------------------------------------------------------===//
// Alignment fuzzing: the verifier's aligner over a resumed switched run
// must answer every query exactly as Algorithm 1 over full region trees
// of two fully interpreted runs.
//===----------------------------------------------------------------------===//

struct AlignTally {
  size_t Generated = 0;
  size_t Switches = 0;
  size_t Queries = 0;
  size_t Failures = 0;
};

/// The reference aligner: Algorithm 1 over the full region trees of the
/// original run and of a fully interpreted switched run -- the simple
/// code the verifier's aligner is compared against.
class ReferenceAligner {
public:
  ReferenceAligner(const interp::ExecutionTrace &E,
                   const interp::ExecutionTrace &EP)
      : E(E), EP(EP), TreeE(E), TreeEP(EP), Switch(EP.SwitchedStep) {}

  align::AlignResult match(TraceIdx U) const {
    if (Switch == InvalidId) {
      if (U < EP.size() && EP.step(U).Stmt == E.step(U).Stmt)
        return {U, align::AlignFailure::None};
      return {InvalidId, align::AlignFailure::SwitchNotApplied};
    }
    if (U <= Switch)
      return {U, align::AlignFailure::None};
    TraceIdx R = TreeE.parent(Switch);
    while (R != InvalidId && !TreeE.inRegion(U, R))
      R = TreeE.parent(R);
    TraceIdx RP = R;
    while (true) {
      if (R != InvalidId && U == R)
        return {RP, align::AlignFailure::None};
      std::span<const TraceIdx> Cs = TreeE.children(R);
      std::span<const TraceIdx> CsP = TreeEP.children(RP);
      size_t I = 0;
      for (; I < Cs.size(); ++I) {
        if (I >= CsP.size())
          return {InvalidId, align::AlignFailure::RegionEndedEarly};
        TraceIdx C = Cs[I], CP = CsP[I];
        if (E.step(C).Stmt != EP.step(CP).Stmt)
          return {InvalidId, align::AlignFailure::StaticMismatch};
        if (!TreeE.inRegion(U, C))
          continue;
        if (C == U)
          return {CP, align::AlignFailure::None};
        if (E.step(C).isPredicateInstance() &&
            E.step(C).BranchTaken != EP.step(CP).BranchTaken)
          return {InvalidId, align::AlignFailure::BranchDiverged};
        R = C;
        RP = CP;
        break;
      }
      if (I == Cs.size())
        return {InvalidId, align::AlignFailure::StaticMismatch};
    }
  }

  /// The paper's edge check: is \p D inside the switched predicate's
  /// region of the switched run?
  bool inSwitchRegion(TraceIdx D) const { return TreeEP.inRegion(D, Switch); }

private:
  const interp::ExecutionTrace &E;
  const interp::ExecutionTrace &EP;
  align::RegionTree TreeE;
  align::RegionTree TreeEP;
  TraceIdx Switch;
};

bool runAlignSeed(uint64_t Seed, bool Verbose, AlignTally &T) {
  gen::RandomProgramGenerator Gen(Seed);
  auto Variant = Gen.generateOmission();
  ++T.Generated;

  DiagnosticEngine Diags;
  auto Prog = lang::parseAndCheck(Variant.FaultySource, Diags);
  if (!Prog) {
    std::printf("seed %llu: GENERATED PROGRAM DOES NOT PARSE\n%s\n",
                static_cast<unsigned long long>(Seed), Diags.str().c_str());
    ++T.Failures;
    return false;
  }
  analysis::StaticAnalysis SA(*Prog);
  interp::Interpreter Interp(*Prog, SA);
  interp::CheckpointStore Store;
  std::string CaptureDiff;
  interp::ExecutionTrace E =
      recordWithSnapshots(Interp, Variant.Input, Store, CaptureDiff);
  if (!CaptureDiff.empty()) {
    std::printf("seed %llu: CAPTURING RUN DIFFERS FROM PLAIN RUN (%s)\n%s\n",
                static_cast<unsigned long long>(Seed), CaptureDiff.c_str(),
                Variant.FaultySource.c_str());
    ++T.Failures;
    return false;
  }
  const align::RegionTree TreeE(E);
  std::vector<TraceIdx> Preds;
  for (TraceIdx I = 0; I < E.size(); ++I)
    if (E.step(I).isPredicateInstance())
      Preds.push_back(I);
  interp::Interpreter::Options Plain;
  Plain.MaxSteps = FuzzMaxSteps;

  interp::ExecContext Ctx;
  bool Ok = true;
  auto Fail = [&](TraceIdx P, const char *What, TraceIdx At,
                  const std::string &Detail) {
    std::printf("seed %llu: switch at %u, %s %u: %s\n%s\n",
                static_cast<unsigned long long>(Seed), P, What, At,
                Detail.c_str(), Variant.FaultySource.c_str());
    ++T.Failures;
    Ok = false;
  };
  // Every query the verifier can ask of one switched run: match() for
  // each original instance, with the matched step's fields and use and
  // def sequences the verdict reads, and the edge check for each
  // switched instance.
  auto Compare = [&](TraceIdx P, const interp::ResumedTrace &Run,
                     const interp::ExecutionTrace &Full,
                     const ReferenceAligner &Ref) {
    align::ExecutionAligner A(E, Run, TreeE);
    for (TraceIdx U = 0; U < E.size(); ++U) {
      ++T.Queries;
      align::AlignResult Got = A.match(U), Want = Ref.match(U);
      if (Got.Matched != Want.Matched || Got.Why != Want.Why) {
        Fail(P, "match of", U,
             "matched " + std::to_string(Got.Matched) + " vs " +
                 std::to_string(Want.Matched));
        return;
      }
      if (Got.found() && !Run.sameStep(Got.Matched, Full, Want.Matched)) {
        Fail(P, "matched step of", U, "fields or uses and defs differ");
        return;
      }
    }
    if (Run.switchedStep() == InvalidId)
      return;
    for (TraceIdx D = 0; D < Full.size(); ++D) {
      ++T.Queries;
      if (A.switchedTree().inRegion(D, Run.switchedStep()) !=
          Ref.inSwitchRegion(D)) {
        Fail(P, "edge check of", D, "region membership differs");
        return;
      }
    }
  };

  for (TraceIdx P : Preds) {
    const interp::Checkpoint *CP = Store.nearest(P);
    if (!CP)
      continue;
    ++T.Switches;
    interp::Interpreter::Options Switched = Plain;
    Switched.Switch = interp::SwitchSpec{E.step(P).Stmt, E.step(P).InstanceNo};
    interp::ExecutionTrace Full = Interp.run(Variant.Input, Switched, Ctx);
    ReferenceAligner Ref(E, Full);

    // The verifier's path: resume from the original run's snapshot.
    Compare(P, Interp.runFrom(*CP, E, Variant.Input, Switched, Ctx), Full,
            Ref);
  }
  if (Verbose)
    std::printf("seed %llu: %s (%zu predicate instances)\n",
                static_cast<unsigned long long>(Seed), Ok ? "ok" : "FAILED",
                Preds.size());
  return Ok;
}

//===----------------------------------------------------------------------===//
// Prune fuzzing: the incremental confidence analysis must be
// indistinguishable from building it from scratch after every answer and
// every batch of edges.
//===----------------------------------------------------------------------===//

struct PruneTally {
  size_t Generated = 0;
  size_t Masked = 0;
  size_t Questions = 0;
  size_t Benign = 0;
  size_t Edges = 0;
  size_t Sanitized = 0;
  size_t Absorbed = 0;  // predicates sanitized by an update
  size_t Withdrawn = 0; // sanitizations an update took back
  size_t Failures = 0;
};

/// The first difference between two analyses of the same graph, or "".
std::string firstDifference(const slicing::ConfidenceAnalysis &Live,
                            const slicing::ConfidenceAnalysis &Fresh) {
  if (Live.prunedSlice() != Fresh.prunedSlice())
    return "ranking differs";
  if (Live.wrongOutputSlice() != Fresh.wrongOutputSlice())
    return "wrong-output slice differs";
  for (TraceIdx I = 0; I < Live.trace().size(); ++I) {
    if (Live.inferredCorrect(I) != Fresh.inferredCorrect(I))
      return "verdict of instance " + std::to_string(I) + " differs";
    if (Live.confidence(I) != Fresh.confidence(I))
      return "confidence of instance " + std::to_string(I) + " differs";
  }
  return "";
}

/// The paper's chain oracle (instances off the failure chain are
/// benign) that, before answering, checks the live analysis against a
/// from-scratch one and the question against the one a from-scratch
/// analysis after every answer would pose. A mismatch ends the session
/// by throwing: a diverged analysis may never run out of questions.
class CheckingOracle : public slicing::Oracle {
public:
  CheckingOracle(const core::DebugSession &S, const ddg::DepGraph &G,
                 const slicing::ConfidenceAnalysis &Live,
                 const slicing::PruneState &State, StmtId Root,
                 const std::vector<bool> &Chain)
      : S(S), G(G), Live(Live), State(State), Root(Root), Chain(Chain) {}

  bool isBenign(TraceIdx I) override {
    ++Questions;
    check(I);
    if (!Mismatch.empty())
      throw std::runtime_error(Mismatch);
    Benign += !Chain[I];
    return !Chain[I];
  }
  bool isRootCause(StmtId Stmt) override { return Stmt == Root; }

  /// Compares the live analysis with a fresh one; \p Asked is the
  /// instance being asked about, or InvalidId between sessions.
  void check(TraceIdx Asked) {
    if (!Mismatch.empty())
      return;
    slicing::ConfidenceAnalysis Fresh(
        S.program(), G, &S.profile().Values, S.verdicts(),
        slicing::ConfidenceAnalysis::Options(), State.BenignMarks,
        State.KnownCorrupted);
    Mismatch = firstDifference(Live, Fresh);
    if (!Mismatch.empty() || Asked == InvalidId)
      return;
    TraceIdx Expected = InvalidId;
    for (TraceIdx I : Fresh.prunedSlice()) {
      if (S.trace().step(I).Stmt == Root) {
        Mismatch = "asked while the root cause is a candidate";
        return;
      }
      if (Expected == InvalidId && !State.KnownCorrupted[I])
        Expected = I;
    }
    if (Asked != Expected)
      Mismatch = "asked " + std::to_string(Asked) + ", expected " +
                 std::to_string(Expected);
  }

  size_t Questions = 0;
  size_t Benign = 0;
  std::string Mismatch;

private:
  const core::DebugSession &S;
  const ddg::DepGraph &G;
  const slicing::ConfidenceAnalysis &Live;
  const slicing::PruneState &State;
  StmtId Root;
  const std::vector<bool> &Chain;
};

bool runPruneSeed(uint64_t Seed, bool Verbose, PruneTally &T) {
  gen::RandomProgramGenerator Gen(Seed);
  auto Variant = Gen.generateOmission(/*Entangled=*/true);
  ++T.Generated;

  DiagnosticEngine Diags;
  auto Fixed = lang::parseAndCheck(Variant.FixedSource, Diags);
  auto Faulty = lang::parseAndCheck(Variant.FaultySource, Diags);
  if (!Fixed || !Faulty) {
    std::printf("seed %llu: GENERATED PROGRAM DOES NOT PARSE\n%s\n",
                static_cast<unsigned long long>(Seed), Diags.str().c_str());
    ++T.Failures;
    return false;
  }
  analysis::StaticAnalysis FixedSA(*Fixed);
  interp::Interpreter FixedInterp(*Fixed, FixedSA);
  std::vector<int64_t> Expected =
      FixedInterp.run(Variant.Input).outputValues();

  // Phase A: a root-only locate finds the implicit edges and, on the
  // expanded graph, the failure chain the phase-B oracle answers by.
  core::DebugSession A(*Faulty, Variant.Input, Expected, {Variant.Input});
  if (!A.hasFailure()) {
    ++T.Masked;
    return true;
  }
  StmtId Root = Faulty->statementAtLine(Variant.RootCauseLine);
  RootOnlyOracle RootOnly(Root);
  A.locate(RootOnly);
  std::vector<bool> Chain = A.failureChain(Root);
  const std::vector<ddg::DepGraph::ImplicitEdge> &Edges =
      A.graph().implicitEdges();

  // Phase B on a graph of its own, with sessions carrying the answers
  // across as locateFault does. The first session adds synthetic edges
  // from random predicate instances to candidates the oracle will call
  // benign, so Figure 5 also sanitizes predicates in mid-session; the
  // next two add half of phase A's edges, then the rest. The predicates
  // phase A linked, the silenced guard among them, get no synthetic
  // edge: they would reveal the root cause before the first question.
  ddg::DepGraph G(A.trace());
  slicing::ConfidenceAnalysis Live(A.program(), G, &A.profile().Values,
                                   A.verdicts());
  std::vector<ddg::DepGraph::ImplicitEdge> Staged;
  std::set<TraceIdx> Guards;
  for (const ddg::DepGraph::ImplicitEdge &E : Edges)
    Guards.insert(E.Pred);
  std::vector<TraceIdx> Preds, Benign;
  for (TraceIdx I = 0; I < A.trace().size(); ++I)
    if (A.trace().step(I).isPredicateInstance() && !Guards.count(I))
      Preds.push_back(I);
  for (TraceIdx I : Live.prunedSlice())
    if (!Chain[I])
      Benign.push_back(I);
  std::mt19937_64 Rng(Seed);
  for (int N = 0; N < 4 && !Preds.empty() && !Benign.empty(); ++N) {
    TraceIdx P = Preds[Rng() % Preds.size()];
    for (size_t D = 1 + Rng() % 3; D > 0; --D)
      if (TraceIdx U = Benign[Rng() % Benign.size()]; U != P)
        Staged.push_back({U, P, false});
  }
  const size_t Synthetic = Staged.size();
  Staged.insert(Staged.end(), Edges.begin(), Edges.end());

  slicing::PruneState State;
  CheckingOracle O(A, G, Live, State, Root, Chain);
  // One pruning session after adding Add; false once the live analysis
  // diverged (O.Mismatch says why).
  auto Session = [&](std::span<const ddg::DepGraph::ImplicitEdge> Add) {
    for (const ddg::DepGraph::ImplicitEdge &E : Add)
      G.addImplicitEdge(E.Use, E.Pred, E.Strong);
    std::vector<TraceIdx> Ranked;
    try {
      Ranked = slicing::pruneSlicing(Live, O, State);
    } catch (const std::runtime_error &) {
      return false;
    }
    O.check(InvalidId);
    if (O.Mismatch.empty() && Ranked != Live.prunedSlice())
      O.Mismatch = "returned slice differs from the analysis' ranking";
    return O.Mismatch.empty();
  };
  std::span<const ddg::DepGraph::ImplicitEdge> StagedSpan(Staged);
  const size_t Half = Synthetic + Edges.size() / 2;
  bool Ok = Session(StagedSpan.subspan(0, Synthetic)) &&
            Session(StagedSpan.subspan(Synthetic, Half - Synthetic)) &&
            Session(StagedSpan.subspan(Half));

  // Every predicate staged so far also has a dependent the oracle is
  // yet to answer for, so its sanitizing happens inside a session. The
  // last two sessions leave it to the update: first, predicates without
  // a dependent get edges from instances already inferred correct; then
  // a sanitized predicate gets one from an instance that is not.
  auto IsSanitized = [&](TraceIdx P) {
    return Live.inferredCorrect(P) &&
           std::ranges::find(State.BenignMarks, P) == State.BenignMarks.end();
  };
  auto Linked = [&] {
    std::set<TraceIdx> Out;
    for (const ddg::DepGraph::ImplicitEdge &E : G.implicitEdges())
      Out.insert(E.Pred);
    return Out;
  };
  auto InSlice = [&](bool Correct) {
    std::vector<TraceIdx> Out;
    for (TraceIdx I = 0; I < A.trace().size(); ++I)
      if (Live.wrongOutputSlice()[I] && Live.inferredCorrect(I) == Correct)
        Out.push_back(I);
    return Out;
  };
  std::vector<ddg::DepGraph::ImplicitEdge> Add;
  std::set<TraceIdx> Targets;
  if (std::vector<TraceIdx> Correct = InSlice(true);
      Ok && !Correct.empty() && !Preds.empty()) {
    std::set<TraceIdx> Taken = Linked();
    for (int N = 0; N < 4; ++N) {
      TraceIdx P = Preds[Rng() % Preds.size()];
      if (Taken.count(P) || Live.inferredCorrect(P))
        continue;
      Targets.insert(P);
      for (size_t D = 1 + Rng() % 3; D > 0; --D)
        if (TraceIdx U = Correct[Rng() % Correct.size()]; U != P)
          Add.push_back({U, P, false});
    }
    Ok = Session(Add);
    T.Absorbed += std::ranges::count_if(Targets, IsSanitized);
  }
  Add.clear();
  Targets.clear();
  if (std::vector<TraceIdx> Open = InSlice(false); Ok && !Open.empty()) {
    std::vector<TraceIdx> Sanitized;
    std::ranges::copy_if(Linked(), std::back_inserter(Sanitized),
                         IsSanitized);
    for (int N = 0; N < 2 && !Sanitized.empty(); ++N) {
      TraceIdx P = Sanitized[Rng() % Sanitized.size()];
      if (TraceIdx U = Open[Rng() % Open.size()]; U != P) {
        Targets.insert(P);
        Add.push_back({U, P, false});
      }
    }
    Session(Add);
    T.Withdrawn += std::ranges::count_if(
        Targets, [&](TraceIdx P) { return !Live.inferredCorrect(P); });
  }

  std::set<TraceIdx> SanitizedPreds;
  std::ranges::copy_if(Linked(),
                       std::inserter(SanitizedPreds, SanitizedPreds.end()),
                       IsSanitized);
  const size_t Sanitized = SanitizedPreds.size();
  T.Questions += O.Questions;
  T.Benign += O.Benign;
  T.Edges += G.implicitEdges().size();
  T.Sanitized += Sanitized;

  if (!O.Mismatch.empty()) {
    std::printf("seed %llu: INCREMENTAL PRUNING DIVERGED (%s after %zu "
                "questions)\n%s\n",
                static_cast<unsigned long long>(Seed), O.Mismatch.c_str(),
                O.Questions, Variant.FaultySource.c_str());
    ++T.Failures;
    return false;
  }
  if (Verbose)
    std::printf("seed %llu: ok (%zu questions, %zu benign, %zu edges, %zu "
                "sanitized)\n",
                static_cast<unsigned long long>(Seed), O.Questions, O.Benign,
                G.implicitEdges().size(), Sanitized);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  size_t Seeds = 50;
  uint64_t Start = 1;
  bool Verbose = false;
  std::string Mode = "pipeline";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--seeds") == 0 && I + 1 < Argc) {
      if (!support::parseFlagNumber("--seeds", Argv[++I], Seeds))
        return 2;
    } else if (std::strcmp(Argv[I], "--start") == 0 && I + 1 < Argc) {
      if (!support::parseFlagNumber("--start", Argv[++I], Start))
        return 2;
    } else if (std::strcmp(Argv[I], "--verbose") == 0)
      Verbose = true;
    else if (std::strncmp(Argv[I], "--fuzz=", 7) == 0)
      Mode = Argv[I] + 7;
    else {
      std::fprintf(stderr, "usage: eoe-fuzz [--fuzz=pipeline|prune|resume|"
                           "align|frontend] [--seeds N] [--start S] "
                           "[--verbose]\n");
      return 2;
    }
  }

  Timer Clock;
  if (Mode == "prune") {
    PruneTally T;
    for (uint64_t Seed = Start; Seed < Start + Seeds; ++Seed)
      runPruneSeed(Seed, Verbose, T);
    // Benign answers, corrupted answers and Figure 5 sanitizing, in a
    // session and at an update, are what the incremental paths exist
    // for; a run without them tests nothing.
    if (T.Generated > T.Masked &&
        (T.Benign == 0 || T.Benign == T.Questions || T.Sanitized == 0 ||
         T.Absorbed == 0 || T.Withdrawn == 0)) {
      std::printf("prune fuzzing lacked benign answers, corrupted answers "
                  "or sanitized predicates -- the incremental paths are "
                  "not exercised\n");
      ++T.Failures;
    }
    std::printf("prune-fuzzed %zu programs in %s s: %zu masked, %zu "
                "questions (%zu benign), %zu implicit edges, %zu sanitized "
                "predicates, updates sanitized %zu and withdrew %zu, %zu "
                "violations\n",
                T.Generated, formatDouble(Clock.seconds(), 2).c_str(),
                T.Masked, T.Questions, T.Benign, T.Edges, T.Sanitized,
                T.Absorbed, T.Withdrawn, T.Failures);
    return T.Failures == 0 ? 0 : 1;
  }
  if (Mode == "resume") {
    ResumeTally T;
    for (uint64_t Seed = Start; Seed < Start + Seeds; ++Seed)
      runResumeSeed(Seed, Verbose, T);
    // Snapshots inside a callee are the ones with a pending call record
    // to restore; a run without them skips the hard case.
    if (T.Generated > 0 && T.PendingCalls == 0) {
      std::printf("resume fuzzing took no snapshot inside a call -- the "
                  "pending call records are not exercised\n");
      ++T.Failures;
    }
    std::printf("resume-fuzzed %zu programs in %s s: %zu snapshots (%zu "
                "inside a call), %zu resumed runs, %zu violations\n",
                T.Generated, formatDouble(Clock.seconds(), 2).c_str(),
                T.Snapshots, T.PendingCalls, T.Resumes, T.Failures);
    return T.Failures == 0 ? 0 : 1;
  }
  if (Mode == "align") {
    AlignTally T;
    for (uint64_t Seed = Start; Seed < Start + Seeds; ++Seed)
      runAlignSeed(Seed, Verbose, T);
    std::printf("align-fuzzed %zu programs in %s s: %zu switched runs, %zu "
                "queries, %zu violations\n",
                T.Generated, formatDouble(Clock.seconds(), 2).c_str(),
                T.Switches, T.Queries, T.Failures);
    return T.Failures == 0 ? 0 : 1;
  }
  if (Mode == "frontend") {
    fuzz::FrontendTally T;
    for (uint64_t Seed = Start; Seed < Start + Seeds; ++Seed)
      fuzz::runFrontendSeed(Seed, Verbose, T);
    // Lexer and Sema errors, accepted mutants, shadowed names and
    // statements with several control-dependence parents are the paths
    // the references check; a run without them tests little.
    if (T.Generated >= 100 &&
        (T.LexRejected == 0 || T.SemaRejected == 0 ||
         T.Analyzed <= T.Generated || T.Shadowing == 0 ||
         T.MultiParent == 0)) {
      std::printf("frontend fuzzing lacked lexer errors, Sema errors, "
                  "accepted mutants, shadowing or multi-parent statements "
                  "-- the mutations are not reaching them\n");
      ++T.Failures;
    }
    std::printf("frontend-fuzzed %zu programs in %s s: %zu inputs, %zu "
                "lexer errors, %zu Sema errors, %zu analyzed, %zu shadowed "
                "bindings, %zu multi-parent statements, %zu violations\n",
                T.Generated, formatDouble(Clock.seconds(), 2).c_str(),
                T.Inputs, T.LexRejected, T.SemaRejected, T.Analyzed,
                T.Shadowing, T.MultiParent, T.Failures);
    return T.Failures == 0 ? 0 : 1;
  }
  if (Mode != "pipeline") {
    std::fprintf(stderr, "error: unknown --fuzz mode '%s'\n", Mode.c_str());
    return 2;
  }

  Tally T;
  for (uint64_t Seed = Start; Seed < Start + Seeds; ++Seed)
    runSeed(Seed, Verbose, T);

  std::printf("fuzzed %zu programs in %s s: %zu masked, %zu reproducing "
              "(DS missed %zu, RS captured %zu, located %zu), %zu "
              "violations\n",
              T.Generated, formatDouble(Clock.seconds(), 2).c_str(),
              T.Masked, T.Generated - T.Masked, T.DSMissed, T.RSCaptured,
              T.Located, T.Failures);
  return T.Failures == 0 ? 0 : 1;
}

//===-- workloads/Runner.cpp - Experiment driver ------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "workloads/Runner.h"

#include "lang/Parser.h"
#include "support/Diagnostic.h"
#include "support/Timer.h"

#include <cassert>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::workloads;

FaultRunner::FaultRunner(const FaultInfo &Fault) : Fault(Fault) {
  DiagnosticEngine Diags;
  Faulty = lang::parseAndCheck(Fault.FaultySource, Diags);
  assert(Faulty && "faulty workload source must parse");
  Fixed = lang::parseAndCheck(Fault.FixedSource, Diags);
  assert(Fixed && "fixed workload source must parse");
  if (!Faulty || !Fixed)
    return;

  Root = Faulty->statementAtLine(Fault.RootCauseLine);
  assert(isValidId(Root) && "root cause line has no statement");

  // The expected outputs come from the fixed program, as a programmer
  // would obtain them from the specification.
  analysis::StaticAnalysis FixedSA(*Fixed);
  interp::Interpreter FixedInterp(*Fixed, FixedSA);
  Expected = FixedInterp.run(Fault.FailingInput).outputValues();

  // The fault is valid if the faulty program's outputs diverge.
  analysis::StaticAnalysis FaultySA(*Faulty);
  interp::Interpreter FaultyInterp(*Faulty, FaultySA);
  std::vector<int64_t> Observed =
      FaultyInterp.run(Fault.FailingInput).outputValues();
  Valid = Observed != Expected && isValidId(Root);
}

std::unique_ptr<DebugSession>
FaultRunner::makeSession(const Options &Opts) const {
  DebugSession::Config C;
  C.PDBackend = Opts.Backend;
  C.Locate.VerifyFanout = Opts.VerifyFanout;
  C.Locate.OnePerPredicate = Opts.OnePerPredicate;
  C.Locate.UsePathCheck = Opts.UsePathCheck;
  // The whole unified knob bundle forwards in one assignment; only the
  // session-budget field is runner-owned (the default failing-run
  // budget), so a caller's Opt.Exec.MaxSteps passes through too.
  C.Opt = Opts.Opt;
  return std::make_unique<DebugSession>(*Faulty, Fault.FailingInput, Expected,
                                        Fault.TestSuite, C);
}

ExperimentResult FaultRunner::run(const Options &Opts) {
  ExperimentResult R;
  R.FaultId = Fault.Id;
  if (!Valid)
    return R;

  // Phase A: discover the implicit edges with a root-only oracle, then
  // derive OS from the expanded dependence graph.
  std::unique_ptr<DebugSession> PhaseA = makeSession(Opts);
  assert(PhaseA->hasFailure());
  ProtocolOracle RootOnly(Root, nullptr);
  LocateReport ReportA = PhaseA->locate(RootOnly);
  std::vector<bool> Chain = PhaseA->failureChain(Root);
  R.OS = PhaseA->graph().stats(Chain);

  // Phase B: the measured run, with the paper's OS-based oracle.
  std::unique_ptr<DebugSession> PhaseB = makeSession(Opts);
  assert(PhaseB->hasFailure());
  R.TraceLength = PhaseB->trace().size();

  if (Opts.ComputeSlices) {
    slicing::SliceResult DS = PhaseB->dynamicSlice();
    R.DS = DS.Stats;
    R.DSHasRoot = DS.containsStmt(PhaseB->trace(), Root);

    slicing::RelevantSliceResult RS = PhaseB->relevantSlice();
    R.RS = RS.Slice.Stats;
    R.RSPotentialEdges = RS.PotentialEdges;
    R.RSHasRoot = RS.Slice.containsStmt(PhaseB->trace(), Root);

    std::vector<TraceIdx> Pruned = PhaseB->prunedSlice();
    std::vector<bool> Member(PhaseB->trace().size(), false);
    for (TraceIdx I : Pruned)
      Member[I] = true;
    R.PS = PhaseB->graph().stats(Member);
    for (TraceIdx I : Pruned)
      if (PhaseB->trace().step(I).Stmt == Root)
        R.PSHasRoot = true;
  }

  ProtocolOracle ChainOracle(Root, &Chain);
  Timer VerifyTimer;
  R.Report = PhaseB->locate(ChainOracle);
  R.VerifySeconds = VerifyTimer.seconds();

  if (Opts.MeasureTimes) {
    analysis::StaticAnalysis SA(*Faulty);
    interp::Interpreter Interp(*Faulty, SA);
    interp::Interpreter::Options Plain;
    Plain.Trace = false;
    Timer PlainTimer;
    Interp.run(Fault.FailingInput, Plain);
    R.PlainSeconds = PlainTimer.seconds();

    interp::Interpreter::Options Traced;
    Timer GraphTimer;
    Interp.run(Fault.FailingInput, Traced);
    R.GraphSeconds = GraphTimer.seconds();
  }

  R.Valid = ReportA.RootCauseFound && R.Report.RootCauseFound;
  return R;
}

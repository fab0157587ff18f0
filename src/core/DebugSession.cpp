//===-- core/DebugSession.cpp - End-to-end debugging facade -------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/DebugSession.h"

#include <cassert>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;
using namespace eoe::slicing;

namespace {

/// The program's static analysis, built under its own span.
analysis::StaticAnalysis analyzeProgram(const lang::Program &Prog,
                                        support::EventTracer *Tracer) {
  support::EventTracer::Span Span(Tracer, "static_analysis", "analysis");
  return analysis::StaticAnalysis(Prog);
}

} // namespace

DebugSession::DebugSession(const lang::Program &Prog,
                           std::vector<int64_t> FailingInputIn,
                           std::vector<int64_t> ExpectedOutputsIn,
                           std::vector<std::vector<int64_t>> TestSuite,
                           Config CIn)
    : Prog(Prog), FailingInput(std::move(FailingInputIn)),
      ExpectedOutputs(std::move(ExpectedOutputsIn)), C(CIn),
      SA(analyzeProgram(Prog, CIn.Opt.Exec.Tracer)),
      Interp(Prog, SA, CIn.Opt.Exec.Stats), Prof(Prog.statements().size()) {
  Interpreter::Options Opts;
  Opts.MaxSteps = C.Opt.Exec.MaxSteps;
  // The traced run captures the snapshots switched runs resume from
  // (docs/checkpointing.md), none past the switched runs' step budget.
  std::optional<CheckpointPlan> Plan;
  if (C.Opt.Reuse.Checkpoints) {
    Snapshots.emplace();
    Plan.emplace(*Snapshots, C.Locate.MaxSteps,
                 C.Opt.Reuse.CheckpointMemBytes);
    if (C.Opt.Exec.Stats)
      Plan->CaptureTime = &C.Opt.Exec.Stats->timer("verify.ckpt.capture_time");
    Opts.Checkpoints = &*Plan;
  }
  {
    // The profile's runs and the traced run share one context, so each
    // run reserves its trace from the sizes of the runs before it. It is
    // freed before the session's own tables are built.
    ExecContext Ctx;
    {
      support::EventTracer::Span ProfileSpan(C.Opt.Exec.Tracer, "profile",
                                             "interp");
      Prof = profileTestSuite(
          Interp, Prog, TestSuite, C.Opt.Exec.MaxSteps, &Ctx,
          /*UnionDeps=*/C.PDBackend ==
              PotentialDepAnalyzer::Backend::UnionGraph);
    }
    support::EventTracer::Span InterpretSpan(C.Opt.Exec.Tracer, "interpret",
                                             "interp");
    Trace = Interp.run(FailingInput, Opts, Ctx);
  }
  Verdicts = diffOutputs(Trace, ExpectedOutputs);
  if (support::StatsRegistry *Stats = C.Opt.Exec.Stats) {
    Stats->histogram("session.trace_steps").record(Trace.size());
    if (Plan) {
      Stats->counter("verify.ckpt.stored").add(Snapshots->count());
      Stats->counter("verify.ckpt.bytes").add(Snapshots->bytes());
      Stats->counter("verify.ckpt.thinned").add(Snapshots->thinned());
      Stats->counter("verify.ckpt.skipped_dirty").add(Plan->SkippedDirty);
    }
  }
  if (!Verdicts)
    return;

  {
    support::EventTracer::Span GraphSpan(C.Opt.Exec.Tracer, "graph", "ddg");
    Graph = std::make_unique<ddg::DepGraph>(Trace);
  }
  {
    support::EventTracer::Span PDSpan(C.Opt.Exec.Tracer, "pd.build", "slicing");
    PD = std::make_unique<PotentialDepAnalyzer>(
        SA, Trace, C.PDBackend,
        C.PDBackend == PotentialDepAnalyzer::Backend::UnionGraph
            ? &Prof.UnionDeps
            : nullptr);
  }
  support::EventTracer::Span VerifySpan(C.Opt.Exec.Tracer, "verify.init", "core");
  ImplicitDepVerifier::Config VC;
  VC.MaxSteps = C.Locate.MaxSteps;
  VC.UsePathCheck = C.Locate.UsePathCheck;
  VC.Stats = C.Opt.Exec.Stats;
  VC.Tracer = C.Opt.Exec.Tracer;
  Verifier = std::make_unique<ImplicitDepVerifier>(
      Interp, Trace, FailingInput, *Verdicts, VC, checkpoints());
}

SliceResult DebugSession::dynamicSlice() const {
  assert(hasFailure() && "no failure to slice");
  support::EventTracer::Span SliceSpan(C.Opt.Exec.Tracer, "dynamic_slice", "slicing");
  // DS deliberately ignores implicit edges even if locate() added some.
  ddg::DepGraph::ClosureOptions Opts;
  Opts.Implicit = false;
  SliceResult R;
  R.Member = Graph->backwardClosure(
      {Trace.Outputs.at(Verdicts->WrongOutput).Step}, Opts);
  R.Stats = Graph->stats(R.Member);
  if (C.Opt.Exec.Stats) {
    C.Opt.Exec.Stats->counter("slicing.dynamic_slices").add();
    C.Opt.Exec.Stats->histogram("slicing.ds_static_stmts").record(R.Stats.StaticStmts);
    C.Opt.Exec.Stats->histogram("slicing.ds_dynamic_instances")
        .record(R.Stats.DynamicInstances);
  }
  return R;
}

RelevantSliceResult DebugSession::relevantSlice() const {
  assert(hasFailure() && "no failure to slice");
  support::EventTracer::Span SliceSpan(C.Opt.Exec.Tracer, "relevant_slice", "slicing");
  RelevantSliceResult R = relevantSliceOfWrongOutput(*Graph, *PD, *Verdicts);
  if (C.Opt.Exec.Stats) {
    C.Opt.Exec.Stats->counter("slicing.relevant_slices").add();
    C.Opt.Exec.Stats->histogram("slicing.rs_static_stmts")
        .record(R.Slice.Stats.StaticStmts);
    C.Opt.Exec.Stats->histogram("slicing.rs_dynamic_instances")
        .record(R.Slice.Stats.DynamicInstances);
  }
  return R;
}

std::vector<TraceIdx> DebugSession::prunedSlice() const {
  assert(hasFailure() && "no failure to prune");
  ConfidenceAnalysis CA(Prog, *Graph, &Prof.Values, *Verdicts);
  return CA.prunedSlice();
}

LocateReport DebugSession::locate(Oracle &O) {
  assert(hasFailure() && "no failure to locate");
  return locateFault(Prog, *Graph, *PD, *Verifier, &Prof.Values, *Verdicts, O,
                     C.Locate);
}

std::vector<bool> DebugSession::failureChain(StmtId RootCause) const {
  assert(hasFailure() && "no failure chain without a failure");
  return failureInducingChain(*Graph, RootCause, *Verdicts);
}

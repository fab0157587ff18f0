//===-- core/ValuePerturb.cpp - Value-perturbation verification ---------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/ValuePerturb.h"

#include "align/Aligner.h"

#include <cassert>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;

ValuePerturbVerifier::ValuePerturbVerifier(const Interpreter &Interp,
                                           const ExecutionTrace &E,
                                           std::vector<int64_t> Input,
                                           const slicing::OutputVerdicts &V,
                                           Config C)
    : Interp(Interp), E(E), Input(std::move(Input)), V(V), C(C) {}

ValuePerturbVerifier::Result
ValuePerturbVerifier::verify(TraceIdx DefInst, TraceIdx UseInst,
                             ExprId UseLoad,
                             const std::vector<int64_t> &CandidateValues) const {
  Result R;
  const StepRecord &DefStep = E.step(DefInst);
  assert(DefStep.NumDefs != 0 && "perturbation target defines nothing");

  // The original value the use observed, for change detection.
  int64_t OriginalValue = 0;
  bool HaveOriginal = false;
  for (const UseRecord &Use : E.uses(UseInst)) {
    if (Use.LoadExpr == UseLoad) {
      OriginalValue = Use.Value;
      HaveOriginal = true;
      break;
    }
  }

  for (int64_t Candidate : CandidateValues) {
    if (Candidate == DefStep.Value)
      continue; // Re-executing with the same value proves nothing.

    Interpreter::Options Opts;
    Opts.MaxSteps = C.MaxSteps;
    Opts.Perturb = PerturbSpec{DefStep.Stmt, DefStep.InstanceNo, Candidate};
    ExecutionTrace EP = Interp.run(Input, Opts);
    ++R.Reexecutions;
    if (EP.SwitchedStep == InvalidId || EP.Exit != ExitReason::Finished)
      continue; // Not reached, timed out, or crashed: no evidence.

    align::ExecutionAligner A(E, EP);

    // Strong analogue: did the wrong output's matching point produce the
    // expected value?
    const OutputEvent &Wrong = E.Outputs.at(V.WrongOutput);
    align::AlignResult OMatch = A.match(Wrong.Step);
    if (OMatch.found()) {
      for (const OutputEvent &Event : EP.Outputs) {
        if (Event.Step == OMatch.Matched && Event.ArgNo == Wrong.ArgNo &&
            Event.Value == V.ExpectedValue) {
          R.DependenceExposed = true;
          R.OutputCorrected = true;
          R.WitnessValue = Candidate;
          return R;
        }
      }
    }

    // The use disappeared, or observes a different value: exposed.
    align::AlignResult UMatch = A.match(UseInst);
    if (!UMatch.found()) {
      R.DependenceExposed = true;
      R.WitnessValue = Candidate;
      return R;
    }
    for (const UseRecord &Use : EP.uses(UMatch.Matched)) {
      if (Use.LoadExpr != UseLoad)
        continue;
      if (HaveOriginal && Use.Value != OriginalValue) {
        R.DependenceExposed = true;
        R.WitnessValue = Candidate;
        return R;
      }
      break;
    }
  }
  return R;
}

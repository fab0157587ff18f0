//===-- interp/Profiler.cpp - Test-suite profiling ---------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Profiler.h"

using namespace eoe;
using namespace eoe::interp;

bool UnionDependenceGraph::definesSomething(StmtId Def) const {
  auto It = Deps.lower_bound({Def, 0});
  return It != Deps.end() && It->first == Def;
}

void eoe::interp::accumulateTrace(Profile &P, const ExecutionTrace &Trace) {
  for (TraceIdx I = 0; I < Trace.Steps.size(); ++I) {
    const StepRecord &Step = Trace.Steps[I];
    for (const UseRecord &Use : Trace.uses(Step)) {
      if (!isValidId(Use.Def))
        continue;
      P.UnionDeps.addDataDep(Trace.Steps[Use.Def].Stmt, Use.LoadExpr);
    }
    for (const DefRecord &Def : Trace.defs(Step))
      P.Values.addValue(Step.Stmt, Def.Value);
  }
  ++P.Runs;
}

Profile eoe::interp::profileTestSuite(
    const Interpreter &Interp, const lang::Program &Prog,
    const std::vector<std::vector<int64_t>> &Suite, uint64_t MaxStepsPerRun) {
  Profile P(Prog.statements().size());
  Interpreter::Options Opts;
  Opts.MaxSteps = MaxStepsPerRun;
  for (const std::vector<int64_t> &Input : Suite)
    accumulateTrace(P, Interp.run(Input, Opts));
  return P;
}

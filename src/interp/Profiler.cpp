//===-- interp/Profiler.cpp - Test-suite profiling ---------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "interp/Profiler.h"

using namespace eoe;
using namespace eoe::interp;

Profile eoe::interp::profileTestSuite(
    const Interpreter &Interp, const lang::Program &Prog,
    const std::vector<std::vector<int64_t>> &Suite, uint64_t MaxStepsPerRun,
    ExecContext *Ctx, bool UnionDeps) {
  Profile P(Prog.statements().size());
  if (UnionDeps)
    P.UnionDeps = UnionDependenceGraph(Prog.expressions().size());
  ExecContext Local;
  Interpreter::Options Opts;
  Opts.MaxSteps = MaxStepsPerRun;
  for (const std::vector<int64_t> &Input : Suite) {
    const ExecutionTrace T = Interp.run(Input, Opts, Ctx ? *Ctx : Local);
    for (const StepRecord &Step : T.Steps) {
      if (UnionDeps)
        for (const UseRecord &Use : T.uses(Step))
          if (isValidId(Use.Def))
            P.UnionDeps.addDataDep(T.Steps[Use.Def].Stmt, Use.LoadExpr);
      for (const DefRecord &Def : T.defs(Step))
        P.Values.addValue(Step.Stmt, Def.Value);
    }
    ++P.Runs;
  }
  return P;
}

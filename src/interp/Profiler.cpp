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
    const std::vector<std::vector<int64_t>> &Suite, const ProfileOptions &PO) {
  Profile P(Prog.statements().size());
  Interpreter::Options Opts;
  Opts.MaxSteps = PO.MaxStepsPerRun;

  // Checkpoint warming piggybacks on the suite's existing re-executions:
  // the first run's trace names the capture sites (its pre-input prefix
  // is shared by every run of the program), the second run is executed
  // with collection instrumentation attached. Captures land in a
  // throwaway local store; what matters is their promotion into Share.
  const bool Warm = PO.Share && PO.ShareMaxSteps > 0 && Suite.size() >= 2;
  CheckpointPlan Plan;
  std::unique_ptr<CheckpointStore> Local;

  for (size_t I = 0; I < Suite.size(); ++I) {
    Interpreter::Options RunOpts = Opts;
    if (I == 1 && Warm && !Plan.Sites.empty())
      RunOpts.Checkpoints = &Plan;
    ExecutionTrace Trace = Interp.run(Suite[I], RunOpts);
    accumulateTrace(P, Trace);
    if (I == 0 && Warm) {
      // Sites: predicate instances strictly before the first input()
      // read (so captures are input-independent on any run) and within
      // the shared key's step budget (so a resumed run never outlives
      // the budget it is keyed by).
      TraceIdx Limit = Trace.FirstInputStep == InvalidId
                           ? static_cast<TraceIdx>(Trace.size())
                           : Trace.FirstInputStep;
      if (PO.ShareMaxSteps < Limit)
        Limit = static_cast<TraceIdx>(PO.ShareMaxSteps);
      for (TraceIdx S = 0; S < Limit; ++S)
        if (Trace.step(S).isPredicateInstance())
          Plan.Sites.push_back(S);
      if (!Plan.Sites.empty()) {
        CheckpointStore::Options SO;
        SO.BudgetBytes = PO.ShareBudgetBytes;
        SO.DeltaEncode = true;
        Local = std::make_unique<CheckpointStore>(SO);
        Plan.Store = Local.get();
        Plan.AutoBudgetBytes = PO.ShareBudgetBytes;
        Plan.TraceLength = Trace.size();
        Plan.Share = PO.Share;
        Plan.ShareHash = SharedCheckpointStore::hashProgram(Prog);
        Plan.ShareProgram = &Prog;
        Plan.ShareMaxSteps = PO.ShareMaxSteps;
      }
    }
  }
  return P;
}

Profile eoe::interp::profileTestSuite(
    const Interpreter &Interp, const lang::Program &Prog,
    const std::vector<std::vector<int64_t>> &Suite, uint64_t MaxStepsPerRun) {
  ProfileOptions PO;
  PO.MaxStepsPerRun = MaxStepsPerRun;
  return profileTestSuite(Interp, Prog, Suite, PO);
}

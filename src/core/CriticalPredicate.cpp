//===-- core/CriticalPredicate.cpp - Predicate-switching baseline --------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/CriticalPredicate.h"

#include <algorithm>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;

CriticalPredicateSearch::CriticalPredicateSearch(const Interpreter &Interp,
                                                 const ExecutionTrace &E,
                                                 std::vector<int64_t> Input,
                                                 std::vector<int64_t> Expected,
                                                 Config C)
    : Interp(Interp), E(E), Input(std::move(Input)),
      Expected(std::move(Expected)), C(C) {}

std::vector<TraceIdx> CriticalPredicateSearch::candidateOrder() const {
  std::vector<TraceIdx> Preds;
  for (TraceIdx I = 0; I < E.size(); ++I)
    if (E.step(I).isPredicateInstance())
      Preds.push_back(I);

  switch (C.SearchOrder) {
  case Order::FirstExecutedFirst:
    return Preds;
  case Order::LastExecutedFirst:
    std::reverse(Preds.begin(), Preds.end());
    return Preds;
  case Order::DependenceAware: {
    // Predicates in the dynamic slice of the first wrong output first
    // (closest to the failure leading), then the remainder, also
    // last-executed-first.
    std::vector<TraceIdx> InSlice, Rest;
    std::vector<bool> Member;
    if (auto V = slicing::diffOutputs(E, Expected)) {
      ddg::DepGraph G(E);
      Member = G.backwardClosure({E.Outputs.at(V->WrongOutput).Step},
                                 ddg::DepGraph::ClosureOptions());
    }
    for (auto It = Preds.rbegin(); It != Preds.rend(); ++It) {
      if (!Member.empty() && Member[*It])
        InSlice.push_back(*It);
      else
        Rest.push_back(*It);
    }
    InSlice.insert(InSlice.end(), Rest.begin(), Rest.end());
    return InSlice;
  }
  }
  return Preds;
}

CriticalPredicateSearch::Result CriticalPredicateSearch::search() const {
  Result R;
  // One pooled context for the whole sweep: each runSwitched used to
  // construct (and tear down) a throwaway ExecContext, so long candidate
  // orders paid an allocation storm per switch.
  interp::ExecContext Ctx;
  for (TraceIdx P : candidateOrder()) {
    if (R.Switches >= C.MaxSwitches)
      return R;
    const StepRecord &Step = E.step(P);
    ExecutionTrace EP =
        Interp.runSwitched(Input, {Step.Stmt, Step.InstanceNo}, C.MaxSteps,
                           &Ctx);
    ++R.Switches;
    if (EP.Exit == ExitReason::Finished && EP.outputValues() == Expected) {
      R.Found = true;
      R.CriticalInstance = P;
      return R;
    }
  }
  return R;
}

//===-- slicing/RelevantSlicer.cpp - Relevant slicing -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "slicing/RelevantSlicer.h"

#include <deque>

using namespace eoe;
using namespace eoe::slicing;
using namespace eoe::interp;

RelevantSliceResult
eoe::slicing::computeRelevantSlice(const ddg::DepGraph &G,
                                   const PotentialDepAnalyzer &PD,
                                   TraceIdx Seed) {
  const ExecutionTrace &T = G.trace();
  RelevantSliceResult R;
  R.Slice.Member.assign(T.size(), false);

  std::deque<TraceIdx> Work;
  auto Visit = [&](TraceIdx I) {
    if (I == InvalidId || R.Slice.Member[I])
      return;
    R.Slice.Member[I] = true;
    Work.push_back(I);
  };
  Visit(Seed);

  while (!Work.empty()) {
    TraceIdx I = Work.front();
    Work.pop_front();
    const StepRecord &Step = T.step(I);
    Visit(Step.CdParent);
    for (const UseRecord &Use : T.uses(Step)) {
      Visit(Use.Def);
      // Potential dependences: every qualifying predicate instance, not
      // just one per static predicate -- this is what makes relevant
      // slices explode dynamically (paper section 2's 100-instances
      // discussion).
      for (TraceIdx P : PD.compute(I, Use, /*OnePerPredicate=*/false)) {
        ++R.PotentialEdges;
        Visit(P);
      }
    }
  }
  R.Slice.Stats = G.stats(R.Slice.Member);
  return R;
}

RelevantSliceResult eoe::slicing::relevantSliceOfWrongOutput(
    const ddg::DepGraph &G, const PotentialDepAnalyzer &PD,
    const OutputVerdicts &V) {
  return computeRelevantSlice(G, PD, G.trace().Outputs.at(V.WrongOutput).Step);
}

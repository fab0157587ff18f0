//===-- ddg/DepGraph.cpp - Dynamic dependence graphs -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "ddg/DepGraph.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>

using namespace eoe;
using namespace eoe::ddg;
using namespace eoe::interp;

void DepGraph::addImplicitEdge(TraceIdx Use, TraceIdx Pred, bool Strong) {
  for (ImplicitEdge &E : Edges) {
    if (E.Use == Use && E.Pred == Pred) {
      E.Strong = E.Strong || Strong;
      return;
    }
  }
  Edges.push_back({Use, Pred, Strong});
  Fwd.Valid = false;
}

std::vector<TraceIdx> DepGraph::implicitPredsOf(TraceIdx Use) const {
  std::vector<TraceIdx> Out;
  for (const ImplicitEdge &E : Edges)
    if (E.Use == Use)
      Out.push_back(E.Pred);
  return Out;
}

std::vector<bool>
DepGraph::backwardClosure(const std::vector<TraceIdx> &Seeds,
                          const ClosureOptions &Opts,
                          std::vector<uint32_t> *Depth) const {
  std::vector<bool> Member(Trace.size(), false);
  if (Depth)
    Depth->assign(Trace.size(), std::numeric_limits<uint32_t>::max());

  std::deque<TraceIdx> Work;
  for (TraceIdx Seed : Seeds) {
    if (Seed == InvalidId || Member[Seed])
      continue;
    Member[Seed] = true;
    if (Depth)
      (*Depth)[Seed] = 0;
    Work.push_back(Seed);
  }

  auto Visit = [&](TraceIdx From, TraceIdx To) {
    if (To == InvalidId || Member[To])
      return;
    Member[To] = true;
    if (Depth)
      (*Depth)[To] = (*Depth)[From] + 1;
    Work.push_back(To);
  };

  while (!Work.empty()) {
    TraceIdx I = Work.front();
    Work.pop_front();
    const StepRecord &Step = Trace.step(I);
    if (Opts.Data)
      for (const UseRecord &Use : Trace.uses(Step))
        Visit(I, Use.Def);
    if (Opts.Control)
      Visit(I, Step.CdParent);
    if (Opts.Implicit)
      for (const ImplicitEdge &E : Edges)
        if (E.Use == I)
          Visit(I, E.Pred);
  }
  return Member;
}

void DepGraph::buildForwardIndex(const ClosureOptions &Opts) const {
  if (Fwd.Valid && Fwd.Opts.Data == Opts.Data &&
      Fwd.Opts.Control == Opts.Control && Fwd.Opts.Implicit == Opts.Implicit &&
      Fwd.EdgeCountWhenBuilt == Edges.size())
    return;
  Fwd.Opts = Opts;
  Fwd.EdgeCountWhenBuilt = Edges.size();
  Fwd.Dependents.assign(Trace.size(), {});
  for (TraceIdx I = 0; I < Trace.size(); ++I) {
    const StepRecord &Step = Trace.step(I);
    if (Opts.Data)
      for (const UseRecord &Use : Trace.uses(Step))
        if (isValidId(Use.Def))
          Fwd.Dependents[Use.Def].push_back(I);
    if (Opts.Control && isValidId(Step.CdParent))
      Fwd.Dependents[Step.CdParent].push_back(I);
  }
  if (Opts.Implicit)
    for (const ImplicitEdge &E : Edges)
      Fwd.Dependents[E.Pred].push_back(E.Use);
  Fwd.Valid = true;
}

std::vector<bool> DepGraph::forwardClosure(const std::vector<TraceIdx> &Seeds,
                                           const ClosureOptions &Opts) const {
  buildForwardIndex(Opts);
  std::vector<bool> Member(Trace.size(), false);
  std::deque<TraceIdx> Work;
  for (TraceIdx Seed : Seeds) {
    if (Seed == InvalidId || Member[Seed])
      continue;
    Member[Seed] = true;
    Work.push_back(Seed);
  }
  while (!Work.empty()) {
    TraceIdx I = Work.front();
    Work.pop_front();
    for (TraceIdx Dep : Fwd.Dependents[I]) {
      if (Member[Dep])
        continue;
      Member[Dep] = true;
      Work.push_back(Dep);
    }
  }
  return Member;
}

SliceStats DepGraph::stats(const std::vector<bool> &Member) const {
  SliceStats S;
  std::set<StmtId> Unique;
  for (TraceIdx I = 0; I < Member.size(); ++I) {
    if (!Member[I])
      continue;
    ++S.DynamicInstances;
    Unique.insert(Trace.step(I).Stmt);
  }
  S.StaticStmts = Unique.size();
  return S;
}

//===-- ddg/DepGraph.cpp - Dynamic dependence graphs -------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "ddg/DepGraph.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <set>

using namespace eoe;
using namespace eoe::ddg;
using namespace eoe::interp;

std::span<const uint32_t> DepGraph::edgesOfUse(TraceIdx Use) const {
  auto [First, Last] = std::ranges::equal_range(
      ByUse, Use, {}, [this](uint32_t K) { return Edges[K].Use; });
  return {First, Last};
}

void DepGraph::addImplicitEdge(TraceIdx Use, TraceIdx Pred, bool Strong) {
  std::span<const uint32_t> Same = edgesOfUse(Use);
  for (uint32_t K : Same) {
    if (Edges[K].Pred == Pred) {
      Edges[K].Strong = Edges[K].Strong || Strong;
      return;
    }
  }
  // After the use's other edges: a use's predecessors keep the order
  // they were added in.
  ByUse.insert(ByUse.begin() + (Same.data() - ByUse.data()) + Same.size(),
               static_cast<uint32_t>(Edges.size()));
  Edges.push_back({Use, Pred, Strong});
  Fwd.Valid = false;
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
      for (TraceIdx Pred : implicitPredsOf(I))
        Visit(I, Pred);
  }
  return Member;
}

void DepGraph::extendBackwardClosure(std::vector<bool> &Member,
                                     std::vector<uint32_t> *Depth,
                                     size_t FirstEdge) const {
  // Lowest depth first, so each instance is expanded once, at its final
  // depth; an entry whose instance was lowered again since is stale.
  // Without depths every entry is expanded exactly once anyway.
  using Entry = std::pair<uint32_t, TraceIdx>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> Work;
  auto Relax = [&](TraceIdx To, uint32_t D) {
    if (To == InvalidId || (Member[To] && (!Depth || (*Depth)[To] <= D)))
      return;
    Member[To] = true;
    if (Depth)
      (*Depth)[To] = D;
    Work.push({D, To});
  };

  // A new edge matters once its use is in the closure. Uses that join
  // below are expanded over all their edges, the new ones included.
  for (size_t K = FirstEdge; K < Edges.size(); ++K)
    if (Member[Edges[K].Use])
      Relax(Edges[K].Pred, Depth ? (*Depth)[Edges[K].Use] + 1 : 0);

  while (!Work.empty()) {
    auto [D, I] = Work.top();
    Work.pop();
    if (Depth && (*Depth)[I] != D)
      continue;
    const StepRecord &Step = Trace.step(I);
    for (const UseRecord &Use : Trace.uses(Step))
      Relax(Use.Def, D + 1);
    Relax(Step.CdParent, D + 1);
    for (TraceIdx Pred : implicitPredsOf(I))
      Relax(Pred, D + 1);
  }
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

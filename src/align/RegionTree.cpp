//===-- align/RegionTree.cpp - Execution regions ------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "align/RegionTree.h"

#include <cassert>

using namespace eoe;
using namespace eoe::align;
using namespace eoe::interp;

RegionTree::RegionTree(const ExecutionTrace &Trace) : Trace(Trace) {
  const size_t N = Trace.size();
  Enter.resize(N);
  Exit.resize(N);
  Depth.resize(N);

  // Counting sort of the nodes by parent (row N is the virtual region's):
  // count row R at R + 2, prefix-sum so that R + 1 holds row R's start,
  // then place the nodes in index order -- every row stays in execution
  // order, and each row's cursor ends at its end, which is R + 1's slot.
  auto Row = [&](TraceIdx I) -> size_t {
    TraceIdx P = Trace.Steps[I].CdParent;
    assert((P == InvalidId || P < I) &&
           "control-dependence parent must precede its children");
    return P == InvalidId ? N : P;
  };
  ChildBegin.assign(N + 3, 0);
  for (TraceIdx I = 0; I < N; ++I)
    ++ChildBegin[Row(I) + 2];
  for (size_t R = 2; R < N + 3; ++R)
    ChildBegin[R] += ChildBegin[R - 1];
  Kids.resize(N);
  for (TraceIdx I = 0; I < N; ++I)
    Kids[ChildBegin[Row(I) + 1]++] = I;
  ChildBegin.pop_back();

  // Iterative DFS assigning Euler intervals for subtree membership.
  uint32_t Clock = 0;
  std::vector<std::pair<TraceIdx, uint32_t>> Stack;
  for (TraceIdx Root : children(InvalidId)) {
    Stack.push_back({Root, ChildBegin[Root]});
    Enter[Root] = Clock++;
    Depth[Root] = 0;
    while (!Stack.empty()) {
      auto &[Node, Next] = Stack.back();
      if (Next < ChildBegin[Node + 1]) {
        TraceIdx C = Kids[Next++];
        Enter[C] = Clock++;
        Depth[C] = Depth[Node] + 1;
        Stack.push_back({C, ChildBegin[C]});
        continue;
      }
      Exit[Node] = Clock++;
      Stack.pop_back();
    }
  }
}

std::span<const TraceIdx> RegionTree::children(TraceIdx Head) const {
  const size_t R = Head == InvalidId ? Trace.size() : Head;
  assert(R <= Trace.size());
  return {Kids.data() + ChildBegin[R], ChildBegin[R + 1] - ChildBegin[R]};
}

bool RegionTree::inRegion(TraceIdx Node, TraceIdx Head) const {
  if (Head == InvalidId)
    return true;
  return Enter[Head] <= Enter[Node] && Exit[Node] <= Exit[Head];
}

size_t RegionTree::regionSize(TraceIdx Head) const {
  if (Head == InvalidId)
    return Trace.size();
  // Euler intervals contain two events per node.
  return (Exit[Head] - Enter[Head] + 1) / 2;
}

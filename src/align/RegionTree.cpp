//===-- align/RegionTree.cpp - Execution regions ------------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "align/RegionTree.h"

#include <algorithm>
#include <cassert>

using namespace eoe;
using namespace eoe::align;
using namespace eoe::interp;

RegionTree::RegionTree(const ExecutionTrace &Trace) {
  Parents.resize(Trace.size());
  for (size_t I = 0; I < Parents.size(); ++I)
    Parents[I] = Trace.Steps[I].CdParent;
  // A whole trace's only outer head is the virtual region, which holds
  // at least its first step.
  if (!Parents.empty())
    OuterHeads.push_back(InvalidId);
  build();
}

RegionTree::RegionTree(const ResumedTrace &Run, TraceIdx From) : From(From) {
  assert(From <= Run.size());
  Parents.reserve(Run.size() - From);
  for (TraceIdx I = From; I < Run.size(); ++I)
    addParent(Run.step(I).CdParent);
  build();
}

void RegionTree::addParent(TraceIdx P) {
  Parents.push_back(P);
  // Siblings come in runs, so most repeats are caught here; build()
  // sorts and deduplicates the rest.
  if ((P == InvalidId || P < From) &&
      (OuterHeads.empty() || OuterHeads.back() != P))
    OuterHeads.push_back(P);
}

void RegionTree::build() {
  const size_t N = Parents.size();
  Nodes.resize(N);
  std::sort(OuterHeads.begin(), OuterHeads.end());
  OuterHeads.erase(std::unique(OuterHeads.begin(), OuterHeads.end()),
                   OuterHeads.end());
  const size_t Rows = N + OuterHeads.size();

  // Counting sort of the nodes by parent row: count row R at R + 2,
  // prefix-sum so that R + 1 holds row R's start, then place the nodes in
  // index order -- every row stays in execution order, and each row's
  // cursor ends at its end, which is R + 1's slot.
  auto Row = [&](size_t I) -> size_t {
    TraceIdx P = Parents[I];
    if (P != InvalidId && P >= From) {
      assert(P - From < I && "control-dependence parent must precede its "
                             "children");
      return P - From;
    }
    return N + (std::lower_bound(OuterHeads.begin(), OuterHeads.end(), P) -
                OuterHeads.begin());
  };
  ChildBegin.assign(Rows + 2, 0);
  for (size_t I = 0; I < N; ++I)
    ++ChildBegin[Row(I) + 2];
  for (size_t R = 2; R < Rows + 2; ++R)
    ChildBegin[R] += ChildBegin[R - 1];
  Kids.resize(N);
  for (size_t I = 0; I < N; ++I)
    Kids[ChildBegin[Row(I) + 1]++] = From + static_cast<TraceIdx>(I);
  ChildBegin.pop_back();

  // Iterative DFS from the outer heads' children, assigning Euler
  // intervals for subtree membership.
  uint32_t Clock = 0;
  std::vector<std::pair<uint32_t, uint32_t>> Stack;
  for (uint32_t RootSlot = ChildBegin[N]; RootSlot < ChildBegin[Rows];
       ++RootSlot) {
    const uint32_t Root = Kids[RootSlot] - From;
    Stack.push_back({Root, ChildBegin[Root]});
    Nodes[Root].Enter = Clock++;
    Nodes[Root].Depth = 0;
    while (!Stack.empty()) {
      auto &[Node, Next] = Stack.back();
      if (Next < ChildBegin[Node + 1]) {
        const uint32_t C = Kids[Next++] - From;
        Nodes[C].Enter = Clock++;
        Nodes[C].Depth = Nodes[Node].Depth + 1;
        Stack.push_back({C, ChildBegin[C]});
        continue;
      }
      Nodes[Node].Exit = Clock++;
      Stack.pop_back();
    }
  }
}

std::span<const TraceIdx> RegionTree::children(TraceIdx Head) const {
  const size_t N = Parents.size();
  size_t R;
  if (Head != InvalidId && Head >= From) {
    R = Head - From;
    assert(R < N);
  } else {
    auto It = std::lower_bound(OuterHeads.begin(), OuterHeads.end(), Head);
    if (It == OuterHeads.end() || *It != Head)
      return {};
    R = N + (It - OuterHeads.begin());
  }
  return {Kids.data() + ChildBegin[R], ChildBegin[R + 1] - ChildBegin[R]};
}

bool RegionTree::inRegion(TraceIdx Node, TraceIdx Head) const {
  if (Head == InvalidId)
    return true;
  assert(Head >= From && "the region of a head before the indexed steps");
  if (Node < From)
    return false;
  const NodeInfo &H = Nodes[Head - From], &N = Nodes[Node - From];
  return H.Enter <= N.Enter && N.Exit <= H.Exit;
}

size_t RegionTree::regionSize(TraceIdx Head) const {
  if (Head == InvalidId)
    return Parents.size();
  // Euler intervals contain two events per node.
  const NodeInfo &H = Nodes[Head - From];
  return (H.Exit - H.Enter + 1) / 2;
}

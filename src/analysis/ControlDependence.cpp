//===-- analysis/ControlDependence.cpp - Static control dependence ----------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "analysis/ControlDependence.h"

#include "analysis/Csr.h"
#include "analysis/Dominators.h"

#include <cassert>

using namespace eoe;
using namespace eoe::analysis;

ControlDependence ControlDependence::build(const CFG &G) {
  uint32_t N = static_cast<uint32_t>(G.size());

  // Post-dominators: dominators of the reversed CFG rooted at Exit.
  std::vector<uint32_t> IPDom = computeImmediateDominators(
      N, CFG::ExitNode, [&G](uint32_t X) { return G.preds(X); },
      [&G](uint32_t X) { return G.succs(X); });

  // Ferrante-Ottenstein-Warren: for every branch edge (A -> B, Label) where
  // B does not post-dominate A, every node on the post-dominator-tree path
  // from B up to (exclusive) ipdom(A) is control dependent on (A, Label).
  // The walk runs twice, for the two-pass fill of Csr.h: once to count
  // each node's parents and each branch's children, once to place them.
  ControlDependence CD;
  CD.ParentStart.assign(N + 1, 0);
  CD.KidStart.assign(2 * N + 1, 0);
  auto Walk = [&](auto Visit) {
    for (uint32_t A = 0; A < N; ++A) {
      if (!G.isBranch(A))
        continue;
      assert(isValidId(G.node(A).Stmt) && "branch node without a statement");
      for (bool Label : {true, false}) {
        uint32_t Stop = IPDom[A];
        for (uint32_t Runner = G.branchTarget(A, Label); Runner != Stop;
             Runner = IPDom[Runner]) {
          assert(Runner != InvalidId && "walked off the post-dominator tree");
          if (isValidId(G.node(Runner).Stmt))
            Visit(A, Label, Runner);
          if (Runner == IPDom[Runner])
            break; // Defensive: avoid looping on a self-idom root.
        }
      }
    }
  };
  Walk([&](uint32_t A, bool Label, uint32_t Runner) {
    ++CD.ParentStart[Runner + 1];
    ++CD.KidStart[2 * A + (Label ? 0 : 1) + 1];
  });
  countsToOffsets(CD.ParentStart);
  countsToOffsets(CD.KidStart);
  CD.Parents.resize(CD.ParentStart[N]);
  CD.Kids.resize(CD.KidStart[2 * N]);
  Walk([&](uint32_t A, bool Label, uint32_t Runner) {
    CD.Parents[CD.ParentStart[Runner]++] = {G.node(A).Stmt, Label};
    CD.Kids[CD.KidStart[2 * A + (Label ? 0 : 1)]++] = G.node(Runner).Stmt;
  });
  rewindCursors(CD.ParentStart);
  rewindCursors(CD.KidStart);
  return CD;
}

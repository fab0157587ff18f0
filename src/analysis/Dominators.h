//===-- analysis/Dominators.h - Dominator computation ------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immediate-dominator computation (Cooper-Harvey-Kennedy iterative
/// algorithm) over any graph that can list a node's successors and
/// predecessors. Post-dominators are obtained by running it on the
/// reversed CFG with Exit as the root: pass the CFG's predecessors as the
/// successors and its successors as the predecessors.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_ANALYSIS_DOMINATORS_H
#define EOE_ANALYSIS_DOMINATORS_H

#include "support/Ids.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace eoe {
namespace analysis {

/// Computes immediate dominators of a flow graph.
///
/// \param NumNodes the number of nodes; nodes are 0 .. NumNodes - 1.
/// \param Root the graph's entry node.
/// \param Succs Succs(N) is the range of N's successors (forward edges of
///        the graph being dominated).
/// \param Preds Preds(N) is the range of N's predecessors (must be
///        consistent with Succs).
/// \returns IDom[N] for every node; Root maps to itself and nodes
///          unreachable from Root map to InvalidId.
template <typename SuccsFn, typename PredsFn>
std::vector<uint32_t> computeImmediateDominators(uint32_t NumNodes,
                                                 uint32_t Root,
                                                 SuccsFn Succs,
                                                 PredsFn Preds) {
  // Postorder from Root (iterative DFS with an explicit stack). RpoNumber
  // marks the visited nodes until it is numbered.
  constexpr uint32_t Visited = InvalidId - 1;
  std::vector<uint32_t> PostOrder;
  PostOrder.reserve(NumNodes);
  std::vector<uint32_t> RpoNumber(NumNodes, InvalidId);
  std::vector<std::pair<uint32_t, uint32_t>> Stack;
  Stack.push_back({Root, 0});
  RpoNumber[Root] = Visited;
  while (!Stack.empty()) {
    auto &[Node, NextSucc] = Stack.back();
    auto Range = Succs(Node);
    if (NextSucc < Range.size()) {
      uint32_t S = Range[NextSucc++];
      if (RpoNumber[S] == InvalidId) {
        RpoNumber[S] = Visited;
        Stack.push_back({S, 0});
      }
      continue;
    }
    PostOrder.push_back(Node);
    Stack.pop_back();
  }
  for (size_t I = 0; I < PostOrder.size(); ++I)
    RpoNumber[PostOrder[I]] = static_cast<uint32_t>(PostOrder.size() - 1 - I);

  std::vector<uint32_t> IDom(NumNodes, InvalidId);
  IDom[Root] = Root;

  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (RpoNumber[A] > RpoNumber[B])
        A = IDom[A];
      while (RpoNumber[B] > RpoNumber[A])
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Process in reverse postorder (PostOrder backwards), skipping Root.
    for (auto It = PostOrder.rbegin(); It != PostOrder.rend(); ++It) {
      uint32_t Node = *It;
      if (Node == Root)
        continue;
      uint32_t NewIDom = InvalidId;
      for (uint32_t P : Preds(Node)) {
        if (IDom[P] == InvalidId)
          continue; // Not yet processed or unreachable.
        NewIDom = (NewIDom == InvalidId) ? P : Intersect(P, NewIDom);
      }
      if (NewIDom != InvalidId && IDom[Node] != NewIDom) {
        IDom[Node] = NewIDom;
        Changed = true;
      }
    }
  }
  return IDom;
}

/// Returns true if \p A dominates \p B (reflexively) under \p IDom.
inline bool dominates(const std::vector<uint32_t> &IDom, uint32_t A,
                      uint32_t B, uint32_t Root) {
  // Walk B's dominator chain up to the root.
  while (true) {
    if (A == B)
      return true;
    if (B == Root || IDom[B] == InvalidId)
      return false;
    B = IDom[B];
  }
}

} // namespace analysis
} // namespace eoe

#endif // EOE_ANALYSIS_DOMINATORS_H

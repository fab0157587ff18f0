//===-- analysis/CFG.h - Control-flow graphs ---------------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-function control-flow graphs over Siml statements. Each statement
/// is one CFG node (if/while nodes are the branch points); two synthetic
/// nodes represent function entry and exit. The paper's prototype obtained
/// the same information from diablo on x86 binaries.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_ANALYSIS_CFG_H
#define EOE_ANALYSIS_CFG_H

#include "lang/AST.h"
#include "support/Ids.h"

#include <span>
#include <vector>

namespace eoe {
namespace analysis {

/// A control-flow graph for one function.
///
/// Node numbering: node 0 is Entry, node 1 is Exit, statement nodes follow.
/// A node keeps its successors inline (a statement has at most two), and
/// the graph keeps every node's predecessors in one array, so building a
/// function's graph allocates three arrays whatever its size. Predicate
/// nodes have exactly two successors: the first is the target when the
/// condition is true, the second when it is false.
class CFG {
public:
  static constexpr uint32_t EntryNode = 0;
  static constexpr uint32_t ExitNode = 1;

  struct Node {
    /// The statement this node represents; InvalidId for Entry/Exit.
    StmtId Stmt = InvalidId;
    uint32_t Succs[2] = {InvalidId, InvalidId};
    uint32_t NumSuccs = 0;
  };

  /// Builds the CFG of \p F (whose nodes belong to \p Prog).
  static CFG build(const lang::Program &Prog, const lang::Function &F);

  const std::vector<Node> &nodes() const { return Nodes; }
  const Node &node(uint32_t Index) const { return Nodes.at(Index); }
  size_t size() const { return Nodes.size(); }

  /// The successors of node \p Index; a branch's true target first.
  std::span<const uint32_t> succs(uint32_t Index) const {
    const Node &N = Nodes[Index];
    return {N.Succs, N.NumSuccs};
  }

  /// The predecessors of node \p Index in increasing node order; a branch
  /// whose two targets are both \p Index appears twice.
  std::span<const uint32_t> preds(uint32_t Index) const {
    return {PredList.data() + PredStart[Index],
            PredList.data() + PredStart[Index + 1]};
  }

  /// True if node \p Index branches (it has two successors).
  bool isBranch(uint32_t Index) const { return Nodes[Index].NumSuccs == 2; }

  /// Returns the successor of branch node \p Index for outcome \p Taken.
  uint32_t branchTarget(uint32_t Index, bool Taken) const {
    return Nodes[Index].Succs[Taken ? 0 : 1];
  }

private:
  std::vector<Node> Nodes;
  std::vector<uint32_t> PredStart; // size() + 1 offsets into PredList
  std::vector<uint32_t> PredList;
};

} // namespace analysis
} // namespace eoe

#endif // EOE_ANALYSIS_CFG_H

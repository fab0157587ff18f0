//===-- analysis/ControlDependence.h - Static control dependence -*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static control dependence computed per function with the classic
/// Ferrante-Ottenstein-Warren construction (post-dominance frontiers).
///
/// The results drive three consumers:
///  - the interpreter resolves each statement instance's *dynamic* control
///    dependence parent as the most recent instance of one of its static
///    control-dependence parents (which yields the paper's region tree,
///    Definition 3);
///  - relevant slicing checks Definition 1(iv) against the statements
///    guarded by a predicate's not-taken outcome;
///  - verifyDep's region containment test (paper section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef EOE_ANALYSIS_CONTROLDEPENDENCE_H
#define EOE_ANALYSIS_CONTROLDEPENDENCE_H

#include "analysis/CFG.h"
#include "support/Ids.h"

#include <span>
#include <vector>

namespace eoe {
namespace analysis {

/// Control dependences of one function's statements, indexed by CFG node.
/// Both tables are compressed-sparse-row arrays, so a function's
/// dependences take four allocations whatever its size.
class ControlDependence {
public:
  /// One direct control dependence: the dependent statement executes iff
  /// predicate \c Pred takes outcome \c Branch (subject to outer control).
  struct Parent {
    StmtId Pred;
    bool Branch;
    bool operator==(const Parent &O) const = default;
  };

  /// Computes control dependence for \p G using its post-dominator tree.
  static ControlDependence build(const CFG &G);

  /// Direct control-dependence parents of the statement at CFG node
  /// \p Node (usually one; multiple in the presence of
  /// break/continue/return), in order of their predicates' nodes, true
  /// outcome first. Empty when the statement is only control dependent
  /// on function entry.
  std::span<const Parent> parents(uint32_t Node) const {
    return {Parents.data() + ParentStart[Node],
            Parents.data() + ParentStart[Node + 1]};
  }

  /// Direct control-dependence children of the predicate at CFG node
  /// \p Node under outcome \p Branch, from the branch target up the
  /// post-dominator tree.
  std::span<const StmtId> children(uint32_t Node, bool Branch) const {
    uint32_t Slot = 2 * Node + (Branch ? 0 : 1);
    return {Kids.data() + KidStart[Slot], Kids.data() + KidStart[Slot + 1]};
  }

private:
  std::vector<uint32_t> ParentStart; // per node, offsets into Parents
  std::vector<Parent> Parents;
  std::vector<uint32_t> KidStart; // per (node, outcome), offsets into Kids
  std::vector<StmtId> Kids;
};

} // namespace analysis
} // namespace eoe

#endif // EOE_ANALYSIS_CONTROLDEPENDENCE_H

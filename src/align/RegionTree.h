//===-- align/RegionTree.h - Execution regions -------------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The region decomposition of an execution (the paper's Definition 3):
/// a statement execution s and the statement executions control dependent
/// on s form a region. Because the interpreter records every instance's
/// dynamic control-dependence parent, the region structure is exactly the
/// forest induced by CdParent; each loop iteration nests inside the
/// previous iteration's region, and callee instances nest inside their
/// call statement's region.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_ALIGN_REGIONTREE_H
#define EOE_ALIGN_REGIONTREE_H

#include "interp/Trace.h"
#include "support/Ids.h"

#include <span>
#include <vector>

namespace eoe {
namespace align {

/// The region forest of one execution trace. Regions are identified by
/// their head instance (the trace index of the statement execution that
/// heads them); the virtual whole-execution region is InvalidId.
class RegionTree {
public:
  explicit RegionTree(const interp::ExecutionTrace &Trace);

  const interp::ExecutionTrace &trace() const { return Trace; }

  /// Head of the region immediately surrounding \p Node (the paper's
  /// Region(s)); InvalidId when \p Node is a top-level instance.
  TraceIdx parent(TraceIdx Node) const { return Trace.step(Node).CdParent; }

  /// Direct sub-instances of the region headed by \p Head in execution
  /// order; pass InvalidId for the virtual whole-execution region.
  std::span<const TraceIdx> children(TraceIdx Head) const;

  /// True if \p Node lies in the region headed by \p Head, including the
  /// head itself; every node is in the virtual region (Head == InvalidId).
  bool inRegion(TraceIdx Node, TraceIdx Head) const;

  /// Number of nodes in the region headed by \p Head (including the head).
  size_t regionSize(TraceIdx Head) const;

  /// Depth of \p Node in the forest (top-level instances have depth 0).
  uint32_t depth(TraceIdx Node) const { return Depth[Node]; }

private:
  const interp::ExecutionTrace &Trace;
  /// Children in compressed sparse row form: node N's children are
  /// Kids[ChildBegin[N], ChildBegin[N + 1]), in execution order; row
  /// size() holds the roots (the virtual region's children).
  std::vector<uint32_t> ChildBegin;
  std::vector<TraceIdx> Kids;
  /// DFS intervals for O(1) subtree membership tests.
  std::vector<uint32_t> Enter;
  std::vector<uint32_t> Exit;
  std::vector<uint32_t> Depth;
};

} // namespace align
} // namespace eoe

#endif // EOE_ALIGN_REGIONTREE_H

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

/// The region forest of one execution trace, or of the steps of a run
/// from some index on. Regions are identified by their head instance (the
/// trace index of the statement execution that heads them); the virtual
/// whole-execution region is InvalidId.
class RegionTree {
public:
  /// The forest of the whole of \p Trace.
  explicit RegionTree(const interp::ExecutionTrace &Trace);

  /// The forest of \p Run's steps from \p From on: the steps indexed, each
  /// under its region. A head below From (or the virtual region) lists
  /// only its children from From on; the aligner takes a switched run's
  /// children below its switch point from the original run instead.
  RegionTree(const interp::ResumedTrace &Run, TraceIdx From);

  /// Head of the region immediately surrounding the indexed step \p Node
  /// (the paper's Region(s)); InvalidId when \p Node is a top-level
  /// instance.
  TraceIdx parent(TraceIdx Node) const { return Parents[Node - From]; }

  /// Indexed sub-instances of the region headed by \p Head in execution
  /// order; pass InvalidId for the virtual whole-execution region.
  std::span<const TraceIdx> children(TraceIdx Head) const;

  /// True if \p Node lies in the region headed by \p Head, including the
  /// head itself; every node is in the virtual region (Head == InvalidId).
  /// \p Head must be indexed; a node before From is outside its region.
  bool inRegion(TraceIdx Node, TraceIdx Head) const;

  /// Number of nodes in the region headed by the indexed \p Head
  /// (including the head); for InvalidId, the number of indexed nodes.
  size_t regionSize(TraceIdx Head) const;

  /// Depth of the indexed \p Node in the forest (instances whose region
  /// is not indexed have depth 0).
  uint32_t depth(TraceIdx Node) const { return Nodes[Node - From].Depth; }

private:
  /// Records the next indexed step's parent.
  void addParent(TraceIdx P);
  /// Builds the forest from the indexed steps' parents.
  void build();

  /// One indexed step's DFS interval, for O(1) subtree membership
  /// tests, and its depth.
  struct NodeInfo {
    uint32_t Enter = 0;
    uint32_t Exit = 0;
    uint32_t Depth = 0;
  };

  TraceIdx From = 0;
  std::vector<TraceIdx> Parents;
  std::vector<NodeInfo> Nodes;
  /// The heads outside the indexed range with indexed children,
  /// ascending (InvalidId last).
  std::vector<TraceIdx> OuterHeads;
  /// Children in compressed sparse row form: indexed node N's children
  /// are Kids[ChildBegin[N - From], ChildBegin[N - From + 1]), in
  /// execution order; the rows after the indexed nodes' are OuterHeads'.
  std::vector<uint32_t> ChildBegin;
  std::vector<TraceIdx> Kids;
};

} // namespace align
} // namespace eoe

#endif // EOE_ALIGN_REGIONTREE_H

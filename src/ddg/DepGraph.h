//===-- ddg/DepGraph.h - Dynamic dependence graphs ---------------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic dependence graph: an execution trace (whose UseRecord.Def
/// fields are the data-dependence edges and CdParent fields the control-
/// dependence edges) plus any implicit dependence edges added by the
/// verification procedure. Provides backward/forward closures (slices)
/// and slice-size accounting in both the static (unique statements) and
/// dynamic (statement instances) senses the paper's Table 2 reports.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_DDG_DEPGRAPH_H
#define EOE_DDG_DEPGRAPH_H

#include "interp/Trace.h"
#include "support/Ids.h"

#include <ranges>
#include <span>
#include <vector>

namespace eoe {
namespace ddg {

/// Static/dynamic size of a slice (Table 2's "static/dynamic" columns).
struct SliceStats {
  size_t StaticStmts = 0;
  size_t DynamicInstances = 0;
};

/// A dynamic dependence graph over one execution trace.
///
/// The trace is borrowed and must outlive the graph.
class DepGraph {
public:
  /// One verified implicit dependence edge: \c Use (a statement instance)
  /// implicitly depends on predicate instance \c Pred (the paper's
  /// p -id-> u, stored use-first for backward traversal).
  struct ImplicitEdge {
    TraceIdx Use = InvalidId;
    TraceIdx Pred = InvalidId;
    bool Strong = false;
  };

  /// Which edge kinds a closure follows.
  struct ClosureOptions {
    bool Data = true;
    bool Control = true;
    bool Implicit = true;
  };

  explicit DepGraph(const interp::ExecutionTrace &Trace) : Trace(Trace) {}

  const interp::ExecutionTrace &trace() const { return Trace; }

  /// Adds a verified implicit dependence edge. Duplicate (Use, Pred)
  /// pairs are ignored.
  void addImplicitEdge(TraceIdx Use, TraceIdx Pred, bool Strong);

  /// The implicit edges in the order they were added.
  const std::vector<ImplicitEdge> &implicitEdges() const { return Edges; }

  /// Predicate instances that \p Use implicitly depends on, in the order
  /// their edges were added.
  auto implicitPredsOf(TraceIdx Use) const {
    return edgesOfUse(Use) |
           std::views::transform([this](uint32_t K) { return Edges[K].Pred; });
  }

  /// Computes the backward closure (dynamic slice) from \p Seeds.
  /// \param Depth if non-null, receives per-instance dependence distance
  ///        (edge count from the nearest seed); untouched entries are
  ///        UINT32_MAX. Used by the confidence ranking.
  std::vector<bool> backwardClosure(const std::vector<TraceIdx> &Seeds,
                                    const ClosureOptions &Opts,
                                    std::vector<uint32_t> *Depth = nullptr) const;

  /// Extends \p Member, a backward closure over every edge kind computed
  /// before implicitEdges()[FirstEdge] was added, to the closure of the
  /// same seeds under the current edges. Adding edges only grows a
  /// closure, so only the instances whose membership or depth changes
  /// are visited. \p Depth, if non-null, holds the closure's depths as
  /// backwardClosure() computes them and is lowered to the new ones.
  /// \p Changed, if non-null, receives each instance whose membership or
  /// depth changed, once.
  void extendBackwardClosure(std::vector<bool> &Member,
                             std::vector<uint32_t> *Depth, size_t FirstEdge,
                             std::vector<TraceIdx> *Changed = nullptr) const;

  /// Computes the forward closure from \p Seeds: every instance that
  /// (transitively) depends on a seed. Used to derive the paper's OS
  /// (failure-inducing chain) as forward(root cause) ∩ backward(failure).
  std::vector<bool> forwardClosure(const std::vector<TraceIdx> &Seeds,
                                   const ClosureOptions &Opts) const;

  /// Counts unique statements and instances among \p Member.
  SliceStats stats(const std::vector<bool> &Member) const;

private:
  /// The positions in Edges of \p Use's edges, in the order they were
  /// added.
  std::span<const uint32_t> edgesOfUse(TraceIdx Use) const;

  /// Lazily builds the forward adjacency (instance -> dependents).
  void buildForwardIndex(const ClosureOptions &Opts) const;

  const interp::ExecutionTrace &Trace;
  std::vector<ImplicitEdge> Edges;
  /// Every position in Edges, sorted by use and, within a use, by
  /// position.
  std::vector<uint32_t> ByUse;

  struct ForwardIndex {
    ClosureOptions Opts;
    size_t EdgeCountWhenBuilt = 0;
    std::vector<std::vector<TraceIdx>> Dependents;
    bool Valid = false;
  };
  mutable ForwardIndex Fwd;
};

} // namespace ddg
} // namespace eoe

#endif // EOE_DDG_DEPGRAPH_H

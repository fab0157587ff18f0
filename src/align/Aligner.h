//===-- align/Aligner.h - Execution alignment (Algorithm 1) ------*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Region-based execution alignment: the paper's Algorithm 1. Given an
/// original execution E, a switched execution E' (same program, same
/// input, one predicate instance's outcome negated), and a point u in E,
/// the aligner finds the point in E' that corresponds to u, or reports
/// that no such point exists and why.
///
/// Key invariant exploited: E and E' are byte-identical up to the switch
/// point, so the switched instance and everything before it (including
/// every region enclosing the switched predicate) have equal trace
/// indices in both executions. Below the common ancestor region, regions
/// are matched positionally, sibling by sibling, comparing static
/// statements and branch outcomes exactly as the paper describes (with
/// single-entry-multiple-exit regions failing the walk when the switched
/// run exits a region early -- the paper's Figure 3).
///
/// The same invariant keeps the switched run's region tree small: it
/// indexes only the steps from the switch point on. A region head below
/// the switch has the same children below the switch in both runs, so
/// the walk takes those from the original run's tree and the rest from
/// the switched run's.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_ALIGN_ALIGNER_H
#define EOE_ALIGN_ALIGNER_H

#include "align/RegionTree.h"
#include "interp/Trace.h"
#include "support/Stats.h"

#include <optional>

namespace eoe {
namespace align {

/// Why an alignment query failed to find a corresponding point.
enum class AlignFailure {
  None,
  /// The switched run left the enclosing region before reaching the
  /// sibling subregion that contains u (Figure 3's break case).
  RegionEndedEarly,
  /// A predicate on the path to u took a different branch in the
  /// switched run (Algorithm 1 line 23).
  BranchDiverged,
  /// Lockstep siblings disagree on their static statement -- control
  /// flow reconverged differently; treated as no-match.
  StaticMismatch,
  /// The switched run never reached the predicate (cannot happen for
  /// well-formed queries; reported defensively, e.g. after a step-limit
  /// abort before the switch point).
  SwitchNotApplied
};

/// Result of one alignment query.
struct AlignResult {
  /// The instance in E' corresponding to u; InvalidId when not found.
  TraceIdx Matched = InvalidId;
  AlignFailure Why = AlignFailure::None;

  bool found() const { return Matched != InvalidId; }
};

/// Aligns a switched execution against its original.
class ExecutionAligner {
public:
  /// Aligns \p Switched against \p Original, whose region tree
  /// \p OriginalTree is: the verifier builds it once and shares it, since
  /// it is identical across every switched run verified against the same
  /// original. All three must outlive the aligner. \p Switched should
  /// carry a switched step (the flipped predicate instance); aligning two
  /// identical executions (no switch) degenerates to the identity. When
  /// \p Stats is given, queries record their outcome mix and the number
  /// of region levels walked (align.queries, align.matched,
  /// align.no_match.*, align.regions_walked, align.prefix_hits).
  ExecutionAligner(const interp::ExecutionTrace &Original,
                   const interp::ResumedTrace &Switched,
                   const RegionTree &OriginalTree,
                   support::StatsRegistry *Stats = nullptr);

  /// Same, for a fully recorded switched run; the aligner builds the
  /// original's region tree itself. Both traces must outlive it.
  ExecutionAligner(const interp::ExecutionTrace &Original,
                   const interp::ExecutionTrace &Switched,
                   support::StatsRegistry *Stats = nullptr);

  // TreeE and EP may point into the aligner's own members.
  ExecutionAligner(const ExecutionAligner &) = delete;
  ExecutionAligner &operator=(const ExecutionAligner &) = delete;

  /// Finds the point in the switched run corresponding to instance \p U
  /// of the original run. \p U may be any instance (before or after the
  /// switch point).
  AlignResult match(TraceIdx U) const;

  const RegionTree &originalTree() const { return *TreeE; }
  /// The switched run's region tree over its steps from the switch point
  /// on (none when no switch was applied). Its inRegion(D, switchPoint())
  /// is the verdict's edge check.
  const RegionTree &switchedTree() const { return TreeEP; }

  /// The switched predicate instance (equal index in both runs);
  /// InvalidId when the switched run carries no switch.
  TraceIdx switchPoint() const { return Switch; }

private:
  AlignResult matchImpl(TraceIdx U) const;
  AlignResult matchInsideRegion(TraceIdx R, TraceIdx U, TraceIdx RPrime) const;
  void bindStats(support::StatsRegistry *Stats);

  const interp::ExecutionTrace &E;
  /// Engaged only for a fully recorded switched run: a view of it.
  std::optional<interp::ResumedTrace> OwnedEP;
  const interp::ResumedTrace &EP;
  /// Engaged only when the original tree is not shared.
  std::optional<RegionTree> OwnedTreeE;
  /// The original run's region tree: &*OwnedTreeE or the shared one.
  const RegionTree *TreeE;
  TraceIdx Switch;
  RegionTree TreeEP;

  /// Metric handles; all null on unobserved aligners.
  support::StatCounter *CQueries = nullptr;
  support::StatCounter *CMatched = nullptr;
  support::StatCounter *CPrefixHits = nullptr;
  support::StatCounter *CRegionsWalked = nullptr;
  support::StatCounter *CFailEndedEarly = nullptr;
  support::StatCounter *CFailBranchDiverged = nullptr;
  support::StatCounter *CFailStaticMismatch = nullptr;
  support::StatCounter *CFailSwitchNotApplied = nullptr;
};

} // namespace align
} // namespace eoe

#endif // EOE_ALIGN_ALIGNER_H

//===-- align/Aligner.cpp - Execution alignment (Algorithm 1) ----------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "align/Aligner.h"

#include <algorithm>
#include <cassert>

using namespace eoe;
using namespace eoe::align;
using namespace eoe::interp;

/// Where the switched run's region tree starts: its switch point, or its
/// end when no switch was applied (the aligner then never walks it).
static TraceIdx switchedTreeStart(const ResumedTrace &EP) {
  return EP.switchedStep() != InvalidId ? EP.switchedStep()
                                        : static_cast<TraceIdx>(EP.size());
}

ExecutionAligner::ExecutionAligner(const ExecutionTrace &Original,
                                   const ResumedTrace &Switched,
                                   const RegionTree &OriginalTree,
                                   support::StatsRegistry *Stats)
    : E(Original), EP(Switched), TreeE(&OriginalTree),
      Switch(Switched.switchedStep()),
      TreeEP(Switched, switchedTreeStart(Switched)) {
  bindStats(Stats);
}

ExecutionAligner::ExecutionAligner(const ExecutionTrace &Original,
                                   const ExecutionTrace &Switched,
                                   support::StatsRegistry *Stats)
    : E(Original), OwnedEP(ResumedTrace::view(Switched)), EP(*OwnedEP),
      OwnedTreeE(std::in_place, Original), TreeE(&*OwnedTreeE),
      Switch(Switched.SwitchedStep), TreeEP(EP, switchedTreeStart(EP)) {
  bindStats(Stats);
}

void ExecutionAligner::bindStats(support::StatsRegistry *Stats) {
  if (!Stats)
    return;
  Stats->counter("align.aligners").add();
  CQueries = &Stats->counter("align.queries");
  CMatched = &Stats->counter("align.matched");
  CPrefixHits = &Stats->counter("align.prefix_hits");
  CRegionsWalked = &Stats->counter("align.regions_walked");
  CFailEndedEarly = &Stats->counter("align.no_match.region_ended_early");
  CFailBranchDiverged = &Stats->counter("align.no_match.branch_diverged");
  CFailStaticMismatch = &Stats->counter("align.no_match.static_mismatch");
  CFailSwitchNotApplied = &Stats->counter("align.no_match.switch_not_applied");
}

AlignResult ExecutionAligner::match(TraceIdx U) const {
  AlignResult R = matchImpl(U);
  if (CQueries) {
    CQueries->add();
    if (R.found()) {
      CMatched->add();
      // The shared-prefix early-out: everything at or before the switch
      // point matches itself without walking any region.
      if (Switch != InvalidId && U <= Switch)
        CPrefixHits->add();
    } else {
      switch (R.Why) {
      case AlignFailure::RegionEndedEarly:
        CFailEndedEarly->add();
        break;
      case AlignFailure::BranchDiverged:
        CFailBranchDiverged->add();
        break;
      case AlignFailure::StaticMismatch:
        CFailStaticMismatch->add();
        break;
      case AlignFailure::SwitchNotApplied:
        CFailSwitchNotApplied->add();
        break;
      case AlignFailure::None:
        break;
      }
    }
  }
  return R;
}

AlignResult ExecutionAligner::matchImpl(TraceIdx U) const {
  assert(U < E.size() && "query point outside the original trace");

  if (Switch == InvalidId) {
    // No switch was applied: the runs are identical; E' may still be
    // shorter if it aborted early.
    if (U < EP.size() && EP.step(U).Stmt == E.step(U).Stmt)
      return {U, AlignFailure::None};
    return {InvalidId, AlignFailure::SwitchNotApplied};
  }

  // Everything up to and including the switch point is shared verbatim.
  if (U <= Switch)
    return {U, AlignFailure::None};

  // Climb from Region(p) until the region contains u (Algorithm 1,
  // Match()). These regions all start before the switch point, so their
  // heads have identical indices in both executions.
  TraceIdx R = TreeE->parent(Switch);
  while (R != InvalidId && !TreeE->inRegion(U, R))
    R = TreeE->parent(R);
  // R == InvalidId denotes the virtual whole-execution region.
  return matchInsideRegion(R, U, R);
}

AlignResult ExecutionAligner::matchInsideRegion(TraceIdx R, TraceIdx U,
                                                TraceIdx RPrime) const {
  // Tallied locally and flushed once per query, so the sibling walk does
  // no atomic work per region.
  struct WalkTally {
    support::StatCounter *C;
    uint64_t N = 0;
    ~WalkTally() {
      if (C && N)
        C->add(N);
    }
  } Walked{CRegionsWalked};

  // Iterative descent: region nesting depth grows with loop iteration
  // counts (each iteration nests inside the previous one), so recursion
  // would overflow the stack on long-running loops.
  while (true) {
    ++Walked.N;
    assert(TreeE->inRegion(U, R) && "region does not contain the query point");
    if (R != InvalidId && U == R)
      return {RPrime, AlignFailure::None};

    std::span<const TraceIdx> Cs = TreeE->children(R);
    // The switched run's subregions of RPrime. Below the switch point
    // RPrime == R (the walk descends into a shared child only as itself),
    // and the two runs agree on R's children below the switch: they are
    // the shared Cs[0, Shared), followed by the switched run's own.
    std::span<const TraceIdx> Own = TreeEP.children(RPrime);
    size_t Shared = 0;
    if (RPrime == InvalidId || RPrime < Switch)
      Shared = std::lower_bound(Cs.begin(), Cs.end(), Switch) - Cs.begin();

    bool Descended = false;
    for (size_t I = 0; I < Cs.size(); ++I) {
      TraceIdx C = Cs[I];
      // Algorithm 1 lines 16/20: the switched run exhausted this
      // region's subregions before reaching the one that contains u.
      if (I >= Shared + Own.size())
        return {InvalidId, AlignFailure::RegionEndedEarly};
      // A shared child is itself in the switched run.
      TraceIdx CP = I < Shared ? C : Own[I - Shared];
      const StepRecord &SP = I < Shared ? E.step(C) : EP.step(CP);
      if (E.step(C).Stmt != SP.Stmt)
        return {InvalidId, AlignFailure::StaticMismatch};

      if (!TreeE->inRegion(U, C))
        continue; // Keep walking siblings in lockstep.

      if (C == U)
        return {CP, AlignFailure::None}; // Line 22: FirstStmt(r) == u.

      // Line 23: a predicate on the path to u must take the same branch.
      if (E.step(C).isPredicateInstance() &&
          E.step(C).BranchTaken != SP.BranchTaken)
        return {InvalidId, AlignFailure::BranchDiverged};

      R = C; // Line 24: descend one region level.
      RPrime = CP;
      Descended = true;
      break;
    }
    if (!Descended) {
      assert(false && "inRegion(U, R) held but no child contains U");
      return {InvalidId, AlignFailure::StaticMismatch};
    }
  }
}

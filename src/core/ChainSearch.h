//===-- core/ChainSearch.h - Multi-switch perturbation chains ----*- C++ -*-===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-switch perturbation chains (docs/chains.md; the paper's section
/// 5 observes that a single switch often cannot force the omitted code
/// because a second predicate downstream still blocks it -- the mini-gzip
/// fault needed several coordinated alterations).
///
/// When every single-switch verdict for a use comes back NOT_ID,
/// locateFault hands the candidate set to this search, which extends the
/// decision sequence breadth-first: from the base switch [p] it switches
/// one additional predicate instance chosen from the chained run's own
/// trace -- an instance that executes after the last decision fired and
/// is (transitively) control-dependent on a fired decision -- and asks
/// the verifier to classify the use against the multi-decision run. A
/// STRONG_ID chain wins immediately; the first ID chain is remembered as
/// a fallback. The committed dependence edge is (use -> p): the chain is
/// evidence that p's outcome (together with downstream outcomes it
/// gates) implicitly affects the use.
///
/// The search is serial and its exploration order is a pure function of
/// (trace, candidate order, depth, budget), so chain results -- and the
/// verify.chain.* counters -- are deterministic. Chained runs are cached
/// by the full decision sequence in the verifier; each resumes from the
/// original run's snapshots like a single switch.
///
//===----------------------------------------------------------------------===//

#ifndef EOE_CORE_CHAINSEARCH_H
#define EOE_CORE_CHAINSEARCH_H

#include "core/VerifyDep.h"

#include <vector>

namespace eoe {
namespace core {

/// Breadth-first multi-switch chain search over one failing execution.
/// One instance serves a whole locateFault invocation: the re-execution
/// budget is global across uses, so a pathological early use cannot be
/// retried ad infinitum while later uses starve.
class ChainSearch {
public:
  struct Result {
    bool Found = false;
    /// True when the winning chain produced the expected output at the
    /// wrong output's matched point (STRONG_ID); false for an ID chain.
    bool Strong = false;
    /// The chain's base predicate instance in the original trace -- the
    /// committed edge's source.
    TraceIdx BasePred = InvalidId;
    /// The full decision sequence, base first (size >= 2).
    std::vector<interp::SwitchDecision> Chain;
  };

  /// \p T must be the verifier's original failing trace. \p MaxDepth is
  /// the longest decision sequence tried (< 2 disables the search);
  /// \p Budget caps chained verifications across this object's lifetime.
  ChainSearch(ImplicitDepVerifier &Verifier, const interp::ExecutionTrace &T,
              unsigned MaxDepth, unsigned Budget);

  /// Searches for a chain rooted at one of \p Candidates (the use's
  /// single-switch candidate set, which must already have been verified
  /// -- the depth-1 traces come from the verifier's cache) that verifies
  /// (\p UseInst, \p UseLoad). Serial; deterministic.
  Result search(const std::vector<TraceIdx> &Candidates, TraceIdx UseInst,
                ExprId UseLoad);

  /// Chained verifications spent so far against the budget.
  size_t used() const { return Used; }

private:
  /// Extension candidates of a chained run: predicate instances in \p EP
  /// strictly after the last fired decision whose dynamic control-
  /// dependence chain reaches a fired decision, deduplicated per static
  /// statement (closest instance first), in trace order. Empty when some
  /// decision never fired.
  std::vector<TraceIdx>
  extensions(const interp::ResumedTrace &EP,
             const std::vector<interp::SwitchDecision> &Chain) const;

  ImplicitDepVerifier &Verifier;
  const interp::ExecutionTrace &T;
  unsigned MaxDepth;
  unsigned Budget;
  size_t Used = 0;
  support::StatCounter &Searches;
};

} // namespace core
} // namespace eoe

#endif // EOE_CORE_CHAINSEARCH_H

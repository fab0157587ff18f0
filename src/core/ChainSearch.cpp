//===-- core/ChainSearch.cpp - Multi-switch perturbation chains ---------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/ChainSearch.h"

#include <set>
#include <utility>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;

ChainSearch::ChainSearch(ImplicitDepVerifier &Verifier,
                         const ExecutionTrace &T, unsigned MaxDepth,
                         unsigned Budget)
    : Verifier(Verifier), T(T), MaxDepth(MaxDepth), Budget(Budget),
      // Registered eagerly (as locateFault does locate.chain.commits) so
      // the locate.chain.* keys are part of the stats surface whenever
      // chains are configured, searches attempted or not.
      Searches(Verifier.stats().counter("locate.chain.searches")) {}

std::vector<TraceIdx>
ChainSearch::extensions(const ResumedTrace &EP,
                        const std::vector<SwitchDecision> &Chain) const {
  // Locate each decision's fire step in the chained run. Instance
  // numbers are unique per statement within a trace, so one ascending
  // scan finds them all; decisions fire in chain order by construction,
  // the first at the run's switched step, so the scan starts there.
  const TraceIdx First = EP.switchedStep();
  const TraceIdx N = static_cast<TraceIdx>(EP.size());
  std::set<std::pair<StmtId, uint32_t>> Want;
  for (const SwitchDecision &D : Chain)
    Want.insert({D.Stmt, D.InstanceNo});
  std::vector<bool> IsFire(N - First, false);
  TraceIdx Last = InvalidId;
  size_t Fired = 0;
  for (TraceIdx I = First; I < N; ++I) {
    const StepRecord &S = EP.step(I);
    if (Want.count({S.Stmt, S.InstanceNo})) {
      IsFire[I - First] = true;
      Last = I;
      ++Fired;
    }
  }
  if (Fired != Want.size())
    return {}; // Some decision never fired: nothing sound to extend.

  // Predicate instances downstream of the chain: executed after the last
  // decision and controlled -- transitively -- by a fired decision. The
  // control-dependence restriction keeps the branching factor at the
  // predicates the chain itself exposed (switching an unrelated later
  // predicate is the job of that predicate's own candidate entry). An
  // ancestor before the first decision cannot be one, so each climb
  // stops there.
  std::set<StmtId> SeenStmt;
  std::vector<TraceIdx> Out;
  for (TraceIdx I = Last + 1; I < N; ++I) {
    const StepRecord &S = EP.step(I);
    if (!S.isPredicateInstance() || SeenStmt.count(S.Stmt))
      continue;
    bool Related = false;
    for (TraceIdx A = S.CdParent; A != InvalidId && A >= First;
         A = EP.step(A).CdParent) {
      if (IsFire[A - First]) {
        Related = true;
        break;
      }
    }
    if (!Related)
      continue;
    SeenStmt.insert(S.Stmt);
    Out.push_back(I);
  }
  return Out;
}

ChainSearch::Result ChainSearch::search(const std::vector<TraceIdx> &Candidates,
                                        TraceIdx UseInst, ExprId UseLoad) {
  Result Fallback;
  if (MaxDepth < 2 || Used >= Budget)
    return Fallback;
  Searches.add();

  for (TraceIdx P : Candidates) {
    const StepRecord &PS = T.step(P);
    std::vector<std::vector<SwitchDecision>> Frontier;
    Frontier.push_back({{PS.Stmt, PS.InstanceNo, /*Perturb=*/false,
                         /*Value=*/0}});
    for (unsigned Depth = 2; Depth <= MaxDepth && !Frontier.empty(); ++Depth) {
      std::vector<std::vector<SwitchDecision>> Next;
      for (const std::vector<SwitchDecision> &Chain : Frontier) {
        // Depth-1 traces come from the single-switch cache (computed by
        // the verdict pass that triggered this search); deeper ones from
        // the chain cache.
        const ResumedTrace *EP = Chain.size() == 1
                                     ? Verifier.switchedRun(P)
                                     : &Verifier.chainTrace(P, Chain);
        if (!EP || EP->exit() != ExitReason::Finished ||
            EP->switchedStep() == InvalidId)
          continue;
        for (TraceIdx Ext : extensions(*EP, Chain)) {
          if (Used >= Budget)
            return Fallback;
          const StepRecord &ES = EP->step(Ext);
          std::vector<SwitchDecision> NewChain = Chain;
          NewChain.push_back({ES.Stmt, ES.InstanceNo, /*Perturb=*/false,
                              /*Value=*/0});
          ++Used;
          DepVerdict V = Verifier.verifyChain(P, NewChain, UseInst, UseLoad);
          if (V == DepVerdict::StrongImplicit) {
            Result R;
            R.Found = true;
            R.Strong = true;
            R.BasePred = P;
            R.Chain = std::move(NewChain);
            return R;
          }
          if (V == DepVerdict::Implicit && !Fallback.Found) {
            Fallback.Found = true;
            Fallback.BasePred = P;
            Fallback.Chain = NewChain;
          }
          Next.push_back(std::move(NewChain));
        }
      }
      Frontier = std::move(Next);
    }
  }
  return Fallback;
}

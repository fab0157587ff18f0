//===-- core/LocateFault.cpp - Demand-driven fault location -------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "core/LocateFault.h"

#include "core/ChainSearch.h"

#include <deque>
#include <memory>

using namespace eoe;
using namespace eoe::core;
using namespace eoe::interp;
using namespace eoe::slicing;

LocateReport eoe::core::locateFault(const lang::Program &Prog,
                                    ddg::DepGraph &G,
                                    const PotentialDepAnalyzer &PD,
                                    ImplicitDepVerifier &Verifier,
                                    const ValueProfile *Values,
                                    const OutputVerdicts &V, Oracle &O,
                                    const LocateConfig &Config,
                                    const eoe::Options &Opt) {
  const ExecutionTrace &T = G.trace();
  LocateReport Report;

  // One registry serves the whole locate pipeline: the verifier's
  // configured registry (or its private fallback), so Table 3 counters
  // and the per-round breakdown land next to each other.
  support::StatsRegistry &Reg = Verifier.stats();
  support::EventTracer *Tracer = Verifier.tracer();
  support::EventTracer::Span LocateSpan(Tracer, "locate", "core");
  support::ScopedTimer LocateTimed(&Reg.timer("locate.total_time"));
  // The registry may be shared across sessions: report this call's work.
  const size_t VerificationsBefore = Verifier.verificationCount();
  const size_t ReexecutionsBefore = Verifier.reexecutionCount();
  support::StatTimer &PruneTime = Reg.timer("slicing.prune_time");
  // Handles of the metrics a call may never reach, each resolved on its
  // first use here (a lookup takes the registry's mutex, and a metric the
  // call does not reach stays unregistered).
  support::StatTimer *RoundTime = nullptr;
  support::StatCounter *Rounds = nullptr;
  support::StatCounter *CandidateRequests = nullptr;
  support::StatHistogram *CandidatesPerUse = nullptr;
  support::StatCounter *FanoutRequestCount = nullptr;

  // Multi-switch perturbation chains (docs/chains.md): when every
  // single-switch verdict for a use comes back NOT_ID, the search below
  // extends the decision sequence. One object for the whole procedure:
  // the re-execution budget is global across uses and rounds.
  std::unique_ptr<ChainSearch> Chains;
  support::StatCounter *ChainCommits = nullptr;
  if (Opt.Reuse.ChainDepth >= 2) {
    Chains = std::make_unique<ChainSearch>(Verifier, T, Opt.Reuse.ChainDepth,
                                           Opt.Reuse.ChainBudget);
    ChainCommits = &Reg.counter("locate.chain.commits");
  }

  support::EventTracer::Span FirstPruneSpan(Tracer, "prune", "slicing");
  support::ScopedTimer FirstPruneTimed(&PruneTime);
  support::ScopedTimer BuildTimed(&Reg.timer("slicing.build_time"));
  ConfidenceAnalysis CA(Prog, G, Values, V);
  BuildTimed.stop();
  PruneState Prune;
  std::vector<TraceIdx> Ranked = pruneSlicing(CA, O, Prune, &Reg);
  FirstPruneTimed.stop();
  FirstPruneSpan.end();

  // Verified-but-uncommitted expansions, and per use of the trace (its
  // position in T.Uses) its entry in Pool and whether it was committed.
  // A step's uses read distinct loads, so a position names one
  // (instance, load) pair.
  struct VerifiedUse {
    TraceIdx Use = InvalidId;
    size_t Pos = 0;
    std::vector<TraceIdx> Strong;
    std::vector<TraceIdx> Plain;
  };
  constexpr uint32_t NotVerified = UINT32_MAX;
  std::vector<VerifiedUse> Pool;
  std::vector<uint32_t> PoolSlot(T.Uses.size(), NotVerified);
  std::vector<bool> Committed(T.Uses.size(), false);

  while (!Prune.RootCauseFound && Report.Iterations < Config.MaxIterations) {
    support::EventTracer::Span RoundSpan(Tracer, "locate.round", "core");
    if (!RoundTime)
      RoundTime = &Reg.timer("locate.round_time");
    support::ScopedTimer RoundTimed(RoundTime);
    // Sweep the pruned slice's uses in rank order, verifying each use's
    // candidate predicates. Strong implicit dependences override plain
    // ones (Algorithm 2 lines 10-11); the sweep commits the first use
    // with strong evidence, or -- when no strong dependence exists
    // anywhere in the candidate set -- the highest-ranked use with plain
    // evidence. ToCommit and FirstPlain index Pool, which the sweep grows.
    uint32_t ToCommit = NotVerified;
    uint32_t FirstPlain = NotVerified;
    for (TraceIdx I : Ranked) {
      for (const UseRecord &Use : T.uses(I)) {
        const size_t Pos = &Use - T.Uses.data();
        if (Committed[Pos])
          continue;
        if (PoolSlot[Pos] == NotVerified) {
          VerifiedUse VU;
          VU.Use = I;
          VU.Pos = Pos;
          support::EventTracer::Span QuerySpan(Tracer, "pd.query", "slicing");
          std::vector<TraceIdx> Candidates =
              PD.compute(I, Use, Config.OnePerPredicate);
          QuerySpan.end();
          if (!CandidateRequests) {
            CandidateRequests = &Reg.counter("locate.candidate_requests");
            CandidatesPerUse = &Reg.histogram("locate.candidates_per_use");
          }
          CandidateRequests->add(Candidates.size());
          CandidatesPerUse->record(Candidates.size());
          for (TraceIdx P : Candidates) {
            switch (Verifier.verify(P, I, Use.LoadExpr)) {
            case DepVerdict::StrongImplicit:
              VU.Strong.push_back(P);
              break;
            case DepVerdict::Implicit:
              VU.Plain.push_back(P);
              break;
            case DepVerdict::NotImplicit:
              break;
            }
          }
          // Single-switch evidence exhausted: extend into multi-switch
          // chains. A winning chain commits its base predicate: the
          // chain is evidence that the base's outcome implicitly affects
          // the use.
          if (Chains && VU.Strong.empty() && VU.Plain.empty() &&
              !Candidates.empty()) {
            ChainSearch::Result CR =
                Chains->search(Candidates, I, Use.LoadExpr);
            if (CR.Found) {
              (CR.Strong ? VU.Strong : VU.Plain).push_back(CR.BasePred);
              ChainCommits->add();
            }
          }
          PoolSlot[Pos] = static_cast<uint32_t>(Pool.size());
          Pool.push_back(std::move(VU));
        }
        const VerifiedUse &VU = Pool[PoolSlot[Pos]];
        if (!VU.Strong.empty()) {
          ToCommit = PoolSlot[Pos];
          break;
        }
        if (FirstPlain == NotVerified && !VU.Plain.empty())
          FirstPlain = PoolSlot[Pos];
      }
      if (ToCommit != NotVerified)
        break;
    }
    if (ToCommit == NotVerified)
      ToCommit = FirstPlain;
    if (ToCommit == NotVerified)
      break; // No verifiable dependence left: the procedure failed.

    ++Report.Iterations;
    if (!Rounds)
      Rounds = &Reg.counter("locate.rounds");
    Rounds->add();
    const VerifiedUse &Commit = Pool[ToCommit];
    Committed[Commit.Pos] = true;
    bool UseStrong = !Commit.Strong.empty();
    const std::vector<TraceIdx> &Winners =
        UseStrong ? Commit.Strong : Commit.Plain;

    // Add the verified edges. The fanout of Algorithm 2 lines 12-18
    // additionally verifies p -> t for other potential dependents t of
    // each winning predicate; per Figure 5 its purpose is to let
    // *verified-correct* dependents sanitize p during re-pruning, so only
    // those targets are considered. The slice and the verdicts of the
    // confidence analysis stay fixed until the re-prune below, so the
    // edges added here do not change which targets are tested.
    const std::vector<bool> &Slice = CA.wrongOutputSlice();
    size_t FanoutRequests = 0;
    support::EventTracer::Span FanoutSpan(Tracer, "locate.fanout", "core");
    for (TraceIdx P : Winners) {
      G.addImplicitEdge(Commit.Use, P, UseStrong);
      ++Report.ExpandedEdges;
      if (UseStrong)
        ++Report.StrongEdges;
      if (!Config.VerifyFanout)
        continue;
      for (TraceIdx TInst = 0; TInst < T.size(); ++TInst) {
        if (TInst == Commit.Use || !Slice[TInst] ||
            !CA.inferredCorrect(TInst))
          continue;
        for (const UseRecord &Use : T.uses(TInst)) {
          if (!PD.isPotentialDep(P, TInst, Use))
            continue;
          ++FanoutRequests;
          DepVerdict Verdict = Verifier.verify(P, TInst, Use.LoadExpr);
          if (UseStrong ? Verdict == DepVerdict::StrongImplicit
                        : Verdict == DepVerdict::Implicit) {
            G.addImplicitEdge(TInst, P, UseStrong);
            ++Report.ExpandedEdges;
            if (UseStrong)
              ++Report.StrongEdges;
          }
        }
      }
    }
    FanoutSpan.end();
    if (Config.VerifyFanout) {
      if (!FanoutRequestCount)
        FanoutRequestCount = &Reg.counter("locate.fanout_requests");
      FanoutRequestCount->add(FanoutRequests);
    }

    // Re-prune with the expanded graph (Algorithm 2 line 19).
    {
      support::EventTracer::Span PruneSpan(Tracer, "prune", "slicing");
      support::ScopedTimer PruneTimed(&PruneTime);
      Ranked = pruneSlicing(CA, O, Prune, &Reg);
    }
  }

  Report.RootCauseFound = Prune.RootCauseFound;
  Reg.counter("locate.expanded_edges").add(Report.ExpandedEdges);
  Reg.counter("locate.strong_edges").add(Report.StrongEdges);
  Reg.histogram("locate.final_slice_size").record(Ranked.size());
  Report.UserPrunings = Prune.UserPrunings;
  Report.Verifications = Verifier.verificationCount() - VerificationsBefore;
  Report.Reexecutions = Verifier.reexecutionCount() - ReexecutionsBefore;
  Report.FinalPrunedSlice = Ranked;
  std::vector<bool> Member(T.size(), false);
  for (TraceIdx I : Ranked)
    Member[I] = true;
  Report.IPSStats = G.stats(Member);
  return Report;
}

std::vector<bool>
eoe::core::failureInducingChain(const ddg::DepGraph &G, StmtId RootCause,
                                const OutputVerdicts &V) {
  const ExecutionTrace &T = G.trace();

  // The paper's OS is the failure-inducing dependence *chain* -- a thin
  // path from the root cause to the failure, identified manually. We
  // reconstruct it as a shortest backward dependence path from the wrong
  // output to an instance of the root cause over the expanded graph
  // (data, control, and verified implicit edges).
  std::vector<TraceIdx> Parent(T.size(), InvalidId);
  std::vector<bool> Seen(T.size(), false);
  std::deque<TraceIdx> Work;
  TraceIdx Start = T.Outputs.at(V.WrongOutput).Step;
  Seen[Start] = true;
  Work.push_back(Start);
  TraceIdx Hit = InvalidId;

  auto Visit = [&](TraceIdx From, TraceIdx To) {
    if (To == InvalidId || Seen[To])
      return;
    Seen[To] = true;
    Parent[To] = From;
    Work.push_back(To);
  };

  while (!Work.empty() && Hit == InvalidId) {
    TraceIdx I = Work.front();
    Work.pop_front();
    if (T.step(I).Stmt == RootCause) {
      Hit = I;
      break;
    }
    const StepRecord &Step = T.step(I);
    for (const UseRecord &Use : T.uses(Step))
      Visit(I, Use.Def);
    Visit(I, Step.CdParent);
    for (TraceIdx Pred : G.implicitPredsOf(I))
      Visit(I, Pred);
  }

  std::vector<bool> Chain(T.size(), false);
  if (Hit == InvalidId) {
    // No dependence path (e.g. before locate() has added the implicit
    // edges): fall back to the forward/backward intersection.
    ddg::DepGraph::ClosureOptions All;
    std::vector<TraceIdx> Roots;
    for (TraceIdx I = 0; I < T.size(); ++I)
      if (T.step(I).Stmt == RootCause)
        Roots.push_back(I);
    std::vector<bool> Forward = G.forwardClosure(Roots, All);
    std::vector<bool> Backward = G.backwardClosure({Start}, All);
    for (TraceIdx I = 0; I < T.size(); ++I)
      Chain[I] = Forward[I] && Backward[I];
    return Chain;
  }
  for (TraceIdx I = Hit; I != InvalidId; I = Parent[I])
    Chain[I] = true;
  return Chain;
}

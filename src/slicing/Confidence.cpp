//===-- slicing/Confidence.cpp - Confidence analysis --------------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "slicing/Confidence.h"

#include "slicing/Invertibility.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

using namespace eoe;
using namespace eoe::interp;
using namespace eoe::slicing;

namespace {

/// True for the instances the print rule of ConfidenceAnalysis::verdict
/// judges by the definitions they read.
bool isPrintVerdict(const lang::Program &Prog, const StepRecord &Step) {
  return Step.NumDefs == 0 && Step.NumUses != 0 &&
         Prog.statement(Step.Stmt)->kind() == lang::Stmt::Kind::Print;
}

} // namespace

ConfidenceAnalysis::ConfidenceAnalysis(const lang::Program &Prog,
                                       const ddg::DepGraph &G,
                                       const ValueProfile *Values,
                                       const OutputVerdicts &V, Options Opts,
                                       const std::vector<TraceIdx> &BenignMarks,
                                       const std::vector<bool> &Corrupted)
    : Prog(Prog), G(G), Values(Values), V(V), Opts(Opts) {
  const ExecutionTrace &T = G.trace();
  DefBegin.reserve(T.size() + 1);
  DefBegin.push_back(0);
  for (TraceIdx I = 0; I < T.size(); ++I)
    DefBegin.push_back(DefBegin.back() +
                       T.step(I).NumDefs);
  for (TraceIdx I = 0; I < T.size(); ++I) {
    if (!isPrintVerdict(Prog, T.step(I)))
      continue;
    for (const UseRecord &Use : T.uses(I)) {
      uint32_t Slot = defSlot(Use.Def, Use.Loc.Raw);
      if (Slot != NoSlot)
        PrintReaders.Pairs.push_back({Slot, I});
    }
  }
  PrintReaders.sort();

  ddg::DepGraph::ClosureOptions All;
  WrongSlice =
      G.backwardClosure({T.Outputs.at(V.WrongOutput).Step}, All, &Depth);
  std::vector<TraceIdx> CorrectSeeds;
  for (size_t O : V.CorrectOutputs)
    CorrectSeeds.push_back(T.Outputs.at(O).Step);
  ReachesCorrect = G.backwardClosure(CorrectSeeds, All);
  EdgesSeen = G.implicitEdges().size();
  for (const ddg::DepGraph::ImplicitEdge &E : G.implicitEdges())
    ImplicitDependents.Pairs.push_back({E.Pred, E.Use});
  ImplicitDependents.sort();

  UserBenign.assign(T.size(), false);
  for (TraceIdx B : BenignMarks)
    UserBenign[B] = true;
  // Instances pinned as corrupted: the user's verdict (or the wrong
  // output itself) overrides any inference from the values they read.
  Pinned = Corrupted;
  Pinned.resize(T.size(), false);
  Pinned[T.Outputs.at(V.WrongOutput).Step] = true;

  Rekey.assign(T.size(), false);
  RangeConfidence.assign(Prog.statements().size(), -1.0);
  inferCorrectValues();
  rankAll();
}

void ConfidenceAnalysis::update() {
  const std::vector<ddg::DepGraph::ImplicitEdge> &Edges = G.implicitEdges();
  if (Edges.size() == EdgesSeen)
    return;
  // Edges are only ever added, and adding one only grows a closure.
  std::vector<TraceIdx> Changed;
  G.extendBackwardClosure(WrongSlice, &Depth, EdgesSeen, &Changed);
  G.extendBackwardClosure(ReachesCorrect, nullptr, EdgesSeen, &Changed);
  for (size_t K = EdgesSeen; K < Edges.size(); ++K)
    ImplicitDependents.Pairs.push_back({Edges[K].Pred, Edges[K].Use});
  ImplicitDependents.sort();
  EdgesSeen = Edges.size();

  // The verified definitions and the verdicts before the Figure 5 rule
  // read the marks and pins alone. The rule is the one place edges
  // enter, and not monotonically: a new edge from a dependent that is
  // not correct withdraws a sanitization.
  rederiveSanitized(&Changed);

  // A key reads the instance's membership, depth, reach and verdict
  // alone, so the instances reported above are the only ones whose key
  // or candidacy the edges changed.
  std::vector<RankKey> Fresh;
  for (TraceIdx I : Changed) {
    if (Rekey[I])
      continue;
    Rekey[I] = true;
    if (WrongSlice[I] && !Correct[I])
      Fresh.push_back(keyOf(I));
  }
  rank(std::move(Fresh));
  for (TraceIdx I : Changed)
    Rekey[I] = false;
}

void ConfidenceAnalysis::markBenign(TraceIdx I) {
  assert(EdgesSeen == G.implicitEdges().size() && "update() first");
  UserBenign[I] = true;
  // The new mark and the definitions it verifies only add facts, so the
  // verdicts that can flip are those of the instances that read a newly
  // verified fact -- and they can only flip to correct.
  std::vector<TraceIdx> Affected{I};
  PropagationWork Work;
  seedBenign(I, Work, &Affected);
  propagate(Work, &Affected);

  std::vector<TraceIdx> NewlyCorrect;
  for (TraceIdx A : Affected) {
    if (!Correct[A] && verdict(A)) {
      Correct[A] = true;
      NewlyCorrect.push_back(A);
    }
  }
  if (NewlyCorrect.empty())
    return;
  sanitizePredicates(NewlyCorrect);
  PrunedStale = true;
}

void ConfidenceAnalysis::markCorrupted(TraceIdx I) {
  assert(EdgesSeen == G.implicitEdges().size() && "update() first");
  Pinned[I] = true;
  if (!Correct[I])
    return;
  // Withdrawing a conclusion is not monotone: start over.
  inferCorrectValues();
  rankAll();
}

namespace {

/// The expression whose evaluation produced \p Step's definition number
/// \p DefIdx: the statement's value root for its own definition, or the
/// corresponding argument expression for a callee-parameter store. Null
/// when the def cannot be attributed (e.g. short-circuiting skipped a
/// call, making the def layout ambiguous).
const lang::Expr *rootExprForDef(const lang::Program &Prog,
                                 const StepRecord &Step, size_t DefIdx) {
  const lang::Stmt *S = Prog.statement(Step.Stmt);
  std::vector<const lang::CallExpr *> Calls;
  for (const lang::Expr *Root : evaluatedRoots(S))
    collectCallsPostorder(Root, Calls);

  // Expected layout: per call, one def per argument (parameter stores),
  // then the statement's own definition if it has one.
  const lang::Expr *Own = valueRoot(S);
  bool HasOwnDef = Own != nullptr || S->kind() == lang::Stmt::Kind::Return;
  size_t Expected = HasOwnDef ? 1 : 0;
  for (const lang::CallExpr *Call : Calls)
    Expected += Call->args().size();
  if (Expected != Step.NumDefs) {
    // Short-circuit skipped some call: fall back to trusting only the
    // final (own) definition.
    if (HasOwnDef && DefIdx + 1 == Step.NumDefs)
      return Own;
    return nullptr;
  }

  size_t Cursor = 0;
  for (const lang::CallExpr *Call : Calls) {
    if (DefIdx < Cursor + Call->args().size())
      return Call->args()[DefIdx - Cursor];
    Cursor += Call->args().size();
  }
  return Own; // The statement's own definition.
}

} // namespace

uint32_t ConfidenceAnalysis::defSlot(TraceIdx Def, uint64_t LocRaw) const {
  if (Def == InvalidId)
    return NoSlot;
  // A location an instance writes twice is one fact: the first slot.
  std::span<const DefRecord> Defs = G.trace().defs(Def);
  for (size_t K = 0; K < Defs.size(); ++K)
    if (Defs[K].Loc.Raw == LocRaw)
      return DefBegin[Def] + static_cast<uint32_t>(K);
  // A use naming a definer that did not write the location read carries
  // no verifiable value.
  return NoSlot;
}

void ConfidenceAnalysis::markDefCorrect(TraceIdx Def, uint64_t LocRaw,
                                        PropagationWork &Work,
                                        std::vector<TraceIdx> *Affected) {
  uint32_t Slot = defSlot(Def, LocRaw);
  if (Slot == NoSlot || DefCorrect[Slot])
    return;
  DefCorrect[Slot] = true;
  if (Affected) {
    Affected->push_back(Def);
    for (auto [S, Print] : PrintReaders.keyed(Slot))
      Affected->push_back(Print);
  }
  // Propagate backward through the expression that produced this
  // definition (the value root, or the argument expression of a
  // parameter store -- the interprocedural case).
  const lang::Expr *Root =
      rootExprForDef(Prog, G.trace().step(Def), Slot - DefBegin[Def]);
  if (Root)
    Work.push_back({Def, Root});
}

void ConfidenceAnalysis::seedBenign(TraceIdx B, PropagationWork &Work,
                                    std::vector<TraceIdx> *Affected) {
  // A user-declared benign instance's definitions carry correct values.
  for (const DefRecord &D : G.trace().defs(B))
    markDefCorrect(B, D.Loc.Raw, Work, Affected);
}

void ConfidenceAnalysis::propagate(PropagationWork &Work,
                                   std::vector<TraceIdx> *Affected) {
  // Backward propagation through invertible value expressions, across
  // call boundaries via parameter-store roots.
  const ExecutionTrace &T = G.trace();
  while (!Work.empty()) {
    auto [I, Root] = Work.back();
    Work.pop_back();
    for (const UseRecord &Use : T.uses(I))
      if (exprContains(Root, Use.LoadExpr) &&
          invertiblePath(Root, Use.LoadExpr))
        markDefCorrect(Use.Def, Use.Loc.Raw, Work, Affected);
  }
}

bool ConfidenceAnalysis::verdict(TraceIdx I) const {
  if (Pinned[I])
    return false;
  if (UserBenign[I])
    return true;
  const ExecutionTrace &T = G.trace();
  const StepRecord &Step = T.step(I);
  if (Step.NumDefs != 0)
    return defCorrect(I, T.defs(Step).back().Loc.Raw);
  // Print instances: the emitted values ARE the used values, so a print
  // whose observed values are all verified is correct. The same
  // inference is deliberately NOT applied to predicates: a predicate can
  // be the fault itself (a mutated condition computes a wrong branch
  // from perfectly correct inputs -- e.g. the seeded boundary-condition
  // faults), so correct inputs must not sanitize it. Predicates are only
  // pruned via user marks or the Figure 5 implicit-dependent rule.
  if (!isPrintVerdict(Prog, Step))
    return false;
  for (const UseRecord &Use : T.uses(Step))
    if (!defCorrect(Use.Def, Use.Loc.Raw))
      return false;
  return true;
}

void ConfidenceAnalysis::sanitizePredicates(std::vector<TraceIdx> &Work) {
  // Figure 5: verified implicit dependents that are all correct sanitize
  // their predicate. A predicate's last dependent to become correct is
  // on the worklist when that happens, so the worklist reaches the least
  // fixpoint.
  if (!Opts.PropagateAcrossImplicit)
    return;
  while (!Work.empty()) {
    TraceIdx Dependent = Work.back();
    Work.pop_back();
    for (TraceIdx P : G.implicitPredsOf(Dependent)) {
      if (Correct[P] || Pinned[P])
        continue;
      auto IsCorrect = [this](auto Edge) { return Correct[Edge.second]; };
      if (std::ranges::all_of(ImplicitDependents.keyed(P), IsCorrect)) {
        Correct[P] = true;
        Work.push_back(P);
      }
    }
  }
}

void ConfidenceAnalysis::inferCorrectValues() {
  const ExecutionTrace &T = G.trace();
  DefCorrect.assign(DefBegin.back(), false);
  PropagationWork Work;

  // Seeds from correct outputs: an output value known correct verifies
  // the defs feeding it through one-to-one argument expressions.
  for (size_t O : V.CorrectOutputs) {
    const OutputEvent &E = T.Outputs.at(O);
    const auto *P = cast<lang::PrintStmt>(Prog.statement(T.step(E.Step).Stmt));
    const lang::Expr *Root = P->args().at(E.ArgNo);
    for (const UseRecord &Use : T.uses(E.Step))
      if (exprContains(Root, Use.LoadExpr) &&
          invertiblePath(Root, Use.LoadExpr))
        markDefCorrect(Use.Def, Use.Loc.Raw, Work, nullptr);
  }
  for (TraceIdx B = 0; B < T.size(); ++B)
    if (UserBenign[B])
      seedBenign(B, Work, nullptr);
  propagate(Work, nullptr);

  Correct.assign(T.size(), false);
  for (TraceIdx I = 0; I < T.size(); ++I)
    Correct[I] = verdict(I);
  rederiveSanitized();
}

void ConfidenceAnalysis::rederiveSanitized(std::vector<TraceIdx> *Flipped) {
  // Only a predicate with an implicit dependent can be sanitized, and
  // every other instance's verdict stands. The resets come first, so a
  // dependent that is itself such a predicate is judged by its verdict.
  std::vector<std::pair<TraceIdx, bool>> Before;
  for (auto [P, Dependent] : ImplicitDependents.Pairs) {
    if (Flipped && (Before.empty() || Before.back().first != P))
      Before.push_back({P, Correct[P]});
    Correct[P] = verdict(P);
  }
  std::vector<TraceIdx> CorrectDependents;
  for (auto [P, Dependent] : ImplicitDependents.Pairs)
    if (Correct[Dependent])
      CorrectDependents.push_back(Dependent);
  sanitizePredicates(CorrectDependents);
  for (auto [P, Was] : Before)
    if (Correct[P] != Was)
      Flipped->push_back(P);
}

double ConfidenceAnalysis::confidence(TraceIdx I) const {
  if (I >= WrongSlice.size() || !WrongSlice[I])
    return 1.0;
  if (Correct[I])
    return 1.0;
  if (!ReachesCorrect[I])
    return 0.0;
  // Reaches a correct output through a many-to-one mapping: confidence
  // grows with the statement's observed value range (PLDI'06's
  // 1 - log|alt| / log|range| with |alt| unresolvable from profiles
  // alone; calibrated so richer ranges give more credit but never 1).
  // It depends on the statement alone: computed on its first use.
  StmtId Stmt = G.trace().step(I).Stmt;
  double &C = RangeConfidence[Stmt];
  if (C < 0) {
    double Range = 2.0;
    if (Values)
      Range = std::max<double>(2.0,
                               static_cast<double>(Values->rangeSize(Stmt)));
    C = 0.5 + 0.5 * (1.0 - 1.0 / std::log2(Range + 2.0));
  }
  return C;
}

const std::vector<TraceIdx> &ConfidenceAnalysis::prunedSlice() const {
  if (PrunedStale) {
    Pruned.clear();
    std::ranges::copy_if(Ranked, std::back_inserter(Pruned),
                         [this](TraceIdx I) { return !Correct[I]; });
    PrunedStale = false;
  }
  return Pruned;
}

void ConfidenceAnalysis::rank(std::vector<RankKey> Fresh) {
  // The key is a total order and no kept key changed, so the merge is
  // the order a full sort of the candidates would give.
  std::sort(Fresh.begin(), Fresh.end());
  std::vector<TraceIdx> Merged;
  Merged.reserve(Ranked.size() + Fresh.size());
  auto F = Fresh.begin();
  for (TraceIdx I : Ranked) {
    if (Rekey[I] || Correct[I])
      continue;
    RankKey Kept = keyOf(I);
    for (; F != Fresh.end() && *F < Kept; ++F)
      Merged.push_back(F->I);
    Merged.push_back(I);
  }
  for (; F != Fresh.end(); ++F)
    Merged.push_back(F->I);
  Ranked = std::move(Merged);
  PrunedStale = true;
}

void ConfidenceAnalysis::rankAll() {
  std::vector<RankKey> Fresh;
  for (TraceIdx I = 0; I < WrongSlice.size(); ++I)
    if (WrongSlice[I] && !Correct[I])
      Fresh.push_back(keyOf(I));
  Ranked.clear();
  rank(std::move(Fresh));
}

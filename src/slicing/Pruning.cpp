//===-- slicing/Pruning.cpp - Interactive slice pruning -----------------------===//
//
// Part of the EOE project, a reproduction of "Towards Locating Execution
// Omission Errors" (Zhang, Tallam, Gupta, Gupta; PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "slicing/Pruning.h"

#include <algorithm>

using namespace eoe;
using namespace eoe::slicing;

std::vector<TraceIdx> eoe::slicing::pruneSlicing(ConfidenceAnalysis &CA,
                                                 Oracle &O, PruneState &State,
                                                 support::StatsRegistry *Stats) {
  using support::StatsRegistry;
  const interp::ExecutionTrace &T = CA.trace();

  // Edges only change between sessions (Algorithm 2 line 19): absorb
  // them once, then fold each answer below into the analysis.
  StatsRegistry::add(Stats, "slicing.prune_rounds");
  {
    support::ScopedTimer Timed(
        Stats ? &Stats->timer("slicing.update_time") : nullptr);
    CA.update();
  }
  const std::vector<TraceIdx> &Order = CA.rankOrder();

  // Answers are tallied here and flushed once (a registry lookup takes
  // a lock); a counter is only created once it has something to count.
  size_t Benign = 0, Corrupted = 0;
  auto Finish = [&] {
    if (Benign + Corrupted)
      StatsRegistry::add(Stats, "slicing.oracle_queries", Benign + Corrupted);
    if (Benign)
      StatsRegistry::add(Stats, "slicing.benign_marks", Benign);
    if (Corrupted)
      StatsRegistry::add(Stats, "slicing.corrupted_marks", Corrupted);
    const std::vector<TraceIdx> &Ranked = CA.prunedSlice();
    StatsRegistry::sample(Stats, "slicing.pruned_slice_size", Ranked.size());
    return Ranked;
  };

  // The session ends as soon as the programmer recognizes the root
  // cause among the presented candidates. Answers only ever remove
  // candidates, so one look suffices, and it is the session's verdict.
  State.RootCauseFound = std::ranges::any_of(Order, [&](TraceIdx I) {
    return !CA.inferredCorrect(I) && O.isRootCause(T.step(I).Stmt);
  });
  if (State.RootCauseFound)
    return Finish();

  // Answers leave the order as it is, and the cursor passes every
  // instance it asks about, so no question comes back: a benign answer
  // that cannot make its instance correct (the wrong output is always
  // pinned) leaves that instance in the slice instead of asking again.
  // Known-corrupted candidates are never inferred correct, so once the
  // cursor passes them they stay in front of it: the next question is
  // always the first candidate after the last one asked that is neither
  // known corrupted nor inferred correct.
  std::vector<bool> &Known = State.KnownCorrupted;
  Known.resize(T.size(), false);
  size_t Cursor = 0;
  while (true) {
    while (Cursor < Order.size() &&
           (Known[Order[Cursor]] || CA.inferredCorrect(Order[Cursor])))
      ++Cursor;
    if (Cursor == Order.size()) // Everything left is known corrupted or
      return Finish();          // was asked about: minimal slice.

    TraceIdx Next = Order[Cursor++];
    if (O.isBenign(Next)) {
      ++Benign;
      State.BenignMarks.push_back(Next);
      // One user interaction covers a statement; later instances of the
      // same statement are vouched for by the same act of understanding.
      StmtId Stmt = T.step(Next).Stmt;
      if (Stmt >= State.BenignStmts.size())
        State.BenignStmts.resize(Stmt + 1, false);
      if (!State.BenignStmts[Stmt]) {
        State.BenignStmts[Stmt] = true;
        ++State.UserPrunings;
      }
      CA.markBenign(Next); // Benign feedback enables more automatic pruning.
      continue;
    }
    ++Corrupted;
    Known[Next] = true;
    CA.markCorrupted(Next); // Free: Next is not inferred correct.
  }
}
